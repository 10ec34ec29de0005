type config = {
  threshold : float;
  rescue_margin : float;
  max_rescues : int;
}

let default_rescue_margin = 2.0
let default_max_rescues = 4

let config ?(rescue_margin = default_rescue_margin)
    ?(max_rescues = default_max_rescues) ~margin prog =
  let threshold =
    Halo.Noise_budget.threshold ~margin (Halo.Noise_budget.analyze prog)
  in
  if not (threshold > 0.0) then
    invalid_arg "Noise_monitor.config: threshold must be positive";
  if not (rescue_margin >= 1.0) then
    invalid_arg "Noise_monitor.config: rescue margin below 1";
  if max_rescues < 0 then
    invalid_arg "Noise_monitor.config: negative rescue budget";
  { threshold; rescue_margin; max_rescues }

type rescue_event = {
  r_seq : int;
  r_target : int;
  r_before : float;
  r_after : float;
}

module Make (B : Backend.S) = struct
  type t = {
    cfg : config;
    stats : Stats.t;
    on_rescue : rescue_event -> unit;
    floor : float;
        (* the bootstrap unit: a rescue resets the estimate to this, so
           estimates at or below it cannot be improved by bootstrapping *)
  }

  let create ?(on_rescue = fun (_ : rescue_event) -> ()) ~cfg ~stats () =
    {
      cfg;
      stats;
      on_rescue;
      floor = Halo_cost.Noise_units.(default.bootstrap);
    }

  let headroom t est = if est <= 0.0 then infinity else t.cfg.threshold /. est
  let pressured t est = headroom t est < t.cfg.rescue_margin

  (* Loop-head check of one carried ciphertext.  Every decision is a pure
     function of the ciphertext's estimate and the checkpointed statistics
     (the rescue budget counts restored rescues), so a killed-and-resumed
     run replays the identical rescue sequence. *)
  let check_ct t st ct =
    let est = B.noise_estimate st ct in
    if not (pressured t est) then ct
    else if t.stats.Stats.rescues >= t.cfg.max_rescues || est <= t.floor then
    begin
      Stats.record_rescue_abort t.stats;
      ct
    end
    else begin
      let target = B.level st ct in
      let before = est in
      let seq = t.stats.Stats.rescues in
      let r = B.bootstrap st ct ~target in
      Stats.record_rescue t.stats ~target;
      t.on_rescue
        { r_seq = seq; r_target = target; r_before = before;
          r_after = B.noise_estimate st r };
      r
    end

  (* Planned-bootstrap site: the program is about to reset this
     ciphertext's noise anyway, so a rescue here would be pure waste —
     count the pressure as a declined rescue instead of firing one. *)
  let at_bootstrap t st ct ~target:_ =
    if pressured t (B.noise_estimate st ct) then
      Stats.record_rescue_abort t.stats
end

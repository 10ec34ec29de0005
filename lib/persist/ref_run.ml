module Ref_backend = Halo_ckks.Ref_backend
module Stats = Halo_runtime.Stats
module Guard = Halo_runtime.Guard
module Faulty = Halo_runtime.Faults.Make (Ref_backend)
module Rec = Recovery.Make (Faulty)
module R = Rec.R
module I = R.I

exception Simulated_crash of { writes : int }

let manifest_path dir = Filename.concat dir "manifest.halo"
let journal_dir dir = Filename.concat dir "journal"

let default_backend ?(seed = 0xB00) ~slots ~max_level () =
  {
    Codec.slots;
    max_level;
    scale_bits = 51;
    seed;
    enc_noise = 1e-7;
    mult_noise = 1e-8;
    boot_noise = 1e-5;
    rescale_noise = Float.ldexp 1.0 (-25);
  }

let manifest ?backend_seed ?(every_n = 1) ?(retain = 4) ?(guard_every = 0)
    ?(guard_margin = Guard.margin ()) ?(rescue = false)
    ?(rescue_margin = Halo_runtime.Noise_monitor.default_rescue_margin)
    ?(max_rescues = Halo_runtime.Noise_monitor.default_max_rescues) ~strategy
    ~bindings ~inputs (prog : Halo.Ir.program) =
  let m =
    {
      Codec.prog;
      strategy = Halo.Strategy.to_string strategy;
      bindings;
      inputs;
      backend =
        default_backend ?seed:backend_seed ~slots:prog.slots
          ~max_level:prog.max_level ();
      every_n;
      retain;
      guard_every;
      guard_margin;
      rescue;
      rescue_margin;
      max_rescues;
    }
  in
  Codec.check_manifest (Wire.check_arg "Ref_run.manifest") m;
  m

let backend_of_cfg (c : Codec.backend_cfg) =
  Ref_backend.create ~seed:c.seed ~enc_noise:c.enc_noise
    ~mult_noise:c.mult_noise ~boot_noise:c.boot_noise
    ~rescale_noise:c.rescale_noise ~slots:c.slots ~max_level:c.max_level
    ~scale_bits:c.scale_bits ()

let start ~dir (m : Codec.manifest) =
  (* Journal.open_ creates <dir> and <dir>/journal. *)
  ignore
    (Journal.open_ ~dir:(journal_dir dir)
       ~fingerprint:(Codec.manifest_fingerprint m) ~retain:m.retain);
  ignore (Store.save Codec.manifest ~path:(manifest_path dir) m)

let load ~dir = Store.load Codec.manifest ~path:(manifest_path dir)

(* Structural sanity of the carried values: levels in range and every slot
   finite.  On the reference backend a noise spike or a mis-computation
   shows up as a non-finite or wildly out-of-range slot long before
   decrypt; this is the cheap in-loop tripwire, not the full decrypt-time
   noise-budget guard. *)
let guard_check ~index:_ values =
  List.for_all
    (function
      | I.Plain a -> Array.for_all Float.is_finite a
      | I.Cipher (ct : Ref_backend.ct) ->
        ct.ct_level >= 1 && Array.for_all Float.is_finite ct.data)
    values

let rescue_path dir seq =
  Filename.concat (journal_dir dir) (Printf.sprintf "rescue-%d.ckpt" seq)

(* The journal side of a checkpointed run: checkpoint hooks (with the
   simulated crash spliced into the sink), the damaged entries a resume
   discarded, and the rescue-frame writer for the monitor. *)
let journaled ~dir ~resume ~kill_after ~stats inner (m : Codec.manifest) =
  let fp = Codec.manifest_fingerprint m in
  let jdir = journal_dir dir in
  let journal = Journal.open_ ~dir:jdir ~fingerprint:fp ~retain:m.retain in
  let codec =
    {
      Rec.ct =
        Codec.ref_ct ~slots:m.backend.slots ~max_level:m.backend.max_level;
      rng_state = (fun () -> Ref_backend.rng_state inner);
      set_rng_state = (fun r -> Ref_backend.set_rng_state inner r);
    }
  in
  let scan, damaged =
    if resume then begin
      let s = Journal.scan ~dir:jdir ~fingerprint:fp ~ct:codec.ct in
      (Some s, s.Journal.damaged)
    end
    else (None, [])
  in
  let hooks =
    Rec.checkpoint_hooks ~codec ~journal ~every_n:m.every_n ~stats ~resume:scan
  in
  let hooks =
    match kill_after with
    | None -> hooks
    | Some k ->
      {
        hooks with
        R.sink =
          (fun ~loop_var ~index v ->
            hooks.R.sink ~loop_var ~index v;
            if stats.Stats.checkpoint_writes >= k then
              raise (Simulated_crash { writes = stats.Stats.checkpoint_writes }));
      }
  in
  (* Rescue files are keyed by sequence number: a resume that replays a
     rescue rewrites the same bytes to the same name, so the audit trail of
     an interrupted run converges to the uninterrupted one's. *)
  let on_rescue (e : Halo_runtime.Noise_monitor.rescue_event) =
    ignore
      (Store.save ~fingerprint:fp Codec.rescue ~path:(rescue_path dir e.r_seq) e)
  in
  (hooks, damaged, on_rescue)

let exec ?faults ?policy ?stats ?clock ?kill_after ?dir ?(resume = false)
    (m : Codec.manifest) =
  (match (dir, faults) with
   | Some _, Some _ ->
     (* The journal restores the backend RNG but not the injector's. *)
     invalid_arg "Ref_run.exec: fault injection cannot be journaled"
   | None, _ when kill_after <> None || resume ->
     invalid_arg "Ref_run.exec: kill_after and resume need a directory"
   | _ -> ());
  let stats = match stats with Some s -> s | None -> Stats.create () in
  let inner = backend_of_cfg m.backend in
  let faults =
    match faults with
    | Some f -> f
    | None -> Halo_runtime.Faults.config ~seed:0 ()
  in
  let st =
    Faulty.wrap ~on_fault:(fun _ -> Stats.record_fault stats) faults inner
  in
  let checkpoint, damaged, on_rescue =
    match dir with
    | None -> (None, [], None)
    | Some dir ->
      let hooks, damaged, on_rescue =
        journaled ~dir ~resume ~kill_after ~stats inner m
      in
      (Some hooks, damaged, Some on_rescue)
  in
  let guard =
    if m.guard_every > 0 then
      Some { R.guard_every = m.guard_every; guard_check }
    else None
  in
  let monitor =
    if not m.rescue then None
    else
      let cfg =
        Halo_runtime.Noise_monitor.config ~rescue_margin:m.rescue_margin
          ~max_rescues:m.max_rescues ~margin:m.guard_margin m.prog
      in
      Some (R.M.create ?on_rescue ~cfg ~stats ())
  in
  let outcome =
    R.run ?policy ?checkpoint ?guard ?clock ?monitor ~stats st
      ~bindings:m.bindings ~inputs:m.inputs m.prog
  in
  (outcome, damaged)

type guarded = {
  outcome : R.outcome;
  verdict : Guard.verdict option;
  replan : (Guard.verdict * Halo.Strategy.t) option;
}

let verdict (m : Codec.manifest) = function
  | R.Degraded _ -> None
  | R.Complete { outputs; _ } ->
    Some
      (Guard.check ~margin:m.guard_margin m.prog
         ~reference:
           (Halo_runtime.Interp.reference ~bindings:m.bindings
              ~inputs:m.inputs m.prog)
         ~observed:outputs)

let guard ~recompile (m : Codec.manifest) outcome =
  let v = verdict m outcome in
  match (outcome, v) with
  | R.Complete { stats; _ }, Some (Guard.Breach _ as breach) when m.rescue
    -> (
    (* The triggering breach counts exactly once, even though the
       replanned run is guarded again below. *)
    Stats.record_guard_trip stats;
    let strategy = Halo.Strategy.of_string m.strategy in
    match Option.bind strategy Halo.Strategy.safer with
    | None -> { outcome; verdict = v; replan = None }
    | Some safer ->
      let prog = recompile safer in
      let m =
        {
          m with
          prog;
          strategy = Halo.Strategy.to_string safer;
          backend = { m.backend with max_level = prog.max_level };
        }
      in
      Stats.record_replan stats;
      (* A healthy executor: fault-free, unjournaled, still monitored. *)
      let outcome, _ = exec ~stats m in
      { outcome; verdict = verdict m outcome; replan = Some (breach, safer) }
    )
  | _ -> { outcome; verdict = v; replan = None }

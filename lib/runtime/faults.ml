type kind = Transient_op | Bootstrap_abort | Noise_spike

type event = { at : int; kind : kind }

type config = {
  seed : int;
  transient_prob : float;
  bootstrap_prob : float;
  spike_prob : float;
  spike_magnitude : float;
  schedule : event list;
  fault_io : bool;
}

let config ?(transient_prob = 0.) ?(bootstrap_prob = 0.) ?(spike_prob = 0.)
    ?(spike_magnitude = 1e-4) ?(schedule = []) ?(fault_io = false) ~seed () =
  {
    seed;
    transient_prob;
    bootstrap_prob;
    spike_prob;
    spike_magnitude;
    schedule;
    fault_io;
  }

module Make (B : Backend.S) = struct
  type ct = B.ct

  type state = {
    base : B.state;
    cfg : config;
    rng : Random.State.t;
    on_fault : kind -> unit;
    mutable idx : int;
        (* occurrence index: completed compute ops.  A faulted op does NOT
           advance it, so its retries keep the same index and the fixed
           schedule below stays aligned with the clean run's op stream. *)
    mutable pending : event list;
        (* unconsumed schedule entries: each fires exactly once *)
    mutable n_transient : int;
    mutable n_bootstrap : int;
    mutable n_spike : int;
    attempts : (string, int) Hashtbl.t;
        (* faults injected so far, per op name: the [attempt] error context *)
  }

  let name = "faulty+" ^ B.name

  let wrap ?(on_fault = fun _ -> ()) cfg base =
    {
      base;
      cfg;
      rng = Random.State.make [| 0xFA17; cfg.seed |];
      on_fault;
      idx = 0;
      pending = cfg.schedule;
      n_transient = 0;
      n_bootstrap = 0;
      n_spike = 0;
      attempts = Hashtbl.create 16;
    }

  let ops_seen st = st.idx
  let injected_spikes st = st.n_spike
  let injected st = st.n_transient + st.n_bootstrap + st.n_spike

  let slots st = B.slots st.base
  let max_level st = B.max_level st.base
  let level st ct = B.level st.base ct

  let draw st p = p > 0.0 && Random.State.float st.rng 1.0 < p

  (* Consume (at most) one matching schedule entry: an entry fires exactly
     once, even when the faulted op is re-executed by the retry layer at the
     same occurrence index.  Duplicate entries at the same index therefore
     fault successive attempts of that op. *)
  let scheduled st i k =
    let rec take acc = function
      | [] -> None
      | (e : event) :: rest ->
        if e.at = i && e.kind = k then Some (List.rev_append acc rest)
        else take (e :: acc) rest
    in
    match take [] st.pending with
    | Some rest ->
      st.pending <- rest;
      true
    | None -> false

  let fire st ~op ~level ~index ~bootstrap =
    let attempt =
      (match Hashtbl.find_opt st.attempts op with Some n -> n | None -> 0) + 1
    in
    Hashtbl.replace st.attempts op attempt;
    let site = Halo_error.site ?level ~backend:name op in
    if bootstrap then begin
      st.n_bootstrap <- st.n_bootstrap + 1;
      st.on_fault Bootstrap_abort;
      raise (Halo_error.Bootstrap_failure { site; index; attempt })
    end
    else begin
      st.n_transient <- st.n_transient + 1;
      st.on_fault Transient_op;
      raise (Halo_error.Transient { site; index; attempt })
    end

  (* A ct-producing compute op: possibly fault before executing
     (ciphertexts are immutable, so nothing is left half-done), possibly
     corrupt the result with a silent noise spike afterwards.  The
     occurrence index advances only when the op completes, so a retried
     execution keeps its index. *)
  let guard st ~op ?level k =
    let i = st.idx in
    let transient = scheduled st i Transient_op || draw st st.cfg.transient_prob in
    let boot_fault =
      String.equal op "bootstrap"
      && (scheduled st i Bootstrap_abort || draw st st.cfg.bootstrap_prob)
    in
    if boot_fault then fire st ~op ~level ~index:i ~bootstrap:true;
    if transient then fire st ~op ~level ~index:i ~bootstrap:false;
    let r = k () in
    st.idx <- i + 1;
    if scheduled st i Noise_spike || draw st st.cfg.spike_prob then begin
      st.n_spike <- st.n_spike + 1;
      st.on_fault Noise_spike;
      let n = B.slots st.base in
      let m = st.cfg.spike_magnitude in
      let spike =
        Array.init n (fun _ -> (Random.State.float st.rng 2.0 -. 1.0) *. m)
      in
      (* The spike is silent in the payload but not in the telemetry: the
         estimator cannot see injected corruption, so surface it to the
         runtime monitor through the noise bound. *)
      B.inflate_noise st.base (B.addcp st.base r spike) ~by:m
    end
    else r

  (* Encryption/decryption fault only when [fault_io] is set (they execute
     outside the interpreter's retry protection), and never spike. *)
  let io_guard st ~op ?level k =
    if not st.cfg.fault_io then k ()
    else begin
      let i = st.idx in
      if scheduled st i Transient_op || draw st st.cfg.transient_prob then
        fire st ~op ~level ~index:i ~bootstrap:false;
      let r = k () in
      st.idx <- i + 1;
      r
    end

  let encrypt st ~level values =
    io_guard st ~op:"encrypt" ~level (fun () -> B.encrypt st.base ~level values)

  let decrypt st ct =
    io_guard st ~op:"decrypt" ~level:(level st ct) (fun () ->
        B.decrypt st.base ct)

  let addcc st a b =
    guard st ~op:"addcc" ~level:(level st a) (fun () -> B.addcc st.base a b)

  let subcc st a b =
    guard st ~op:"subcc" ~level:(level st a) (fun () -> B.subcc st.base a b)

  let addcp st a v =
    guard st ~op:"addcp" ~level:(level st a) (fun () -> B.addcp st.base a v)

  let multcc st a b =
    guard st ~op:"multcc" ~level:(level st a) (fun () -> B.multcc st.base a b)

  let multcp st a v =
    guard st ~op:"multcp" ~level:(level st a) (fun () -> B.multcp st.base a v)

  let rotate st ct ~offset =
    guard st ~op:"rotate" ~level:(level st ct) (fun () ->
        B.rotate st.base ct ~offset)

  (* De-sugar the grouped form so each member keeps its own occurrence
     index and fault/spike draw, exactly as the unfused rotate sequence
     would; hoisting is a performance property, not a fault-atomicity
     boundary. *)
  let rotate_many st ct ~offsets =
    List.map (fun offset -> rotate st ct ~offset) offsets

  let rescale st a =
    guard st ~op:"rescale" ~level:(level st a) (fun () -> B.rescale st.base a)

  (* The fused rotate-and-sum is one instruction to the retry layer, so it
     is one guarded op: one occurrence index, one fault draw and one spike
     draw.  A draw per member would fault a wide group on most attempts
     (11 members at 5 % fault 43 % of them) and exhaust the instruction's
     retries. *)
  let rot_sum st ct ~terms =
    if terms = [] then B.rot_sum st.base ct ~terms
    else
      guard st ~op:"rot_sum" ~level:(level st ct) (fun () ->
          B.rot_sum st.base ct ~terms)

  let modswitch st ct ~down =
    guard st ~op:"modswitch" ~level:(level st ct) (fun () ->
        B.modswitch st.base ct ~down)

  let bootstrap st ct ~target =
    guard st ~op:"bootstrap" ~level:(level st ct) (fun () ->
        B.bootstrap st.base ct ~target)

  let negate st a =
    guard st ~op:"negate" ~level:(level st a) (fun () -> B.negate st.base a)

  (* Telemetry passes through unguarded: reading the estimate must never
     fault or consume RNG, or the monitor would perturb the run. *)
  let noise_estimate st ct = B.noise_estimate st.base ct
  let inflate_noise st ct ~by = B.inflate_noise st.base ct ~by
end

(* Opened outputs as raw bits, so structural equality is bit-exact. *)
let opened_bits s =
  List.map
    (fun (id, r) ->
      let bits (k, l, o) = (k, l, List.map (Array.map Int64.bits_of_float) o) in
      (id, Result.map bits r))
    (Workload.opened s)

let journaled s =
  { (Server.counters s) with
    Server.rejected_queue = 0; rejected_admission = 0; rejected_supervised = 0 }

let drained s =
  Server.pending s = 0
  && List.length (Server.results s) = (Server.counters s).Server.accepted

let failing checks =
  List.filter_map (fun (name, ok) -> if ok then None else Some name) checks

let compare a b =
  let same f = f a = f b in
  failing
    [ ("complete", drained a && drained b);
      ("outputs", same opened_bits);
      ("stats", Halo_runtime.Stats.equal (Server.stats a) (Server.stats b));
      ("quarantine", same Server.quarantine);
      ("counters", same journaled);
      ("clock", same Server.clock_us);
      ("latencies", same Server.latencies);
      ("undamaged", Server.damaged a = [] && Server.damaged b = []);
      ("report", same Server.report) ]

let chaos_failures ~max_latency_us s =
  let cfg = Server.config s and c = Server.counters s in
  let poisoned =
    Option.fold ~none:[] ~some:(fun f -> f.Serve_codec.f_poison) cfg.faults
  in
  let q = Server.quarantine s in
  failing
    [ ( "transitions",
        c.breaker_opens > 0 && c.breaker_closes + c.breaker_reopens > 0 );
      ( "converged",
        List.for_all (fun p -> List.mem_assoc p q) poisoned
        && (cfg.sup.s_rescue || List.length q = List.length poisoned) );
      ("tail", Server.max_latency_us s <= max_latency_us) ]

type t = {
  baseline : Server.t;
  resumed : Server.t;
  killed : int option;
  resumed_pending : int;
  failures : string list;
}

let trial ~cfg ~programs ~requests ~rounds ~kill_after ~dir =
  let fingerprint =
    Serve_codec.manifest_fingerprint { config = cfg; progs = programs }
  in
  let progress = Filename.concat dir "chaos.halo" in
  let serve ?kill_after ?(save = true) s ~from =
    for r = from to rounds - 1 do
      List.iter
        (fun (w : Workload.req) ->
          ignore
            (Server.submit s ~tenant:w.w_tenant ~tol:w.w_tol
               ~program:w.w_program ~payload:w.w_payload))
        (requests r);
      if save then
        ignore
          (Halo_persist.Store.save ~fingerprint Serve_codec.chaos ~path:progress
             (r + 1));
      Server.run_until_drained ?kill_after s
    done
  in
  let baseline = Server.create cfg ~programs in
  serve ~save:false baseline ~from:0;
  let killed =
    let s = Server.create ~dir cfg ~programs in
    match serve ~kill_after s ~from:0 with
    | () -> None
    | exception Server.Killed { writes } -> Some writes
  in
  (* The simulated SIGKILL: reopen from durable state only, finish the
     interrupted round, then submit the rounds that were never injected. *)
  let resumed = Server.open_resume ~dir in
  let resumed_pending = Server.pending resumed in
  Server.run_until_drained resumed;
  serve resumed
    ~from:
      (Halo_persist.Store.load ~fingerprint Serve_codec.chaos ~path:progress);
  { baseline; resumed; killed; resumed_pending;
    failures = compare baseline resumed }

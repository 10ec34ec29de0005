(* Supervision-layer tests: the deterministic virtual clock, per-batch
   deadlines, admission TTLs with crash-immune planning records, circuit
   breakers (open / probe / close / reopen, reproducible across
   kill/resume), poisoned-request isolation under degraded-mode fallback,
   durable quarantine, graceful drain with a validated handoff, pool-size
   invariance of the supervised path, domain-safe admission, and the
   fixed-width statistics codec.

   Every test is deterministic: fixed seeds, a noiseless backend wherever
   outputs are compared bit-for-bit, and no wall-clock dependence — all
   time is the cost-model-charged virtual clock. *)

open Fixture
module Supervisor = Halo_serve.Supervisor
module Soak = Halo_serve.Soak
module Clock = Halo_runtime.Clock
module Stats = Halo_runtime.Stats
module Codec = Halo_persist.Codec
module Wire = Halo_persist.Wire
module Domain_pool = Halo_ckks.Domain_pool

(* A deeper queue and narrower batches than the serving suite's. *)
let mk_cfg = mk_cfg ~queue_depth:256 ~batch_window:4
let mk_server = mk_server ~queue_depth:256 ~batch_window:4

(* Opened outputs grouped per tenant, in request-id order — the unit of
   comparison that is invariant under request-id shifts (nonces derive
   from ids, so cross-run comparisons must open the seals first). *)
let opened_by_tenant server =
  List.filter_map
    (fun (_, o) ->
      match o with
      | Server.Served { sealed; _ } ->
        let tid =
          match sealed with
          | s :: _ -> s.Tenant.s_tenant
          | [] -> -1
        in
        Some
          (tid, List.map (fun s -> Tenant.open_sealed (tenant tid) s) sealed)
      | Server.Failed _ -> None)
    (Server.results server)

let tenant_outputs opened tid =
  List.filter_map (fun (t, outs) -> if t = tid then Some outs else None) opened

let poison_faults =
  {
    Serve_codec.f_seed = 0xFA17;
    f_transient = 0.0;
    f_bootstrap = 0.0;
    f_spike = 0.0;
    f_magnitude = 1e-4;
    f_poison = [ 0 ];
  }

(* ------------------------------------------------------------------ *)
(* Virtual clock                                                       *)
(* ------------------------------------------------------------------ *)

let test_clock_basics () =
  let c = Clock.create () in
  Alcotest.(check int) "starts at zero" 0 (Clock.now_us c);
  Alcotest.(check bool) "unarmed never expires" false (Clock.expired c);
  Clock.advance c ~us:1000.4;
  Alcotest.(check int) "advance rounds once" 1000 (Clock.now_us c);
  Clock.advance c ~us:(-5.0);
  Clock.advance c ~us:0.0;
  Alcotest.(check int) "non-positive advances ignored" 1000 (Clock.now_us c);
  Clock.tick c ~us:500;
  Alcotest.(check int) "tick is exact" 1500 (Clock.now_us c);
  Clock.arm c ~deadline_us:2000;
  Alcotest.(check bool) "before the deadline" false (Clock.expired c);
  Alcotest.(check int) "remaining" 500 (Clock.remaining_us c);
  Clock.tick c ~us:500;
  Alcotest.(check bool) "at the deadline" false (Clock.expired c);
  Clock.tick c ~us:1;
  Alcotest.(check bool) "past the deadline" true (Clock.expired c);
  Clock.disarm c;
  Alcotest.(check bool) "disarmed" false (Clock.expired c)

let test_clock_integer_sums () =
  (* Each advance rounds once; the clock is a sum of ints, so any split of
     the same advances reads the same — the property resume relies on. *)
  let a = Clock.create () and b = Clock.create () in
  let charges = [ 100.7; 3.2; 99999.49; 0.6; 12345.51 ] in
  List.iter (fun us -> Clock.advance a ~us) charges;
  List.iter (fun us -> Clock.advance b ~us) (List.rev charges);
  Alcotest.(check int) "order-independent" (Clock.now_us a) (Clock.now_us b)

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)
(* ------------------------------------------------------------------ *)

let test_deadline_aborts () =
  (* A 1ms budget is far below any batch's modeled latency (bootstraps
     alone are ~100ms), so every batch aborts — deterministically, at the
     same instruction. *)
  let sup = { Serve_codec.default_sup with s_deadline_us = 1_000 } in
  let run () =
    let s = mk_server ~sup () in
    List.iter
      (fun w -> ignore (submit_ok s w))
      (Workload.requests ~seed:11 ~clients:4 ~per_client:2 ~lane ());
    drain s;
    s
  in
  let s = run () in
  let failures =
    List.filter_map
      (fun (_, o) ->
        match o with Server.Failed f -> Some f | Server.Served _ -> None)
      (Server.results s)
  in
  Alcotest.(check int) "every request failed" 8 (List.length failures);
  List.iter
    (fun (f : Server.failure) ->
      if
        not
          (String.length f.f_reason >= 8
          && String.sub f.f_reason 0 8 = "deadline")
      then Alcotest.failf "not a deadline failure: %s" f.f_reason)
    failures;
  Alcotest.(check bool) "deadline aborts counted" true
    ((Server.stats s).Stats.deadline_aborts > 0);
  let s' = run () in
  Alcotest.(check string) "deadline behavior is reproducible"
    (Server.report s) (Server.report s')

let test_deadline_generous_is_invisible () =
  let sup = { Serve_codec.default_sup with s_deadline_us = max_int / 2 } in
  let run sup =
    let s = mk_server ~sup () in
    List.iter
      (fun w -> ignore (submit_ok s w))
      (Workload.requests ~seed:12 ~clients:4 ~per_client:2 ~lane ());
    drain s;
    Server.report s
  in
  Alcotest.(check string) "generous deadline changes nothing"
    (run Serve_codec.default_sup) (run sup)

(* ------------------------------------------------------------------ *)
(* Admission TTL                                                       *)
(* ------------------------------------------------------------------ *)

let ttl_sup = { Serve_codec.default_sup with s_ttl_us = 10_000 }

let test_ttl_expiry () =
  let s = mk_server ~sup:ttl_sup () in
  let reqs = Workload.requests ~seed:21 ~clients:2 ~per_client:2 ~lane () in
  let stale = List.filteri (fun i _ -> i < 2) reqs in
  let fresh = List.filteri (fun i _ -> i >= 2) reqs in
  let stale_ids = List.map (submit_ok s) stale in
  Server.tick s ~us:20_000;
  let fresh_ids = List.map (submit_ok s) fresh in
  drain s;
  List.iter
    (fun id ->
      match Server.result s id with
      | Some (Server.Failed f) ->
        Alcotest.(check string) "TTL failure op" "admission-ttl" f.f_op;
        Alcotest.(check int) "TTL failures never executed" 0 f.f_attempts
      | _ -> Alcotest.failf "request %d should have expired" id)
    stale_ids;
  List.iter
    (fun id ->
      match Server.result s id with
      | Some (Server.Served _) -> ()
      | _ -> Alcotest.failf "fresh request %d should have been served" id)
    fresh_ids;
  Alcotest.(check int) "expired counted" 2 (Server.counters s).Server.expired

let test_ttl_survives_kill () =
  (* The planning record makes TTL verdicts crash-immune: after a kill
     mid-wave, the resumed server must report the same expiries with the
     same reasons (anchored at the journaled planning clock, not at the
     resumed clock, which never saw the tick). *)
  let dir = fresh_dir "ttl" in
  let s = mk_server ~dir ~sup:ttl_sup () in
  let reqs = Workload.requests ~seed:22 ~clients:3 ~per_client:2 ~lane () in
  let stale = List.filteri (fun i _ -> i < 2) reqs in
  let fresh = List.filteri (fun i _ -> i >= 2) reqs in
  let stale_ids = List.map (submit_ok s) stale in
  Server.tick s ~us:20_000;
  ignore (List.map (submit_ok s) fresh);
  (match Server.run_until_drained ~kill_after:1 s with
   | () -> Alcotest.fail "expected the simulated kill"
   | exception Server.Killed _ -> ());
  let baseline_failures =
    List.map (fun id -> (id, Server.result s id)) stale_ids
  in
  let r = Server.open_resume ~dir in
  Server.run_until_drained r;
  List.iter
    (fun (id, b) ->
      match (b, Server.result r id) with
      | Some (Server.Failed fb), Some (Server.Failed fr) ->
        Alcotest.(check string)
          (Printf.sprintf "request %d: expiry verdict identical" id)
          fb.Server.f_reason fr.Server.f_reason
      | _ -> Alcotest.failf "request %d must stay expired after resume" id)
    baseline_failures;
  Alcotest.(check int) "nothing pending after resume" 0 (Server.pending r);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Poisoned-request isolation                                          *)
(* ------------------------------------------------------------------ *)

let isolation_sup =
  {
    Serve_codec.default_sup with
    s_fallback = true;
    s_quarantine_after = 2;
  }

let test_poison_isolation () =
  (* Tenant 0 is poisoned (deterministic retry exhaustion).  Its requests
     join full batches; with fallback on, every lane-mate must still
     succeed, with outputs bit-identical to a run where the poisoned
     tenant never existed. *)
  let reqs = Workload.requests ~seed:31 ~clients:4 ~per_client:3 ~lane () in
  let healthy =
    List.filter (fun (w : Workload.req) -> w.w_tenant.Tenant.id <> 0) reqs
  in
  let a = mk_server ~faults:poison_faults ~sup:isolation_sup () in
  List.iter (fun w -> ignore (submit a w)) reqs;
  drain a;
  let b = mk_server ~faults:poison_faults ~sup:isolation_sup () in
  List.iter (fun w -> ignore (submit b w)) healthy;
  drain b;
  let oa = opened_by_tenant a and ob = opened_by_tenant b in
  List.iter
    (fun tid ->
      let xs = tenant_outputs oa tid and ys = tenant_outputs ob tid in
      Alcotest.(check int)
        (Printf.sprintf "tenant %d: same served count" tid)
        (List.length ys) (List.length xs);
      List.iter2
        (fun x y ->
          List.iter2
            (fun u v ->
              if not (arrays_bit_equal u v) then
                Alcotest.failf
                  "tenant %d: lane-mate outputs differ from the poison-free \
                   run" tid)
            x y)
        xs ys)
    [ 1; 2; 3 ];
  (* The culprit fails alone and ends up quarantined. *)
  let ca = Server.counters a in
  Alcotest.(check int) "exactly the culprit's requests failed"
    (List.length reqs - List.length healthy)
    ca.Server.failed;
  Alcotest.(check int) "every healthy request served"
    (List.length healthy) ca.Server.served;
  Alcotest.(check bool) "tenant 0 quarantined" true
    (List.mem_assoc 0 (Server.quarantine a));
  Alcotest.(check int) "no healthy tenant quarantined" 1
    (List.length (Server.quarantine a));
  (* Once quarantined, new submissions are rejected with the culprit. *)
  let w0 =
    List.find (fun (w : Workload.req) -> w.w_tenant.Tenant.id = 0) reqs
  in
  (match submit a w0 with
   | Error (Server.Quarantined { tenant = 0; culprit }) ->
     Alcotest.(check bool) "culprit recorded" true (culprit >= 0)
   | Ok _ | Error _ -> Alcotest.fail "quarantined tenant must be rejected")

let test_quarantine_survives_kill () =
  let dir = fresh_dir "quarantine" in
  let cfg = mk_cfg ~faults:poison_faults ~sup:isolation_sup () in
  let t =
    Soak.trial ~cfg ~programs:(programs ()) ~rounds:1 ~kill_after:4 ~dir
      ~requests:(fun _ ->
        Workload.requests ~seed:32 ~clients:4 ~per_client:3 ~lane ())
  in
  Alcotest.(check bool) "kill reached" true (t.Soak.killed <> None);
  Alcotest.(check (list string)) "resumed run matches the baseline" []
    t.Soak.failures;
  Alcotest.(check bool) "tenant 0 quarantined" true
    (List.mem_assoc 0 (Server.quarantine t.Soak.resumed));
  (* The durable snapshot agrees with the journal fold. *)
  let q =
    Halo_persist.Store.load
      ~fingerprint:
        (Serve_codec.manifest_fingerprint
           { Serve_codec.config = cfg; progs = programs () })
      Serve_codec.quarantine
      ~path:(Filename.concat dir "quarantine.halo")
  in
  Alcotest.(check bool) "snapshot matches the fold" true
    (q.Serve_codec.qr_tenants = Server.quarantine t.Soak.resumed);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Circuit breakers                                                    *)
(* ------------------------------------------------------------------ *)

let breaker_sup =
  {
    Serve_codec.default_sup with
    s_tenant_threshold = 2;
    s_tenant_window = 4;
    s_cooldown_us = 1_000;
  }

let test_breaker_state_machine () =
  let sup = Supervisor.create breaker_sup in
  let admit () = Supervisor.admit sup ~tenant:7 ~pname:"p" in
  Alcotest.(check bool) "closed admits" true (admit () = Supervisor.Admit);
  Supervisor.observe sup ~tenant:7 ~pname:"p" ~success:false;
  Alcotest.(check bool) "below threshold still admits" true
    (admit () = Supervisor.Admit);
  Supervisor.observe sup ~tenant:7 ~pname:"p" ~success:false;
  Alcotest.(check int) "opened" 1 (Supervisor.opens sup);
  (match admit () with
   | Supervisor.Breaker_open { scope = Supervisor.Tenant_scope 7; _ } -> ()
   | _ -> Alcotest.fail "open breaker must reject");
  Supervisor.tick sup ~us:1_001;
  (* Half-open: exactly one probe. *)
  Alcotest.(check bool) "probe admitted" true (admit () = Supervisor.Admit);
  (match admit () with
   | Supervisor.Breaker_open _ -> ()
   | _ -> Alcotest.fail "second probe must wait");
  Supervisor.observe sup ~tenant:7 ~pname:"p" ~success:true;
  Alcotest.(check int) "probe success closes" 1 (Supervisor.closes sup);
  Alcotest.(check bool) "closed again" true (admit () = Supervisor.Admit);
  Supervisor.observe sup ~tenant:7 ~pname:"p" ~success:false;
  Supervisor.observe sup ~tenant:7 ~pname:"p" ~success:false;
  Supervisor.tick sup ~us:2_000;
  Alcotest.(check bool) "second probe admitted" true
    (admit () = Supervisor.Admit);
  Supervisor.observe sup ~tenant:7 ~pname:"p" ~success:false;
  Alcotest.(check int) "probe failure reopens" 1 (Supervisor.reopens sup);
  (match admit () with
   | Supervisor.Breaker_open _ -> ()
   | _ -> Alcotest.fail "reopened breaker must reject")

let test_breaker_resume_reproducible () =
  (* Breaker history is journal-derived: after a mid-run kill, the fold
     must reproduce the baseline's opens/closes/reopens and clock exactly. *)
  let sup = { breaker_sup with s_fallback = true; s_quarantine_after = 2 } in
  let dir = fresh_dir "breaker" in
  let t =
    Soak.trial ~cfg:(mk_cfg ~faults:poison_faults ~sup ())
      ~programs:(programs ()) ~rounds:1 ~kill_after:6 ~dir
      ~requests:(fun _ ->
        Workload.requests ~seed:41 ~clients:4 ~per_client:4 ~lane ())
  in
  Alcotest.(check bool) "kill reached" true (t.Soak.killed <> None);
  Alcotest.(check bool) "breakers opened" true
    ((Server.counters t.Soak.baseline).Server.breaker_opens > 0);
  Alcotest.(check (list string)) "resumed run matches the baseline" []
    t.Soak.failures;
  rm_rf dir

(* The chaos soak's shape: four submission rounds, a poisoned tenant
   submitted last in each, seeded transient faults, and a kill mid-chaos.
   The report is not compared: it prints rejected_supervised, and
   admission rejections made before the kill are never journaled. *)
let test_chaos_trial () =
  let dir = fresh_dir "chaos" in
  let sup =
    {
      Serve_codec.default_sup with
      s_fallback = true;
      s_tenant_threshold = 2;
      s_program_threshold = 2;
      s_cooldown_us = 1_000;
      s_quarantine_after = 2;
    }
  in
  let faults =
    { poison_faults with Serve_codec.f_transient = 0.01; f_bootstrap = 0.01 }
  in
  let requests r =
    Workload.requests ~seed:(1 + (r * 389)) ~clients:4 ~per_client:3 ~lane ()
    |> List.stable_sort (fun (a : Workload.req) (b : Workload.req) ->
           compare (a.w_tenant.Tenant.id = 0) (b.w_tenant.Tenant.id = 0))
  in
  let t =
    Soak.trial ~cfg:(mk_cfg ~faults ~sup ()) ~programs:(programs ())
      ~requests ~rounds:4 ~kill_after:5 ~dir
  in
  Alcotest.(check bool) "kill reached" true (t.Soak.killed <> None);
  Alcotest.(check (list string)) "resumed run matches the baseline" []
    (List.filter (( <> ) "report") t.Soak.failures);
  Alcotest.(check (list string)) "chaos expectations met" []
    (Soak.chaos_failures ~max_latency_us:50_000_000 t.Soak.baseline);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Graceful drain                                                      *)
(* ------------------------------------------------------------------ *)

let test_drain_handoff () =
  let dir = fresh_dir "drain" in
  let s = mk_server ~dir () in
  let reqs = Workload.requests ~seed:51 ~clients:3 ~per_client:2 ~lane () in
  List.iter (fun w -> ignore (submit_ok s w)) reqs;
  let d = Server.drain s in
  Alcotest.(check int) "handoff accounts for everything"
    d.Serve_codec.dr_accepted
    (d.Serve_codec.dr_served + d.Serve_codec.dr_failed);
  Alcotest.(check int) "drained" 0 (Server.pending s);
  (match submit s (List.hd reqs) with
   | Error Server.Draining -> ()
   | Ok _ | Error _ -> Alcotest.fail "draining server must refuse admission");
  let r = Server.open_resume ~dir in
  (match Server.handoff r with
   | Some d' -> Alcotest.(check bool) "handoff validated on resume" true (d = d')
   | None -> Alcotest.fail "resume must surface the handoff");
  (match submit r (List.hd reqs) with
   | Ok _ -> ()
   | Error rj ->
     Alcotest.failf "admission must reopen after resume: %s"
       (Server.reject_to_string rj));
  rm_rf dir

let test_drain_refuses_lost_journal () =
  let dir = fresh_dir "drain-lost" in
  let s = mk_server ~dir () in
  List.iter
    (fun w -> ignore (submit_ok s w))
    (Workload.requests ~seed:52 ~clients:3 ~per_client:2 ~lane ());
  ignore (Server.drain s);
  (* Losing journaled deliveries after the handoff must be loud. *)
  let journal = Filename.concat dir "journal" in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".ckpt" then
        Sys.remove (Filename.concat journal f))
    (Sys.readdir journal);
  (match Server.open_resume ~dir with
   | _ -> Alcotest.fail "journal behind the handoff must refuse to resume"
   | exception Halo_error.Persist_error _ -> ());
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Determinism under supervision                                       *)
(* ------------------------------------------------------------------ *)

let test_supervised_pool_invariance () =
  let sup =
    {
      breaker_sup with
      s_fallback = true;
      s_quarantine_after = 2;
      s_program_threshold = 2;
    }
  in
  let serve () =
    let s = mk_server ~faults:poison_faults ~sup () in
    List.iter
      (fun w -> ignore (submit s w))
      (Workload.requests ~seed:61 ~clients:4 ~per_client:3 ~lane ());
    drain s;
    (Server.report s, Server.clock_us s, Server.latencies s)
  in
  let par = serve () in
  let seq = Domain_pool.sequentially serve in
  let rp, cp, lp = par and rs, cs, ls = seq in
  Alcotest.(check string) "report invariant under pool size" rp rs;
  Alcotest.(check int) "clock invariant under pool size" cp cs;
  Alcotest.(check (list (pair int int))) "latencies invariant" lp ls

(* ------------------------------------------------------------------ *)
(* Domain-safe admission                                               *)
(* ------------------------------------------------------------------ *)

let test_concurrent_submit () =
  let dir = fresh_dir "concurrent" in
  let s = mk_server ~dir () in
  let domains = 4 and per_domain = 6 in
  let reqs = Workload.requests ~seed:71 ~clients:domains ~per_client:per_domain ~lane () in
  let by_tenant t =
    List.filter (fun (w : Workload.req) -> w.w_tenant.Tenant.id = t) reqs
  in
  let workers =
    List.init domains (fun t ->
        Domain.spawn (fun () -> List.map (fun w -> submit s w) (by_tenant t)))
  in
  let outcomes = List.concat_map Domain.join workers in
  let accepted =
    List.filter_map (function Ok id -> Some id | Error _ -> None) outcomes
  in
  Alcotest.(check int) "every submit accepted" (domains * per_domain)
    (List.length accepted);
  Alcotest.(check int) "queue holds them all" (domains * per_domain)
    (Server.pending s);
  (* Ids are dense — no lost or duplicated slots under contention. *)
  Alcotest.(check (list int)) "ids dense"
    (List.init (domains * per_domain) Fun.id)
    (List.sort compare accepted);
  (* Every accepted request was fsynced before its submit returned. *)
  List.iter
    (fun id ->
      let p =
        Filename.concat dir (Printf.sprintf "requests/req-%010d.halo" id)
      in
      if not (Sys.file_exists p) then
        Alcotest.failf "request %d not durable at submit return" id)
    accepted;
  drain s;
  Alcotest.(check int) "all served"
    (domains * per_domain)
    (Server.counters s).Server.served;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Statistics codec                                                    *)
(* ------------------------------------------------------------------ *)

let gen_stats =
  QCheck.Gen.(
    let int_field = int_range 0 1_000_000_000 in
    let float_field = float_range 0.0 1e12 in
    let* addcc = int_field and* addcp = int_field and* subcc = int_field in
    let* multcc = int_field and* multcp = int_field and* rotate = int_field in
    let* rescale = int_field and* modswitch = int_field in
    let* bootstrap = int_field in
    let* total_latency_us = float_field in
    let* bootstrap_latency_us = float_field in
    let* injected_faults = int_field and* retries = int_field in
    let* checkpoint_restores = int_field in
    let* backoff_us = float_field in
    let* checkpoint_writes = int_field and* checkpoint_bytes = int_field in
    let* guard_trips = int_field and* key_switches = int_field in
    let* hoisted_groups = int_field and* decompositions_saved = int_field in
    let* deadline_aborts = int_field in
    let* key_cache_hits = int_field and* key_cache_misses = int_field in
    let* key_cache_evictions = int_field and* key_cache_regens = int_field in
    let* digit_reuses = int_field and* lazy_rotsums = int_field in
    let* rescues = int_field and* rescue_aborts = int_field in
    let* replans = int_field in
    return
      {
        Stats.addcc;
        addcp;
        subcc;
        multcc;
        multcp;
        rotate;
        rescale;
        modswitch;
        bootstrap;
        total_latency_us;
        bootstrap_latency_us;
        injected_faults;
        retries;
        checkpoint_restores;
        backoff_us;
        checkpoint_writes;
        checkpoint_bytes;
        guard_trips;
        key_switches;
        hoisted_groups;
        decompositions_saved;
        deadline_aborts;
        key_cache_hits;
        key_cache_misses;
        key_cache_evictions;
        key_cache_regens;
        digit_reuses;
        lazy_rotsums;
        rescues;
        rescue_aborts;
        replans;
      })

let roundtrip s =
  let b = Buffer.create 256 in
  Codec.encode_stats b s;
  Codec.decode_stats (Wire.reader (Buffer.contents b))

let test_stats_codec_lossless =
  QCheck.Test.make ~name:"stats encode/decode/merge is total and lossless"
    ~count:200
    (QCheck.make (QCheck.Gen.pair gen_stats gen_stats))
    (fun (a, b) ->
      (* Field-for-field round-trip: the codec is fixed-width and
         positional, so a silently dropped field would show up here. *)
      let a' = roundtrip a and b' = roundtrip b in
      let direct = Stats.create () in
      Stats.merge ~into:direct a;
      Stats.merge ~into:direct b;
      let decoded = Stats.create () in
      Stats.merge ~into:decoded a';
      Stats.merge ~into:decoded b';
      a = a' && b = b' && direct = decoded && roundtrip direct = direct)

(* ------------------------------------------------------------------ *)
(* Configuration checks                                                *)
(* ------------------------------------------------------------------ *)

(* A supervision config the serve-manifest decoder refuses must already be
   refused by [Server.create], for the same reason: otherwise a job can be
   created, run and journaled, and then never resumed. *)
let refused_at_creation ~reason sup () =
  (match mk_server ~sup () with
   | _ -> Alcotest.failf "Server.create accepted a config it cannot reload"
   | exception Invalid_argument msg ->
     Alcotest.(check bool) ("creation names: " ^ reason) true
       (contains msg ~sub:reason));
  let m = { Serve_codec.config = mk_cfg ~sup (); progs = programs () } in
  match Codec.of_frame Serve_codec.manifest (Codec.to_frame Serve_codec.manifest m) with
  | _ -> Alcotest.fail "the decoder accepted the config"
  | exception (Halo_error.Persist_error _ as e) ->
    Alcotest.(check bool) ("decoder names: " ^ reason) true
      (contains (Halo_error.to_string e) ~sub:reason)

let config_cases =
  let sup = Serve_codec.default_sup in
  [
    ( "tenant breaker threshold above its window",
      "tenant breaker threshold outside its window (expected 0..8, got 10)",
      { sup with s_tenant_threshold = 10 } );
    ( "negative program breaker threshold",
      "program breaker threshold outside its window (expected 0..8, got -2)",
      { sup with s_program_threshold = -2 } );
    ( "negative quarantine threshold",
      "negative quarantine threshold (got -1)",
      { sup with s_quarantine_after = -1 } );
  ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "supervision"
    [
      ( "clock",
        [
          Alcotest.test_case "virtual clock basics" `Quick test_clock_basics;
          Alcotest.test_case "integer sums are order-independent" `Quick
            test_clock_integer_sums;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "tight deadline aborts deterministically" `Quick
            test_deadline_aborts;
          Alcotest.test_case "generous deadline is invisible" `Quick
            test_deadline_generous_is_invisible;
        ] );
      ( "ttl",
        [
          Alcotest.test_case "stale requests expire at first planning" `Quick
            test_ttl_expiry;
          Alcotest.test_case "expiry verdicts survive a kill" `Quick
            test_ttl_survives_kill;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "poisoned request cannot hurt lane-mates" `Quick
            test_poison_isolation;
          Alcotest.test_case "quarantine survives kill/resume" `Quick
            test_quarantine_survives_kill;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "open, probe, close, reopen" `Quick
            test_breaker_state_machine;
          Alcotest.test_case "breaker history reproducible after resume"
            `Quick test_breaker_resume_reproducible;
          Alcotest.test_case "chaos trial survives a mid-chaos kill" `Quick
            test_chaos_trial;
        ] );
      ( "drain",
        [
          Alcotest.test_case "handoff written, validated, admission reopens"
            `Quick test_drain_handoff;
          Alcotest.test_case "journal behind handoff is refused" `Quick
            test_drain_refuses_lost_journal;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "supervised serving is pool-size invariant"
            `Quick test_supervised_pool_invariance;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "parallel submits keep the queue intact" `Quick
            test_concurrent_submit;
        ] );
      ( "stats",
        [ QCheck_alcotest.to_alcotest test_stats_codec_lossless ] );
      ( "config",
        List.map
          (fun (name, reason, sup) ->
            Alcotest.test_case (name ^ " refused at creation") `Quick
              (refused_at_creation ~reason sup))
          config_cases );
    ]

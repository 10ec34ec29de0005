(* Serving-layer tests: batched-vs-solo bit-identity, per-tenant key
   isolation, bounded-queue backpressure, noise-budget admission control,
   pool-size invariance, slot-packer properties, kill/resume durability
   and fault-injected degraded isolation.

   Every test is deterministic: fixed seeds, a noiseless backend wherever
   outputs are compared bit-for-bit, and no wall-clock dependence. *)

open Halo
open Fixture
module Slot_batch = Halo_serve.Slot_batch
module Soak = Halo_serve.Soak
module Guard = Halo_runtime.Guard
module Stats = Halo_runtime.Stats
module Domain_pool = Halo_ckks.Domain_pool
module Ref_backend = Halo_ckks.Ref_backend
module Ref = Halo_runtime.Interp.Make (Ref_backend)

let submit_all server reqs = List.map (submit_ok server) reqs

let outputs_of id results =
  match List.assoc id results with
  | Ok (_, _, outs) -> outs
  | Error (f : Server.failure) ->
    Alcotest.failf "request %d degraded at %s: %s" id f.Server.f_op
      f.Server.f_reason

let check_outputs_equal what a b =
  Alcotest.(check int) (what ^ ": result count") (List.length a) (List.length b);
  List.iter2
    (fun (ida, _) (idb, _) ->
      Alcotest.(check int) (what ^ ": id") ida idb;
      let oa = outputs_of ida a and ob = outputs_of idb b in
      Alcotest.(check int) (what ^ ": outputs") (List.length oa)
        (List.length ob);
      List.iter2
        (fun x y ->
          if not (arrays_bit_equal x y) then
            Alcotest.failf "%s: request %d outputs differ" what ida)
        oa ob)
    a b

(* Exact solo semantics from a noiseless backend, truncated to the
   request's meaningful prefix — the reference every serving path must
   reproduce bit-for-bit. *)
let solo_reference server pname payload rsize =
  let prog = Server.solo_program server pname in
  let st =
    Ref_backend.create ~enc_noise:0.0 ~mult_noise:0.0 ~boot_noise:0.0
      ~rescale_noise:0.0 ~slots:prog.Ir.slots ~max_level:prog.Ir.max_level
      ~scale_bits:51 ()
  in
  let outs, _ = Ref.run st ~inputs:payload prog in
  List.map (fun o -> Array.sub o 0 (min rsize (Array.length o))) outs

(* ------------------------------------------------------------------ *)
(* Batching semantics                                                  *)
(* ------------------------------------------------------------------ *)

(* The tentpole identity: packing several tenants' requests into one
   ciphertext's lanes yields, per tenant, exactly the bits a dedicated
   solo ciphertext would have produced. *)
let test_batched_vs_solo_bit_identity () =
  let reqs =
    Workload.requests ~seed:11 ~clients:6 ~per_client:3 ~lane ()
  in
  let batched = mk_server ~batch_window:8 () in
  ignore (submit_all batched reqs);
  drain batched;
  let solo = mk_server ~batch_window:1 () in
  ignore (submit_all solo reqs);
  drain solo;
  let cb = Server.counters batched and cs = Server.counters solo in
  Alcotest.(check bool) "batched mode actually batched" true
    (cb.Server.batches < cb.Server.accepted);
  Alcotest.(check int) "solo mode is one batch per request"
    cs.Server.accepted cs.Server.batches;
  (* Compare only outputs: batch keys and lane counts legitimately differ. *)
  List.iter2
    (fun (ida, _) (idb, _) ->
      List.iter2
        (fun x y ->
          if not (arrays_bit_equal x y) then
            Alcotest.failf "request %d: batched and solo outputs differ" ida)
        (outputs_of ida (Workload.opened batched))
        (outputs_of idb (Workload.opened solo)))
    (Server.results batched) (Server.results solo)

let test_batched_matches_reference () =
  let reqs = Workload.requests ~seed:23 ~clients:5 ~per_client:2 ~lane () in
  let server = mk_server () in
  let ids = submit_all server reqs in
  drain server;
  let results = Workload.opened server in
  List.iter2
    (fun id (w : Workload.req) ->
      let rsize =
        List.fold_left
          (fun a (_, v) -> max a (Array.length v))
          1 w.w_payload
      in
      let expected = solo_reference server w.w_program w.w_payload rsize in
      List.iter2
        (fun got want ->
          if not (arrays_bit_equal got want) then
            Alcotest.failf "request %d deviates from the solo reference" id)
        (outputs_of id results) expected)
    ids reqs

let test_ragged_final_batch () =
  (* Five identical-program requests under a window of four: a full batch
     and a ragged singleton tail, keys 0 and 4. *)
  let v i = [ ("x", Array.init (2 + i) (fun j -> float_of_int (i + j) /. 7.0)) ] in
  let server = mk_server ~batch_window:4 () in
  let ids =
    List.init 5 (fun i ->
        match
          Server.submit server ~tenant:(tenant i) ~program:"affine"
            ~payload:(v i)
        with
        | Ok id -> id
        | Error r -> Alcotest.failf "rejected: %s" (Server.reject_to_string r))
  in
  drain server;
  let lanes_of id =
    match Server.result server id with
    | Some (Server.Served { lanes; batch_key; _ }) -> (batch_key, lanes)
    | _ -> Alcotest.failf "request %d not served" id
  in
  List.iteri
    (fun i id ->
      let key, lanes = lanes_of id in
      if i < 4 then begin
        Alcotest.(check int) "full batch key" 0 key;
        Alcotest.(check int) "full batch lanes" 4 lanes
      end
      else begin
        Alcotest.(check int) "ragged tail key" 4 key;
        Alcotest.(check int) "ragged tail lanes" 1 lanes
      end;
      let expected = solo_reference server "affine" (v i) (2 + i) in
      List.iter2
        (fun got want ->
          if not (arrays_bit_equal got want) then
            Alcotest.failf "ragged request %d deviates from reference" id)
        (outputs_of id (Workload.opened server))
        expected)
    ids

let test_unbatchable_served_solo () =
  Alcotest.(check bool) "mean is not slotwise" false
    (Server.batchable (mk_server ()) "mean");
  let server = mk_server ~batch_window:8 () in
  let reqs =
    Workload.requests ~mix:[ "mean"; "affine" ] ~seed:5 ~clients:4
      ~per_client:2 ~lane ()
  in
  let ids = submit_all server reqs in
  drain server;
  List.iter2
    (fun id (w : Workload.req) ->
      match Server.result server id with
      | Some (Server.Served { lanes; _ }) ->
        if w.w_program = "mean" then
          Alcotest.(check int) "rotation-bearing program served solo" 1 lanes
        else
          Alcotest.(check bool) "slotwise program shared a ciphertext" true
            (lanes > 1)
      | _ -> Alcotest.failf "request %d not served" id)
    ids reqs

let test_oversized_request_served_solo () =
  let server = mk_server ~batch_window:8 () in
  (* Wider than a lane but within the ciphertext: must still be served,
     just not packed alongside others. *)
  let wide = [ ("x", Array.init (2 * lane) (fun i -> float_of_int i /. 17.0)) ] in
  let small = [ ("x", [| 0.5; -0.25 |]) ] in
  let id_small1 =
    submit_ok server
      { Workload.w_tenant = tenant 0; w_program = "affine";
        w_payload = small; w_tol = infinity }
  in
  let id_wide =
    submit_ok server
      { Workload.w_tenant = tenant 1; w_program = "affine";
        w_payload = wide; w_tol = infinity }
  in
  let id_small2 =
    submit_ok server
      { Workload.w_tenant = tenant 2; w_program = "affine";
        w_payload = small; w_tol = infinity }
  in
  drain server;
  (match Server.result server id_wide with
   | Some (Server.Served { lanes; _ }) ->
     Alcotest.(check int) "oversized request solo" 1 lanes
   | _ -> Alcotest.fail "oversized request not served");
  (match (Server.result server id_small1, Server.result server id_small2) with
   | ( Some (Server.Served { lanes = l1; batch_key = k1; _ }),
       Some (Server.Served { lanes = l2; batch_key = k2; _ }) ) ->
     Alcotest.(check int) "small requests still batch together" 2 l1;
     Alcotest.(check int) "same lanes" 2 l2;
     Alcotest.(check int) "same batch" k1 k2
   | _ -> Alcotest.fail "small requests not served");
  let expected = solo_reference server "affine" wide (2 * lane) in
  List.iter2
    (fun got want ->
      if not (arrays_bit_equal got want) then
        Alcotest.fail "oversized request deviates from reference")
    (outputs_of id_wide (Workload.opened server))
    expected

(* ------------------------------------------------------------------ *)
(* Key isolation                                                       *)
(* ------------------------------------------------------------------ *)

let test_tenant_seal_roundtrip () =
  let t0 = tenant 0 and t1 = tenant 1 in
  let data =
    [| 0.0; -0.0; 1.5; -2.25; 1e-300; -1e300; 0.1; Float.ldexp 1.0 (-1040) |]
  in
  let sealed = Tenant.seal t0 ~nonce:42 data in
  Alcotest.(check bool) "sealed differs from plaintext" false
    (arrays_bit_equal sealed.Tenant.s_data data);
  Alcotest.(check bool) "right key is bit-exact" true
    (arrays_bit_equal (Tenant.open_sealed t0 sealed) data);
  let wrong = Tenant.open_sealed t1 sealed in
  Alcotest.(check bool) "wrong key differs" false (arrays_bit_equal wrong data);
  Array.iteri
    (fun i x ->
      Alcotest.(check bool) "wrong-key garbage is finite" true
        (Float.is_finite x);
      (* The pads' exponent bits are clear, so a wrong key preserves each
         slot's exponent field: garbage keeps plaintext magnitude. *)
      let exp_bits v =
        Int64.logand (Int64.bits_of_float v) 0x7FF0_0000_0000_0000L
      in
      Alcotest.(check int64) "magnitude preserved" (exp_bits data.(i))
        (exp_bits x))
    wrong;
  (* Same tenant, different nonce: a fresh pad stream. *)
  let sealed' = Tenant.seal t0 ~nonce:43 data in
  Alcotest.(check bool) "nonce varies the pad" false
    (arrays_bit_equal sealed.Tenant.s_data sealed'.Tenant.s_data)

(* Wrong-key opens of a batch-served result must read as garbage to the
   noise guard (Breach), while right-key opens are healthy — the serving
   layer's isolation contract, asserted through the PR 2 guard itself. *)
let test_key_isolation_guarded () =
  let server = mk_server () in
  let payload = [ ("x", Array.init lane (fun i -> 0.1 +. (0.05 *. float_of_int i))) ] in
  let mk i =
    { Workload.w_tenant = tenant i; w_program = "poly"; w_payload = payload;
      w_tol = infinity }
  in
  let ids = submit_all server (List.init 4 mk) in
  drain server;
  let prog = Server.solo_program server "poly" in
  let reference = solo_reference server "poly" payload lane in
  let victim = List.hd ids in
  let sealed =
    match Server.result server victim with
    | Some (Server.Served { sealed; _ }) -> sealed
    | _ -> Alcotest.fail "victim not served"
  in
  let right = List.map (fun s -> Tenant.open_sealed (tenant 0) s) sealed in
  (match Guard.check prog ~reference ~observed:right with
   | Guard.Healthy _ -> ()
   | v ->
     Alcotest.failf "right key should be healthy: %s"
       (Guard.verdict_to_string v));
  let wrong = List.map (fun s -> Tenant.open_sealed (tenant 3) s) sealed in
  (match Guard.check prog ~reference ~observed:wrong with
   | Guard.Breach _ -> ()
   | v ->
     Alcotest.failf "wrong key must breach the guard: %s"
       (Guard.verdict_to_string v))

(* ------------------------------------------------------------------ *)
(* Admission control and backpressure                                  *)
(* ------------------------------------------------------------------ *)

let test_queue_full_rejection_and_backpressure () =
  let server = mk_server ~queue_depth:4 ~batch_window:4 () in
  let mk i =
    { Workload.w_tenant = tenant i; w_program = "affine";
      w_payload = [ ("x", [| float_of_int i |]) ]; w_tol = infinity }
  in
  let first = List.init 4 (fun i -> submit_ok server (mk i)) in
  (match
     Server.submit server ~tenant:(tenant 4) ~program:"affine"
       ~payload:[ ("x", [| 4.0 |]) ]
   with
   | Error (Server.Queue_full { depth }) ->
     Alcotest.(check int) "reject reports the bound" 4 depth
   | _ -> Alcotest.fail "5th request must be rejected");
  Alcotest.(check int) "pending at the bound" 4 (Server.pending server);
  (* Deliveries arrive in batch-key order. *)
  let order = ref [] in
  Server.run_until_drained
    ~on_batch:(fun ~key ~reqs:_ -> order := key :: !order)
    server;
  Alcotest.(check (list int)) "delivery in key order" [ 0 ] (List.rev !order);
  Alcotest.(check int) "drained" 0 (Server.pending server);
  (* After the drain the queue has room again: backpressure, not loss. *)
  let resubmitted = submit_ok server (mk 4) in
  Alcotest.(check int) "ids stay monotone" 4 resubmitted;
  drain server;
  let c = Server.counters server in
  Alcotest.(check int) "all five served" 5 c.Server.served;
  Alcotest.(check int) "one queue rejection counted" 1 c.Server.rejected_queue;
  List.iter
    (fun id ->
      match Server.result server id with
      | Some (Server.Served _) -> ()
      | _ -> Alcotest.failf "request %d lost" id)
    (first @ [ resubmitted ])

let test_admission_control () =
  let server = mk_server () in
  (* The static bound is positive, so a tolerance below bound*margin must
     be refused and an infinite one accepted. *)
  let bound = (Server.noise_report server "iterate").Noise_budget.worst in
  Alcotest.(check bool) "static bound is positive" true (bound > 0.0);
  (match
     Server.submit server ~tenant:(tenant 0) ~tol:(bound /. 2.0)
       ~program:"iterate" ~payload:[ ("x", [| 0.5 |]) ]
   with
   | Error (Server.Noise_budget { scaled; tol; _ }) ->
     Alcotest.(check bool) "refusal reports scaled > tol" true (scaled > tol)
   | _ -> Alcotest.fail "tight tolerance must be refused");
  (match
     Server.submit server ~tenant:(tenant 0) ~tol:(bound *. 100.0)
       ~program:"iterate" ~payload:[ ("x", [| 0.5 |]) ]
   with
   | Ok _ -> ()
   | Error r -> Alcotest.failf "loose tolerance refused: %s" (Server.reject_to_string r));
  (match
     Server.submit server ~tenant:(tenant 0) ~program:"nope"
       ~payload:[ ("x", [| 1.0 |]) ]
   with
   | Error (Server.Unknown_program "nope") -> ()
   | _ -> Alcotest.fail "unknown program must be refused");
  (match
     Server.submit server ~tenant:(tenant 0) ~program:"affine" ~payload:[]
   with
   | Error (Server.Missing_input "x") -> ()
   | _ -> Alcotest.fail "missing input must be refused");
  (match
     Server.submit server ~tenant:(tenant 0) ~program:"affine"
       ~payload:[ ("x", Array.make (slots + 1) 1.0) ]
   with
   | Error (Server.Over_slots { len; _ }) ->
     Alcotest.(check int) "oversized length reported" (slots + 1) len
   | _ -> Alcotest.fail "over-slots input must be refused");
  let c = Server.counters server in
  Alcotest.(check int) "admission rejections counted" 4
    c.Server.rejected_admission

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_size_invariance () =
  let serve () =
    let server = mk_server () in
    ignore
      (submit_all server
         (Workload.requests ~seed:31 ~clients:6 ~per_client:2 ~lane ()));
    drain server;
    (Workload.opened server, Server.report server)
  in
  let par, par_report = serve () in
  let seq, seq_report = Domain_pool.sequentially serve in
  check_outputs_equal "pool-size invariance" par seq;
  Alcotest.(check string) "reports (counters + stats) identical" par_report
    seq_report

let test_stats_accounting () =
  let reqs = Workload.requests ~seed:7 ~clients:8 ~per_client:2 ~lane () in
  let batched = mk_server ~batch_window:8 () in
  ignore (submit_all batched reqs);
  drain batched;
  let solo = mk_server ~batch_window:1 () in
  ignore (submit_all solo reqs);
  drain solo;
  let sb = Server.stats batched and ss = Server.stats solo in
  let cb = Server.counters batched in
  Alcotest.(check bool) "fewer batches than requests" true
    (cb.Server.batches < cb.Server.accepted);
  Alcotest.(check bool) "positioning rotations were hoisted" true
    (sb.Stats.hoisted_groups > 0);
  Alcotest.(check bool) "hoisting saved decompositions" true
    (sb.Stats.decompositions_saved > 0);
  Alcotest.(check int) "solo mode hoists nothing" 0 ss.Stats.hoisted_groups;
  Alcotest.(check bool) "batching amortizes bootstraps" true
    (sb.Stats.bootstrap < ss.Stats.bootstrap)

(* ------------------------------------------------------------------ *)
(* Durability                                                          *)
(* ------------------------------------------------------------------ *)

let serve_workload ?kill_after ~dir ~seed () =
  let server = mk_server ~dir ~batch_window:4 () in
  ignore
    (submit_all server
       (Workload.requests ~seed ~clients:5 ~per_client:2 ~lane ()));
  Server.run_until_drained ?kill_after server;
  server

(* Kill after every possible journal write; each resume must complete all
   accepted requests with the baseline's exact bytes, report, statistics
   and supervision state. *)
let test_kill_anywhere_resume_bit_identical () =
  let trial k =
    let dir = fresh_dir (Printf.sprintf "serve-kill-%d" k) in
    let t =
      Soak.trial ~cfg:(mk_cfg ~batch_window:4 ()) ~programs:(programs ())
        ~rounds:1 ~kill_after:k ~dir
        ~requests:(fun _ ->
          Workload.requests ~seed:47 ~clients:5 ~per_client:2 ~lane ())
    in
    rm_rf dir;
    Alcotest.(check (option int)) "killed at the requested write" (Some k)
      t.Soak.killed;
    Alcotest.(check (list string))
      (Printf.sprintf "resumed run matches the baseline after kill %d" k)
      [] t.Soak.failures;
    Alcotest.(check int) "every request accepted" 10
      (Server.counters t.Soak.baseline).Server.accepted;
    t
  in
  let first = trial 1 in
  let total_batches = (Server.counters first.Soak.baseline).Server.batches in
  Alcotest.(check bool) "workload spans several batches" true
    (total_batches >= 3);
  for k = 1 to total_batches do
    let t = if k = 1 then first else trial k in
    Alcotest.(check bool) "work remains after the kill" true
      (t.Soak.resumed_pending > 0 || k = total_batches)
  done

let test_resume_idempotent () =
  let dir = fresh_dir "serve-idem" in
  let baseline = serve_workload ~dir ~seed:53 () in
  let base_opened = Workload.opened baseline in
  (* Reopening a fully drained directory finds nothing to do and the same
     results; draining again executes nothing. *)
  let again = Server.open_resume ~dir in
  Alcotest.(check int) "nothing pending" 0 (Server.pending again);
  check_outputs_equal "reload" base_opened (Workload.opened again);
  let before = Server.report again in
  Server.run_until_drained again;
  Alcotest.(check string) "idempotent drain" before (Server.report again);
  rm_rf dir

let flip_byte path pos =
  let s = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Bytes.to_string b))

let test_damaged_journal_entry_reexecuted () =
  let dir = fresh_dir "serve-damaged" in
  let baseline = serve_workload ~dir ~seed:59 () in
  let base_opened = Workload.opened baseline and base_report = Server.report baseline in
  let jdir = Filename.concat dir "journal" in
  let entries = Sys.readdir jdir in
  Array.sort compare entries;
  Alcotest.(check bool) "several journal entries" true
    (Array.length entries >= 3);
  let victim = Filename.concat jdir entries.(1) in
  flip_byte victim 40;
  let resumed = Server.open_resume ~dir in
  Alcotest.(check int) "damaged entry reported" 1
    (List.length (Server.damaged resumed));
  Alcotest.(check bool) "its batch is pending again" true
    (Server.pending resumed > 0);
  Server.run_until_drained resumed;
  check_outputs_equal "re-executed damaged batch" base_opened (Workload.opened resumed);
  Alcotest.(check string) "report identical" base_report
    (Server.report resumed);
  rm_rf dir

let test_corrupt_request_file_is_loud () =
  let dir = fresh_dir "serve-badreq" in
  ignore (serve_workload ~dir ~seed:61 ());
  let rdir = Filename.concat dir "requests" in
  let files = Sys.readdir rdir in
  Array.sort compare files;
  flip_byte (Filename.concat rdir files.(0)) 30;
  (match Server.open_resume ~dir with
   | _ -> Alcotest.fail "corrupt accepted request must not load silently"
   | exception Halo_error.Persist_error _ -> ());
  rm_rf dir

(* The manifest fingerprint does not cover the traffic, so creating a
   server over a previous job's directory would silently adopt its
   requests and journal: refused, and only a resume may reopen it. *)
let test_used_dir_refused () =
  let dir = fresh_dir "serve-used" in
  (match serve_workload ~kill_after:1 ~dir ~seed:73 () with
   | _ -> Alcotest.fail "expected the simulated kill"
   | exception Server.Killed _ -> ());
  (match mk_server ~dir () with
   | _ -> Alcotest.fail "a used serve directory must be refused"
   | exception Halo_error.Persist_error { path; reason; _ } ->
     Alcotest.(check (option string)) "error names the directory" (Some dir)
       path;
     Alcotest.(check bool) "error points to --resume" true
       (contains ~sub:"--resume" reason));
  (* The refusal touched nothing: the killed job still resumes fully. *)
  let r = Server.open_resume ~dir in
  drain r;
  let c = Server.counters r in
  Alcotest.(check int) "every accepted request served after the refusal"
    c.Server.accepted c.Server.served;
  rm_rf dir;
  (* A manifest alone marks a job; an empty directory is free to use. *)
  ignore (mk_server ~dir ());
  (match mk_server ~dir () with
   | _ -> Alcotest.fail "a directory holding a manifest must be refused"
   | exception Halo_error.Persist_error _ -> ());
  rm_rf dir;
  Sys.mkdir dir 0o755;
  ignore (mk_server ~dir ());
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let faulty_cfg rate =
  {
    Serve_codec.f_seed = 0xFA17;
    f_transient = rate;
    f_bootstrap = rate;
    f_spike = 0.0;
    f_magnitude = 1e-4;
    f_poison = [];
  }

(* Under no-retry, a faulted batch degrades with a structured report while
   every fault-free batch's outputs stay bit-identical to a clean run —
   degradation never poisons neighbours. *)
let test_fault_degraded_isolation () =
  let reqs = Workload.requests ~seed:67 ~clients:8 ~per_client:3 ~lane () in
  let clean = mk_server ~batch_window:4 () in
  ignore (submit_all clean reqs);
  drain clean;
  let clean_opened = Workload.opened clean in
  let faulty =
    mk_server ~batch_window:4 ~policy:Resilient.no_retry
      ~faults:(faulty_cfg 0.02) ()
  in
  ignore (submit_all faulty reqs);
  drain faulty;
  let c = Server.counters faulty in
  Alcotest.(check bool) "some batches degraded" true (c.Server.failed > 0);
  Alcotest.(check bool) "some batches survived" true (c.Server.served > 0);
  List.iter
    (fun (id, r) ->
      match r with
      | Error (f : Server.failure) ->
        Alcotest.(check int) "failure names the request" id f.Server.f_req;
        Alcotest.(check bool) "failure names the op" true (f.Server.f_op <> "");
        Alcotest.(check bool) "attempts recorded" true (f.Server.f_attempts >= 1)
      | Ok (_, _, outs) ->
        (* A served request under fault injection matches the clean run
           exactly: zero-noise backend, and transients leave no trace. *)
        List.iter2
          (fun got want ->
            if not (arrays_bit_equal got want) then
              Alcotest.failf "request %d poisoned by a neighbour's fault" id)
          outs
          (outputs_of id clean_opened))
    (Workload.opened faulty)

let test_fault_retries_recover_all () =
  let reqs = Workload.requests ~seed:71 ~clients:6 ~per_client:2 ~lane () in
  let clean = mk_server ~batch_window:4 () in
  ignore (submit_all clean reqs);
  drain clean;
  let faulty = mk_server ~batch_window:4 ~faults:(faulty_cfg 0.05) () in
  ignore (submit_all faulty reqs);
  drain faulty;
  let c = Server.counters faulty in
  Alcotest.(check int) "retries recover every batch" 0 c.Server.failed;
  let s = Server.stats faulty in
  Alcotest.(check bool) "faults were actually injected" true
    (s.Stats.injected_faults > 0);
  Alcotest.(check bool) "retries were spent" true (s.Stats.retries > 0);
  check_outputs_equal "recovered outputs match clean run" (Workload.opened clean)
    (Workload.opened faulty)

(* The soak verdict is not vacuous: different traffic shows in the
   outputs, a different fault schedule in the statistics, and identical
   runs agree on every field. *)
let test_compare_detects_differences () =
  let serve ?faults seed =
    let s = mk_server ~batch_window:4 ?faults () in
    ignore
      (submit_all s (Workload.requests ~seed ~clients:4 ~per_client:2 ~lane ()));
    drain s;
    s
  in
  Alcotest.(check (list string)) "identical runs agree" []
    (Soak.compare (serve 1) (serve 1));
  Alcotest.(check bool) "request seeds 1 and 2: outputs differ" true
    (List.mem "outputs" (Soak.compare (serve 1) (serve 2)));
  let faults f_seed = { (faulty_cfg 0.05) with Serve_codec.f_seed } in
  Alcotest.(check bool) "different fault seeds: stats differ" true
    (List.mem "stats"
       (Soak.compare (serve ~faults:(faults 1) 1) (serve ~faults:(faults 2) 1)))

(* ------------------------------------------------------------------ *)
(* Golden execution bytes                                              *)
(* ------------------------------------------------------------------ *)

(* What a served batch computes, pinned: the kill/resume tests compare two
   runs of the same code, so only a digest table catches a change that
   moves both.  Each config serves the command line's default traffic (8
   clients x 4 requests, seed 0) on the calibrated noisy backend
   [halo_cli serve] uses; the digests cover every journal entry frame
   (by file name) and [Server.report]. *)
let golden_serve ?faults ?(margin = Guard.default_margin) sup =
  let dir = fresh_dir "serve-golden" in
  let cfg =
    {
      (mk_cfg ?faults ~sup ()) with
      Serve_codec.backend =
        Halo_persist.Ref_run.default_backend ~seed:0xB00 ~slots ~max_level ();
      margin;
    }
  in
  let server = Server.create ~dir cfg ~programs:(programs ()) in
  ignore
    (submit_all server
       (Workload.requests ~seed:0 ~clients:8 ~per_client:4 ~lane ()));
  drain server;
  let jdir = Filename.concat dir "journal" in
  let names = List.sort compare (Array.to_list (Sys.readdir jdir)) in
  let frames =
    List.map
      (fun f ->
        let bytes =
          In_channel.with_open_bin (Filename.concat jdir f) In_channel.input_all
        in
        Printf.sprintf "%s %s\n" f (Digest.to_hex (Digest.string bytes)))
      names
  in
  let prefix f = String.sub f 0 (String.index f '-') in
  let phases =
    List.map
      (fun p -> (p, List.length (List.filter (fun f -> prefix f = p) names)))
      [ "batch"; "solo"; "replan" ]
  in
  let report = Server.report server in
  rm_rf dir;
  ( phases,
    (Server.stats server).Stats.rescues,
    Digest.to_hex (Digest.string (String.concat "" frames)),
    Digest.to_hex (Digest.string report) )

let test_golden_serve_bytes () =
  let sup = Serve_codec.default_sup in
  let check name ~phases ~rescues ~journal ~report (p, r, j, rep) =
    Alcotest.(check (list (pair string int))) (name ^ ": phases") phases p;
    Alcotest.(check int) (name ^ ": rescues") rescues r;
    Alcotest.(check string) (name ^ ": journal frames") journal j;
    Alcotest.(check string) (name ^ ": report") report rep
  in
  check "fallback+rescue, margin 0.01"
    ~phases:[ ("batch", 6); ("solo", 32); ("replan", 32) ]
    ~rescues:66
    ~journal:"46b4b94c1b0c96f52f1a9ae77b37bb49"
    ~report:"7d2284b59a743084bc2738ccb6c31170"
    (golden_serve ~margin:0.01
       { sup with s_fallback = true; s_guard = true; s_rescue = true });
  check "poisoned tenant, fallback, quarantine after 1"
    ~phases:[ ("batch", 6); ("solo", 27); ("replan", 0) ]
    ~rescues:0
    ~journal:"29834e8c01803c2bf522a1b108179e52"
    ~report:"5c84d6f19878c9ce1371a297ba51368e"
    (golden_serve
       ~faults:
         {
           Serve_codec.f_seed = 1;
           f_transient = 0.0;
           f_bootstrap = 0.0;
           f_spike = 0.0;
           f_magnitude = 1e-4;
           f_poison = [ 1 ];
         }
       { sup with s_fallback = true; s_quarantine_after = 1 });
  check "deadline 2000us"
    ~phases:[ ("batch", 6); ("solo", 0); ("replan", 0) ]
    ~rescues:0
    ~journal:"1d758bf06aab31c537c5b50ae036ebc8"
    ~report:"76068edf842a04d340287c64cdc727e4"
    (golden_serve { sup with s_deadline_us = 2000 })

(* ------------------------------------------------------------------ *)
(* Slot packer properties                                              *)
(* ------------------------------------------------------------------ *)

let rotate_left v k =
  let n = Array.length v in
  Array.init n (fun i -> v.((i + k) mod n))

(* Random lane geometries (including ragged final lanes): packing then
   rotating lane [i] to the front then truncating recovers each vector
   bit-exactly, and every slot outside a vector's prefix is zero. *)
let packer_roundtrip_prop =
  QCheck.Test.make ~name:"packer pack/rotate/unpack round-trips exactly"
    ~count:200
    QCheck.(triple (int_range 0 4) (int_range 1 16) (int_range 0 10_000))
    (fun (lane_pow, want_lanes, seed) ->
      let lane = 1 lsl lane_pow in
      let cap = Slot_batch.capacity ~slots ~lane in
      let lanes = 1 + (want_lanes mod cap) in
      let st = Random.State.make [| 0xACC; seed; lane; lanes |] in
      let sizes = List.init lanes (fun _ -> 1 + Random.State.int st lane) in
      let vecs =
        List.map
          (fun s -> Array.init s (fun _ -> Random.State.float st 2.0 -. 1.0))
          sizes
      in
      let l = Slot_batch.plan ~slots ~lane ~sizes in
      let packed = Slot_batch.pack l vecs in
      Array.length packed = slots
      && List.for_all2
           (fun i v ->
             (* unpack is the plaintext mirror of the rotation epilogue *)
             arrays_bit_equal (Slot_batch.unpack l ~index:i packed) v
             && arrays_bit_equal
                  (Array.sub (rotate_left packed (i * lane)) 0
                     (Array.length v))
                  v)
           (List.init lanes Fun.id) vecs
      && (* all padding slots are zero *)
      Array.for_all
        (fun j ->
          let in_lane = j / lane in
          let off = j mod lane in
          in_lane >= lanes
          || off >= List.nth sizes in_lane
          || arrays_bit_equal [| packed.(j) |] [| List.nth vecs in_lane |> fun v -> v.(off) |])
        (Array.init slots Fun.id)
      &&
      let zeros_ok = ref true in
      Array.iteri
        (fun j x ->
          let in_lane = j / lane in
          if
            in_lane >= lanes
            || j mod lane >= List.nth sizes in_lane
          then if x <> 0.0 then zeros_ok := false)
        packed;
      !zeros_ok)

let test_packer_validation () =
  (match Slot_batch.plan ~slots ~lane:3 ~sizes:[ 1 ] with
   | _ -> Alcotest.fail "non-power-of-two lane must be rejected"
   | exception Invalid_argument _ -> ());
  (match Slot_batch.plan ~slots ~lane:8 ~sizes:[ 9 ] with
   | _ -> Alcotest.fail "size above the lane must be rejected"
   | exception Invalid_argument _ -> ());
  (match Slot_batch.plan ~slots ~lane:8 ~sizes:(List.init 9 (fun _ -> 1)) with
   | _ -> Alcotest.fail "overflowing the slot count must be rejected"
   | exception Invalid_argument _ -> ());
  Alcotest.(check int) "capacity" 8 (Slot_batch.capacity ~slots ~lane:8);
  let l = Slot_batch.plan ~slots ~lane:8 ~sizes:[ 3; 8; 1 ] in
  Alcotest.(check (list int)) "offsets" [ 0; 8; 16 ] (Slot_batch.offsets l)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serving"
    [
      ( "batching",
        [
          Alcotest.test_case "batched == solo, bit for bit" `Quick
            test_batched_vs_solo_bit_identity;
          Alcotest.test_case "batched matches the noiseless reference" `Quick
            test_batched_matches_reference;
          Alcotest.test_case "ragged final batch" `Quick test_ragged_final_batch;
          Alcotest.test_case "rotation-bearing programs go solo" `Quick
            test_unbatchable_served_solo;
          Alcotest.test_case "oversized requests go solo" `Quick
            test_oversized_request_served_solo;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "seal round-trip and wrong-key garbage" `Quick
            test_tenant_seal_roundtrip;
          Alcotest.test_case "wrong key breaches the noise guard" `Quick
            test_key_isolation_guarded;
        ] );
      ( "admission",
        [
          Alcotest.test_case "bounded queue and backpressure" `Quick
            test_queue_full_rejection_and_backpressure;
          Alcotest.test_case "noise-budget refusal and bad requests" `Quick
            test_admission_control;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pool-size invariance" `Quick
            test_pool_size_invariance;
          Alcotest.test_case "batching statistics" `Quick test_stats_accounting;
        ] );
      ( "durability",
        [
          Alcotest.test_case "kill anywhere, resume bit-identically" `Quick
            test_kill_anywhere_resume_bit_identical;
          Alcotest.test_case "resume is idempotent" `Quick
            test_resume_idempotent;
          Alcotest.test_case "damaged journal entry re-executed" `Quick
            test_damaged_journal_entry_reexecuted;
          Alcotest.test_case "corrupt accepted request is loud" `Quick
            test_corrupt_request_file_is_loud;
          Alcotest.test_case "used directory is refused" `Quick
            test_used_dir_refused;
        ] );
      ( "faults",
        [
          Alcotest.test_case "degradation is isolated and structured" `Quick
            test_fault_degraded_isolation;
          Alcotest.test_case "retries recover every batch" `Quick
            test_fault_retries_recover_all;
          Alcotest.test_case "soak verdict detects differences" `Quick
            test_compare_detects_differences;
        ] );
      ( "golden",
        [
          Alcotest.test_case "serve execution bytes" `Quick
            test_golden_serve_bytes;
        ] );
      ( "packer",
        [ Alcotest.test_case "layout validation" `Quick test_packer_validation ]
        @ List.map QCheck_alcotest.to_alcotest [ packer_roundtrip_prop ] );
    ]

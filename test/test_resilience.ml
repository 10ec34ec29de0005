(* Tests for the fault-tolerant runtime: deterministic seed-driven fault
   injection, retry with simulated backoff, loop checkpoint restore, the
   structured degraded report, and the noise-budget guard. *)

open Halo
module Faults = Halo_runtime.Faults
module Resilient = Halo_runtime.Resilient
module Guard = Halo_runtime.Guard
module Stats = Halo_runtime.Stats
module Faulty = Halo_runtime.Faults.Make (Halo_ckks.Ref_backend)
module Recover = Halo_runtime.Resilient.Make (Faulty)
module R = Halo_runtime.Interp.Make (Halo_ckks.Ref_backend)
module Oracle = Halo_verify.Oracle
module Ref_run = Halo_persist.Ref_run

let dyn name = Ir.Dyn { name; add = 0; div = 1; rem = false }

(* A training-loop shaped program: one cipher loop-carried value, addcp +
   bootstrap inside the loop once compiled with the HALO strategy. *)
let training_program ?(strategy = Strategy.Halo) () =
  Dsl.build ~name:"resil" ~slots:64 ~max_level:16 (fun b ->
      let x = Dsl.input b "x" ~size:8 in
      let outs =
        Dsl.for_ b ~count:(dyn "K")
          ~init:[ Dsl.const b 1.0; x ]
          (fun b -> function
            | [ acc; v ] ->
              [ Dsl.mul b acc (Dsl.const b 0.5); Dsl.add b v (Dsl.mul b v acc) ]
            | _ -> assert false)
      in
      List.iter (Dsl.output b) outs)
  |> Strategy.compile ~strategy

(* The guard needs a program whose static noise analysis is bounded; the
   squaring loop bootstraps the carried value at the head of each unrolled
   group, which the analysis recognizes (cf. test_analyses). *)
let squaring_program () =
  Dsl.build ~name:"square" ~slots:64 ~max_level:16 (fun b ->
      let x = Dsl.input b "x" ~size:8 in
      let outs =
        Dsl.for_ b ~count:(dyn "K") ~init:[ x ] (fun b -> function
          | [ v ] -> [ Dsl.mul b v v ]
          | _ -> assert false)
      in
      List.iter (Dsl.output b) outs)
  |> Strategy.compile ~strategy:Strategy.Packing

let x_input () = Array.init 8 (fun i -> 0.05 +. (float_of_int i /. 10.0))
let bindings = [ ("K", 5) ]

let backend ?seed ?noise (p : Ir.program) =
  Halo_ckks.Ref_backend.create ?seed ?enc_noise:noise ?mult_noise:noise
    ?boot_noise:noise ?rescale_noise:noise ~slots:p.slots
    ~max_level:p.max_level ~scale_bits:51 ()

(* Run [p] under fault injection with the resilient runtime; returns the
   outcome, the wrapped state (for injection counters) and the stats. *)
let run_faulty ?policy ?noise ~fault_seed ~backend_seed ?(cfg = fun seed ->
    Faults.config ~transient_prob:0.05 ~bootstrap_prob:0.05 ~seed ()) p =
  let stats = Stats.create () in
  let st =
    Faulty.wrap
      ~on_fault:(fun _ -> Stats.record_fault stats)
      (cfg fault_seed)
      (backend ~seed:backend_seed ?noise p)
  in
  let outcome =
    Recover.run ?policy ~stats st ~bindings ~inputs:[ ("x", x_input ()) ] p
  in
  (outcome, st, stats)

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let test_same_seed_same_schedule () =
  let p = training_program () in
  let go () =
    let kinds = ref [] in
    let stats = Stats.create () in
    let st =
      Faulty.wrap
        ~on_fault:(fun k ->
          kinds := k :: !kinds;
          Stats.record_fault stats)
        (Faults.config ~transient_prob:0.05 ~bootstrap_prob:0.05 ~seed:11 ())
        (backend ~seed:42 p)
    in
    match
      Recover.run ~stats st ~bindings ~inputs:[ ("x", x_input ()) ] p
    with
    | Recover.Complete { outputs; _ } ->
      (outputs, List.rev !kinds, Faulty.injected st, stats)
    | Recover.Degraded d ->
      Alcotest.failf "unexpected degradation: %s" (Recover.degraded_to_string d)
  in
  let o1, k1, n1, s1 = go () in
  let o2, k2, n2, s2 = go () in
  Alcotest.(check bool) "faults were injected" true (n1 > 0);
  Alcotest.(check int) "same injection count" n1 n2;
  Alcotest.(check bool) "same fault-kind sequence" true (k1 = k2);
  Alcotest.(check int) "same retry count" s1.Stats.retries s2.Stats.retries;
  Alcotest.(check bool) "bitwise-identical outputs" true (o1 = o2);
  Alcotest.(check int) "stats saw every fault" n1 s1.Stats.injected_faults

let test_different_seed_different_schedule () =
  let p = training_program () in
  let run seed =
    let _, st, _ =
      run_faulty ~fault_seed:seed ~backend_seed:42 p
    in
    (Faulty.ops_seen st, Faulty.injected st)
  in
  let seen =
    List.sort_uniq compare (List.map run [ 1; 2; 3; 4; 5; 6; 7; 8 ])
  in
  (* Eight seeds all producing the identical (ops, faults) trace would mean
     the seed is ignored. *)
  Alcotest.(check bool) "seed changes the schedule" true (List.length seen > 1)

(* ------------------------------------------------------------------ *)
(* Retry exhaustion: structured degraded report, not an exception      *)
(* ------------------------------------------------------------------ *)

let test_retry_exhaustion_degrades () =
  let p = training_program () in
  let outcome, st, stats =
    run_faulty ~policy:Resilient.no_retry ~fault_seed:0 ~backend_seed:42
      ~cfg:(fun seed ->
        Faults.config ~schedule:[ { Faults.at = 2; kind = Faults.Transient_op } ]
          ~seed ())
      p
  in
  match outcome with
  | Recover.Complete _ -> Alcotest.fail "expected a degraded outcome"
  | Recover.Degraded d ->
    Alcotest.(check int) "one attempt under no_retry" 1 d.Recover.attempts;
    Alcotest.(check bool) "failing op named" true
      (String.length d.Recover.failed.Halo_error.op > 0);
    Alcotest.(check bool) "report renders" true
      (String.length (Recover.degraded_to_string d) > 0);
    Alcotest.(check int) "exactly the scheduled fault" 1 (Faulty.injected st);
    Alcotest.(check int) "stats counted it" 1 stats.Stats.injected_faults;
    Alcotest.(check int) "no retries granted" 0 stats.Stats.retries

let test_retries_recover_same_seed () =
  (* The seeds that degrade under [no_retry] must recover under the default
     policy: the acceptance check that retries, not luck, do the work. *)
  let p = training_program () in
  let degraded_seeds =
    List.filter
      (fun seed ->
        match run_faulty ~policy:Resilient.no_retry ~fault_seed:seed ~backend_seed:42 p with
        | Recover.Degraded _, _, _ -> true
        | Recover.Complete _, _, _ -> false)
      [ 11; 12; 13; 14; 15; 16 ]
  in
  Alcotest.(check bool) "some seed degrades without retries" true
    (degraded_seeds <> []);
  List.iter
    (fun seed ->
      match run_faulty ~fault_seed:seed ~backend_seed:42 p with
      | Recover.Complete _, _, stats ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d recovered via retries" seed)
          true (stats.Stats.retries > 0)
      | Recover.Degraded d, _, _ ->
        Alcotest.failf "seed %d still degraded: %s" seed
          (Recover.degraded_to_string d))
    degraded_seeds

(* ------------------------------------------------------------------ *)
(* Checkpoint restore                                                  *)
(* ------------------------------------------------------------------ *)

let clean_outputs p =
  (* Noiseless reference run: the exact semantics, reproducible bit for
     bit because no RNG is consulted. *)
  let outs, _ =
    R.run (backend ~seed:42 ~noise:0.0 p) ~bindings
      ~inputs:[ ("x", x_input ()) ] p
  in
  outs

let test_retry_resume_bit_identical () =
  (* A transient aborts the op before it executes and the backend is
     noiseless, so a retried run must reproduce the fault-free outputs
     exactly — not just within tolerance. *)
  let p = training_program () in
  let clean = clean_outputs p in
  let outcome, st, stats =
    run_faulty ~noise:0.0 ~fault_seed:11 ~backend_seed:42 p
  in
  match outcome with
  | Recover.Degraded d ->
    Alcotest.failf "degraded: %s" (Recover.degraded_to_string d)
  | Recover.Complete { outputs; _ } ->
    Alcotest.(check bool) "faults injected" true (Faulty.injected st > 0);
    Alcotest.(check bool) "retries happened" true (stats.Stats.retries > 0);
    Alcotest.(check bool) "simulated backoff accumulated" true
      (stats.Stats.backoff_us > 0.0);
    Alcotest.(check bool) "bit-identical to fault-free run" true
      (outputs = clean)

let test_checkpoint_restore_bit_identical () =
  (* Force a retry-budget exhaustion inside a loop iteration: with
     [max_attempts = 1] a single scheduled transient immediately exhausts
     the instruction budget, the enclosing iteration re-executes from its
     checkpoint, and — the schedule index having passed — completes.  The
     op index of an in-loop instruction depends on compiler output, so
     scan candidate indices until one restores. *)
  let p = training_program () in
  let clean = clean_outputs p in
  let policy = { Resilient.no_retry with max_restores = 3 } in
  let total =
    let _, st, _ =
      run_faulty ~noise:0.0 ~fault_seed:0 ~backend_seed:42
        ~cfg:(fun seed -> Faults.config ~seed ()) p
    in
    Faulty.ops_seen st
  in
  let attempt_at at =
    run_faulty ~policy ~noise:0.0 ~fault_seed:0 ~backend_seed:42
      ~cfg:(fun seed ->
        Faults.config ~schedule:[ { Faults.at; kind = Faults.Transient_op } ]
          ~seed ())
      p
  in
  let rec scan at =
    if at >= total then
      Alcotest.fail "no candidate op index triggered a checkpoint restore"
    else
      match attempt_at at with
      | Recover.Complete { outputs; _ }, st, stats
        when stats.Stats.checkpoint_restores > 0 ->
        Alcotest.(check int) "single injected fault" 1 (Faulty.injected st);
        Alcotest.(check int) "single restore sufficed" 1
          stats.Stats.checkpoint_restores;
        Alcotest.(check bool) "resumed run is bit-identical" true
          (outputs = clean)
      | _ -> scan (at + 1)
  in
  scan (total / 2)

(* ------------------------------------------------------------------ *)
(* Noise-budget guard                                                  *)
(* ------------------------------------------------------------------ *)

let test_guard_healthy () =
  let p = squaring_program () in
  let m =
    Ref_run.manifest ~strategy:Strategy.Packing ~bindings
      ~inputs:[ ("x", x_input ()) ]
      p
  in
  let recompile _ = Alcotest.fail "no replan without rescue" in
  let g = Ref_run.guard ~recompile m (fst (Ref_run.exec m)) in
  (match g.Ref_run.outcome with
   | Ref_run.Rec.R.Complete { outputs; _ } ->
     Alcotest.(check bool) "outputs produced" true (outputs <> [])
   | Ref_run.Rec.R.Degraded d ->
     Alcotest.failf "unexpected degradation: %s"
       (Ref_run.Rec.R.degraded_to_string d));
  match g.Ref_run.verdict with
  | Some (Guard.Healthy { observed; bound }) ->
    Alcotest.(check bool) "observed below bound" true (observed < bound)
  | Some v ->
    Alcotest.failf "expected Healthy, got %s" (Guard.verdict_to_string v)
  | None -> Alcotest.fail "no verdict"

let test_guard_breach () =
  (* Corrupt one slot of the decrypted outputs far beyond the bound: the
     guard must localize the breach. *)
  let p = squaring_program () in
  let clean = clean_outputs p in
  let corrupted =
    List.mapi
      (fun i out ->
        let c = Array.copy out in
        if i = 0 then c.(3) <- c.(3) +. 0.5;
        c)
      clean
  in
  match Guard.check p ~reference:clean ~observed:corrupted with
  | Guard.Breach { output; slot; observed; bound } ->
    Alcotest.(check int) "breached output" 0 output;
    Alcotest.(check int) "breached slot" 3 slot;
    Alcotest.(check bool) "observed exceeds bound" true (observed > bound)
  | v -> Alcotest.failf "expected Breach, got %s" (Guard.verdict_to_string v)

let test_guard_catches_spikes () =
  (* Noise spikes are silent — no exception, no retry — so only the guard
     sees them.  Inject spikes far above the bound and require a breach. *)
  let p = squaring_program () in
  let clean = clean_outputs p in
  let outcome, st, _ =
    run_faulty ~noise:0.0 ~fault_seed:5 ~backend_seed:42
      ~cfg:(fun seed ->
        Faults.config ~spike_prob:0.2 ~spike_magnitude:0.3 ~seed ())
      p
  in
  match outcome with
  | Recover.Degraded d ->
    Alcotest.failf "spikes must not degrade: %s" (Recover.degraded_to_string d)
  | Recover.Complete { outputs; _ } ->
    Alcotest.(check bool) "spikes injected" true (Faulty.injected_spikes st > 0);
    (match Guard.check p ~reference:clean ~observed:outputs with
     | Guard.Breach _ -> ()
     | v ->
       Alcotest.failf "expected the guard to flag the spikes, got %s"
         (Guard.verdict_to_string v))

(* ------------------------------------------------------------------ *)
(* Fixed-schedule semantics: occurrence-indexed, consume-once           *)
(* ------------------------------------------------------------------ *)

let run_scheduled schedule =
  let p = training_program () in
  run_faulty ~noise:0.0 ~fault_seed:0 ~backend_seed:42
    ~cfg:(fun seed -> Faults.config ~schedule ~seed ())
    p

let total_clean_ops () =
  let _, st, _ = run_scheduled [] in
  Faulty.ops_seen st

let test_schedule_entry_fires_once () =
  (* A faulted op keeps its occurrence index across retries, and a schedule
     entry is consumed when it fires: the retry of op 2 must succeed on its
     second attempt, not fault forever against the same entry. *)
  let clean = clean_outputs (training_program ()) in
  let outcome, st, stats =
    run_scheduled [ { Faults.at = 2; kind = Faults.Transient_op } ]
  in
  match outcome with
  | Recover.Degraded d ->
    Alcotest.failf "entry re-fired on retry: %s" (Recover.degraded_to_string d)
  | Recover.Complete { outputs; _ } ->
    Alcotest.(check int) "exactly one injected fault" 1 (Faulty.injected st);
    Alcotest.(check int) "exactly one retry" 1 stats.Stats.retries;
    Alcotest.(check bool) "bit-identical after the retry" true
      (outputs = clean)

let test_schedule_duplicates_fault_attempts () =
  (* Two entries at the same index fault the op's first attempt and its
     first retry; the third attempt goes through. *)
  let clean = clean_outputs (training_program ()) in
  let outcome, st, stats =
    run_scheduled
      [
        { Faults.at = 2; kind = Faults.Transient_op };
        { Faults.at = 2; kind = Faults.Transient_op };
      ]
  in
  match outcome with
  | Recover.Degraded d ->
    Alcotest.failf "degraded: %s" (Recover.degraded_to_string d)
  | Recover.Complete { outputs; _ } ->
    Alcotest.(check int) "both duplicates fired" 2 (Faulty.injected st);
    Alcotest.(check int) "two retries consumed" 2 stats.Stats.retries;
    Alcotest.(check bool) "still bit-identical" true (outputs = clean)

let test_schedule_retry_does_not_shift () =
  (* The retry of op 2 must not advance the index past the entry scheduled
     at op 3: both entries fire, on distinct ops, and the completed-op count
     matches the fault-free run's. *)
  let total = total_clean_ops () in
  let outcome, st, stats =
    run_scheduled
      [
        { Faults.at = 2; kind = Faults.Transient_op };
        { Faults.at = 3; kind = Faults.Transient_op };
      ]
  in
  match outcome with
  | Recover.Degraded d ->
    Alcotest.failf "degraded: %s" (Recover.degraded_to_string d)
  | Recover.Complete _ ->
    Alcotest.(check int) "both entries fired" 2 (Faulty.injected st);
    Alcotest.(check int) "one retry each" 2 stats.Stats.retries;
    Alcotest.(check int) "occurrence index matches the clean run" total
      (Faulty.ops_seen st)

(* ------------------------------------------------------------------ *)
(* Periodic in-loop guard hook                                         *)
(* ------------------------------------------------------------------ *)

let run_guarded ~guard_every ~verdict =
  let p = training_program () in
  let stats = Stats.create () in
  let checked = ref [] in
  let guard =
    {
      Recover.guard_every;
      guard_check =
        (fun ~index values ->
          Alcotest.(check bool) "carried values are passed" true (values <> []);
          checked := index :: !checked;
          verdict);
    }
  in
  let st = Faulty.wrap (Faults.config ~seed:0 ()) (backend ~seed:42 p) in
  match Recover.run ~guard ~stats st ~bindings ~inputs:[ ("x", x_input ()) ] p with
  | Recover.Degraded d ->
    Alcotest.failf "guarded run degraded: %s" (Recover.degraded_to_string d)
  | Recover.Complete { stats = s; _ } -> (List.sort compare !checked, s)

let test_guard_cadence_and_trips () =
  (* Every completed top-level iteration is checked at cadence 1; cadence 2
     checks exactly the iterations with odd index ((i+1) mod 2 = 0).  A
     failing verdict counts a trip per check, a healthy one counts none. *)
  let all, s1 = run_guarded ~guard_every:1 ~verdict:false in
  Alcotest.(check bool) "the loop iterates" true (List.length all > 1);
  Alcotest.(check int) "cadence 1: a trip per iteration" (List.length all)
    s1.Stats.guard_trips;
  let odd, s2 = run_guarded ~guard_every:2 ~verdict:false in
  Alcotest.(check (list int)) "cadence 2 checks every other iteration"
    (List.filter (fun i -> (i + 1) mod 2 = 0) all)
    odd;
  Alcotest.(check int) "cadence 2: a trip per check" (List.length odd)
    s2.Stats.guard_trips;
  let healthy, s3 = run_guarded ~guard_every:1 ~verdict:true in
  Alcotest.(check (list int)) "healthy run checks the same iterations" all
    healthy;
  Alcotest.(check int) "healthy run trips nothing" 0 s3.Stats.guard_trips

(* ------------------------------------------------------------------ *)
(* Oracle integration                                                  *)
(* ------------------------------------------------------------------ *)

let test_oracle_fault_mode () =
  List.iter
    (fun seed ->
      let r = Oracle.run_seed ~fault_rate:0.02 seed in
      if not (Oracle.ok r) then
        Alcotest.failf "seed %d: %s" seed
          (String.concat "; " (List.map Oracle.failure_to_string r.failures)))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "halo_resilience"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same schedule and outputs" `Quick
            test_same_seed_same_schedule;
          Alcotest.test_case "different seeds differ" `Quick
            test_different_seed_different_schedule;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "exhaustion yields a structured report" `Quick
            test_retry_exhaustion_degrades;
          Alcotest.test_case "retries recover the degraded seeds" `Quick
            test_retries_recover_same_seed;
        ] );
      ( "checkpointing",
        [
          Alcotest.test_case "retry resume is bit-identical" `Quick
            test_retry_resume_bit_identical;
          Alcotest.test_case "checkpoint restore is bit-identical" `Quick
            test_checkpoint_restore_bit_identical;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "entry fires exactly once under retry" `Quick
            test_schedule_entry_fires_once;
          Alcotest.test_case "duplicates fault successive attempts" `Quick
            test_schedule_duplicates_fault_attempts;
          Alcotest.test_case "retry does not shift later entries" `Quick
            test_schedule_retry_does_not_shift;
        ] );
      ( "loop-guard",
        [
          Alcotest.test_case "cadence and trip counting" `Quick
            test_guard_cadence_and_trips;
        ] );
      ( "guard",
        [
          Alcotest.test_case "healthy run" `Quick test_guard_healthy;
          Alcotest.test_case "breach localized" `Quick test_guard_breach;
          Alcotest.test_case "silent spikes caught" `Quick
            test_guard_catches_spikes;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "fuzz with fault recovery" `Slow
            test_oracle_fault_mode;
        ] );
    ]

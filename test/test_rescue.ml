(* Tests for the runtime noise monitor: spike-triggered rescue bootstraps,
   byte-invisibility on quiet runs, the conservative replan fallback ladder,
   and kill/resume reproducibility of the rescue journal. *)

open Halo
module Faults = Halo_runtime.Faults
module Resilient = Halo_runtime.Resilient
module Guard = Halo_runtime.Guard
module Stats = Halo_runtime.Stats
module Monitor = Halo_runtime.Noise_monitor
module Faulty = Halo_runtime.Faults.Make (Halo_ckks.Ref_backend)
module Recover = Halo_runtime.Resilient.Make (Faulty)
module Plain = Halo_runtime.Resilient.Make (Halo_ckks.Ref_backend)
module R = Halo_runtime.Interp.Make (Halo_ckks.Ref_backend)
module Codec = Halo_persist.Codec
module Ref_run = Halo_persist.Ref_run
module PM = Monitor.Make (Faulty)

let dyn name = Ir.Dyn { name; add = 0; div = 1; rem = false }

(* Same training-loop shape as test_resilience: one loop-carried cipher,
   bootstraps inside the loop under the HALO strategy, so the static noise
   analysis is bounded and the monitor has a threshold to defend. *)
let training_program ?(strategy = Strategy.Halo) () =
  Dsl.build ~name:"rescue" ~slots:64 ~max_level:16 (fun b ->
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

let x_input () = Array.init 8 (fun i -> 0.05 +. (float_of_int i /. 10.0))
let bindings = [ ("K", 5) ]

let backend ?seed (p : Ir.program) =
  Halo_ckks.Ref_backend.create ?seed ~slots:p.slots ~max_level:p.max_level
    ~scale_bits:51 ()

let monitor_cfg p = Monitor.config ~margin:Guard.default_margin p

let complete = function
  | Recover.Complete { outputs; stats } -> (outputs, stats)
  | Recover.Degraded d ->
    Alcotest.failf "unexpected degradation: %s" (Recover.degraded_to_string d)

let run_complete outcome =
  match outcome with
  | Ref_run.Rec.R.Complete { outputs; stats } -> (outputs, stats)
  | Ref_run.Rec.R.Degraded d ->
    Alcotest.failf "unexpected degradation: %s"
      (Ref_run.Rec.R.degraded_to_string d)

let bit_identical a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : float array) y ->
         Array.length x = Array.length y
         && Array.for_all2 (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v) x y)
       a b

(* ------------------------------------------------------------------ *)
(* Spike-triggered rescue                                              *)
(* ------------------------------------------------------------------ *)

let spiked_run ?(spike_magnitude = 5e-3) ?(at = 12) p =
  let stats = Stats.create () in
  let st =
    Faulty.wrap
      (Faults.config
         ~schedule:[ { Faults.at; kind = Faults.Noise_spike } ]
         ~spike_magnitude ~seed:3 ())
      (backend ~seed:42 p)
  in
  let monitor = PM.create ~cfg:(monitor_cfg p) ~stats () in
  let outcome =
    Recover.run ~monitor ~stats st ~bindings ~inputs:[ ("x", x_input ()) ] p
  in
  (outcome, stats)

let test_spike_fires_rescue () =
  (* A scheduled noise spike inflates the estimate far past threshold /
     rescue_margin; the next loop-head check must fire a rescue bootstrap
     rather than letting the run coast to a decrypt-time breach. *)
  let p = training_program () in
  let outcome, stats = spiked_run p in
  let _, run_stats = complete outcome in
  Alcotest.(check bool)
    "at least one rescue fired" true
    (run_stats.Stats.rescues >= 1);
  Alcotest.(check int) "shared stats record agrees" run_stats.Stats.rescues
    stats.Stats.rescues

let test_rescue_is_deterministic () =
  let p = training_program () in
  let (o1, s1) = spiked_run p and (o2, s2) = spiked_run p in
  let outs1, _ = complete o1 and outs2, _ = complete o2 in
  Alcotest.(check bool) "outputs replay bit-identically" true
    (bit_identical outs1 outs2);
  Alcotest.(check bool) "stats replay exactly" true (Stats.equal s1 s2)

(* ------------------------------------------------------------------ *)
(* Quiet-path invisibility                                             *)
(* ------------------------------------------------------------------ *)

let test_quiet_run_untouched () =
  (* No spikes, no drift: the monitor must never fire and the outputs must
     be bit-identical to a plain interpreter run on the same seed. *)
  let p = training_program () in
  let stats = Stats.create () in
  let module PMon = Monitor.Make (Halo_ckks.Ref_backend) in
  let monitor = PMon.create ~cfg:(monitor_cfg p) ~stats () in
  let outcome =
    Plain.run ~monitor ~stats (backend ~seed:42 p) ~bindings
      ~inputs:[ ("x", x_input ()) ]
      p
  in
  let outs, run_stats =
    match outcome with
    | Plain.Complete { outputs; stats } -> (outputs, stats)
    | Plain.Degraded d ->
      Alcotest.failf "unexpected degradation: %s" (Plain.degraded_to_string d)
  in
  Alcotest.(check int) "no rescues" 0 run_stats.Stats.rescues;
  Alcotest.(check int) "no declined rescues" 0 run_stats.Stats.rescue_aborts;
  let reference, _ =
    R.run (backend ~seed:42 p) ~bindings ~inputs:[ ("x", x_input ()) ] p
  in
  Alcotest.(check bool) "monitored run is byte-invisible" true
    (bit_identical outs reference)

(* ------------------------------------------------------------------ *)
(* Conservative replan fallback                                        *)
(* ------------------------------------------------------------------ *)

let test_replan_ladder_descends () =
  Alcotest.(check bool)
    "halo steps down" true
    (Strategy.safer Strategy.Halo = Some Strategy.Packing_unrolling);
  let rec depth s n =
    match Strategy.safer s with None -> n | Some s' -> depth s' (n + 1)
  in
  Alcotest.(check int) "ladder terminates" 4 (depth Strategy.Halo 0)

let test_breach_recovers_under_replan () =
  (* A large spike corrupts the payload itself, which no rescue bootstrap
     can clean: the run breaches at decrypt.  The driver's guard must
     recompile one rung down the ladder, re-execute fault-free and come
     back healthy — the code path [halo_cli run --rescue --guard] and the
     fault soak both take.  Uses the linear benchmark because its static
     analysis is bounded under every ladder rung, so the guard emits a real
     Breach rather than an Unbounded shrug. *)
  let size = 16 in
  let bench = Halo_ml.Linear_reg.benchmark in
  let traced = bench.Halo_ml.Bench_def.build ~slots:64 ~size in
  let m =
    Ref_run.manifest ~backend_seed:42 ~guard_margin:Guard.default_margin
      ~rescue:true ~strategy:Strategy.Halo
      ~bindings:[ ("iters", 8) ]
      ~inputs:(bench.Halo_ml.Bench_def.gen_inputs ~seed:5 ~size)
      (Strategy.compile ~strategy:Strategy.Halo traced)
  in
  let faults =
    Faults.config
      ~schedule:[ { Faults.at = 20; kind = Faults.Noise_spike } ]
      ~spike_magnitude:5e-2 ~seed:3 ()
  in
  let spiked, _ = Ref_run.exec ~faults m in
  let spiked_outs, _ = run_complete spiked in
  let recompile s = Strategy.compile ~strategy:s traced in
  let g = Ref_run.guard ~recompile m spiked in
  (match g.Ref_run.replan with
   | Some (Guard.Breach _, s) ->
     Alcotest.(check string) "replanned one rung down" "packing+unrolling"
       (Strategy.to_string s)
   | Some (v, _) ->
     Alcotest.failf "replanned on a non-breach: %s" (Guard.verdict_to_string v)
   | None -> Alcotest.fail "expected the spiked run to breach and replan");
  (match g.Ref_run.verdict with
   | Some v ->
     Alcotest.(check bool) "replanned run is healthy" true (Guard.healthy v)
   | None -> Alcotest.fail "replanned run degraded");
  let outs, stats = run_complete g.Ref_run.outcome in
  Alcotest.(check int) "one guard trip" 1 stats.Stats.guard_trips;
  Alcotest.(check int) "one replan" 1 stats.Stats.replans;
  Alcotest.(check int) "replanned outputs intact" (List.length spiked_outs)
    (List.length outs)

(* ------------------------------------------------------------------ *)
(* Kill/resume reproducibility of the rescue journal                   *)
(* ------------------------------------------------------------------ *)

let fresh_dir = Fixture.fresh_dir

let rescue_manifest ?(guard_margin = 1.2) prog =
  {
    Codec.prog;
    strategy = "halo";
    bindings;
    inputs = [ ("x", x_input ()) ];
    backend =
      {
        Codec.slots = prog.Ir.slots;
        max_level = prog.Ir.max_level;
        scale_bits = 51;
        seed = 7;
        enc_noise = 1e-7;
        mult_noise = 1e-8;
        boot_noise = 1e-5;
        rescale_noise = 3e-8;
      };
    every_n = 1;
    retain = 4;
    guard_every = 0;
    (* A margin this tight leaves so little headroom that the monitor must
       rescue on the ordinary noise ramp — deterministic pressure without
       any fault injection. *)
    guard_margin;
    rescue = true;
    rescue_margin = Monitor.default_rescue_margin;
    max_rescues = Monitor.default_max_rescues;
  }

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let rescue_frames dir =
  let jdir = Ref_run.journal_dir dir in
  Sys.readdir jdir |> Array.to_list
  |> List.filter (fun f -> String.length f > 7 && String.sub f 0 7 = "rescue-")
  |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat jdir f)))

let test_rescue_kill_resume_identical () =
  let p = training_program () in
  let m = rescue_manifest p in
  (* Uninterrupted baseline. *)
  let base = fresh_dir "base" in
  Ref_run.start ~dir:base m;
  let outcome, damaged = Ref_run.exec ~dir:base ~resume:false m in
  Alcotest.(check int) "baseline journal intact" 0 (List.length damaged);
  let outs, stats = run_complete outcome in
  Alcotest.(check bool) "baseline rescues fired" true (stats.Stats.rescues >= 1);
  let base_frames = rescue_frames base in
  Alcotest.(check bool) "rescue frames journaled" true (base_frames <> []);
  (* Kill at every checkpoint depth reached, resume, compare everything. *)
  let writes = stats.Stats.checkpoint_writes in
  Alcotest.(check bool) "baseline checkpointed" true (writes >= 2);
  for k = 1 to min writes 6 do
    let dir = fresh_dir (Printf.sprintf "kill%d" k) in
    Ref_run.start ~dir m;
    (match Ref_run.exec ~kill_after:k ~dir ~resume:false m with
     | _ -> ()
     | exception Ref_run.Simulated_crash _ -> ());
    let outcome, damaged = Ref_run.exec ~dir ~resume:true m in
    Alcotest.(check int)
      (Printf.sprintf "kill %d: no damage" k)
      0 (List.length damaged);
    let outs', stats' = run_complete outcome in
    Alcotest.(check bool)
      (Printf.sprintf "kill %d: outputs identical" k)
      true (bit_identical outs outs');
    Alcotest.(check int)
      (Printf.sprintf "kill %d: rescue count identical" k)
      stats.Stats.rescues stats'.Stats.rescues;
    Alcotest.(check int)
      (Printf.sprintf "kill %d: rescue aborts identical" k)
      stats.Stats.rescue_aborts stats'.Stats.rescue_aborts;
    let frames = rescue_frames dir in
    Alcotest.(check int)
      (Printf.sprintf "kill %d: same rescue frame set" k)
      (List.length base_frames) (List.length frames);
    List.iter2
      (fun (fa, ba) (fb, bb) ->
        Alcotest.(check string)
          (Printf.sprintf "kill %d: frame name %s" k fa)
          fa fb;
        Alcotest.(check bool)
          (Printf.sprintf "kill %d: frame %s bytes identical" k fa)
          true (ba = bb))
      base_frames frames
  done

let () =
  Alcotest.run "rescue"
    [
      ( "monitor",
        [
          Alcotest.test_case "spike fires a rescue" `Quick
            test_spike_fires_rescue;
          Alcotest.test_case "rescue is deterministic" `Quick
            test_rescue_is_deterministic;
          Alcotest.test_case "quiet run is byte-invisible" `Quick
            test_quiet_run_untouched;
        ] );
      ( "replan",
        [
          Alcotest.test_case "ladder descends and terminates" `Quick
            test_replan_ladder_descends;
          Alcotest.test_case "breach recovers under replan" `Quick
            test_breach_recovers_under_replan;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "kill/resume replays the rescue journal" `Quick
            test_rescue_kill_resume_identical;
        ] );
    ]

(* Autotuner and machine-profile tests.

   The load-bearing properties: the pruned search returns the exact argmin
   the exhaustive search does (dominance arguments, not heuristics), the
   predictor's base component has interpreter parity (so predicted strategy
   order tracks measured order), manifests are deterministic, round-trip,
   and refuse a wrong fingerprint, and the calibrated host profile ranks
   the benched kernel operations the way the committed BENCH JSONs measured
   them. *)

open Halo
module Cost = Halo_cost.Cost_model
module Gen = Halo_verify.Gen
module Pipeline = Halo_verify.Pipeline
module Predict = Halo_tune.Predict
module Tuner = Halo_tune.Tuner
module Plan = Halo_tune.Plan
module Store = Halo_persist.Store

let gen_seeds = [ 1; 2; 3; 5; 8; 13 ]

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "halo-test-tune-%d-%s" (Unix.getpid ()) name)

(* ------------------------------------------------------------------ *)
(* Machine profiles (cost-model calibration)                           *)
(* ------------------------------------------------------------------ *)

(* Under the paper-GPU profile every scale is 1.0, so the Table 2 / Table 3
   anchors must reproduce bit-exactly: the profile layer cannot perturb the
   published numbers. *)
let test_paper_profile_anchors_exact () =
  Cost.with_profile Cost.paper_gpu (fun () ->
      List.iter
        (fun op ->
          List.iter
            (fun level ->
              match Cost.table2_anchor op ~level with
              | Some anchor ->
                Alcotest.(check (float 0.0))
                  (Printf.sprintf "%s at level %d" (Cost.op_to_string op)
                     level)
                  anchor
                  (Cost.latency_us op ~level)
              | None -> ())
            Cost.table2_levels)
        [ Cost.Multcc; Cost.Rescale; Cost.Modswitch ];
      List.iter
        (fun target ->
          match Cost.table3_anchor ~target with
          | Some anchor ->
            Alcotest.(check (float 0.0))
              (Printf.sprintf "bootstrap target %d" target)
              anchor
              (Cost.bootstrap_latency_us ~target)
          | None -> ())
        Cost.table3_targets)

(* Rank agreement with BENCH_kernels.json at n=4096, limbs=8:
   rns_mul_resident 329.7us > rescale 244.7us > automorphism 103.3us, and a
   full key-switched rotation measured 41.06ms >> one multiplication. *)
let test_host_profile_kernel_ranks () =
  Cost.with_profile Cost.host (fun () ->
      let multcc = Cost.latency_us Cost.Multcc ~level:8 in
      let rescale = Cost.latency_us Cost.Rescale ~level:8 in
      let rotate = Cost.latency_us Cost.Rotate ~level:8 in
      Alcotest.(check bool) "multcc > rescale" true (multcc > rescale);
      Alcotest.(check bool) "rotate >> multcc" true (rotate > multcc))

(* Rank agreement with BENCH_rotations.json (n=4096, limbs=8, weighted
   matvec rows): hoisting beats sequential key-switching at every group
   size; the lazy fusion loses to plain hoisting at group 2 (27.7ms hoisted
   vs 35.4ms lazy) and wins at groups 4 and 8 (52.3ms vs 81.6ms, 101.5ms vs
   152.4ms) -- the measured crossover the host profile's lazy MAC overhead
   was calibrated to reproduce. *)
let test_host_profile_rotation_ranks () =
  Cost.with_profile Cost.host (fun () ->
      let lazy_us m =
        Cost.rot_sum_us ~lazy_switch:true ~weighted:true ~members:m ~level:8
      in
      let hoisted_us m =
        Cost.rot_sum_us ~lazy_switch:false ~weighted:true ~members:m ~level:8
      in
      let eager_us m =
        float_of_int m *. Cost.key_switch_us ~digits_cached:false ~level:8
      in
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (Printf.sprintf "hoisted < eager at group %d" m)
            true
            (hoisted_us m < eager_us m))
        [ 2; 4; 8 ];
      Alcotest.(check bool)
        "group 2: hoisted < lazy" true
        (hoisted_us 2 < lazy_us 2);
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (Printf.sprintf "group %d: lazy < hoisted" m)
            true
            (lazy_us m < hoisted_us m))
        [ 4; 8 ])

let test_profile_lookup () =
  List.iter
    (fun (name, expected) ->
      match Cost.find_profile name with
      | Some p ->
        Alcotest.(check string) name expected p.Cost.profile_name
      | None -> Alcotest.failf "profile %S not found" name)
    [
      ("paper-gpu", "paper-gpu");
      ("paper_gpu", "paper-gpu");
      ("host", "host");
    ];
  Alcotest.(check bool)
    "unknown profile rejected" true
    (Cost.find_profile "tpu" = None)

(* ------------------------------------------------------------------ *)
(* Predictor: interpreter parity of the base component                 *)
(* ------------------------------------------------------------------ *)

module Ref = Halo_runtime.Interp.Make (Halo_ckks.Ref_backend)

(* b_base_us replicates the interpreter's charging rule op for op, so for
   any compiled generated program the static prediction must equal the
   measured virtual latency (up to float association in the summation). *)
let test_base_parity () =
  List.iter
    (fun seed ->
      let g = Gen.generate seed in
      List.iter
        (fun strategy ->
          let compiled =
            Strategy.compile ~bindings:g.Gen.bindings ~strategy g.Gen.prog
          in
          let predicted =
            Predict.price
              (Predict.walk_program ~bindings:g.Gen.bindings compiled)
          in
          let inputs = Pipeline.fixed_inputs g.Gen.prog in
          let st =
            Halo_ckks.Ref_backend.create ~slots:compiled.Ir.slots
              ~max_level:compiled.Ir.max_level ~scale_bits:51 ()
          in
          let _, stats =
            Ref.run st ~bindings:g.Gen.bindings ~inputs compiled
          in
          let measured = stats.Halo_runtime.Stats.total_latency_us in
          let base = predicted.Predict.b_base_us in
          let rel =
            Float.abs (base -. measured) /. Float.max 1.0 measured
          in
          if rel > 1e-9 then
            Alcotest.failf
              "seed %d %s: predicted base %.3f us, measured %.3f us" seed
              (Strategy.to_string strategy)
              base measured)
        Strategy.all)
    gen_seeds

(* The tuned plan is priced on the program it compiles to.  The lazy knob
   only decides whether the lazy-switch pass fuses rotation groups: the
   DSL's slot sums are RotSum stages either way, and the lattice backend
   runs every RotSum lazily, so a lazy-off point keeps their lazy delta.
   Under the host profile a stage with one rotating member (a size-2 sum)
   has a positive delta; pricing the lazy-off point from the lazy-on
   compile with every delta zeroed, as the search once did, made it win
   with a predicted cost below the price of its own program. *)
let slot_sum_loop size =
  Dsl.build ~name:"slot-sum" ~slots:64 ~max_level:8 (fun b ->
      let x = Dsl.input b "x" ~size:64 in
      match
        Dsl.for_ b ~count:(Ir.Static 4) ~init:[ x ] (fun b -> function
          | [ v ] -> [ Dsl.scale_by b (Dsl.sum_slots b v ~size) 0.45 ]
          | _ -> assert false)
      with
      | [ y ] -> Dsl.output b y
      | _ -> assert false)

let test_plan_priced_on_its_program () =
  let check profile name ~bindings src =
    Cost.with_profile profile (fun () ->
        let r, tuned = Tuner.tune ~bindings ~name src in
        let plan = r.Tuner.r_plan in
        let own =
          Predict.program ~bindings ~pool:plan.Plan.p_pool
            ~key_budget:plan.Plan.p_key_budget tuned
        in
        let rel =
          Float.abs (own.Predict.b_total_us -. r.Tuner.r_breakdown.Predict.b_total_us)
          /. Float.max 1.0 own.Predict.b_total_us
        in
        if rel > 1e-9 then
          Alcotest.failf "%s, %s profile (%s): plan predicts %.3f us, its program prices at %.3f us"
            name profile.Cost.profile_name
            (Tuner.candidate_to_string r.Tuner.r_best)
            r.Tuner.r_breakdown.Predict.b_total_us own.Predict.b_total_us)
  in
  List.iter
    (fun profile ->
      List.iter
        (fun size -> check profile (Printf.sprintf "slot sum %d" size) ~bindings:[] (slot_sum_loop size))
        [ 2; 8; 32 ];
      List.iter
        (fun seed ->
          let g = Gen.generate seed in
          check profile (Printf.sprintf "gen-%d" seed) ~bindings:g.Gen.bindings g.Gen.prog)
        gen_seeds;
      List.iter
        (fun (b : Halo_ml.Bench_def.t) ->
          check profile b.name
            ~bindings:(Halo_ml.Workloads.default_bindings b ~iters:2)
            (b.build ~slots:1024 ~size:32))
        Halo_ml.Workloads.all)
    Cost.profiles

(* ------------------------------------------------------------------ *)
(* Search: pruned = exhaustive                                         *)
(* ------------------------------------------------------------------ *)

let test_pruned_matches_exhaustive () =
  List.iter
    (fun seed ->
      let g = Gen.generate seed in
      let pruned, _ =
        Tuner.tune ~bindings:g.Gen.bindings
          ~name:(Printf.sprintf "gen-%d" seed)
          g.Gen.prog
      in
      let exhaustive, _ =
        Tuner.tune ~exhaustive:true ~bindings:g.Gen.bindings
          ~name:(Printf.sprintf "gen-%d" seed)
          g.Gen.prog
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d argmin" seed)
        (Tuner.candidate_to_string exhaustive.Tuner.r_best)
        (Tuner.candidate_to_string pruned.Tuner.r_best);
      Alcotest.(check (float 0.0))
        (Printf.sprintf "seed %d predicted cost" seed)
        exhaustive.Tuner.r_plan.Plan.p_predicted_us
        pruned.Tuner.r_plan.Plan.p_predicted_us;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d pruning did something" seed)
        true
        (pruned.Tuner.r_pruned > 0
        && pruned.Tuner.r_compiles < exhaustive.Tuner.r_compiles))
    gen_seeds

(* ------------------------------------------------------------------ *)
(* Determinism and the tuned-plan fingerprint                          *)
(* ------------------------------------------------------------------ *)

let test_determinism () =
  let g = Gen.generate 7 in
  let tune () =
    let r, _ = Tuner.tune ~bindings:g.Gen.bindings ~name:"gen-7" g.Gen.prog in
    let path = tmp_path "det.ckpt" in
    ignore (Store.save Plan.artifact ~path r.Tuner.r_plan);
    let bytes =
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove path;
      s
    in
    (r.Tuner.r_plan, bytes)
  in
  let p1, b1 = tune () in
  let p2, b2 = tune () in
  Alcotest.(check string)
    "same plan" (Plan.to_string p1) (Plan.to_string p2);
  Alcotest.(check bool) "byte-identical manifests" true (String.equal b1 b2)

let test_tuned_fingerprint_matches_untuned () =
  List.iter
    (fun seed ->
      let g = Gen.generate seed in
      let r, tuned =
        Tuner.tune ~bindings:g.Gen.bindings
          ~name:(Printf.sprintf "gen-%d" seed)
          g.Gen.prog
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d drift bounded" seed)
        true
        (r.Tuner.r_drift <= 1e-6);
      let reference =
        Pipeline.fingerprint ~bindings:g.Gen.bindings g.Gen.prog
      in
      let tuned_fp =
        Pipeline.fingerprint ~bindings:g.Gen.bindings
          ~inputs:(Pipeline.fixed_inputs g.Gen.prog)
          tuned
      in
      List.iter2
        (fun (a : float array) b ->
          Array.iteri
            (fun i x ->
              if Float.abs (x -. b.(i)) > 1e-6 then
                Alcotest.failf "seed %d: tuned output drifts at slot %d" seed
                  i)
            a)
        reference tuned_fp)
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Manifest persistence                                                *)
(* ------------------------------------------------------------------ *)

let test_manifest_roundtrip () =
  let g = Gen.generate 11 in
  let r, _ = Tuner.tune ~bindings:g.Gen.bindings ~name:"gen-11" g.Gen.prog in
  let path = tmp_path "roundtrip.ckpt" in
  ignore (Store.save Plan.artifact ~path r.Tuner.r_plan);
  let expect = Plan.fingerprint ~bindings:g.Gen.bindings g.Gen.prog in
  let loaded = Store.load ~fingerprint:expect Plan.artifact ~path in
  Sys.remove path;
  Alcotest.(check string)
    "round-trips" (Plan.to_string r.Tuner.r_plan) (Plan.to_string loaded);
  Alcotest.(check bool)
    "fingerprint restored" true
    (Int64.equal loaded.Plan.p_fingerprint r.Tuner.r_plan.Plan.p_fingerprint);
  Alcotest.(check (float 0.0))
    "predicted cost restored" r.Tuner.r_plan.Plan.p_predicted_us
    loaded.Plan.p_predicted_us

let test_manifest_rejects_wrong_fingerprint () =
  let g = Gen.generate 11 in
  let other = Gen.generate 12 in
  let r, _ = Tuner.tune ~bindings:g.Gen.bindings ~name:"gen-11" g.Gen.prog in
  let path = tmp_path "reject.ckpt" in
  ignore (Store.save Plan.artifact ~path r.Tuner.r_plan);
  let wrong = Plan.fingerprint ~bindings:other.Gen.bindings other.Gen.prog in
  Alcotest.(check bool)
    "stamps differ" true
    (not (Int64.equal wrong r.Tuner.r_plan.Plan.p_fingerprint));
  (match Store.load ~fingerprint:wrong Plan.artifact ~path with
   | _ -> Alcotest.fail "wrong-fingerprint manifest loaded"
   | exception Halo_error.Persist_error _ -> ());
  (* Same program, different bindings: also a different stamp, also
     refused. *)
  let rebound =
    Plan.fingerprint
      ~bindings:(List.map (fun (n, v) -> (n, v + 1)) g.Gen.bindings)
      g.Gen.prog
  in
  if not (Int64.equal rebound r.Tuner.r_plan.Plan.p_fingerprint) then
    (match Store.load ~fingerprint:rebound Plan.artifact ~path with
     | _ -> Alcotest.fail "rebound manifest loaded"
     | exception Halo_error.Persist_error _ -> ());
  Sys.remove path

(* The plan-driven compile entry point reproduces exactly the program the
   tuner verified. *)
let test_compile_plan_reproduces () =
  let g = Gen.generate 4 in
  let r, tuned = Tuner.tune ~bindings:g.Gen.bindings ~name:"gen-4" g.Gen.prog in
  let again, _ =
    Tuner.compile_plan ~verify:false ~bindings:g.Gen.bindings r.Tuner.r_plan
      g.Gen.prog
  in
  Alcotest.(check string)
    "identical compiled text"
    (Printer.program_to_string tuned)
    (Printer.program_to_string again)

(* A serve manifest carries each program's strategy and one global
   rotate_fuse: a plan retargets the registry entry it is stamped for only
   when its knobs are the server's, and is refused naming every knob that
   differs otherwise. *)
let serve_plan ~knobs =
  let affine =
    List.find
      (fun (pd : Halo_serve.Serve_codec.prog_def) -> pd.pd_name = "affine")
      (Fixture.programs ())
  in
  {
    Plan.p_prog = "affine";
    p_fingerprint = Plan.fingerprint ~bindings:[] affine.pd_traced;
    p_strategy = Strategy.Dacapo;
    p_knobs = knobs;
    p_key_budget = 0;
    p_pool = 1;
    p_profile = "paper-gpu";
    p_predicted_us = 0.0;
    p_breakdown = [];
  }

let test_serve_retarget_accepts () =
  let server_knobs = Halo_serve.Server.knobs (Fixture.mk_cfg ()) in
  match
    Plan.retarget ~knobs:server_knobs (serve_plan ~knobs:server_knobs)
      (Fixture.programs ())
  with
  | Error m -> Alcotest.failf "refused: %s" m
  | Ok (programs, names) ->
    Alcotest.(check (list string)) "retargeted" [ "affine" ] names;
    List.iter
      (fun (pd : Halo_serve.Serve_codec.prog_def) ->
        Alcotest.(check string) pd.pd_name
          (if pd.pd_name = "affine" then "dacapo" else "halo")
          (Strategy.to_string pd.pd_strategy))
      programs

let test_serve_retarget_refuses () =
  let server_knobs =
    Halo_serve.Server.knobs (Fixture.mk_cfg ~rotate_fuse:false ())
  in
  match
    Plan.retarget ~knobs:server_knobs
      (serve_plan
         ~knobs:{ Strategy.default_knobs with unroll = 4; lazy_switch = false })
      (Fixture.programs ())
  with
  | Ok _ -> Alcotest.fail "a plan with uncarried knobs was applied"
  | Error m ->
    Alcotest.(check string) "names every uncarried knob"
      "serve cannot carry tuned plan \"affine\": unroll=4 fuse=true \
       lazy=false (serving compiles with unroll=0 slack=0 fuse=false \
       lazy=true)"
      m

let () =
  Alcotest.run "tuning"
    [
      ( "profiles",
        [
          Alcotest.test_case "paper anchors exact" `Quick
            test_paper_profile_anchors_exact;
          Alcotest.test_case "host kernel ranks" `Quick
            test_host_profile_kernel_ranks;
          Alcotest.test_case "host rotation ranks" `Quick
            test_host_profile_rotation_ranks;
          Alcotest.test_case "profile lookup" `Quick test_profile_lookup;
        ] );
      ( "predict",
        [
          Alcotest.test_case "base has interp parity" `Quick test_base_parity;
          Alcotest.test_case "plan priced on its own program" `Quick
            test_plan_priced_on_its_program;
        ] );
      ( "search",
        [
          Alcotest.test_case "pruned = exhaustive" `Quick
            test_pruned_matches_exhaustive;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "tuned fingerprint = untuned" `Quick
            test_tuned_fingerprint_matches_untuned;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "round-trip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "wrong fingerprint rejected" `Quick
            test_manifest_rejects_wrong_fingerprint;
          Alcotest.test_case "compile_plan reproduces" `Quick
            test_compile_plan_reproduces;
          Alcotest.test_case "serve retarget accepts" `Quick
            test_serve_retarget_accepts;
          Alcotest.test_case "serve retarget refuses" `Quick
            test_serve_retarget_refuses;
        ] );
    ]

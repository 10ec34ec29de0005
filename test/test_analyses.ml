(* Tests for the auxiliary compiler analyses: rotation-key planning,
   multiplicative depth, the linear-algebra combinators and the static
   noise-budget estimator. *)

open Halo
module R = Halo_runtime.Interp.Make (Halo_ckks.Ref_backend)

let dyn name = Ir.Dyn { name; add = 0; div = 1; rem = false }

let ref_state ?(slots = 64) () =
  Halo_ckks.Ref_backend.create ~slots ~max_level:16 ~scale_bits:51 ()

(* ------------------------------------------------------------------ *)
(* Rotations                                                           *)
(* ------------------------------------------------------------------ *)

let test_rotations_collects () =
  let p =
    Dsl.build ~name:"rots" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        let a = Dsl.rotate b x 3 in
        let c = Dsl.rotate b a (-5) in
        let d = Dsl.rotate b c 67 (* = 3 mod 64 *) in
        Dsl.output b (Dsl.rotate b d 0))
  in
  Alcotest.(check (list int)) "normalized distinct offsets" [ 3; 59 ]
    (Rotations.required p)

let test_rotations_of_compiled_sum () =
  let p =
    Dsl.build ~name:"sum" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:16 in
        Dsl.output b (Dsl.sum_slots b x ~size:16))
    |> Strategy.compile ~strategy:Strategy.Type_matched
  in
  (* Two radix-4 rot_sum stages: offsets 1, 2, 3, then 4, 8, 12. *)
  Alcotest.(check (list int)) "radix-4 stage offsets" [ 1; 2; 3; 4; 8; 12 ]
    (Rotations.required p)

let test_rotations_cover_lowered_packing () =
  let p =
    Dsl.build ~name:"pk" ~slots:256 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:16 in
        let outs =
          Dsl.for_ b ~count:(dyn "K") ~init:[ x; x ] (fun b -> function
            | [ u; v ] ->
              [ Dsl.mul b u (Dsl.const b 0.9); Dsl.add b v (Dsl.mul b u (Dsl.const b 0.1)) ]
            | _ -> assert false)
        in
        List.iter (Dsl.output b) outs)
    |> Strategy.compile ~strategy:Strategy.Packing
  in
  (* Unpack replication rotates by -16 within a 32-slot period, plus the
     positioning rotation for segment 1. *)
  Alcotest.(check bool) "has replication rotations" true (Rotations.count p >= 2)

(* ------------------------------------------------------------------ *)
(* Depth                                                               *)
(* ------------------------------------------------------------------ *)

let test_depth_straight_line () =
  let p =
    Dsl.build ~name:"d" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        let x2 = Dsl.mul b x x in
        let x4 = Dsl.mul b x2 x2 in
        Dsl.output b (Dsl.add b x4 x))
  in
  Alcotest.(check int) "depth 2" 2 (Depth.program_depth p)

let test_depth_plain_products_free () =
  let p =
    Dsl.build ~name:"dp" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b ~status:Ir.Plain "x" ~size:8 in
        let y = Dsl.input b "y" ~size:8 in
        (* plain*plain adds no ciphertext depth; plain*cipher adds one *)
        let pp = Dsl.mul b x x in
        Dsl.output b (Dsl.mul b pp y))
  in
  Alcotest.(check int) "only the cp mult counts" 1 (Depth.program_depth p)

let test_depth_paper_figure2 () =
  (* The paper's Figure 2 loop body: x2 = x*y; y' = x2*y; a' = a + y' has
     multiplicative depth 2 (Section 6.2 walks this computation). *)
  let p =
    Dsl.build ~name:"fig2" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        let y0 = Dsl.input b "y" ~size:8 in
        let outs =
          Dsl.for_ b ~count:(dyn "K") ~init:[ y0; Dsl.const b 2.0 ]
            (fun b -> function
              | [ y; a ] ->
                let x2 = Dsl.mul b x y in
                let y' = Dsl.mul b x2 y in
                [ y'; Dsl.add b a y' ]
              | _ -> assert false)
        in
        List.iter (Dsl.output b) outs)
  in
  let fo =
    List.find_map
      (fun (i : Ir.instr) -> match i.op with Ir.For fo -> Some fo | _ -> None)
      p.body.instrs
    |> Option.get
  in
  Alcotest.(check int) "loop body depth" 2 (Depth.loop_body_depth p fo)

let test_depth_sign_composite () =
  let p =
    Dsl.build ~name:"sign" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        Dsl.output b (Halo_approx.Sign_approx.sign_dsl b x))
  in
  Alcotest.(check int) "composite sign depth matches the paper's 13"
    Halo_approx.Sign_approx.depth (Depth.program_depth p)

(* ------------------------------------------------------------------ *)
(* Linalg                                                              *)
(* ------------------------------------------------------------------ *)

let run1 build inputs =
  let p =
    Dsl.build ~name:"linalg" ~slots:64 ~max_level:16 build
    |> Strategy.compile ~strategy:Strategy.Type_matched
  in
  let outs, _ = R.run (ref_state ()) ~inputs p in
  List.hd outs

let test_linalg_dot () =
  let x = Array.init 8 (fun i -> float_of_int (i + 1) /. 10.0) in
  let y = Array.init 8 (fun i -> float_of_int (8 - i) /. 10.0) in
  let out =
    run1
      (fun b ->
        let xv = Dsl.input b "x" ~size:8 in
        let yv = Dsl.input b "y" ~size:8 in
        Dsl.output b (Linalg.dot b xv yv ~size:8))
      [ ("x", x); ("y", y) ]
  in
  let expected = Array.fold_left ( +. ) 0.0 (Array.map2 ( *. ) x y) in
  Alcotest.(check bool) "dot product" true (Float.abs (out.(0) -. expected) < 1e-3)

let test_linalg_variance () =
  let x = [| 0.1; 0.5; 0.9; 0.3; 0.7; 0.2; 0.8; 0.4 |] in
  let out =
    run1
      (fun b ->
        let xv = Dsl.input b "x" ~size:8 in
        Dsl.output b (Linalg.variance b xv ~size:8))
      [ ("x", x) ]
  in
  let mean = Array.fold_left ( +. ) 0.0 x /. 8.0 in
  let expected =
    Array.fold_left (fun a v -> a +. ((v -. mean) ** 2.0)) 0.0 x /. 8.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "variance %g vs %g" out.(0) expected)
    true
    (Float.abs (out.(0) -. expected) < 1e-3)

let test_linalg_matvec () =
  (* 4x4 matrix-vector product in diagonal form against direct math. *)
  let m = [| [| 0.5; 0.1; 0.0; 0.2 |]; [| 0.3; 0.4; 0.1; 0.0 |];
             [| 0.0; 0.2; 0.6; 0.1 |]; [| 0.1; 0.0; 0.2; 0.5 |] |] in
  let v = [| 0.8; -0.4; 0.6; 0.2 |] in
  let out =
    run1
      (fun b ->
        let vv = Dsl.input b "v" ~size:4 in
        let diags =
          Linalg.diagonals_of b ~dim:4 ~entry:(fun f g -> Dsl.const b m.(f).(g))
        in
        Dsl.output b (Linalg.matvec_diag b ~diags vv))
      [ ("v", v) ]
  in
  for f = 0 to 3 do
    let expected = ref 0.0 in
    for g = 0 to 3 do
      expected := !expected +. (m.(f).(g) *. v.(g))
    done;
    if Float.abs (out.(f) -. !expected) > 1e-3 then
      Alcotest.failf "matvec row %d: %g vs %g" f out.(f) !expected
  done

let test_linalg_covariance_prop =
  QCheck.Test.make ~name:"covariance(x, x) = variance(x)" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let x = Array.init 8 (fun _ -> Random.State.float rng 1.0) in
      let p =
        Dsl.build ~name:"cv" ~slots:64 ~max_level:16 (fun b ->
            let xv = Dsl.input b "x" ~size:8 in
            Dsl.output b (Linalg.covariance b xv xv ~size:8);
            Dsl.output b (Linalg.variance b xv ~size:8))
        |> Strategy.compile ~strategy:Strategy.Type_matched
      in
      let outs, _ = R.run (ref_state ()) ~inputs:[ ("x", x) ] p in
      Float.abs ((List.nth outs 0).(0) -. (List.nth outs 1).(0)) < 1e-4)

(* ------------------------------------------------------------------ *)
(* Noise budget                                                        *)
(* ------------------------------------------------------------------ *)

let test_noise_straight_line () =
  let p =
    Dsl.build ~name:"nb" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        let y = Dsl.input b "y" ~size:8 in
        Dsl.output b (Dsl.add b x y))
    |> Strategy.compile ~strategy:Strategy.Type_matched
  in
  let r = Noise_budget.analyze p in
  Alcotest.(check bool) "bounded" true r.bounded;
  (* Addition keeps the larger of the two fresh-encryption bounds. *)
  Alcotest.(check (float 1e-12)) "encryption noise" 1e-7 r.worst

let test_noise_bootstrap_dominates () =
  let p =
    Dsl.build ~name:"nb2" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        let outs =
          Dsl.for_ b ~count:(dyn "K") ~init:[ x ] (fun b -> function
            | [ v ] -> [ Dsl.mul b v v ]
            | _ -> assert false)
        in
        List.iter (Dsl.output b) outs)
    |> Strategy.compile ~strategy:Strategy.Packing
  in
  let r = Noise_budget.analyze p in
  Alcotest.(check bool) "bounded thanks to head bootstrap" true r.bounded;
  Alcotest.(check bool) "bootstrap unit dominates" true
    (r.worst >= 1e-5 && r.worst < 1e-3);
  (* Under HALO the body is unrolled ~15x and each squaring doubles the
     relative error, so the bound grows exponentially in the unroll factor
     while remaining finite. *)
  let unrolled =
    Noise_budget.analyze
      (Strategy.compile ~strategy:Strategy.Halo
         (Dsl.build ~name:"nb3" ~slots:64 ~max_level:16 (fun b ->
              let x = Dsl.input b "x" ~size:8 in
              let outs =
                Dsl.for_ b ~count:(dyn "K") ~init:[ x ] (fun b -> function
                  | [ v ] -> [ Dsl.mul b v v ]
                  | _ -> assert false)
              in
              List.iter (Dsl.output b) outs)))
  in
  Alcotest.(check bool) "unrolled squaring chain still bounded" true
    (unrolled.bounded && unrolled.worst < 1.0 && unrolled.worst > r.worst)

let test_noise_unbounded_without_bootstrap () =
  (* A hand-written loop whose carried noise compounds through
     multiplication without any bootstrap: the analysis must flag it. *)
  let src =
    "program \"grow\" slots=64 level=16 {\n\
    \  input %0 \"x\" cipher size=8\n\
    \  %1, %2 = for K init(%0, %0) boundary=16 {\n\
    \  ^(%3, %4):\n\
    \    %5 = mul %3, %4\n\
    \    yield %5, %4\n\
    \  }\n\
    \  output %1\n\
     }\n"
  in
  let p = Parser.parse_program src in
  let r = Noise_budget.analyze p in
  Alcotest.(check bool) "flagged unbounded" false r.bounded

let test_noise_matches_backend_order () =
  (* The static bound should upper-bound (within an order of magnitude) the
     empirical error of the reference backend. *)
  let b = Halo_ml.Workloads.find "Linear" in
  let p = b.build ~slots:1024 ~size:64 in
  let compiled = Strategy.compile ~strategy:Strategy.Halo p in
  let budget = Noise_budget.analyze compiled in
  let rmse, _ =
    Halo_ml.Workloads.run_rmse b ~slots:1024 ~size:64 ~seed:0 ~iters:8
      ~strategy:Strategy.Halo
  in
  Alcotest.(check bool)
    (Printf.sprintf "empirical %g within ~10x of static bound %g" rmse budget.worst)
    true
    (budget.bounded && rmse < budget.worst *. 10.0)

let () =
  Alcotest.run "halo_analyses"
    [
      ( "rotations",
        [
          Alcotest.test_case "collects and normalizes" `Quick test_rotations_collects;
          Alcotest.test_case "sum tree offsets" `Quick test_rotations_of_compiled_sum;
          Alcotest.test_case "covers lowered packing" `Quick test_rotations_cover_lowered_packing;
        ] );
      ( "depth",
        [
          Alcotest.test_case "straight line" `Quick test_depth_straight_line;
          Alcotest.test_case "plain products free" `Quick test_depth_plain_products_free;
          Alcotest.test_case "paper figure 2" `Quick test_depth_paper_figure2;
          Alcotest.test_case "composite sign" `Quick test_depth_sign_composite;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "dot" `Quick test_linalg_dot;
          Alcotest.test_case "variance" `Quick test_linalg_variance;
          Alcotest.test_case "matvec diagonals" `Quick test_linalg_matvec;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ test_linalg_covariance_prop ] );
      ( "noise_budget",
        [
          Alcotest.test_case "straight line" `Quick test_noise_straight_line;
          Alcotest.test_case "bootstrap dominates" `Quick test_noise_bootstrap_dominates;
          Alcotest.test_case "unbounded flagged" `Quick test_noise_unbounded_without_bootstrap;
          Alcotest.test_case "bounds empirical error" `Quick test_noise_matches_backend_order;
        ] );
    ]

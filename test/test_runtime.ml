(* Tests for the interpreter: semantics against cleartext references,
   strategy equivalence, backend agreement, and statistics accounting. *)

open Halo
module R = Halo_runtime.Interp.Make (Halo_ckks.Ref_backend)
module L = Halo_runtime.Interp.Make (Halo_runtime.Lattice_backend)
module Stats = Halo_runtime.Stats

let dyn name = Ir.Dyn { name; add = 0; div = 1; rem = false }

let ref_state ?(slots = 64) () =
  Halo_ckks.Ref_backend.create ~slots ~max_level:16 ~scale_bits:51 ()

let near ?(tol = 1e-4) msg expected actual =
  Array.iteri
    (fun i e ->
      if Float.abs (e -. actual.(i)) > tol then
        Alcotest.failf "%s: slot %d: %g vs %g" msg i e actual.(i))
    expected

(* ------------------------------------------------------------------ *)
(* Straight-line semantics                                             *)
(* ------------------------------------------------------------------ *)

let test_arith () =
  let p =
    Dsl.build ~name:"arith" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        let y = Dsl.input b "y" ~size:8 in
        Dsl.output b (Dsl.add b x y);
        Dsl.output b (Dsl.sub b x y);
        Dsl.output b (Dsl.mul b x y);
        Dsl.output b (Dsl.mul b x (Dsl.const b 2.0));
        Dsl.output b (Dsl.sub b (Dsl.const b 1.0) x);
        Dsl.output b (Dsl.rotate b x 3))
    |> Strategy.compile ~strategy:Strategy.Type_matched
  in
  let x = [| 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8 |] in
  let y = [| 0.8; 0.7; 0.6; 0.5; 0.4; 0.3; 0.2; 0.1 |] in
  let outs, _ = R.run (ref_state ()) ~inputs:[ ("x", x); ("y", y) ] p in
  (match outs with
   | [ s; d; m; sc; rs; rot ] ->
     near "add" (Array.map2 ( +. ) x y) (Array.sub s 0 8);
     near "sub" (Array.map2 ( -. ) x y) (Array.sub d 0 8);
     near "mul" (Array.map2 ( *. ) x y) (Array.sub m 0 8);
     near "scale" (Array.map (fun v -> 2.0 *. v) x) (Array.sub sc 0 8);
     near "plain minus cipher" (Array.map (fun v -> 1.0 -. v) x) (Array.sub rs 0 8);
     near "rotate" (Array.init 8 (fun i -> x.((i + 3) mod 8))) (Array.sub rot 0 8)
   | _ -> Alcotest.fail "arity")

let test_plain_only_flows () =
  let p =
    Dsl.build ~name:"plain" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b ~status:Ir.Plain "x" ~size:8 in
        Dsl.output b (Dsl.mul b (Dsl.add b x x) (Dsl.const b 3.0)))
    |> Strategy.compile ~strategy:Strategy.Type_matched
  in
  let x = Array.init 8 (fun i -> float_of_int i /. 10.0) in
  let outs, stats = R.run (ref_state ()) ~inputs:[ ("x", x) ] p in
  near "plain arithmetic" (Array.map (fun v -> 6.0 *. v) x) (Array.sub (List.hd outs) 0 8);
  Alcotest.(check int) "no cipher ops" 0 (Stats.total_ops stats)

let test_replication () =
  let p =
    Dsl.build ~name:"replicate" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        Dsl.output b (Dsl.sum_slots b x ~size:8))
    |> Strategy.compile ~strategy:Strategy.Type_matched
  in
  let x = Array.init 8 (fun i -> float_of_int (i + 1)) in
  let outs, _ = R.run (ref_state ()) ~inputs:[ ("x", x) ] p in
  let total = 36.0 in
  near ~tol:1e-3 "rotate-sum" (Array.make 64 total) (List.hd outs)

(* ------------------------------------------------------------------ *)
(* Loops: dynamic iteration counts and strategy equivalence            *)
(* ------------------------------------------------------------------ *)

let geometric_program () =
  Dsl.build ~name:"geo" ~slots:64 ~max_level:16 (fun b ->
      let x = Dsl.input b "x" ~size:8 in
      let outs =
        Dsl.for_ b ~count:(dyn "K")
          ~init:[ Dsl.const b 1.0; x ]
          (fun b -> function
            | [ acc; v ] ->
              [ Dsl.mul b acc (Dsl.const b 0.5); Dsl.add b v acc ]
            | _ -> assert false)
      in
      List.iter (Dsl.output b) outs)

let geometric_reference k x =
  let acc = ref (Array.make 8 1.0) and v = ref (Array.copy x) in
  for _ = 1 to k do
    let acc' = Array.map (fun a -> a *. 0.5) !acc in
    v := Array.map2 ( +. ) !v !acc;
    acc := acc'
  done;
  (!acc, !v)

let test_dynamic_counts () =
  let p = Strategy.compile ~strategy:Strategy.Halo (geometric_program ()) in
  let x = Array.init 8 (fun i -> float_of_int i /. 8.0) in
  List.iter
    (fun k ->
      let outs, _ = R.run (ref_state ()) ~bindings:[ ("K", k) ] ~inputs:[ ("x", x) ] p in
      let acc_e, v_e = geometric_reference k x in
      near ~tol:1e-3 (Printf.sprintf "acc k=%d" k) acc_e (Array.sub (List.nth outs 0) 0 8);
      near ~tol:1e-3 (Printf.sprintf "v k=%d" k) v_e (Array.sub (List.nth outs 1) 0 8))
    [ 1; 2; 3; 7; 12 ]
(* The same compiled artifact serves every iteration count: the paper's
   core "dynamic iteration" capability. *)

let test_strategy_equivalence () =
  let x = Array.init 8 (fun i -> 0.05 +. (float_of_int i /. 10.0)) in
  let k = 6 in
  let results =
    List.map
      (fun s ->
        let p =
          Strategy.compile ~bindings:[ ("K", k) ] ~strategy:s (geometric_program ())
        in
        let outs, _ =
          R.run (ref_state ()) ~bindings:[ ("K", k) ] ~inputs:[ ("x", x) ] p
        in
        (s, outs))
      Strategy.all
  in
  match results with
  | (_, base) :: rest ->
    List.iter
      (fun (s, outs) ->
        List.iter2
          (fun b o ->
            near ~tol:1e-3
              (Printf.sprintf "%s agrees" (Strategy.to_string s))
              (Array.sub b 0 8) (Array.sub o 0 8))
          base outs)
      rest
  | [] -> Alcotest.fail "no strategies"

let test_backend_agreement () =
  (* The same compiled program on the reference and the real lattice
     backend must agree within noise. *)
  let prog =
    Dsl.build ~name:"agree" ~slots:64 ~max_level:8 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        let outs =
          Dsl.for_ b ~count:(dyn "K") ~init:[ x ] (fun b -> function
            | [ v ] -> [ Dsl.add b (Dsl.mul b v v) (Dsl.const b 0.05) ]
            | _ -> assert false)
        in
        List.iter (Dsl.output b) outs)
    |> Strategy.compile ~strategy:Strategy.Halo
  in
  let x = Array.init 8 (fun i -> 0.2 +. (float_of_int i /. 20.0)) in
  let bindings = [ ("K", 4) ] in
  let ref_outs, _ =
    R.run
      (Halo_ckks.Ref_backend.create ~slots:64 ~max_level:8 ~scale_bits:27 ())
      ~bindings ~inputs:[ ("x", x) ] prog
  in
  let params = Halo_ckks.Params.make ~log_n:7 ~max_level:8 ~base_bits:31 ~scale_bits:27 () in
  let keys = Halo_ckks.Keys.keygen params in
  let lat_outs, _ = L.run keys ~bindings ~inputs:[ ("x", x) ] prog in
  List.iter2
    (fun a b -> near ~tol:5e-3 "backends agree" (Array.sub a 0 8) (Array.sub b 0 8))
    ref_outs lat_outs

let test_packing_on_lattice () =
  (* Pack/unpack lowering (masks + rotations) must be semantics-preserving
     on genuine RLWE ciphertexts, not just on the reference backend. *)
  let prog =
    Dsl.build ~name:"packed" ~slots:64 ~max_level:8 (fun b ->
        let x = Dsl.input b "x" ~size:16 in
        let outs =
          Dsl.for_ b ~count:(dyn "K") ~init:[ x; x ] (fun b -> function
            | [ u; v ] ->
              let u' = Dsl.mul b u (Dsl.const b 0.8) in
              [ u'; Dsl.add b v u' ]
            | _ -> assert false)
        in
        List.iter (Dsl.output b) outs)
    |> Strategy.compile ~strategy:Strategy.Packing
  in
  (* The compiled body must actually contain lowered masks for this test to
     exercise what it claims. *)
  let masks =
    Ir.count_ops
      ~p:(function Ir.Const { value = Ir.Vector _; _ } -> true | _ -> false)
      prog.body
  in
  Alcotest.(check bool) "packing was applied" true (masks > 0);
  let x = Array.init 16 (fun i -> 0.1 +. (float_of_int i /. 40.0)) in
  let k = 3 in
  let u_e = ref (Array.copy x) and v_e = ref (Array.copy x) in
  for _ = 1 to k do
    let u' = Array.map (fun a -> a *. 0.8) !u_e in
    v_e := Array.map2 ( +. ) !v_e u';
    u_e := u'
  done;
  let params = Halo_ckks.Params.make ~log_n:7 ~max_level:8 ~base_bits:31 ~scale_bits:27 () in
  let keys = Halo_ckks.Keys.keygen params in
  let outs, stats = L.run keys ~bindings:[ ("K", k) ] ~inputs:[ ("x", x) ] prog in
  near ~tol:5e-3 "u on lattice" !u_e (Array.sub (List.nth outs 0) 0 16);
  near ~tol:5e-3 "v on lattice" !v_e (Array.sub (List.nth outs 1) 0 16);
  Alcotest.(check bool) "one bootstrap per iteration" true
    (stats.Stats.bootstrap <= k + 1)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let test_stats_counting () =
  let p =
    Dsl.build ~name:"stats" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        let y = Dsl.input b "y" ~size:8 in
        let prod = Dsl.mul b x y in
        Dsl.output b (Dsl.rotate b (Dsl.add b prod (Dsl.const b 1.0)) 2))
    |> Strategy.compile ~strategy:Strategy.Type_matched
  in
  let x = Array.make 8 0.5 and y = Array.make 8 0.25 in
  let _, stats = R.run (ref_state ()) ~inputs:[ ("x", x); ("y", y) ] p in
  Alcotest.(check int) "multcc" 1 stats.Stats.multcc;
  Alcotest.(check int) "rescale" 1 stats.Stats.rescale;
  Alcotest.(check int) "addcp" 1 stats.Stats.addcp;
  Alcotest.(check int) "rotate" 1 stats.Stats.rotate;
  Alcotest.(check int) "no bootstrap" 0 stats.Stats.bootstrap;
  Alcotest.(check bool) "latency positive" true (stats.Stats.total_latency_us > 0.0)

let test_stats_bootstrap_latency () =
  let p = Strategy.compile ~strategy:Strategy.Type_matched (geometric_program ()) in
  let x = Array.make 8 0.5 in
  let _, stats = R.run (ref_state ()) ~bindings:[ ("K", 5) ] ~inputs:[ ("x", x) ] p in
  Alcotest.(check bool) "bootstraps executed" true (stats.Stats.bootstrap > 0);
  Alcotest.(check bool) "bootstrap dominates" true
    (stats.Stats.bootstrap_latency_us > Stats.compute_latency_us stats);
  (* [acc] is plaintext throughout (plain times plain constant), so only
     the single carried ciphertext [v] is bootstrapped, once per iteration,
     and no peeling is needed. *)
  Alcotest.(check int) "1 per iteration" 5 stats.Stats.bootstrap

let test_replicate_edges () =
  (* Non-power-of-two inputs tile with a power-of-two period, zero-padded. *)
  let tiled = R.replicate ~slots:16 [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check (array (float 0.0)))
    "period-4 tiling"
    [| 1.; 2.; 3.; 0.; 1.; 2.; 3.; 0.; 1.; 2.; 3.; 0.; 1.; 2.; 3.; 0. |]
    tiled;
  (* Inputs at least as long as the slot count are truncated. *)
  Alcotest.(check (array (float 0.0)))
    "truncation"
    [| 0.; 1.; 2.; 3. |]
    (R.replicate ~slots:4 (Array.init 6 float_of_int));
  (match R.replicate ~slots:16 [||] with
   | _ -> Alcotest.fail "expected Interp_error on empty input"
   | exception Halo_error.Interp_error _ -> ());
  (* A 5-element input pads to period 8, which does not divide 12 slots. *)
  match R.replicate ~slots:12 [| 1.; 2.; 3.; 4.; 5. |] with
  | _ -> Alcotest.fail "expected Interp_error on non-dividing period"
  | exception Halo_error.Interp_error _ -> ()

let test_missing_binding () =
  let p = Strategy.compile ~strategy:Strategy.Halo (geometric_program ()) in
  let x = Array.make 8 0.5 in
  match R.run (ref_state ()) ~inputs:[ ("x", x) ] p with
  | _ -> Alcotest.fail "expected Interp_error for missing binding"
  | exception Halo_error.Interp_error { site; reason } ->
    (* The error carries the loop instruction's op name and result var. *)
    (match site with
     | Some s ->
       Alcotest.(check string) "op context" "for" s.Halo_error.op;
       Alcotest.(check bool) "result var attached" true
         (s.Halo_error.var <> None)
     | None -> Alcotest.fail "expected an instruction site");
    Alcotest.(check bool)
      (Printf.sprintf "message mentions the binding (%s)" reason)
      true
      (String.length reason > 0)

let test_stats_latency_accounting () =
  (* Totals must be rebuilt from the cost model op by op: total latency is
     exactly the sum of per-op latencies plus bootstrap latency, and the
     compute/bootstrap split is exact. *)
  let module Cost = Halo_cost.Cost_model in
  let s = Stats.create () in
  Stats.record s Cost.Multcc ~level:5;
  Stats.record s Cost.Rotate ~level:3;
  Stats.record s Cost.Rescale ~level:5;
  Stats.record_bootstrap s ~target:10;
  Stats.record s Cost.Addcp ~level:10;
  let compute =
    Cost.latency_us Cost.Multcc ~level:5
    +. Cost.latency_us Cost.Rotate ~level:3
    +. Cost.latency_us Cost.Rescale ~level:5
    +. Cost.latency_us Cost.Addcp ~level:10
  in
  let boot = Cost.bootstrap_latency_us ~target:10 in
  Alcotest.(check (float 1e-9)) "bootstrap latency" boot s.Stats.bootstrap_latency_us;
  Alcotest.(check (float 1e-9)) "total = compute + bootstrap" (compute +. boot)
    s.Stats.total_latency_us;
  Alcotest.(check (float 1e-9)) "compute split" compute (Stats.compute_latency_us s);
  Alcotest.(check int) "ops counted" 5 (Stats.total_ops s);
  (* Encode costs latency but is not a ciphertext op. *)
  Stats.record s Cost.Encode ~level:5;
  Alcotest.(check int) "encode not counted" 5 (Stats.total_ops s);
  Alcotest.(check bool) "encode latency added" true
    (s.Stats.total_latency_us > compute +. boot)

let stats_header =
  "addcc=1 addcp=2 subcc=3 multcc=4 multcp=5 rotate=6 rescale=7 modswitch=8 \
   bootstrap=9 latency=10us (bootstrap 11us, 109.8%)"

(* Counter k of the table holds k (k + 0.25 for a latency). *)
let numbered_stats () =
  let s = Stats.create () in
  List.iteri
    (fun i -> function
      | _, Stats.Int (_, set) -> set s (i + 1)
      | _, Stats.Us (_, set) -> set s (float_of_int (i + 1) +. 0.25))
    Stats.counters;
  s

let test_stats_to_string_covers_counters () =
  (* Every counter is nonzero, so after the fixed header each remaining
     table entry prints exactly once, as name=value, in table order. *)
  let line = Stats.to_string (numbered_stats ()) in
  let n = String.length stats_header in
  Alcotest.(check string) "header unchanged" stats_header (String.sub line 0 n);
  let expected =
    List.filteri (fun i _ -> i >= 11) Stats.counters
    |> List.mapi (fun i (name, _) -> Printf.sprintf "%s=%d" name (i + 12))
  in
  Alcotest.(check (list string)) "every other counter, once, in order" expected
    (String.split_on_char ' ' (String.sub line (n + 1) (String.length line - n - 1)));
  Alcotest.(check string) "zero counters are not printed"
    "addcc=0 addcp=0 subcc=0 multcc=0 multcp=0 rotate=0 rescale=0 modswitch=0 \
     bootstrap=0 latency=0us (bootstrap 0us, 0.0%)"
    (Stats.to_string (Stats.create ()))

let test_stats_assign_merge () =
  let s = numbered_stats () in
  let copy = Stats.create () in
  Stats.assign ~into:copy s;
  Alcotest.(check bool) "assign copies every counter" true (Stats.equal s copy);
  Stats.merge ~into:copy s;
  List.iteri
    (fun i -> function
      | name, Stats.Int (get, _) ->
        Alcotest.(check int) ("merge adds " ^ name) (2 * (i + 1)) (get copy)
      | name, Stats.Us (get, _) ->
        Alcotest.(check (float 0.0)) ("merge adds " ^ name)
          (2.0 *. (float_of_int (i + 1) +. 0.25))
          (get copy))
    Stats.counters;
  (* One ulp of latency is below the printed line's 1 us rounding but not
     below [equal]'s. *)
  let nudged = Stats.create () in
  Stats.assign ~into:nudged s;
  nudged.Stats.backoff_us <- Float.succ s.Stats.backoff_us;
  Alcotest.(check bool) "equal sees one ulp" false (Stats.equal s nudged);
  Alcotest.(check string) "the printed line does not" (Stats.to_string s)
    (Stats.to_string nudged)

let test_const_size_mismatch () =
  (* Regression: the interpreter used to compare a vector constant's declared
     size against itself, so any mismatched constant slipped through.  A
     3-element vector declared as size 8 must be rejected, with the
     instruction's op name and result variable attached. *)
  let p =
    {
      Ir.prog_name = "badconst";
      slots = 64;
      max_level = 16;
      inputs = [];
      body =
        {
          Ir.params = [];
          instrs =
            [
              {
                Ir.results = [ 0 ];
                op = Ir.Const { value = Ir.Vector [| 1.0; 2.0; 3.0 |]; size = 8 };
              };
            ];
          yields = [ 0 ];
        };
      next_var = 1;
    }
  in
  match R.run (ref_state ()) ~inputs:[] p with
  | _ -> Alcotest.fail "expected Interp_error for mismatched vector constant"
  | exception Halo_error.Interp_error { site; reason } ->
    (match site with
     | Some s ->
       Alcotest.(check string) "op context" "const" s.Halo_error.op;
       Alcotest.(check (option int)) "result var" (Some 0) s.Halo_error.var
     | None -> Alcotest.fail "expected an instruction site");
    Alcotest.(check string) "reason names both sizes"
      "vector constant has 3 elements but declares size 8" reason

let test_missing_input () =
  let p =
    Dsl.build ~name:"miss" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        Dsl.output b x)
    |> Strategy.compile ~strategy:Strategy.Type_matched
  in
  match R.run (ref_state ()) ~inputs:[] p with
  | _ -> Alcotest.fail "expected Interp_error"
  | exception Halo_error.Interp_error _ -> ()

let test_small_iteration_counts () =
  (* K = 1 leaves the peeled copy only (main and remainder loops run zero
     times); every small K must thread correctly through peel + unroll +
     remainder. *)
  let prog =
    Dsl.build ~name:"edge" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        let outs =
          Dsl.for_ b ~count:(dyn "K") ~init:[ Dsl.const b 1.0 ] (fun b -> function
            | [ v ] -> [ Dsl.mul b v x ]
            | _ -> assert false)
        in
        List.iter (Dsl.output b) outs)
    |> Strategy.compile ~strategy:Strategy.Halo
  in
  let x = Array.make 8 0.5 in
  List.iter
    (fun k ->
      let st = ref_state () in
      let outs, _ = R.run st ~bindings:[ ("K", k) ] ~inputs:[ ("x", x) ] prog in
      let expect = 0.5 ** float_of_int k in
      if Float.abs ((List.hd outs).(0) -. expect) > 1e-4 then
        Alcotest.failf "K=%d: %g vs %g" k (List.hd outs).(0) expect)
    [ 1; 2; 3; 5; 16 ]

let test_qcheck_interp_linear =
  QCheck.Test.make ~name:"interpreted affine chain matches cleartext" ~count:30
    QCheck.(pair (int_range 1 9) (float_range (-0.9) 0.9))
    (fun (k, c) ->
      let p =
        Dsl.build ~name:"affine" ~slots:64 ~max_level:16 (fun b ->
            let x = Dsl.input b "x" ~size:8 in
            let outs =
              Dsl.for_ b ~count:(dyn "K") ~init:[ x ] (fun b -> function
                | [ v ] -> [ Dsl.add b (Dsl.mul b v (Dsl.const b c)) (Dsl.const b 0.01) ]
                | _ -> assert false)
            in
            List.iter (Dsl.output b) outs)
        |> Strategy.compile ~strategy:Strategy.Halo
      in
      let x = Array.make 8 0.7 in
      let outs, _ = R.run (ref_state ()) ~bindings:[ ("K", k) ] ~inputs:[ ("x", x) ] p in
      let expect = ref 0.7 in
      for _ = 1 to k do
        expect := (!expect *. c) +. 0.01
      done;
      Float.abs ((List.hd outs).(0) -. !expect) < 1e-3)

let () =
  Alcotest.run "halo_runtime"
    [
      ( "semantics",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "plain-only flows" `Quick test_plain_only_flows;
          Alcotest.test_case "replication and rotate-sum" `Quick test_replication;
        ] );
      ( "loops",
        [
          Alcotest.test_case "dynamic iteration counts" `Quick test_dynamic_counts;
          Alcotest.test_case "strategies agree" `Quick test_strategy_equivalence;
          Alcotest.test_case "backends agree" `Quick test_backend_agreement;
          Alcotest.test_case "packing on lattice" `Slow test_packing_on_lattice;
          Alcotest.test_case "small iteration counts" `Quick test_small_iteration_counts;
        ] );
      ( "stats",
        [
          Alcotest.test_case "op counting" `Quick test_stats_counting;
          Alcotest.test_case "bootstrap latency split" `Quick test_stats_bootstrap_latency;
          Alcotest.test_case "latency accounting is exact" `Quick test_stats_latency_accounting;
          Alcotest.test_case "to_string covers every counter" `Quick
            test_stats_to_string_covers_counters;
          Alcotest.test_case "assign, merge and equal cover every counter" `Quick
            test_stats_assign_merge;
          Alcotest.test_case "missing input" `Quick test_missing_input;
          Alcotest.test_case "missing binding" `Quick test_missing_binding;
          Alcotest.test_case "const size mismatch" `Quick test_const_size_mismatch;
          Alcotest.test_case "replication edge cases" `Quick test_replicate_edges;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ test_qcheck_interp_linear ]);
    ]

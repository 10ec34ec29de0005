(* Tests for the HALO compiler core: IR utilities, DSL, printer/parser,
   type checking, and every compilation pass. *)

open Halo

(* ------------------------------------------------------------------ *)
(* Program builders shared by the tests                                *)
(* ------------------------------------------------------------------ *)

let dyn ?(add = 0) ?(div = 1) ?(rem = false) name = Ir.Dyn { name; add; div; rem }

(* The running example of the paper's Figure 2: a loop whose carried
   variable [a] enters as plaintext, and whose body multiplies twice. *)
let figure2_program () =
  Dsl.build ~name:"figure2" ~slots:64 ~max_level:10 (fun b ->
      let x = Dsl.input b "x" ~size:8 in
      let y = Dsl.input b "y" ~size:8 in
      let a0 = Dsl.const b 2.0 in
      let outs =
        Dsl.for_ b ~count:(dyn "K") ~init:[ y; a0 ] (fun b -> function
          | [ y; a ] ->
            let x2 = Dsl.mul b x y in
            let y' = Dsl.mul b x2 y in
            let a' = Dsl.add b a y' in
            [ y'; a' ]
          | _ -> assert false)
      in
      List.iter (Dsl.output b) outs)

(* Two cipher-carried variables, shallow body: the packing/unrolling
   showcase. *)
let shallow_two_var () =
  Dsl.build ~name:"shallow" ~slots:256 ~max_level:16 (fun b ->
      let x = Dsl.input b "x" ~size:16 in
      let outs =
        Dsl.for_ b ~count:(dyn "K") ~init:[ x; x ] (fun b -> function
          | [ u; v ] ->
            let u' = Dsl.mul b u (Dsl.const b 0.9) in
            let v' = Dsl.add b v (Dsl.mul b u' (Dsl.const b 0.1)) in
            [ u'; v' ]
          | _ -> assert false)
      in
      List.iter (Dsl.output b) outs)

(* Deep body: forces in-body DaCapo bootstrapping. *)
let deep_body () =
  Dsl.build ~name:"deep" ~slots:64 ~max_level:8 (fun b ->
      let x = Dsl.input b "x" ~size:8 in
      let outs =
        Dsl.for_ b ~count:(dyn "K") ~init:[ x ] (fun b -> function
          | [ v ] ->
            let rec squares v n = if n = 0 then v else squares (Dsl.mul b v v) (n - 1) in
            [ squares v 10 ]
          | _ -> assert false)
      in
      List.iter (Dsl.output b) outs)

let straight_line_deep () =
  Dsl.build ~name:"chain" ~slots:64 ~max_level:6 (fun b ->
      let x = Dsl.input b "x" ~size:8 in
      let rec squares v n = if n = 0 then v else squares (Dsl.mul b v v) (n - 1) in
      Dsl.output b (squares x 12))

(* ------------------------------------------------------------------ *)
(* IR utilities                                                        *)
(* ------------------------------------------------------------------ *)

let test_ir_counts () =
  let p = figure2_program () in
  Alcotest.(check int) "op count" 5 (Ir.count_ops p.body);
  Alcotest.(check int) "no bootstraps yet" 0 (Ir.count_static_bootstraps p.body);
  Alcotest.(check int)
    "mults"
    2
    (Ir.count_ops
       ~p:(function Ir.Binary { kind = Ir.Mul; _ } -> true | _ -> false)
       p.body)

let test_ir_free_vars () =
  let p = figure2_program () in
  let for_body =
    List.find_map
      (fun (i : Ir.instr) ->
        match i.op with Ir.For fo -> Some fo.body | _ -> None)
      p.body.instrs
    |> Option.get
  in
  (* x is free in the loop body (live-in); y and a are parameters. *)
  let free = Ir.free_vars for_body in
  Alcotest.(check int) "one free var" 1 (List.length free);
  Alcotest.(check int) "free var is the x input" 0 (List.hd free)

let test_ir_clone_fresh () =
  let p = figure2_program () in
  let fresh = Ir.fresh_of_program p in
  let cloned = Ir.clone_block fresh ~subst:[] p.body in
  let originals = Ir.defined_vars p.body in
  List.iter
    (fun v ->
      if List.mem v originals && v >= List.length p.inputs then
        Alcotest.failf "cloned binding %%%d collides" v)
    (Ir.defined_vars cloned)

(* Bit-exact program equality: float constants compare by their bits, so
   0.0 and -0.0 differ and a NaN equals a NaN with the same payload (never
   under IEEE [=]); any other field change is a difference too. *)
let test_ir_equal () =
  let eq a b = Ir.equal_program a b in
  let other_nan = Int64.float_of_bits (Int64.logxor (Int64.bits_of_float Float.nan) 2L) in
  Alcotest.(check bool) "other payload is a nan" true (Float.is_nan other_nan);
  List.iter
    (fun (tag, const) ->
      let prog c =
        Dsl.build ~name:"eq" ~slots:64 ~max_level:16 (fun b ->
            let x = Dsl.input b "x" ~size:4 in
            Dsl.output b (Dsl.mul b x (const b c)))
      in
      let check what want a b = Alcotest.(check bool) (tag ^ ": " ^ what) want (eq a b) in
      let p = prog 0.0 in
      check "physically equal" true p p;
      check "rebuilt equal" true p (prog 0.0);
      check "0.0 <> -0.0" false p (prog (-0.0));
      check "one ulp apart" false (prog 1.0) (prog (Float.succ 1.0));
      check "nan = nan, same bits" true (prog Float.nan) (prog Float.nan);
      check "nan payloads differ" false (prog Float.nan) (prog other_nan))
    [ ("splat", fun b c -> Dsl.const b c); ("vector", fun b c -> Dsl.const_vec b [| 1.0; c |]) ];
  let p =
    Dsl.build ~name:"eq" ~slots:64 ~max_level:16 (fun b ->
        Dsl.output b (Dsl.rotate b (Dsl.input b "x" ~size:4) 1))
  in
  Alcotest.(check bool) "renamed" false (eq p { p with prog_name = "other" });
  Alcotest.(check bool) "next_var" false (eq p { p with next_var = p.next_var + 1 });
  let f = figure2_program () in
  Alcotest.(check bool) "loop program, copy" true
    (eq f (Ir.substitute_block Fun.id f.body |> fun body -> { f with body }));
  Alcotest.(check bool) "loop program vs compiled" false
    (eq f (Strategy.compile ~bindings:[ ("K", 6) ] ~strategy:Strategy.Halo f))

let test_eval_count () =
  Alcotest.(check int) "static" 7 (Ir.eval_count ~bindings:[] (Ir.Static 7));
  Alcotest.(check int) "dynamic" 39
    (Ir.eval_count ~bindings:[ ("K", 40) ] (dyn ~add:(-1) "K"));
  Alcotest.(check int) "divided" 19
    (Ir.eval_count ~bindings:[ ("K", 40) ] (dyn ~add:(-1) ~div:2 "K"));
  Alcotest.(check int) "remainder" 1
    (Ir.eval_count ~bindings:[ ("K", 40) ] (dyn ~add:(-1) ~div:2 ~rem:true "K"));
  Alcotest.check_raises "negative" (Invalid_argument "Ir.eval_count: negative count")
    (fun () -> ignore (Ir.eval_count ~bindings:[ ("K", 0) ] (dyn ~add:(-1) "K")))

(* ------------------------------------------------------------------ *)
(* Printer / parser round trip                                         *)
(* ------------------------------------------------------------------ *)

let roundtrip p =
  let text = Printer.program_to_string p in
  let parsed = Parser.parse_program text in
  Alcotest.(check string) "print . parse . print = print" text
    (Printer.program_to_string parsed)

let test_roundtrip_traced () = roundtrip (figure2_program ())

let test_roundtrip_compiled () =
  List.iter
    (fun s ->
      roundtrip
        (Strategy.compile ~bindings:[ ("K", 6) ] ~strategy:s (figure2_program ())))
    Strategy.all

let test_parser_errors () =
  let bad = [ "program slots=1"; "program \"x\" slots=a level=2 { output %0 }" ] in
  List.iter
    (fun src ->
      match Parser.parse_program src with
      | _ -> Alcotest.failf "expected parse error for %S" src
      | exception (Parser.Parse_error _ | Lexer.Lex_error _) -> ())
    bad

(* A loop count divides its binding by at least 1: [K / 0] and [K % 0]
   are refused at parse time, not at run time with Division_by_zero. *)
let test_zero_divisor () =
  let src count =
    Printf.sprintf
      {|program "div" slots=16 level=8 {
  input %%0 "x" cipher size=4
  %%2 = for %s init(%%0) {
    ^(%%1):
    %%3 = add %%1, %%1
    yield %%3
  }
  output %%2
}|}
      count
  in
  List.iter
    (fun count ->
      match Parser.parse_program (src count) with
      | _ -> Alcotest.failf "expected a parse error for %S" count
      | exception Parser.Parse_error _ -> ())
    [ "K / 0"; "K % 0"; "K+1 / 0" ];
  List.iter
    (fun count -> ignore (Parser.parse_program (src count)))
    [ "K / 1"; "K % 3"; "K-1 / 2" ]

(* ------------------------------------------------------------------ *)
(* Status analysis and peeling                                         *)
(* ------------------------------------------------------------------ *)

let test_status_fixpoint () =
  let p = figure2_program () in
  let env = Status.infer p in
  (* The carried variable a starts plain but stabilizes as cipher. *)
  let fo =
    List.find_map
      (fun (i : Ir.instr) -> match i.op with Ir.For fo -> Some fo | _ -> None)
      p.body.instrs
    |> Option.get
  in
  (match fo.body.params with
   | [ y_param; a_param ] ->
     Alcotest.(check bool) "y is cipher" true (Hashtbl.find env y_param = Ir.Cipher);
     Alcotest.(check bool) "a stabilizes as cipher" true
       (Hashtbl.find env a_param = Ir.Cipher)
   | _ -> Alcotest.fail "unexpected arity");
  Alcotest.(check bool) "peel needed" true (Status.loop_needs_peel env fo)

let find_loops (p : Ir.program) =
  let acc = ref [] in
  Ir.iter_blocks
    (fun b ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.op with Ir.For fo -> acc := fo :: !acc | _ -> ())
        b.instrs)
    p.body;
  List.rev !acc

let test_peel () =
  let p = Peel.program (figure2_program ()) in
  match find_loops p with
  | [ fo ] ->
    (match fo.count with
     | Ir.Dyn { name = "K"; add = -1; div = 1; rem = false } -> ()
     | c -> Alcotest.failf "unexpected count %s" (Ir.count_to_string c));
    (* After peeling, no carried variable flips status anymore. *)
    let env = Status.infer p in
    Alcotest.(check bool) "no further peel" false (Status.loop_needs_peel env fo);
    (* Peeled body instructions precede the loop. *)
    Alcotest.(check bool) "peeled copies spliced" true (Ir.count_ops p.body > 5)
  | _ -> Alcotest.fail "expected exactly one loop"

let test_peel_chain () =
  (* a depends on b which only becomes cipher after one iteration: needs
     two peels. *)
  let p =
    Dsl.build ~name:"chain2" ~slots:64 ~max_level:10 (fun bld ->
        let x = Dsl.input bld "x" ~size:8 in
        let a0 = Dsl.const bld 1.0 and b0 = Dsl.const bld 2.0 in
        let outs =
          Dsl.for_ bld ~count:(dyn "K") ~init:[ a0; b0 ] (fun bld -> function
            | [ a; b ] -> [ Dsl.add bld a b; Dsl.add bld b x ]
            | _ -> assert false)
        in
        List.iter (Dsl.output bld) outs)
  in
  let peeled = Peel.program p in
  match find_loops peeled with
  | [ fo ] ->
    (match fo.count with
     | Ir.Dyn { add; _ } -> Alcotest.(check int) "peeled twice" (-2) add
     | Ir.Static _ -> Alcotest.fail "count became static");
    let env = Status.infer peeled in
    Alcotest.(check bool) "stable" false (Status.loop_needs_peel env fo)
  | _ -> Alcotest.fail "expected one loop"

(* ------------------------------------------------------------------ *)
(* Type-matched code generation (Algorithm 1)                          *)
(* ------------------------------------------------------------------ *)

let test_loop_codegen_type_match () =
  let p = Strategy.compile ~strategy:Strategy.Type_matched (figure2_program ()) in
  (match Typecheck.verify p with
   | Ok () -> ()
   | Error m -> Alcotest.failf "verification failed: %s" m);
  match find_loops p with
  | [ fo ] ->
    Alcotest.(check (option int)) "boundary set" (Some 1) fo.boundary;
    (* Both carried ciphertexts are bootstrapped at the head. *)
    Alcotest.(check int) "two head bootstraps" 2
      (Ir.count_static_bootstraps fo.body)
  | _ -> Alcotest.fail "expected one loop"

let test_verifier_rejects_unmatched () =
  let p = figure2_program () in
  (match Typecheck.verify p with
   | Ok () -> Alcotest.fail "traced loop program should not verify"
   | Error _ -> ());
  (* And normalize refuses cipher loops without a boundary. *)
  (match Normalize.program (Peel.program p) with
   | _ -> Alcotest.fail "normalize should reject missing boundary"
   | exception Typecheck.Type_error _ -> ())

let test_in_body_bootstrap () =
  let p = Strategy.compile ~strategy:Strategy.Type_matched (deep_body ()) in
  (match Typecheck.verify p with
   | Ok () -> ()
   | Error m -> Alcotest.failf "verify: %s" m);
  match find_loops p with
  | [ fo ] ->
    (* Body depth 10 with max level 8: needs more than the head bootstrap. *)
    Alcotest.(check bool) "extra in-body bootstraps" true
      (Ir.count_static_bootstraps fo.body > 1)
  | _ -> Alcotest.fail "expected one loop"

let test_straight_line_placement () =
  let p = Strategy.compile ~strategy:Strategy.Type_matched (straight_line_deep ()) in
  (match Typecheck.verify p with
   | Ok () -> ()
   | Error m -> Alcotest.failf "verify: %s" m);
  (* Depth 12 with max level 6: at least two bootstraps. *)
  Alcotest.(check bool) "bootstraps placed" true (Ir.count_static_bootstraps p.body >= 2)

(* ------------------------------------------------------------------ *)
(* Packing                                                             *)
(* ------------------------------------------------------------------ *)

let test_packing_rewrites_head () =
  let p = Strategy.compile ~lower:false ~strategy:Strategy.Packing (shallow_two_var ()) in
  match find_loops p with
  | [ fo ] ->
    Alcotest.(check (option int)) "boundary raised to 2" (Some 2) fo.boundary;
    Alcotest.(check int) "single bootstrap" 1 (Ir.count_static_bootstraps fo.body);
    let packs = Ir.count_ops ~p:(function Ir.Pack _ -> true | _ -> false) fo.body in
    let unpacks = Ir.count_ops ~p:(function Ir.Unpack _ -> true | _ -> false) fo.body in
    Alcotest.(check int) "one pack" 1 packs;
    Alcotest.(check int) "two unpacks" 2 unpacks
  | _ -> Alcotest.fail "expected one loop"

let test_packing_respects_slots () =
  (* Tiny slot budget: packing must not apply. *)
  let p =
    Dsl.build ~name:"tight" ~slots:16 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:16 in
        let outs =
          Dsl.for_ b ~count:(dyn "K") ~init:[ x; x ] (fun b -> function
            | [ u; v ] -> [ Dsl.mul b u (Dsl.const b 0.9); Dsl.add b v v ]
            | _ -> assert false)
        in
        List.iter (Dsl.output b) outs)
  in
  let compiled = Strategy.compile ~lower:false ~strategy:Strategy.Packing p in
  let packs = Ir.count_ops ~p:(function Ir.Pack _ -> true | _ -> false) compiled.body in
  Alcotest.(check int) "no pack emitted" 0 packs;
  match Typecheck.verify compiled with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verify: %s" m

let test_packing_single_var_noop () =
  let p = Strategy.compile ~lower:false ~strategy:Strategy.Packing (deep_body ()) in
  let packs = Ir.count_ops ~p:(function Ir.Pack _ -> true | _ -> false) p.body in
  Alcotest.(check int) "single carried var: no pack" 0 packs

let test_lower_pack_level_neutral () =
  (* Lowered and unlowered programs must type-check identically at the
     loop boundary. *)
  let unlowered = Strategy.compile ~lower:false ~strategy:Strategy.Packing (shallow_two_var ()) in
  let lowered = Strategy.compile ~lower:true ~strategy:Strategy.Packing (shallow_two_var ()) in
  (match Typecheck.verify lowered with
   | Ok () -> ()
   | Error m -> Alcotest.failf "lowered verify: %s" m);
  Alcotest.(check int) "same bootstrap count"
    (Ir.count_static_bootstraps unlowered.body)
    (Ir.count_static_bootstraps lowered.body);
  let packs = Ir.count_ops ~p:(function Ir.Pack _ | Ir.Unpack _ -> true | _ -> false) lowered.body in
  Alcotest.(check int) "no composite ops remain" 0 packs

(* ------------------------------------------------------------------ *)
(* Unrolling                                                           *)
(* ------------------------------------------------------------------ *)

let test_unroll_shallow () =
  let base = Strategy.compile ~lower:false ~strategy:Strategy.Packing (shallow_two_var ()) in
  let unrolled = Strategy.compile ~lower:false ~strategy:Strategy.Packing_unrolling (shallow_two_var ()) in
  (* The unrolled program has a main loop with div > 1 plus a remainder. *)
  let loops = find_loops unrolled in
  Alcotest.(check int) "main + remainder" 2 (List.length loops);
  (match loops with
   | [ main; remainder ] ->
     (match (main.count, remainder.count) with
      | Ir.Dyn { div = f; rem = false; _ }, Ir.Dyn { div = f'; rem = true; _ } ->
        Alcotest.(check bool) "factor >= 2" true (f >= 2);
        Alcotest.(check int) "same divisor" f f'
      | _ -> Alcotest.fail "unexpected counts")
   | _ -> assert false);
  ignore base

let test_unroll_skips_deep () =
  let p = Strategy.compile ~lower:false ~strategy:Strategy.Packing_unrolling (deep_body ()) in
  (* In-body bootstraps: unrolling must leave the loop alone. *)
  match find_loops p with
  | [ fo ] ->
    (match fo.count with
     | Ir.Dyn { div = 1; _ } -> ()
     | c -> Alcotest.failf "deep loop was unrolled: %s" (Ir.count_to_string c))
  | loops -> Alcotest.failf "expected one loop, found %d" (List.length loops)

let test_unroll_static_remainder () =
  let prog =
    Dsl.build ~name:"static" ~slots:256 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:16 in
        let outs =
          Dsl.for_ b ~count:(Ir.Static 7) ~init:[ x; x ] (fun b -> function
            | [ u; v ] ->
              let u' = Dsl.mul b u (Dsl.const b 0.9) in
              [ u'; Dsl.add b v u' ]
            | _ -> assert false)
        in
        List.iter (Dsl.output b) outs)
  in
  let p = Strategy.compile ~lower:false ~strategy:Strategy.Packing_unrolling prog in
  (match Typecheck.verify p with
   | Ok () -> ()
   | Error m -> Alcotest.failf "verify: %s" m);
  let loops = find_loops p in
  let total_iterations =
    List.fold_left
      (fun acc (fo : Ir.for_op) ->
        match fo.count with
        | Ir.Static n ->
          let body_copies =
            (* Count body replicas by counting head-relative yields: use the
               divisor implicitly via n * copies; here we just accumulate n. *)
            n
          in
          acc + body_copies
        | Ir.Dyn _ -> Alcotest.fail "static loop became dynamic")
      0 loops
  in
  Alcotest.(check bool) "loops retained" true (total_iterations >= 1)

(* ------------------------------------------------------------------ *)
(* Normalize: demand-driven level placement                            *)
(* ------------------------------------------------------------------ *)

(* A hand-built program over input %0 (cipher, level 16).  [body] appends
   instructions through [emit] (which returns the result variable), may use
   the plain constant [c], and returns the value fed to a two-iteration loop
   with boundary 2 (whose body adds [c]) plus extra program outputs. *)
let boundary2_program body =
  let next = ref 0 in
  let fresh () = incr next; !next in
  let instrs = ref [] in
  let emit op =
    let r = fresh () in
    instrs := { Ir.results = [ r ]; op } :: !instrs;
    r
  in
  let c = emit (Ir.Const { value = Ir.Splat 0.5; size = 8 }) in
  let init, outs = body ~emit ~c in
  let param = fresh () in
  let q = fresh () in
  let res = fresh () in
  let loop =
    Ir.For
      {
        count = Ir.Static 2;
        inits = [ init ];
        body =
          {
            params = [ param ];
            instrs = [ { results = [ q ]; op = Ir.Binary { kind = Ir.Add; lhs = param; rhs = c } } ];
            yields = [ q ];
          };
        boundary = Some 2;
      }
  in
  instrs := { Ir.results = [ res ]; op = loop } :: !instrs;
  {
    Ir.prog_name = "boundary2";
    slots = 64;
    max_level = 16;
    inputs = [ { Ir.in_name = "x"; in_var = 0; in_status = Ir.Cipher; in_size = 8 } ];
    body = { params = [ 0 ]; instrs = List.rev !instrs; yields = res :: outs };
    next_var = !next + 1;
  }

let rotation_srcs (p : Ir.program) =
  let acc = ref [] in
  Ir.iter_blocks
    (fun b ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.op with Ir.Rotate { src; _ } -> acc := src :: !acc | _ -> ())
        b.instrs)
    p.body;
  List.rev !acc

let count_modswitches (p : Ir.program) =
  Ir.count_ops ~p:(function Ir.Modswitch _ -> true | _ -> false) p.body

let same_reference p q =
  let inputs = [ ("x", Array.init 8 (fun k -> 0.1 *. float_of_int (k - 3))) ] in
  let run = Halo_runtime.Interp.reference ~inputs in
  Alcotest.(check (list (array (float 0.0)))) "reference outputs bit-identical" (run p) (run q)

(* Linear's shape: a rotate-and-sum doubling chain at level 16, a multcp,
   then a loop entered at boundary 2.  The chain's value is consumed at
   level 3 (one multcp above the boundary), so that is where the six
   rotations run.  Lowering only where operands meet ran them at 16 and
   spent one modswitch at the loop init. *)
let test_normalize_lowers_to_demand () =
  let p =
    boundary2_program (fun ~emit ~c ->
        let s = ref 0 in
        for k = 0 to 5 do
          let r = emit (Ir.Rotate { src = !s; offset = 1 lsl k }) in
          s := emit (Ir.Binary { kind = Ir.Add; lhs = !s; rhs = r })
        done;
        (emit (Ir.Binary { kind = Ir.Mul; lhs = !s; rhs = c }), []))
  in
  let q = Normalize.program p in
  let env = Typecheck.infer_program q in
  let srcs = rotation_srcs q in
  Alcotest.(check int) "six rotations" 6 (List.length srcs);
  List.iter
    (fun v ->
      Alcotest.(check string) "rotation level" "cipher@3"
        (Typecheck.ty_to_string (Hashtbl.find env v)))
    srcs;
  Alcotest.(check bool) "no more modswitches than the old rule's one" true
    (count_modswitches q <= 1);
  same_reference p q

(* Rotations of one source are wanted at 16 (a program output) and at 3
   (into the loop): both run at 16, on the same value, so rotate-fuse
   still sees one group. *)
let test_normalize_keeps_rotation_groups () =
  let p =
    boundary2_program (fun ~emit ~c ->
        let high = emit (Ir.Rotate { src = 0; offset = 1 }) in
        let low = emit (Ir.Rotate { src = 0; offset = 2 }) in
        (emit (Ir.Binary { kind = Ir.Mul; lhs = low; rhs = c }), [ high ]))
  in
  let q = Normalize.program p in
  Alcotest.(check (list int)) "both rotations read the input" [ 0; 0 ] (rotation_srcs q);
  let fused = Rotate_fuse.program q in
  Alcotest.(check int) "one rotate_many" 1
    (Ir.count_ops ~p:(function Ir.RotateMany _ -> true | _ -> false) fused.body);
  same_reference p q

(* ------------------------------------------------------------------ *)
(* Target-level tuning                                                 *)
(* ------------------------------------------------------------------ *)

let collect_targets (p : Ir.program) =
  let acc = ref [] in
  Ir.iter_blocks
    (fun b ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.op with
          | Ir.Bootstrap { target; _ } -> acc := target :: !acc
          | _ -> ())
        b.instrs)
    p.body;
  List.rev !acc

let test_tuning_lowers_targets () =
  let before = Strategy.compile ~lower:false ~strategy:Strategy.Packing_unrolling (shallow_two_var ()) in
  let after = Strategy.compile ~lower:false ~strategy:Strategy.Halo (shallow_two_var ()) in
  let sum l = List.fold_left ( + ) 0 l in
  Alcotest.(check bool) "targets reduced" true
    (sum (collect_targets after) < sum (collect_targets before));
  match Typecheck.verify after with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verify: %s" m

let test_tuning_preserves_semantics_bound () =
  (* Every tuned target still has to be >= 1 and <= max level. *)
  let p = Strategy.compile ~strategy:Strategy.Halo (figure2_program ()) in
  List.iter
    (fun t ->
      if t < 1 || t > p.max_level then Alcotest.failf "target %d out of range" t)
    (collect_targets p)

(* ------------------------------------------------------------------ *)
(* DaCapo placement and full unrolling                                 *)
(* ------------------------------------------------------------------ *)

let test_full_unroll () =
  let p = Full_unroll.program ~bindings:[ ("K", 4) ] (figure2_program ()) in
  Alcotest.(check int) "no loops left" 0 (List.length (find_loops p));
  (* 3 body ops x 4 iterations + the two prologue ops. *)
  Alcotest.(check int) "op count" 13 (Ir.count_ops p.body)

let test_dacapo_strategy () =
  let p =
    Strategy.compile ~bindings:[ ("K", 6) ] ~strategy:Strategy.Dacapo
      (figure2_program ())
  in
  (match Typecheck.verify p with
   | Ok () -> ()
   | Error m -> Alcotest.failf "verify: %s" m);
  Alcotest.(check bool) "bootstraps placed" true (Ir.count_static_bootstraps p.body > 0)

let test_dacapo_requires_bindings () =
  match
    Strategy.compile ~strategy:Strategy.Dacapo (figure2_program ())
  with
  | _ -> Alcotest.fail "expected Not_found for missing binding"
  | exception Not_found -> ()

let test_dacapo_filter_width () =
  (* A narrower candidate filter can only produce an equal-or-worse
     (never invalid) plan. *)
  let compile width =
    Strategy.compile ~bindings:[ ("K", 8) ]
      ~dacapo_config:{ Dacapo.filter_width = width } ~strategy:Strategy.Dacapo
      (figure2_program ())
  in
  let narrow = compile 1 and wide = compile 64 in
  (match Typecheck.verify narrow with
   | Ok () -> ()
   | Error m -> Alcotest.failf "narrow verify: %s" m);
  Alcotest.(check bool) "wide filter finds no worse plan" true
    (Ir.count_static_bootstraps wide.body
     <= Ir.count_static_bootstraps narrow.body)

(* ------------------------------------------------------------------ *)
(* DCE                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dce () =
  let p =
    Dsl.build ~name:"dead" ~slots:64 ~max_level:8 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        let live = Dsl.add b x x in
        let _dead = Dsl.mul b x x in
        let _dead2 = Dsl.mul b live live in
        Dsl.output b live)
  in
  let cleaned = Dce.program p in
  Alcotest.(check int) "dead ops removed" 1 (Ir.count_ops cleaned.body)

let test_dce_keeps_loops () =
  let p = figure2_program () in
  Alcotest.(check int) "nothing dead" (Ir.count_ops p.body)
    (Ir.count_ops (Dce.program p).body)

(* ------------------------------------------------------------------ *)
(* CSE and LICM                                                        *)
(* ------------------------------------------------------------------ *)

let test_cse_dedupes () =
  let p =
    Dsl.build ~name:"dupes" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        let a = Dsl.mul b x (Dsl.const b 2.0) in
        let c = Dsl.mul b x (Dsl.const b 2.0) in
        (* Commutative canonicalization: x*y and y*x coincide. *)
        let d = Dsl.mul b a c in
        let e = Dsl.mul b c a in
        Dsl.output b (Dsl.add b d e))
  in
  let cleaned = Dce.program (Cse.program p) in
  (* const, mul, mul(a,a), add: 4 ops *)
  Alcotest.(check int) "deduped" 4 (Ir.count_ops cleaned.body)

let test_cse_keeps_bootstraps () =
  let p = Strategy.compile ~lower:false ~strategy:Strategy.Type_matched (figure2_program ()) in
  Alcotest.(check int) "bootstraps untouched"
    (Ir.count_static_bootstraps p.body)
    (Ir.count_static_bootstraps (Cse.program p).body)

let test_licm_hoists_invariants () =
  let p =
    Dsl.build ~name:"inv" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        let y = Dsl.input b "y" ~size:8 in
        let outs =
          Dsl.for_ b ~count:(dyn "K") ~init:[ x ] (fun b -> function
            | [ v ] ->
              (* x*y and the constant do not depend on v: both hoist. *)
              let inv = Dsl.mul b x y in
              let c = Dsl.const b 0.25 in
              [ Dsl.add b (Dsl.mul b v c) inv ]
            | _ -> assert false)
        in
        List.iter (Dsl.output b) outs)
  in
  let hoisted = Licm.program p in
  let fo =
    List.find_map
      (fun (i : Ir.instr) -> match i.op with Ir.For fo -> Some fo | _ -> None)
      hoisted.body.instrs
    |> Option.get
  in
  (* Only mul(v, c) and the add stay inside. *)
  Alcotest.(check int) "body shrank to 2 ops" 2 (List.length fo.body.instrs);
  (* Semantics preserved through the full pipeline. *)
  match Typecheck.verify (Strategy.compile ~strategy:Strategy.Halo p) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verify: %s" m

let count_rot_sums (b : Ir.block) =
  Ir.count_ops ~p:(function Ir.RotSum _ -> true | _ -> false) b

(* A pure rot_sum is level- and scale-preserving like the rotate/add tree it
   replaces, so a loop-invariant slot sum leaves the body whole. *)
let test_licm_hoists_sum () =
  let p =
    Dsl.build ~name:"invsum" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:16 in
        let outs =
          Dsl.for_ b ~count:(dyn "K") ~init:[ x ] (fun b -> function
            | [ v ] -> [ Dsl.add b (Dsl.mul b v v) (Dsl.sum_slots b x ~size:16) ]
            | _ -> assert false)
        in
        List.iter (Dsl.output b) outs)
  in
  let hoisted = Licm.program p in
  let fo =
    List.find_map
      (fun (i : Ir.instr) -> match i.op with Ir.For fo -> Some fo | _ -> None)
      hoisted.body.instrs
    |> Option.get
  in
  Alcotest.(check int) "no rot_sum left in the body" 0 (count_rot_sums fo.body);
  Alcotest.(check int) "both stages hoisted" 2 (count_rot_sums hoisted.body);
  match Typecheck.verify (Strategy.compile ~strategy:Strategy.Halo p) with
  | Ok () -> ()
  | Error m -> Alcotest.failf "verify: %s" m

(* Identical pure reductions are keyed by (source, offsets) and merged;
   different offsets are different values. *)
let test_cse_merges_sums () =
  let p =
    Dsl.build ~name:"dupsum" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:4 in
        let s1 = Dsl.sum_slots b x ~size:4 in
        let s2 = Dsl.sum_slots b x ~size:4 in
        Dsl.output b (Dsl.add b s1 s2);
        Dsl.output b (Dsl.sum_slots b x ~size:2))
  in
  Alcotest.(check int) "three sums traced" 3 (count_rot_sums p.body);
  let cleaned = Dce.program (Cse.program p) in
  Alcotest.(check int) "identical sums merged" 2 (count_rot_sums cleaned.body)

(* CSE keys constants on their IEEE bits: a splat or a vector that differs
   from another only in the sign of a zero or by one ulp is a different
   value; a bit-identical one (a NaN with the same payload included) merges. *)
let test_cse_constant_keys () =
  let consts build cs =
    let p =
      Dsl.build ~name:"consts" ~slots:64 ~max_level:16 (fun b ->
          let x = Dsl.input b "x" ~size:4 in
          List.iter (fun c -> Dsl.output b (Dsl.mul b x (build b c))) cs)
    in
    Ir.count_ops ~p:(function Ir.Const _ -> true | _ -> false) (Dce.program (Cse.program p)).body
  in
  let splat b c = Dsl.const b c and vec b c = Dsl.const_vec b [| 1.5; c; -2.0; c |] in
  let one_ulp = Float.succ 0.75 in
  List.iter
    (fun (tag, build) ->
      let check what want cs = Alcotest.(check int) (tag ^ ": " ^ what) want (consts build cs) in
      check "0.0 and -0.0 kept apart" 2 [ 0.0; -0.0 ];
      check "one-ulp neighbours kept apart" 2 [ 0.75; one_ulp ];
      check "equal constants merged" 1 [ 0.75; 0.75 ];
      check "equal negative zeros merged" 1 [ -0.0; -0.0 ];
      check "same-bits NaNs merged" 1 [ Float.nan; Float.nan ];
      check "mixed" 3 [ 0.0; -0.0; 0.0; one_ulp; one_ulp ])
    [ ("splat", splat); ("vector", vec) ];
  let fp = Cse.const_fingerprint in
  Alcotest.(check bool) "splat and vector keys differ" false
    (String.equal (fp (Ir.Splat 1.0)) (fp (Ir.Vector [| 1.0 |])))

let test_licm_shrinks_code_size () =
  (* Masks lowered into an unrolled body are hoisted + deduplicated, so the
     HALO artifact stays small (the Table 7 property). *)
  let p = shallow_two_var () in
  let compiled = Strategy.compile ~strategy:Strategy.Halo p in
  let masks =
    Ir.count_ops
      ~p:(function Ir.Const { value = Ir.Vector _; _ } -> true | _ -> false)
      compiled.body
  in
  Alcotest.(check bool) (Printf.sprintf "few mask constants (%d)" masks) true (masks <= 4)

let test_rle_roundtrip () =
  let p =
    Dsl.build ~name:"rle" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        let mask = Array.concat [ Array.make 13 1.0; Array.make 19 0.0; [| 0.5 |] ] in
        Dsl.output b (Dsl.mul b x (Dsl.const_vec b mask)))
  in
  let text = Printer.program_to_string p in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "run-length syntax used" true (contains "1.0 x 13" text);
  roundtrip p

(* ------------------------------------------------------------------ *)
(* Property tests: random shallow programs survive every strategy      *)
(* ------------------------------------------------------------------ *)

let random_program seed =
  let rng = Random.State.make [| seed |] in
  let n_vars = 2 + Random.State.int rng 3 in
  Dsl.build ~name:(Printf.sprintf "rand%d" seed) ~slots:512 ~max_level:16
    (fun b ->
      let x = Dsl.input b "x" ~size:16 in
      let init =
        List.init n_vars (fun i ->
            if i = 0 then x
            else if Random.State.bool rng then Dsl.const b 0.5
            else Dsl.mul b x (Dsl.const b 0.5))
      in
      let outs =
        Dsl.for_ b ~count:(dyn "K") ~init (fun b vars ->
            let pick () = List.nth vars (Random.State.int rng n_vars) in
            List.map
              (fun v ->
                match Random.State.int rng 4 with
                | 0 -> Dsl.add b v (pick ())
                | 1 -> Dsl.mul b v (Dsl.const b 0.9)
                | 2 -> Dsl.mul b v (pick ())
                | _ -> Dsl.rotate b (Dsl.add b v (pick ())) 1)
              vars)
      in
      List.iter (Dsl.output b) outs)

let test_random_programs_compile =
  QCheck.Test.make ~name:"every strategy compiles random loop programs"
    ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let p = random_program seed in
      List.for_all
        (fun s ->
          match Strategy.compile ~bindings:[ ("K", 5) ] ~strategy:s p with
          | compiled -> Typecheck.verify compiled = Ok ()
          | exception _ -> false)
        Strategy.all)

let test_random_packing_no_worse =
  QCheck.Test.make ~name:"packing never increases static bootstraps" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let p = random_program seed in
      let count s =
        Ir.count_static_bootstraps
          (Strategy.compile ~lower:false ~bindings:[ ("K", 5) ] ~strategy:s p).body
      in
      count Strategy.Packing <= count Strategy.Type_matched)

let test_random_roundtrip =
  QCheck.Test.make ~name:"compiled random programs round-trip the printer"
    ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let p =
        Strategy.compile ~bindings:[ ("K", 4) ] ~strategy:Strategy.Halo
          (random_program seed)
      in
      let text = Printer.program_to_string p in
      Printer.program_to_string (Parser.parse_program text) = text)

(* Structural program equality up to a renaming of variables, built by
   walking both programs in lockstep and growing the binding map at each
   binding occurrence (inputs, block parameters, instruction results). *)
let equal_modulo_renaming (p : Ir.program) (q : Ir.program) =
  let map : (Ir.var, Ir.var) Hashtbl.t = Hashtbl.create 64 in
  let bind a b =
    match Hashtbl.find_opt map a with
    | Some b' -> b = b'
    | None ->
      Hashtbl.add map a b;
      true
  in
  let same v w = Hashtbl.find_opt map v = Some w in
  let all2 f a b = List.length a = List.length b && List.for_all2 f a b in
  let rec eq_block (a : Ir.block) (b : Ir.block) =
    all2 bind a.params b.params
    && all2 eq_instr a.instrs b.instrs
    && all2 same a.yields b.yields
  and eq_instr (i : Ir.instr) (j : Ir.instr) =
    eq_op i.op j.op && all2 bind i.results j.results
  and eq_op (a : Ir.op) (b : Ir.op) =
    match (a, b) with
    | Ir.Const { value = va; size = sa }, Ir.Const { value = vb; size = sb } ->
      va = vb && sa = sb
    | Ir.Binary x, Ir.Binary y ->
      x.kind = y.kind && same x.lhs y.lhs && same x.rhs y.rhs
    | Ir.Rotate x, Ir.Rotate y -> same x.src y.src && x.offset = y.offset
    | Ir.RotateMany x, Ir.RotateMany y ->
      same x.src y.src && x.offsets = y.offsets
    | Ir.RotSum x, Ir.RotSum y ->
      let same_term (o, c) (o', c') =
        o = o'
        &&
        match (c, c') with
        | None, None -> true
        | Some v, Some w -> same v w
        | _ -> false
      in
      same x.src y.src && all2 same_term x.terms y.terms
    | Ir.Rescale x, Ir.Rescale y -> same x.src y.src
    | Ir.Modswitch x, Ir.Modswitch y -> same x.src y.src && x.down = y.down
    | Ir.Bootstrap x, Ir.Bootstrap y -> same x.src y.src && x.target = y.target
    | Ir.Pack x, Ir.Pack y -> x.num_e = y.num_e && all2 same x.srcs y.srcs
    | Ir.Unpack x, Ir.Unpack y ->
      same x.src y.src && x.index = y.index && x.num_e = y.num_e
      && x.count = y.count
    | Ir.For x, Ir.For y ->
      x.count = y.count && x.boundary = y.boundary
      && all2 same x.inits y.inits && eq_block x.body y.body
    | _ -> false
  in
  p.prog_name = q.prog_name && p.slots = q.slots && p.max_level = q.max_level
  && all2
       (fun (a : Ir.input) (b : Ir.input) ->
         a.in_name = b.in_name && a.in_status = b.in_status
         && a.in_size = b.in_size && bind a.in_var b.in_var)
       p.inputs q.inputs
  && eq_block p.body q.body

let test_gen_roundtrip =
  QCheck.Test.make
    ~name:"fuzz-generated programs round-trip, re-validate and match modulo renaming"
    ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let p = (Halo_verify.Gen.generate seed).prog in
      let parsed = Parser.parse_program (Printer.program_to_string p) in
      Halo_verify.Ir_check.structural parsed = [] && equal_modulo_renaming p parsed)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "halo_core"
    [
      ( "ir",
        [
          Alcotest.test_case "op counting" `Quick test_ir_counts;
          Alcotest.test_case "free vars" `Quick test_ir_free_vars;
          Alcotest.test_case "clone freshness" `Quick test_ir_clone_fresh;
          Alcotest.test_case "eval_count" `Quick test_eval_count;
          Alcotest.test_case "bit-exact equality" `Quick test_ir_equal;
        ] );
      ( "printer_parser",
        [
          Alcotest.test_case "traced round trip" `Quick test_roundtrip_traced;
          Alcotest.test_case "compiled round trips" `Quick test_roundtrip_compiled;
          Alcotest.test_case "parse errors" `Quick test_parser_errors;
          Alcotest.test_case "zero loop-count divisor" `Quick test_zero_divisor;
        ] );
      ( "status_peel",
        [
          Alcotest.test_case "status fixpoint" `Quick test_status_fixpoint;
          Alcotest.test_case "peel figure2" `Quick test_peel;
          Alcotest.test_case "peel chain twice" `Quick test_peel_chain;
        ] );
      ( "loop_codegen",
        [
          Alcotest.test_case "type match" `Quick test_loop_codegen_type_match;
          Alcotest.test_case "verifier rejects raw loops" `Quick test_verifier_rejects_unmatched;
          Alcotest.test_case "in-body bootstraps" `Quick test_in_body_bootstrap;
          Alcotest.test_case "straight-line placement" `Quick test_straight_line_placement;
        ] );
      ( "packing",
        [
          Alcotest.test_case "rewrites head" `Quick test_packing_rewrites_head;
          Alcotest.test_case "respects slot capacity" `Quick test_packing_respects_slots;
          Alcotest.test_case "single var no-op" `Quick test_packing_single_var_noop;
          Alcotest.test_case "lowering is level-neutral" `Quick test_lower_pack_level_neutral;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "shallow loop unrolls" `Quick test_unroll_shallow;
          Alcotest.test_case "deep loop kept" `Quick test_unroll_skips_deep;
          Alcotest.test_case "static remainder" `Quick test_unroll_static_remainder;
        ] );
      ( "normalize",
        [
          Alcotest.test_case "lowers to demand" `Quick test_normalize_lowers_to_demand;
          Alcotest.test_case "keeps rotation groups" `Quick
            test_normalize_keeps_rotation_groups;
        ] );
      ( "tuning",
        [
          Alcotest.test_case "lowers targets" `Quick test_tuning_lowers_targets;
          Alcotest.test_case "targets stay in range" `Quick test_tuning_preserves_semantics_bound;
        ] );
      ( "dacapo",
        [
          Alcotest.test_case "full unroll" `Quick test_full_unroll;
          Alcotest.test_case "dacapo strategy" `Quick test_dacapo_strategy;
          Alcotest.test_case "missing bindings" `Quick test_dacapo_requires_bindings;
          Alcotest.test_case "filter width" `Quick test_dacapo_filter_width;
        ] );
      ( "dce",
        [
          Alcotest.test_case "removes dead code" `Quick test_dce;
          Alcotest.test_case "keeps live loops" `Quick test_dce_keeps_loops;
        ] );
      ( "cse_licm",
        [
          Alcotest.test_case "cse dedupes" `Quick test_cse_dedupes;
          Alcotest.test_case "cse keeps bootstraps" `Quick test_cse_keeps_bootstraps;
          Alcotest.test_case "licm hoists" `Quick test_licm_hoists_invariants;
          Alcotest.test_case "licm shrinks code" `Quick test_licm_shrinks_code_size;
          Alcotest.test_case "licm hoists invariant sums" `Quick test_licm_hoists_sum;
          Alcotest.test_case "cse merges identical sums" `Quick test_cse_merges_sums;
          Alcotest.test_case "cse keys constants on their bits" `Quick test_cse_constant_keys;
          Alcotest.test_case "run-length constants" `Quick test_rle_roundtrip;
        ] );
      ( "properties",
        qsuite
          [
            test_random_programs_compile;
            test_random_packing_no_worse;
            test_random_roundtrip;
            test_gen_roundtrip;
          ] );
    ]

(* Tests for the verification subsystem: the structural IR validator (one
   deliberately broken program per rule), the checked pass pipeline with
   semantic fingerprints, bug-injection attribution, the cleartext
   reference against independent oracles and a golden digest, and the
   differential fuzz oracle across all five strategies. *)

open Halo
module Ir_check = Halo_verify.Ir_check
module Pipeline = Halo_verify.Pipeline
module Gen = Halo_verify.Gen
module Oracle = Halo_verify.Oracle

let dyn name = Ir.Dyn { name; add = 0; div = 1; rem = false }

let instr results op = { Ir.results; op }

(* A one-input harness for hand-building broken programs: input "x" is
   variable %0, cipher, 8 elements. *)
let mk ?(slots = 64) ?(max_level = 8) ?(params = [ 0 ]) instrs yields next_var =
  {
    Ir.prog_name = "broken";
    slots;
    max_level;
    inputs = [ { Ir.in_name = "x"; in_var = 0; in_status = Ir.Cipher; in_size = 8 } ];
    body = { Ir.params = params; instrs; yields };
    next_var;
  }

let expect_rule ?(check = Ir_check.structural) rule p =
  let vs = check p in
  if not (List.exists (fun (v : Ir_check.violation) -> v.rule = rule) vs) then
    Alcotest.failf "expected a %S violation, got: %s" rule
      (match vs with
       | [] -> "no violations"
       | _ -> Ir_check.violations_to_string vs)

let binop kind lhs rhs = Ir.Binary { kind; lhs; rhs }

(* ------------------------------------------------------------------ *)
(* ir_check: one broken program per rule                               *)
(* ------------------------------------------------------------------ *)

let test_check_accepts_valid () =
  let p =
    Dsl.build ~name:"ok" ~slots:64 ~max_level:8 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        Dsl.output b (Dsl.mul b x (Dsl.const b 0.5)))
  in
  (match Ir_check.structural p with
   | [] -> ()
   | vs -> Alcotest.failf "valid program flagged: %s" (Ir_check.violations_to_string vs));
  match Ir_check.typed (Strategy.compile ~strategy:Strategy.Halo p) with
  | [] -> ()
  | vs -> Alcotest.failf "compiled program flagged: %s" (Ir_check.violations_to_string vs)

let test_check_ssa () =
  expect_rule "ssa"
    (mk [ instr [ 1 ] (binop Ir.Add 0 0); instr [ 1 ] (binop Ir.Add 0 0) ] [ 1 ] 2)

let test_check_scope () =
  expect_rule "scope" (mk [ instr [ 1 ] (binop Ir.Add 9 0) ] [ 1 ] 2);
  (* Loop-local definitions must not leak into the enclosing block. *)
  expect_rule "scope"
    (mk
       [ instr [ 3 ]
           (Ir.For
              {
                count = Ir.Static 2;
                inits = [ 0 ];
                body =
                  {
                    params = [ 1 ];
                    instrs = [ instr [ 2 ] (binop Ir.Mul 1 1) ];
                    yields = [ 2 ];
                  };
                boundary = None;
              }) ]
       [ 2 ] 4)

let test_check_inputs () =
  expect_rule "inputs" (mk ~params:[] [] [ 0 ] 1)

let test_check_slots_and_level () =
  expect_rule "slots" (mk ~slots:0 [] [ 0 ] 1);
  expect_rule "max-level" (mk ~max_level:0 [] [ 0 ] 1)

let test_check_for_arity () =
  (* One init, two body parameters. *)
  expect_rule "for-arity"
    (mk
       [ instr [ 3 ]
           (Ir.For
              {
                count = Ir.Static 2;
                inits = [ 0 ];
                body = { params = [ 1; 2 ]; instrs = []; yields = [ 1 ] };
                boundary = None;
              }) ]
       [ 3 ] 4)

let test_check_op_arity () =
  expect_rule "arity" (mk [ instr [ 1; 2 ] (binop Ir.Add 0 0) ] [ 1 ] 3)

let test_check_count () =
  let loop count =
    mk
      [ instr [ 2 ]
          (Ir.For
             {
               count;
               inits = [ 0 ];
               body = { params = [ 1 ]; instrs = []; yields = [ 1 ] };
               boundary = None;
             }) ]
      [ 2 ] 3
  in
  expect_rule "count" (loop (Ir.Static (-1)));
  expect_rule "count" (loop (Ir.Dyn { name = "K"; add = 0; div = 0; rem = false }))

let test_check_boundary () =
  expect_rule "boundary"
    (mk
       [ instr [ 2 ]
           (Ir.For
              {
                count = Ir.Static 2;
                inits = [ 0 ];
                body = { params = [ 1 ]; instrs = []; yields = [ 1 ] };
                boundary = Some 99;
              }) ]
       [ 2 ] 3)

let test_check_const_size () =
  expect_rule "const-size"
    (mk [ instr [ 1 ] (Ir.Const { value = Ir.Vector [| 1.0; 2.0 |]; size = 3 }) ] [ 1 ] 2)

let test_check_pack_shape () =
  (* A pack needs at least two sources. *)
  expect_rule "pack-shape" (mk [ instr [ 1 ] (Ir.Pack { srcs = [ 0 ]; num_e = 8 }) ] [ 1 ] 2);
  (* Power-of-two padded capacity must fit in the slot count. *)
  expect_rule "pack-shape"
    (mk ~slots:16 [ instr [ 1 ] (Ir.Pack { srcs = [ 0; 0 ]; num_e = 16 }) ] [ 1 ] 2);
  expect_rule "pack-shape"
    (mk [ instr [ 1 ] (Ir.Unpack { src = 0; index = 5; num_e = 4; count = 4 }) ] [ 1 ] 2)

let test_check_levels () =
  (* max_level 1: the very first ciphertext multiplication underflows. *)
  expect_rule ~check:Ir_check.leveled "levels"
    (mk ~max_level:1 [ instr [ 1 ] (binop Ir.Mul 0 0) ] [ 1 ] 2);
  (* Bootstrap target outside [1, max_level]. *)
  expect_rule ~check:Ir_check.leveled "levels"
    (mk [ instr [ 1 ] (Ir.Bootstrap { src = 0; target = 99 }) ] [ 1 ] 2)

let test_check_typecheck () =
  (* A cipher-carrying loop without a boundary is structurally fine and
     level-consistent mid-pipeline, but not a valid compiled artifact. *)
  expect_rule ~check:Ir_check.typed "typecheck"
    (mk
       [ instr [ 3 ]
           (Ir.For
              {
                count = Ir.Static 2;
                inits = [ 0 ];
                body =
                  {
                    params = [ 1 ];
                    instrs = [ instr [ 2 ] (binop Ir.Mul 1 1) ];
                    yields = [ 2 ];
                  };
                boundary = None;
              }) ]
       [ 3 ] 4)

let test_check_level_waste () =
  (* A rotation at level 8 read only through a modswitch to level 3. *)
  expect_rule ~check:Ir_check.typed "level-waste"
    (mk
       [ instr [ 1 ] (Ir.Rotate { src = 0; offset = 1 });
         instr [ 2 ] (Ir.Modswitch { src = 1; down = 5 }) ]
       [ 2 ] 3);
  (* Two same-source rotations are one value: one direct reader is enough. *)
  match
    Ir_check.typed
      (mk
         [ instr [ 1 ] (Ir.Rotate { src = 0; offset = 1 });
           instr [ 2 ] (Ir.Rotate { src = 0; offset = 2 });
           instr [ 3 ] (Ir.Modswitch { src = 1; down = 5 }) ]
         [ 2; 3 ] 4)
  with
  | [] -> ()
  | vs -> Alcotest.failf "rotation group flagged: %s" (Ir_check.violations_to_string vs)

(* ------------------------------------------------------------------ *)
(* Checked pipeline on a healthy program                               *)
(* ------------------------------------------------------------------ *)

let geometric_program () =
  Dsl.build ~name:"geo" ~slots:64 ~max_level:16 (fun b ->
      let x = Dsl.input b "x" ~size:8 in
      let outs =
        Dsl.for_ b ~count:(dyn "K")
          ~init:[ Dsl.const b 1.0; x ]
          (fun b -> function
            | [ acc; v ] -> [ Dsl.mul b acc (Dsl.const b 0.5); Dsl.add b v acc ]
            | _ -> assert false)
      in
      List.iter (Dsl.output b) outs)

let test_pipeline_all_strategies () =
  let p = geometric_program () in
  List.iter
    (fun strategy ->
      let _, reports =
        Pipeline.compile ~bindings:[ ("K", 6) ] ~verify:true ~strategy p
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: passes reported" (Strategy.to_string strategy))
        true
        (List.length reports > 2);
      List.iter
        (fun (r : Pipeline.pass_report) ->
          match r.drift with
          | Some d when d > 1e-6 ->
            Alcotest.failf "%s/%s drifted by %g" (Strategy.to_string strategy)
              r.pass_name d
          | _ -> ())
        reports)
    Strategy.all

(* ------------------------------------------------------------------ *)
(* Bug injection: broken passes are caught and attributed by name      *)
(* ------------------------------------------------------------------ *)

(* Deletes the first Modswitch it finds, rerouting its uses to the source:
   exactly the level-misalignment bug the Typed milestone check exists to
   catch. *)
let drop_first_modswitch (p : Ir.program) =
  let dropped = ref false in
  let subst_op resolve (i : Ir.instr) =
    match i.op with
    | Ir.For fo ->
      { i with
        op =
          Ir.For
            { fo with
              inits = List.map resolve fo.inits;
              body = Ir.substitute_block resolve fo.body } }
    | op -> { i with op = Ir.map_op_operands resolve op }
  in
  let rec fix_block (b : Ir.block) : Ir.block =
    let rec go acc = function
      | [] -> { b with instrs = List.rev acc }
      | ({ Ir.op = Ir.Modswitch { src; _ }; _ } as i) :: rest when not !dropped ->
        dropped := true;
        let r = Ir.result i in
        let resolve v = if v = r then src else v in
        { b with
          instrs = List.rev_append acc (List.map (subst_op resolve) rest);
          yields = List.map resolve b.yields }
      | ({ Ir.op = Ir.For fo; _ } as i) :: rest when not !dropped ->
        let body = fix_block fo.body in
        go ({ i with op = Ir.For { fo with body } } :: acc) rest
      | i :: rest -> go (i :: acc) rest
    in
    go [] b.instrs
  in
  let body = fix_block p.body in
  if not !dropped then Alcotest.fail "no modswitch to drop in compiled program";
  { p with body }

let test_injected_modswitch_drop_attributed () =
  let p = geometric_program () in
  let bindings = [ ("K", 6) ] in
  let passes =
    Strategy.passes ~bindings ~strategy:Strategy.Halo ()
    @ [ { Strategy.pass_name = "drop-modswitch"; milestone = None; run = drop_first_modswitch } ]
  in
  match Pipeline.check_passes ~bindings ~strategy:"halo+bug" ~passes p with
  | _ -> Alcotest.fail "expected the dropped modswitch to be caught"
  | exception Pipeline.Verification_failure { pass_name; detail; _ } ->
    Alcotest.(check string) "attributed to the buggy pass" "drop-modswitch" pass_name;
    Alcotest.(check bool)
      (Printf.sprintf "typecheck violation reported (%s)" detail)
      true
      (String.length detail > 0)

(* Perturbing a constant keeps the IR perfectly well-typed: only the
   semantic fingerprint can catch it. *)
let perturb_first_const (p : Ir.program) =
  let done_ = ref false in
  let fix_instr (i : Ir.instr) =
    match i.op with
    | Ir.Const { value = Ir.Splat x; size } when not !done_ ->
      done_ := true;
      { i with op = Ir.Const { value = Ir.Splat (x +. 0.5); size } }
    | _ -> i
  in
  let rec fix_block (b : Ir.block) =
    { b with
      instrs =
        List.map
          (fun (i : Ir.instr) ->
            match i.op with
            | Ir.For fo -> { i with op = Ir.For { fo with body = fix_block fo.body } }
            | _ -> fix_instr i)
          b.instrs }
  in
  let body = fix_block p.body in
  if not !done_ then Alcotest.fail "no splat constant to perturb";
  { p with body }

let test_injected_const_perturbation_drifts () =
  let p = geometric_program () in
  let bindings = [ ("K", 6) ] in
  let passes =
    Strategy.passes ~bindings ~strategy:Strategy.Halo ()
    @ [ { Strategy.pass_name = "perturb-const"; milestone = None; run = perturb_first_const } ]
  in
  match Pipeline.check_passes ~bindings ~strategy:"halo+bug" ~passes p with
  | _ -> Alcotest.fail "expected the perturbed constant to be caught"
  | exception Pipeline.Verification_failure { pass_name; detail; _ } ->
    Alcotest.(check string) "attributed to the buggy pass" "perturb-const" pass_name;
    let contains needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "fingerprint drift reported (%s)" detail)
      true (contains "drifted" detail)

(* ------------------------------------------------------------------ *)
(* Generator determinism, fingerprints, differential fuzzing           *)
(* ------------------------------------------------------------------ *)

let test_gen_deterministic () =
  List.iter
    (fun seed ->
      let a = Gen.generate seed and b = Gen.generate seed in
      Alcotest.(check string)
        (Printf.sprintf "seed %d reproduces" seed)
        (Printer.program_to_string a.prog)
        (Printer.program_to_string b.prog);
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "seed %d bindings reproduce" seed)
        a.bindings b.bindings)
    [ 0; 3; 11; 42 ]

let test_fingerprint_source_vs_compiled () =
  let g = Gen.generate 3 in
  let source_fp = Pipeline.fingerprint ~bindings:g.bindings g.prog in
  List.iter
    (fun strategy ->
      let compiled, _ =
        Pipeline.compile ~bindings:g.bindings ~verify:false ~strategy g.prog
      in
      let fp =
        Pipeline.fingerprint ~bindings:g.bindings
          ~inputs:(Pipeline.fixed_inputs g.prog) compiled
      in
      List.iter2
        (fun a b ->
          Array.iteri
            (fun i x ->
              if Float.abs (x -. b.(i)) > 1e-6 then
                Alcotest.failf "%s: fingerprint slot %d: %g vs %g"
                  (Strategy.to_string strategy) i x b.(i))
            a)
        source_fp fp)
    Strategy.all

(* ------------------------------------------------------------------ *)
(* The cleartext semantics against independent oracles                 *)
(* ------------------------------------------------------------------ *)

module R = Halo_runtime.Interp.Make (Halo_ckks.Ref_backend)

(* A noiseless reference backend reaches the same values through its full
   level and scale discipline, so on every compiled program it must agree
   with [Interp.reference] exactly. *)
let test_reference_matches_noiseless_ref () =
  for seed = 0 to 19 do
    let g = Gen.generate seed in
    let inputs = Pipeline.fixed_inputs g.prog in
    List.iter
      (fun strategy ->
        let p = Strategy.compile ~bindings:g.bindings ~strategy g.prog in
        let st =
          Halo_ckks.Ref_backend.create ~enc_noise:0.0 ~mult_noise:0.0
            ~boot_noise:0.0 ~rescale_noise:0.0 ~slots:p.slots
            ~max_level:p.max_level ~scale_bits:51 ()
        in
        let noiseless, _ = R.run st ~bindings:g.bindings ~inputs p in
        let exact =
          Halo_runtime.Interp.reference ~bindings:g.bindings ~inputs p
        in
        if not (List.equal (Array.for_all2 ( = )) exact noiseless) then
          Alcotest.failf "seed %d, %s: reference differs from noiseless run"
            seed (Strategy.to_string strategy))
      Strategy.all
  done

(* Two cipher values carried through the loop: packing merges them, so
   the unlowered program keeps composite pack/unpack. *)
let two_carried_program () =
  Dsl.build ~name:"two" ~slots:256 ~max_level:16 (fun b ->
      let x = Dsl.input b "x" ~size:16 in
      let outs =
        Dsl.for_ b ~count:(dyn "K") ~init:[ x; x ] (fun b -> function
          | [ u; v ] ->
            let u' = Dsl.mul b u (Dsl.const b 0.9) in
            [ u'; Dsl.add b v (Dsl.mul b u' (Dsl.const b 0.1)) ]
          | _ -> assert false)
      in
      List.iter (Dsl.output b) outs)

let test_unlowered_pack_matches_lowered () =
  let p = two_carried_program () and bindings = [ ("K", 7) ] in
  let compile lower =
    Strategy.compile ~bindings ~lower ~strategy:Strategy.Packing_unrolling p
  in
  let unlowered = compile false and lowered = compile true in
  let composite = function Ir.Pack _ | Ir.Unpack _ -> true | _ -> false in
  Alcotest.(check bool) "composite ops kept" true
    (Ir.count_ops ~p:composite unlowered.body > 0);
  let inputs = Pipeline.fixed_inputs p in
  let run q = Halo_runtime.Interp.reference ~bindings ~inputs q in
  let d = Pipeline.max_deviation (run unlowered) (run lowered) in
  if d > 1e-12 then Alcotest.failf "unlowered drifts from lowered by %g" d

(* ------------------------------------------------------------------ *)
(* Golden digest: per-pass drift and source fingerprints, bit for bit  *)
(* ------------------------------------------------------------------ *)

(* Every per-pass drift and every source fingerprint, printed as hex
   floats, for every [corpus] program under every strategy.  Any change to
   the cleartext semantics (a reordered fold, a different mask recipe, a
   walker rewrite) moves some bit and with it the digest; update
   [golden_digest] only for an intended semantic change. *)
let golden_digest = "0ea7f937f2e0048e264ab8436224e9af"

(* Gen seeds [0, 40) and the seven ML programs (1024 slots, 64 samples, 4
   iterations), each as (tag, bindings, program). *)
let corpus () =
  List.init 40 (fun seed ->
      let g = Gen.generate seed in
      (Printf.sprintf "seed %d" seed, g.bindings, g.prog))
  @ List.map
      (fun (b : Halo_ml.Bench_def.t) ->
        (b.name, Halo_ml.Workloads.default_bindings b ~iters:4, b.build ~slots:1024 ~size:64))
      Halo_ml.Workloads.all

let semantic_digest () =
  let buf = Buffer.create 65536 in
  let program (tag, bindings, p) =
    Printf.bprintf buf "%s source" tag;
    (match Pipeline.fingerprint ~bindings p with
     | fp -> List.iter (Array.iter (Printf.bprintf buf " %h")) fp
     | exception e -> Printf.bprintf buf " raised %s" (Printexc.to_string e));
    Buffer.add_char buf '\n';
    List.iter
      (fun strategy ->
        Printf.bprintf buf "%s %s" tag (Strategy.to_string strategy);
        (match Pipeline.compile ~bindings ~strategy p with
         | _, reports ->
           List.iter
             (fun (r : Pipeline.pass_report) ->
               Printf.bprintf buf " %s=%s" r.pass_name
                 (match r.drift with
                  | None -> "-"
                  | Some d -> Printf.sprintf "%h" d))
             reports
         | exception e ->
           Printf.bprintf buf " raised %s" (Printexc.to_string e));
        Buffer.add_char buf '\n')
      Strategy.all
  in
  List.iter program (corpus ());
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden_digest () =
  Alcotest.(check string) "drift and fingerprint digest" golden_digest
    (semantic_digest ())

(* The compiled program text of every [corpus] program under every strategy
   and the tuned plan of each ML program, as one digest.  The drift digest
   above pins fingerprints only; this one pins what the passes emit, so a
   change to a pass's merge or placement decisions (a CSE key, a fold
   order) shows even when the outputs do not move. *)
let compile_golden_digest = "ada0becf394036901c1adf752c51ffd8"

let compile_digest () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (tag, bindings, p) ->
      List.iter
        (fun strategy ->
          Printf.bprintf buf "%s %s\n" tag (Strategy.to_string strategy);
          match Pipeline.compile ~bindings ~strategy p with
          | q, _ -> Buffer.add_string buf (Printer.program_to_string q)
          | exception e -> Printf.bprintf buf "raised %s\n" (Printexc.to_string e))
        Strategy.all)
    (corpus ());
  List.iter
    (fun (b : Halo_ml.Bench_def.t) ->
      let bindings = Halo_ml.Workloads.default_bindings b ~iters:4 in
      let r, _ = Halo_tune.Tuner.tune ~bindings ~name:b.name (b.build ~slots:1024 ~size:64) in
      Printf.bprintf buf "%s tuned %s\n" b.name (Halo_tune.Tuner.candidate_to_string r.r_best))
    Halo_ml.Workloads.all;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_compile_golden () =
  Alcotest.(check string) "compiled program and tuned plan digest" compile_golden_digest
    (compile_digest ())

(* ------------------------------------------------------------------ *)
(* Demand-driven level placement                                       *)
(* ------------------------------------------------------------------ *)

(* Every corpus program under every strategy: no op runs at a level that
   only a modswitch reads. *)
let test_corpus_no_level_waste () =
  let compiled = ref 0 in
  List.iter
    (fun (tag, bindings, p) ->
      List.iter
        (fun strategy ->
          incr compiled;
          match Ir_check.level_waste (Strategy.compile ~bindings ~strategy p) with
          | [] -> ()
          | vs ->
            Alcotest.failf "%s under %s: %d violations, first %s" tag
              (Strategy.to_string strategy) (List.length vs)
              (Ir_check.to_string (List.hd vs)))
        Strategy.all)
    (corpus ());
  Alcotest.(check int) "programs compiled" 235 !compiled

(* Same-source rotations run at one level, so rotate-fuse still sees one
   group per source: within a block, the nonzero rotations of a variable
   all read the same value, never two different modswitch copies of it (or
   the variable and a copy). *)
let test_corpus_rotation_groups_whole () =
  List.iter
    (fun (tag, bindings, p) ->
      List.iter
        (fun strategy ->
          let q =
            Strategy.compile ~bindings
              ~knobs:{ Strategy.default_knobs with rotate_fuse = false }
              ~strategy p
          in
          let copy_of = Hashtbl.create 64 in
          Ir.iter_blocks
            (fun b ->
              List.iter
                (fun (i : Ir.instr) ->
                  match i.op with
                  | Ir.Modswitch { src; _ } -> Hashtbl.replace copy_of (Ir.result i) src
                  | _ -> ())
                b.instrs)
            q.body;
          let root v = Option.value ~default:v (Hashtbl.find_opt copy_of v) in
          Ir.iter_blocks
            (fun b ->
              let read = Hashtbl.create 8 in
              List.iter
                (fun (i : Ir.instr) ->
                  match i.op with
                  | Ir.Rotate { src; offset } when offset <> 0 ->
                    (match Hashtbl.find_opt read (root src) with
                     | Some s when s <> src ->
                       Alcotest.failf "%s under %s: rotations of %%%d read %%%d and %%%d"
                         tag (Strategy.to_string strategy) (root src) s src
                     | _ -> Hashtbl.replace read (root src) src)
                  | _ -> ())
                b.instrs)
            q.body)
        Strategy.all)
    (corpus ())

(* ------------------------------------------------------------------ *)
(* Placement: the library's searches against frozen references        *)
(* ------------------------------------------------------------------ *)

(* Verbatim copies of [Dacapo.place_in_block] and [Tuning.program] from
   before their searches were made incremental (a table copy and a forward
   simulation per DaCapo candidate; a whole-program walk per tuning probe).
   The library must print the same programs on every input below. *)
module Frozen_dacapo = struct
  open Typecheck

  type config = { filter_width : int }

  let default_config = { filter_width = 4 }

  let terr fmt = Printf.ksprintf (fun s -> raise (Typecheck.Type_error s)) fmt

  (* Forward level simulation over [instrs] starting at [start], with variable
     types in [tys] (a scratch Hashtbl).  Returns [Some index] of the first
     instruction that underflows, [None] if the suffix completes, including
     the boundary check on yields. *)
  let simulate ~max_level ~boundary ~tys ~instrs ~yields ~start =
    let ty_of v =
      match Hashtbl.find_opt tys v with
      | Some t -> t
      | None -> terr "Dacapo: use of undefined %%%d" v
    in
    let n = Array.length instrs in
    let rec go index =
      if index >= n then begin
        let bad =
          List.exists
            (fun v ->
              match (boundary, ty_of v) with
              | Some m, Tcipher { level; _ } -> level < m
              | _ -> false)
            yields
        in
        if bad then Some n else None
      end
      else begin
        let i : Ir.instr = instrs.(index) in
        match i.op with
        | Ir.For fo ->
          let init_tys = List.map ty_of fo.inits in
          let m = match fo.boundary with Some m -> m | None -> 1 in
          let ok =
            List.for_all
              (function Tcipher { level; _ } -> level >= m | Tplain -> true)
              init_tys
          in
          if not ok then Some index
          else begin
            List.iter2
              (fun r t ->
                Hashtbl.replace tys r
                  (match t with
                   | Tplain -> Tplain
                   | Tcipher _ -> Tcipher { level = m; scale = 1 }))
              i.results init_tys;
            go (index + 1)
          end
        | Ir.RotateMany { src; _ } ->
          (* Level-preserving; never underflows. *)
          let t = ty_of src in
          List.iter (fun r -> Hashtbl.replace tys r t) i.results;
          go (index + 1)
        | op ->
          (match
             Levels.op_result ~max_level ~index op
               ~operand_tys:(List.map ty_of (Ir.op_operands op))
           with
           | t ->
             Hashtbl.replace tys (Ir.result i) t;
             go (index + 1)
           | exception Levels.Underflow _ -> Some index)
      end
    in
    go start

  let place_in_block ?(config = default_config) ~fresh ~max_level ~env ~param_tys
      ~boundary (b : Ir.block) =
    let instrs = Array.of_list b.instrs in
    let n = Array.length instrs in
    let base_tys () =
      let tys = Hashtbl.copy env in
      List.iter2 (fun v t -> Hashtbl.replace tys v t) b.params param_tys;
      tys
    in
    let is_cipher_at tys v =
      match Hashtbl.find_opt tys v with Some (Tcipher _) -> true | _ -> false
    in
    (* Types with every instruction executed optimistically (bootstrapping
       whenever needed) — used only to classify variables as cipher/plain for
       liveness, which is level-independent. *)
    let full_tys =
      let tys = base_tys () in
      let bump v =
        (* Saturate underflowed values back to max level: statuses stay right. *)
        Hashtbl.replace tys v (Tcipher { level = max_level; scale = 1 })
      in
      Array.iteri
        (fun index (i : Ir.instr) ->
          let ty_of v =
            match Hashtbl.find_opt tys v with Some t -> t | None -> Tplain
          in
          match i.op with
          | Ir.For fo ->
            let m = match fo.boundary with Some m -> m | None -> 1 in
            List.iter2
              (fun r init ->
                Hashtbl.replace tys r
                  (match ty_of init with
                   | Tplain -> Tplain
                   | Tcipher _ -> Tcipher { level = m; scale = 1 }))
              i.results fo.inits
          | Ir.RotateMany { src; _ } ->
            let t = ty_of src in
            List.iter (fun r -> Hashtbl.replace tys r t) i.results
          | op ->
            (match
               Levels.op_result ~max_level ~index op
                 ~operand_tys:(List.map ty_of (Ir.op_operands op))
             with
             | t -> Hashtbl.replace tys (Ir.result i) t
             | exception Levels.Underflow _ -> bump (Ir.result i)))
        instrs;
      tys
    in
    let sim_from ~live start =
      (* Pre-[start] definitions keep their optimistic classification (their
         levels only matter if they are used later, in which case they are in
         the live set and get raised to the maximum level, exactly what a
         bootstrap at [start] does); post-[start] definitions are recomputed
         by the simulation before any use. *)
      let tys = Hashtbl.copy full_tys in
      Liveness.VarSet.iter
        (fun v -> Hashtbl.replace tys v (Tcipher { level = max_level; scale = 1 }))
        live;
      simulate ~max_level ~boundary ~tys ~instrs ~yields:b.yields ~start
    in
    (* No placement needed? *)
    let entry_sim () =
      let tys = base_tys () in
      simulate ~max_level ~boundary ~tys ~instrs ~yields:b.yields ~start:0
    in
    match entry_sim () with
    | None -> b
    | Some entry_reach ->
      let live_sets = Liveness.live_at_points b ~is_cipher:(is_cipher_at full_tys) in
      let reach_of = Array.make (n + 1) (-1) in
      let reach j =
        if reach_of.(j) >= 0 then reach_of.(j)
        else begin
          let r =
            match sim_from ~live:live_sets.(j) j with
            | None -> n + 1 (* covers the whole block *)
            | Some idx -> idx
          in
          reach_of.(j) <- r;
          r
        end
      in
      let boot_cost = Halo_cost.Cost_model.bootstrap_latency_us ~target:max_level in
      let cost_at j = float_of_int (Liveness.VarSet.cardinal live_sets.(j)) *. boot_cost in
      (* DP over candidate points filtered by live count. *)
      let try_plan width =
        let candidate j =
          Liveness.VarSet.cardinal live_sets.(j) <= width
          && not (Liveness.VarSet.is_empty live_sets.(j))
        in
        let dp = Array.make (n + 1) infinity in
        let prev = Array.make (n + 1) (-1) in
        for j = 0 to n do
          if candidate j then begin
            (* Reachable directly from entry? *)
            if j <= entry_reach then begin
              let c = cost_at j in
              if c < dp.(j) then begin
                dp.(j) <- c;
                prev.(j) <- -1
              end
            end;
            for i = 0 to j - 1 do
              if candidate i && dp.(i) < infinity && reach i >= j then begin
                let c = dp.(i) +. cost_at j in
                if c < dp.(j) then begin
                  dp.(j) <- c;
                  prev.(j) <- i
                end
              end
            done
          end
        done;
        (* Best finishing point: covers through the end. *)
        let best = ref (-1) in
        for j = 0 to n do
          if candidate j && dp.(j) < infinity && reach j > n then
            if !best < 0 || dp.(j) < dp.(!best) then best := j
        done;
        if !best < 0 then None
        else begin
          let rec chain j acc = if j < 0 then acc else chain prev.(j) (j :: acc) in
          Some (chain !best [])
        end
      in
      let rec widen width =
        match try_plan width with
        | Some pts -> pts
        | None ->
          if width > n + 2 then terr "Dacapo: no feasible bootstrap plan"
          else widen (width * 2)
      in
      let points = widen config.filter_width in
      (* Materialize: walk forward, inserting bootstraps at chosen points and
         renaming subsequent uses. *)
      let rename : (Ir.var, Ir.var) Hashtbl.t = Hashtbl.create 32 in
      let resolve v = match Hashtbl.find_opt rename v with Some v' -> v' | None -> v in
      let out = ref [] in
      let insert_point j =
        Liveness.VarSet.iter
          (fun v ->
            let fresh_v = Ir.fresh_var fresh in
            out :=
              { Ir.results = [ fresh_v ];
                op = Ir.Bootstrap { src = resolve v; target = max_level } }
              :: !out;
            Hashtbl.replace rename v fresh_v)
          live_sets.(j)
      in
      Array.iteri
        (fun j (i : Ir.instr) ->
          if List.mem j points then insert_point j;
          let op =
            match i.op with
            | Ir.For fo ->
              Ir.For
                { fo with
                  inits = List.map resolve fo.inits;
                  body = Ir.substitute_block resolve fo.body }
            | op -> Ir.map_op_operands resolve op
          in
          out := { i with op } :: !out)
        instrs;
      if List.mem n points then insert_point n;
      { b with instrs = List.rev !out; yields = List.map resolve b.yields }
end

module Frozen_tuning = struct
  (* Bootstrap instructions are identified by their (unique) result variable. *)

  let rec rewrite_block target_of (b : Ir.block) =
    let instrs =
      List.map
        (fun (i : Ir.instr) ->
          match i.op with
          | Ir.Bootstrap { src; target } ->
            let target =
              match target_of (Ir.result i) with Some t -> t | None -> target
            in
            { i with op = Ir.Bootstrap { src; target } }
          | Ir.For fo -> { i with op = Ir.For { fo with body = rewrite_block target_of fo.body } }
          | _ -> i)
        b.instrs
    in
    { b with instrs }

  let collect_bootstraps (p : Ir.program) =
    let acc = ref [] in
    Ir.iter_blocks
      (fun b ->
        List.iter
          (fun (i : Ir.instr) ->
            match i.op with
            | Ir.Bootstrap { target; _ } -> acc := (Ir.result i, target) :: !acc
            | _ -> ())
          b.instrs)
      p.body;
    List.rev !acc

  let feasible (p : Ir.program) overrides =
    let target_of v = Hashtbl.find_opt overrides v in
    let body = rewrite_block target_of p.body in
    match
      Levels.walk_block ~max_level:p.max_level ~env:(Hashtbl.create 256)
        ~param_tys:(Pass_util.input_tys p) ~boundary:None body
    with
    | _ -> true
    | exception Levels.Underflow _ -> false

  let program ?(slack = 0) (p : Ir.program) =
    let bootstraps = collect_bootstraps p in
    let overrides : (Ir.var, int) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (v, current) ->
        (* Lowest feasible target in [1, current]: feasibility is monotone in
           the target, binary search on the smallest feasible value. *)
        let rec search lo hi =
          if lo >= hi then lo
          else begin
            let mid = (lo + hi) / 2 in
            Hashtbl.replace overrides v mid;
            if feasible p overrides then search lo mid else search (mid + 1) hi
          end
        in
        let best = search 1 current in
        (* [slack] extra levels above the minimum (clamped to the original
           target, which is feasible by construction): a knob for trading
           bootstrap latency against noise headroom that the autotuner sweeps. *)
        let best = min current (best + max 0 slack) in
        Hashtbl.replace overrides v best;
        (* Keep the override only if it survives a final check (it should,
           by monotonicity). *)
        if not (feasible p overrides) then Hashtbl.remove overrides v)
      bootstraps;
    { p with body = rewrite_block (Hashtbl.find_opt overrides) p.body }
end

(* The corpus with the ML programs at 2, 4 and 10 iterations. *)
let placement_corpus () =
  List.init 40 (fun seed ->
      let g = Gen.generate seed in
      (Printf.sprintf "seed %d" seed, g.bindings, g.prog))
  @ List.concat_map
      (fun iters ->
        List.map
          (fun (b : Halo_ml.Bench_def.t) ->
            ( Printf.sprintf "%s@%d" b.name iters,
              Halo_ml.Workloads.default_bindings b ~iters,
              b.build ~slots:1024 ~size:64 ))
          Halo_ml.Workloads.all)
      [ 2; 4; 10 ]

let filter_widths = [ 1; 4; 64 ]

let printed_or_raised f =
  match f () with
  | q -> Printer.program_to_string q
  | exception e -> "raised " ^ Printexc.to_string e

let check_same what lib frozen =
  let l = printed_or_raised lib and f = printed_or_raised frozen in
  if l <> f then
    Alcotest.failf "%s: library and frozen reference differ\nlibrary:\n%s\nfrozen:\n%s"
      what l f

let run_passes passes p =
  List.fold_left (fun p (ps : Strategy.pass) -> ps.run p) p passes

(* [passes] up to the first one named [name], and from it on. *)
let split_at name passes =
  let rec go acc = function
    | (ps : Strategy.pass) :: rest when ps.pass_name <> name -> go (ps :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go [] passes

(* The DaCapo strategy end to end, with [loop-codegen] (a walk of the
   loop-free, fully unrolled program, then placement over its body if it
   underflows) running the frozen placement. *)
let test_dacapo_strategy_frozen () =
  List.iter
    (fun (tag, bindings, p) ->
      List.iter
        (fun filter_width ->
          let dacapo_config = { Dacapo.filter_width } in
          let frozen_codegen (q : Ir.program) =
            if Ir.count_ops ~p:(function Ir.For _ -> true | _ -> false) q.body > 0 then
              Alcotest.failf "%s: a loop survives full unrolling" tag;
            let param_tys = Pass_util.input_tys q in
            match
              Levels.walk_block ~max_level:q.max_level ~env:(Hashtbl.create 256)
                ~param_tys ~boundary:None q.body
            with
            | _ -> q
            | exception Levels.Underflow _ ->
              let fresh = Ir.fresh_of_program q in
              let body =
                Frozen_dacapo.place_in_block
                  ~config:{ Frozen_dacapo.filter_width }
                  ~fresh ~max_level:q.max_level ~env:(Hashtbl.create 256) ~param_tys
                  ~boundary:None q.body
              in
              { q with body; next_var = fresh.Ir.next }
          in
          let passes =
            List.map
              (fun (ps : Strategy.pass) ->
                if ps.pass_name = "loop-codegen" then { ps with run = frozen_codegen }
                else ps)
              (Strategy.passes ~bindings ~dacapo_config ~strategy:Strategy.Dacapo ())
          in
          check_same
            (Printf.sprintf "%s dacapo width %d" tag filter_width)
            (fun () -> Strategy.compile ~bindings ~dacapo_config ~strategy:Strategy.Dacapo p)
            (fun () -> Strategy.verified ~strategy:Strategy.Dacapo (run_passes passes p)))
        filter_widths)
    (placement_corpus ())

(* Every block of a program at its entry to [loop-codegen], typed by an
   optimistic walk (an underflowing result is a max-level ciphertext, a
   loop body starts from max-level ciphertext parameters, as after
   Algorithm 1's head bootstraps), at the program's level budget and at a
   smaller one, so the placement of every strategy's blocks runs. *)
let blocks_of ~max_level (p : Ir.program) =
  let open Typecheck in
  let env = Hashtbl.create 256 in
  let top = Tcipher { level = max_level; scale = 1 } in
  let blocks = ref [] in
  let rec walk (b : Ir.block) ~param_tys ~boundary =
    List.iter2 (Hashtbl.replace env) b.params param_tys;
    blocks := (b, param_tys, boundary) :: !blocks;
    let ty v = Option.value (Hashtbl.find_opt env v) ~default:Tplain in
    List.iteri
      (fun index (i : Ir.instr) ->
        match i.op with
        | Ir.For fo ->
          let m = Option.value fo.boundary ~default:1 in
          let init_tys = List.map ty fo.inits in
          List.iter2
            (fun r t ->
              Hashtbl.replace env r
                (match t with Tplain -> Tplain | Tcipher _ -> Tcipher { level = m; scale = 1 }))
            i.results init_tys;
          walk fo.body ~boundary:(Some m)
            ~param_tys:(List.map (function Tplain -> Tplain | Tcipher _ -> top) init_tys)
        | Ir.RotateMany { src; _ } -> List.iter (fun r -> Hashtbl.replace env r (ty src)) i.results
        | op ->
          Hashtbl.replace env (Ir.result i)
            (match
               Levels.op_result ~max_level ~index op
                 ~operand_tys:(List.map ty (Ir.op_operands op))
             with
             | t -> t
             | exception Levels.Underflow _ -> top))
      b.instrs
  in
  walk p.body ~boundary:None
    ~param_tys:
      (List.map
         (fun (i : Ir.input) -> if i.in_status = Ir.Cipher then top else Tplain)
         p.inputs);
  (env, List.rev !blocks)

let test_block_placement_frozen () =
  List.iter
    (fun (tag, bindings, p) ->
      List.iter
        (fun strategy ->
          let before, _ =
            split_at "loop-codegen" (Strategy.passes ~bindings ~strategy ())
          in
          let q = run_passes before p in
          List.iter
            (fun max_level ->
              let env, blocks = blocks_of ~max_level q in
              List.iteri
                (fun k (b, param_tys, boundary) ->
                  List.iter
                    (fun filter_width ->
                      let place f () =
                        let fresh = Ir.fresh_of_program q in
                        let body = f ~fresh in
                        { q with body; next_var = fresh.Ir.next }
                      in
                      check_same
                        (Printf.sprintf "%s %s block %d max level %d width %d" tag
                           (Strategy.to_string strategy) k max_level filter_width)
                        (place (fun ~fresh ->
                             Dacapo.place_in_block ~config:{ Dacapo.filter_width } ~fresh
                               ~max_level ~env ~param_tys ~boundary b))
                        (place (fun ~fresh ->
                             Frozen_dacapo.place_in_block
                               ~config:{ Frozen_dacapo.filter_width } ~fresh ~max_level ~env
                               ~param_tys ~boundary b)))
                    filter_widths)
                blocks)
            [ q.max_level; 5 ])
        [ Strategy.Dacapo; Strategy.Type_matched ])
    (placement_corpus ())

(* Target tuning of every strategy's placed program: HALO's input to its
   [tuning] pass, the others' output of their last placement pass.
   [Strategy.all] starts with DaCapo. *)
let test_tuning_frozen () =
  List.iter
    (fun (tag, bindings, p) ->
      List.iter
        (fun filter_width ->
          let dacapo_config = { Dacapo.filter_width } in
          List.iter
            (fun strategy ->
              let passes = Strategy.passes ~bindings ~dacapo_config ~strategy () in
              let before, _ = split_at "lower-pack" passes in
              let before = List.filter (fun (ps : Strategy.pass) -> ps.pass_name <> "tuning") before in
              let q = run_passes before p in
              List.iter
                (fun slack ->
                  check_same
                    (Printf.sprintf "%s %s width %d slack %d" tag
                       (Strategy.to_string strategy) filter_width slack)
                    (fun () -> Tuning.program ~slack q)
                    (fun () -> Frozen_tuning.program ~slack q))
                [ 0; 1; 2 ])
            (* The unrolled DaCapo programs are the slowest to tune with the
               frozen walk; their placement at every width is checked above. *)
            (if filter_width = 4 then Strategy.all else List.tl Strategy.all))
        filter_widths)
    (placement_corpus ())

let test_fuzz_50_seeds () =
  let reports = Oracle.fuzz ~seeds:(List.init 50 (fun i -> i)) () in
  List.iter
    (fun (r : Oracle.seed_report) ->
      if not (Oracle.ok r) then
        Alcotest.failf "seed %d: %s" r.seed
          (String.concat "; " (List.map Oracle.failure_to_string r.failures)))
    reports;
  Alcotest.(check int) "all seeds ran" 50 (List.length reports)

let () =
  Alcotest.run "halo_verify"
    [
      ( "ir_check",
        [
          Alcotest.test_case "accepts valid programs" `Quick test_check_accepts_valid;
          Alcotest.test_case "ssa" `Quick test_check_ssa;
          Alcotest.test_case "scope" `Quick test_check_scope;
          Alcotest.test_case "inputs" `Quick test_check_inputs;
          Alcotest.test_case "slots and max-level" `Quick test_check_slots_and_level;
          Alcotest.test_case "for-arity" `Quick test_check_for_arity;
          Alcotest.test_case "op arity" `Quick test_check_op_arity;
          Alcotest.test_case "count" `Quick test_check_count;
          Alcotest.test_case "boundary" `Quick test_check_boundary;
          Alcotest.test_case "const-size" `Quick test_check_const_size;
          Alcotest.test_case "pack-shape" `Quick test_check_pack_shape;
          Alcotest.test_case "levels" `Quick test_check_levels;
          Alcotest.test_case "typecheck" `Quick test_check_typecheck;
          Alcotest.test_case "level-waste" `Quick test_check_level_waste;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "all strategies verify" `Quick test_pipeline_all_strategies;
          Alcotest.test_case "dropped modswitch attributed" `Quick
            test_injected_modswitch_drop_attributed;
          Alcotest.test_case "perturbed constant drifts" `Quick
            test_injected_const_perturbation_drifts;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "generator is deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "fingerprint source vs compiled" `Quick
            test_fingerprint_source_vs_compiled;
          Alcotest.test_case "reference = noiseless ref backend" `Quick
            test_reference_matches_noiseless_ref;
          Alcotest.test_case "unlowered pack = lowered" `Quick
            test_unlowered_pack_matches_lowered;
          Alcotest.test_case "golden drift digest" `Quick test_golden_digest;
          Alcotest.test_case "golden compile digest" `Quick test_compile_golden;
          Alcotest.test_case "50-seed differential fuzz" `Slow test_fuzz_50_seeds;
        ] );
      ( "levels",
        [
          Alcotest.test_case "no level waste on the corpus" `Quick test_corpus_no_level_waste;
          Alcotest.test_case "rotation groups stay whole" `Quick
            test_corpus_rotation_groups_whole;
        ] );
      ( "placement",
        [
          Alcotest.test_case "dacapo strategy = frozen placement" `Quick
            test_dacapo_strategy_frozen;
          Alcotest.test_case "block placement = frozen" `Quick test_block_placement_frozen;
          Alcotest.test_case "target tuning = frozen" `Quick test_tuning_frozen;
        ] );
    ]

(* Tests for hoisted rotations: the decompose/apply split in Keys, the
   rotate_many kernels, the RotateMany IR operation (printer, parser,
   binary codec, checkers), the Rotate_fuse pass, and the hoisting
   statistics.  Everything on the hoisted path is exact modular integer
   arithmetic, so the tests assert bit identity, not tolerances. *)

open Halo
open Halo_ckks
module Stats = Halo_runtime.Stats
module R = Halo_runtime.Interp.Make (Halo_ckks.Ref_backend)

let keys_memo = ref None

let test_keys () =
  match !keys_memo with
  | Some k -> k
  | None ->
    let k = Keys.keygen (Params.test_small ()) in
    keys_memo := Some k;
    k

let sample_values seed slots =
  let rng = Random.State.make [| seed |] in
  Array.init slots (fun _ -> Random.State.float rng 2.0 -. 1.0)

let exact_poly msg (a : Rns_poly.t) (b : Rns_poly.t) =
  if a.level <> b.level then Alcotest.failf "%s: levels %d vs %d" msg a.level b.level;
  if a.domain <> b.domain then Alcotest.failf "%s: domains differ" msg;
  Array.iteri
    (fun i ra ->
      if ra <> b.res.(i) then Alcotest.failf "%s: residue row %d differs" msg i)
    a.res

let exact_ct msg (a : Eval.ct) (b : Eval.ct) =
  exact_poly (msg ^ " c0") a.c0 b.c0;
  exact_poly (msg ^ " c1") a.c1 b.c1;
  if Int64.bits_of_float a.scale <> Int64.bits_of_float b.scale then
    Alcotest.failf "%s: scales differ" msg

(* ------------------------------------------------------------------ *)
(* Kernel layer: hoisting identity and RNG-order parity                *)
(* ------------------------------------------------------------------ *)

(* The core hoisting identity: applying a Galois automorphism to the shared
   digits (apply_rotated) is bit-identical to rotating first and then key
   switching — for every offset, on the same switch key. *)
let test_hoisting_identity () =
  let keys = test_keys () in
  let params = keys.Keys.params in
  let a = sample_values 101 params.Params.slots in
  let ca = Eval.encrypt keys ~level:3 a in
  List.iter
    (fun offset ->
      let sk = Keys.rotation_key keys ~offset in
      let k = Keys.galois_element params ~offset in
      let seq0, seq1 =
        Keys.key_switch keys sk (Rns_poly.automorphism params ~k ca.Eval.c1)
      in
      let hoist0, hoist1 =
        Keys.apply_rotated keys sk ~k (Keys.decompose keys ca.Eval.c1)
      in
      let msg = Printf.sprintf "offset %d" offset in
      exact_poly (msg ^ " u0") seq0 hoist0;
      exact_poly (msg ^ " u1") seq1 hoist1)
    [ 1; -2; 5; 7; -1 ]

let test_decompose_apply_is_key_switch () =
  let keys = test_keys () in
  let params = keys.Keys.params in
  let a = sample_values 102 params.Params.slots in
  let ca = Eval.encrypt keys ~level:2 a in
  let sk = Keys.relin_key keys in
  let s0, s1 = Keys.key_switch keys sk ca.Eval.c1 in
  let h0, h1 = Keys.apply keys sk (Keys.decompose keys ca.Eval.c1) in
  exact_poly "u0" s0 h0;
  exact_poly "u1" s1 h1

(* rotate_many must equal the member-by-member sequential rotation — on
   FRESH key material for each path, so the test also proves the hoisted
   path consumes the key-generation RNG in the same order. *)
let test_rotate_many_matches_sequential () =
  let params = Params.test_small () in
  let offsets = [ 1; -2; 0; 5; 3 ] in
  let a = sample_values 103 params.Params.slots in
  let run_sequential () =
    let keys = Keys.keygen ~seed:77 params in
    let ca = Eval.encrypt keys ~level:3 a in
    List.map
      (fun o -> if o = 0 then ca else Eval.rotate keys ca ~offset:o)
      offsets
  in
  let run_hoisted () =
    let keys = Keys.keygen ~seed:77 params in
    let ca = Eval.encrypt keys ~level:3 a in
    Eval.rotate_many keys ca ~offsets
  in
  let seq = run_sequential () and hoisted = run_hoisted () in
  Alcotest.(check int) "arity" (List.length seq) (List.length hoisted);
  List.iteri
    (fun i (s, h) -> exact_ct (Printf.sprintf "member %d" i) s h)
    (List.combine seq hoisted)

(* Bit identity across Domain_pool sizes: the group computed with the
   parallel pool equals the one computed with every loop forced sequential. *)
let test_rotate_many_pool_sizes () =
  let keys = test_keys () in
  let params = keys.Keys.params in
  let offsets = [ 2; -3; 6 ] in
  (* Warm the rotation-key cache so both runs see identical key state. *)
  List.iter (fun o -> ignore (Keys.rotation_key keys ~offset:o)) offsets;
  let a = sample_values 104 params.Params.slots in
  let ca = Eval.encrypt keys ~level:3 a in
  let pooled = Eval.rotate_many keys ca ~offsets in
  let sequential =
    Domain_pool.sequentially (fun () -> Eval.rotate_many keys ca ~offsets)
  in
  List.iteri
    (fun i (p, s) -> exact_ct (Printf.sprintf "member %d" i) p s)
    (List.combine pooled sequential)

let test_rotate_many_decrypts () =
  let keys = test_keys () in
  let params = keys.Keys.params in
  let slots = params.Params.slots in
  let a = Array.init slots (fun i -> float_of_int (i mod 13) /. 16.0) in
  let ca = Eval.encrypt keys ~level:2 a in
  let offsets = [ 1; 4; -2 ] in
  List.iter2
    (fun o ct ->
      let expected =
        Array.init slots (fun i -> a.(((i + o) mod slots + slots) mod slots))
      in
      let got = Eval.decrypt keys ct in
      Array.iteri
        (fun i e ->
          if Float.abs (e -. got.(i)) > 1e-3 then
            Alcotest.failf "offset %d slot %d: %g vs %g" o i e got.(i))
        expected)
    offsets
    (Eval.rotate_many keys ca ~offsets)

(* Regression: concurrent first-use generation of the same rotation key must
   serialize on the keys mutex — both domains get the same physical key and
   the cache holds a single entry per offset. *)
let test_concurrent_galois_key () =
  let params = Params.test_small () in
  for trial = 0 to 4 do
    let keys = Keys.keygen ~seed:(900 + trial) params in
    let offset = 3 + trial in
    let spawn () = Domain.spawn (fun () -> Keys.rotation_key keys ~offset) in
    let d1 = spawn () and d2 = spawn () and d3 = spawn () in
    let k1 = Domain.join d1 and k2 = Domain.join d2 and k3 = Domain.join d3 in
    if not (k1 == k2 && k2 == k3) then
      Alcotest.failf "trial %d: domains saw different keys for offset %d"
        trial offset;
    let galois = Keys.galois_element params ~offset in
    let entries =
      List.filter (fun (g, _) -> g = galois) (Keys.rotation_entries keys)
    in
    Alcotest.(check int)
      (Printf.sprintf "trial %d cache entries" trial)
      1 (List.length entries)
  done

(* ------------------------------------------------------------------ *)
(* IR: round trips and checkers                                        *)
(* ------------------------------------------------------------------ *)

let rotation_program () =
  Dsl.build ~name:"rots" ~slots:64 ~max_level:16 (fun b ->
      let x = Dsl.input b "x" ~size:8 in
      match Dsl.rotate_many b x [ 1; 0; -2; 4 ] with
      | [ r1; r0; r2; r4 ] ->
        Dsl.output b (Dsl.add b (Dsl.add b r1 r0) (Dsl.add b r2 r4))
      | _ -> assert false)

let test_printer_parser_roundtrip () =
  let p = rotation_program () in
  let text = Printer.program_to_string p in
  let q = Parser.parse_program text in
  Alcotest.(check string) "round trip" text (Printer.program_to_string q)

let binary_roundtrip p =
  let module Codec = Halo_persist.Codec in
  Codec.of_frame Codec.program (Codec.to_frame Codec.program p)

let test_binary_roundtrip () =
  let p = rotation_program () in
  let q = binary_roundtrip p in
  Alcotest.(check bool) "binary round trip" true (p = q);
  (* And for a fused compiled program (RotateMany introduced by the pass). *)
  let compiled = Strategy.compile ~strategy:Strategy.Halo p in
  let c2 = binary_roundtrip compiled in
  Alcotest.(check bool) "compiled round trip" true (compiled = c2)

let manual_program instrs ~yield =
  {
    Ir.prog_name = "manual";
    slots = 64;
    max_level = 16;
    inputs =
      [ { Ir.in_name = "x"; in_var = 0; in_status = Ir.Cipher; in_size = 8 } ];
    body = { Ir.params = [ 0 ]; instrs; yields = [ yield ] };
    next_var = 100;
  }

let test_ir_check_arity () =
  (* 2 offsets but 1 result: flagged structurally. *)
  let bad =
    manual_program
      [ { Ir.results = [ 1 ]; op = Ir.RotateMany { src = 0; offsets = [ 1; 2 ] } } ]
      ~yield:1
  in
  let vs = Halo_verify.Ir_check.structural bad in
  Alcotest.(check bool) "violation reported" true
    (List.exists
       (fun v -> v.Halo_verify.Ir_check.rule = "rotate-arity")
       vs);
  (* Empty group: also flagged. *)
  let empty =
    manual_program
      [ { Ir.results = []; op = Ir.RotateMany { src = 0; offsets = [] } } ]
      ~yield:0
  in
  Alcotest.(check bool) "empty group flagged" true
    (List.exists
       (fun v -> v.Halo_verify.Ir_check.rule = "rotate-arity")
       (Halo_verify.Ir_check.structural empty));
  (* Well-formed: accepted by the structural checker and the typechecker. *)
  let good =
    manual_program
      [ { Ir.results = [ 1; 2 ];
          op = Ir.RotateMany { src = 0; offsets = [ 1; 2 ] } };
        { Ir.results = [ 3 ];
          op = Ir.Binary { kind = Ir.Add; lhs = 1; rhs = 2 } } ]
      ~yield:3
  in
  Alcotest.(check bool) "well-formed accepted" true
    (Halo_verify.Ir_check.structural good = []);
  Alcotest.(check bool) "typechecks" true (Typecheck.verify good = Ok ())

let test_typecheck_arity () =
  let bad =
    manual_program
      [ { Ir.results = [ 1 ]; op = Ir.RotateMany { src = 0; offsets = [ 1; 2 ] } } ]
      ~yield:1
  in
  match Typecheck.verify bad with
  | Ok () -> Alcotest.fail "arity mismatch accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Rotate_fuse pass                                                    *)
(* ------------------------------------------------------------------ *)

let count_ops pred (b : Ir.block) =
  let n = ref 0 in
  Ir.iter_blocks
    (fun blk -> List.iter (fun (i : Ir.instr) -> if pred i.Ir.op then incr n) blk.instrs)
    b;
  !n

let is_rotate = function Ir.Rotate _ -> true | _ -> false
let is_rotate_many = function Ir.RotateMany _ -> true | _ -> false

(* Lazy_switch may fuse a whole rotate-and-sum group further into one
   RotSum; either form witnesses that the group was formed. *)
let is_group = function
  | Ir.RotateMany _ | Ir.RotSum _ -> true
  | _ -> false

let compile_unfused strategy =
  Strategy.compile
    ~knobs:{ Strategy.default_knobs with rotate_fuse = false }
    ~strategy

let test_rotate_fuse_groups () =
  let p =
    manual_program
      [ { Ir.results = [ 1 ]; op = Ir.Rotate { src = 0; offset = 1 } };
        { Ir.results = [ 2 ]; op = Ir.Binary { kind = Ir.Add; lhs = 1; rhs = 0 } };
        { Ir.results = [ 3 ]; op = Ir.Rotate { src = 0; offset = 2 } };
        { Ir.results = [ 4 ]; op = Ir.Rotate { src = 0; offset = 0 } };
        { Ir.results = [ 5 ]; op = Ir.Rotate { src = 2; offset = 3 } };
        { Ir.results = [ 6 ]; op = Ir.Binary { kind = Ir.Add; lhs = 3; rhs = 5 } };
        { Ir.results = [ 7 ]; op = Ir.Binary { kind = Ir.Add; lhs = 4; rhs = 6 } } ]
      ~yield:7
  in
  let fused = Rotate_fuse.program p in
  (* %1 and %3 rotate input %0 with nonzero offsets: fused into one group.
     The zero-offset rotate and the lone rotate of %2 stay single. *)
  Alcotest.(check int) "groups" 1 (count_ops is_rotate_many fused.Ir.body);
  Alcotest.(check int) "singles left" 2 (count_ops is_rotate fused.Ir.body);
  Alcotest.(check bool) "still structurally valid" true
    (Halo_verify.Ir_check.structural fused = []);
  (* The cleartext fingerprint is exactly preserved. *)
  let before = Halo_verify.Pipeline.fingerprint p in
  let after = Halo_verify.Pipeline.fingerprint fused in
  Alcotest.(check bool) "semantics preserved" true (before = after)

let test_rotate_fuse_in_loops () =
  let p =
    Dsl.build ~name:"loop_rots" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        let y =
          Dsl.for_ b ~count:(Ir.Static 4) ~init:[ x ] (fun b -> function
            | [ v ] ->
              let r1 = Dsl.rotate b v 1 in
              let r2 = Dsl.rotate b v 2 in
              [ Dsl.mul b (Dsl.add b r1 r2) (Dsl.const b 0.4) ]
            | _ -> assert false)
        in
        List.iter (Dsl.output b) y)
  in
  let compiled = Strategy.compile ~strategy:Strategy.Type_matched p in
  Alcotest.(check bool) "group formed inside loop" true
    (count_ops is_group compiled.Ir.body >= 1);
  let unfused = compile_unfused Strategy.Type_matched p in
  Alcotest.(check int) "no groups when disabled" 0
    (count_ops is_group unfused.Ir.body)

(* ------------------------------------------------------------------ *)
(* Interpreter: counters and fused/unfused bit identity                *)
(* ------------------------------------------------------------------ *)

let fan_program () =
  Dsl.build ~name:"fan" ~slots:64 ~max_level:16 (fun b ->
      let x = Dsl.input b "x" ~size:8 in
      let terms =
        List.map (fun o -> Dsl.scale_by b (Dsl.rotate b x o) 0.25) [ 1; 2; 3; 4 ]
      in
      match terms with
      | t :: tl -> Dsl.output b (List.fold_left (Dsl.add b) t tl)
      | [] -> assert false)

let ref_state () =
  Halo_ckks.Ref_backend.create ~slots:64 ~max_level:16 ~scale_bits:51 ()

let bits_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : float array) (y : float array) ->
         Array.length x = Array.length y
         && Array.for_all2
              (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v)
              x y)
       a b

let test_counters_and_bit_identity () =
  let p = fan_program () in
  let inputs = [ ("x", sample_values 7 8) ] in
  let fused = Strategy.compile ~strategy:Strategy.Halo p in
  let unfused = compile_unfused Strategy.Halo p in
  let out_f, st_f = R.run (ref_state ()) ~inputs fused in
  let out_u, st_u = R.run (ref_state ()) ~inputs unfused in
  Alcotest.(check bool) "outputs bit-identical" true (bits_equal out_f out_u);
  Alcotest.(check int) "one group of four" 1 st_f.Stats.hoisted_groups;
  Alcotest.(check int) "three decompositions saved" 3
    st_f.Stats.decompositions_saved;
  Alcotest.(check int) "key switch per member" 4 st_f.Stats.key_switches;
  Alcotest.(check int) "no groups unfused" 0 st_u.Stats.hoisted_groups;
  Alcotest.(check int) "same rotate count" st_u.Stats.rotate st_f.Stats.rotate;
  Alcotest.(check int) "same key switches" st_u.Stats.key_switches
    st_f.Stats.key_switches

let test_zero_offset_member () =
  (* A group containing offset 0 short-circuits that member exactly like a
     single zero rotate: no key switch, identical value. *)
  let p =
    Dsl.build ~name:"zero_member" ~slots:64 ~max_level:16 (fun b ->
        let x = Dsl.input b "x" ~size:8 in
        match Dsl.rotate_many b x [ 0; 2 ] with
        | [ r0; r2 ] -> Dsl.output b (Dsl.add b r0 r2)
        | _ -> assert false)
  in
  let compiled = Strategy.compile ~strategy:Strategy.Type_matched p in
  let x = sample_values 9 8 in
  let outs, stats = R.run (ref_state ()) ~inputs:[ ("x", x) ] compiled in
  Alcotest.(check int) "one key switch only" 1 stats.Stats.key_switches;
  Alcotest.(check int) "no group of one" 0 stats.Stats.hoisted_groups;
  let expected =
    let slots = 64 in
    let rep = Array.init slots (fun i -> x.(i mod 8)) in
    Array.init slots (fun i -> rep.(i) +. rep.((i + 2) mod slots))
  in
  List.iter
    (fun out ->
      Array.iteri
        (fun i e ->
          if Float.abs (e -. out.(i)) > 1e-4 then
            Alcotest.failf "slot %d: %g vs %g" i e out.(i))
        expected)
    outs

let test_unpack_fan_counters () =
  (* The acceptance workload: a pack/unpack fan, whose lowered positioning
     rotations all read the packed ciphertext and fuse into one group. *)
  let text =
    String.concat "\n"
      [
        "program \"unpack_fan\" slots=64 level=16 {";
        "  input %0 \"a\" cipher size=4";
        "  input %1 \"b\" cipher size=4";
        "  input %2 \"c\" cipher size=4";
        "  input %3 \"d\" cipher size=4";
        "  %4 = pack (%0, %1, %2, %3) num_e=4";
        "  %5 = unpack %4, 0, 4, 4";
        "  %6 = unpack %4, 1, 4, 4";
        "  %7 = unpack %4, 2, 4, 4";
        "  %8 = unpack %4, 3, 4, 4";
        "  %9 = add %5, %6";
        "  %10 = add %7, %8";
        "  %11 = add %9, %10";
        "  output %11";
        "}";
      ]
  in
  let p = Parser.parse_program text in
  let fused = Strategy.compile ~strategy:Strategy.Halo p in
  let unfused = compile_unfused Strategy.Halo p in
  let inputs =
    List.map (fun n -> (n, sample_values 11 4)) [ "a"; "b"; "c"; "d" ]
  in
  let out_f, st_f = R.run (ref_state ()) ~inputs fused in
  let out_u, st_u = R.run (ref_state ()) ~inputs unfused in
  Alcotest.(check bool) "outputs bit-identical" true (bits_equal out_f out_u);
  Alcotest.(check bool) "hoisted groups" true (st_f.Stats.hoisted_groups > 0);
  Alcotest.(check bool) "decompositions saved" true
    (st_f.Stats.decompositions_saved > 0);
  Alcotest.(check int) "no groups unfused" 0 st_u.Stats.hoisted_groups

(* ------------------------------------------------------------------ *)
(* Slot sums: radix-4 pure rot_sum stages                              *)
(* ------------------------------------------------------------------ *)

let sum_sizes = List.init 11 (fun k -> 1 lsl k) (* 1 .. 1024 *)

let ceil_log4 size =
  let rec go k p = if p >= size then k else go (k + 1) (4 * p) in
  go 0 1

let sum_program ~slots ~size =
  Dsl.build ~name:(Printf.sprintf "sum%d" size) ~slots ~max_level:8 (fun b ->
      let x = Dsl.input b "x" ~size:slots in
      Dsl.output b (Dsl.sum_slots b x ~size))

(* The rotate-and-add doubling tree: acc <- acc + rot(acc, s) for
   s = 1, 2, 4, ... < size. *)
let radix2_sum a ~size =
  let n = Array.length a in
  let rec go acc s =
    if s >= size then acc
    else go (Array.init n (fun i -> acc.(i) +. acc.((i + s) mod n))) (2 * s)
  in
  go a 1

let test_sum_matches_radix2 () =
  let slots = 1024 in
  let a = sample_values 5 slots in
  List.iter
    (fun size ->
      let p = sum_program ~slots ~size in
      Alcotest.(check int)
        (Printf.sprintf "size %d: stages" size)
        (ceil_log4 size)
        (Ir.count_ops ~p:(function Ir.RotSum _ -> true | _ -> false) p.body);
      let got =
        List.hd (Halo_runtime.Interp.reference ~inputs:[ ("x", a) ] p)
      in
      let want = radix2_sum a ~size in
      Array.iteri
        (fun i w ->
          if Float.abs (w -. got.(i)) > 1e-12 then
            Alcotest.failf "size %d slot %d: %h vs radix-2 %h" size i got.(i) w)
        want)
    sum_sizes

(* Radix-4 stage with step s needs keys s, 2s, 3s; a radix-2 tail step s
   needs s alone. *)
let test_sum_rotation_keys () =
  let slots = 1024 in
  List.iter
    (fun size ->
      let rec keys s =
        if s >= size then []
        else if 4 * s <= size then s :: (2 * s) :: (3 * s) :: keys (4 * s)
        else [ s ]
      in
      let want = List.sort_uniq compare (keys 1) in
      let p = sum_program ~slots ~size in
      Alcotest.(check (list int))
        (Printf.sprintf "size %d: traced" size)
        want (Rotations.required p);
      Alcotest.(check (list int))
        (Printf.sprintf "size %d: compiled" size)
        want
        (Rotations.required (Strategy.compile ~strategy:Strategy.Halo p)))
    sum_sizes

(* A pure rot_sum on the cleartext backends is one pass over the slots;
   it must keep the bits, level, scale and noise estimate of the unfused
   fold (rotations, then the add chain in term order). *)
let test_pure_rot_sum_is_the_fold () =
  let module Ref = Halo_ckks.Ref_backend in
  let module Clear = Halo_runtime.Clear_backend in
  let offset_lists =
    [ [ 0; 1; 2; 3 ]; [ 0; -5; 7 ]; [ 3 ]; [ 0 ]; [ 2; 2; 0; -1 ]; [ 0; 64; 97 ] ]
  in
  let st = ref_state () in
  let ct = Ref.inflate_noise st (Ref.encrypt st ~level:5 (sample_values 21 64)) ~by:3e-9 in
  List.iter
    (fun offsets ->
      let name = String.concat "," (List.map string_of_int offsets) in
      let terms = List.map (fun o -> (o, None)) offsets in
      let fused = Ref.rot_sum st ct ~terms in
      let unfused =
        match List.map (fun offset -> Ref.rotate st ct ~offset) offsets with
        | r :: rs -> List.fold_left (Ref.addcc st) r rs
        | [] -> assert false
      in
      Alcotest.(check bool) (name ^ ": ref bits") true
        (bits_equal [ Ref.decrypt st fused ] [ Ref.decrypt st unfused ]);
      Alcotest.(check int) (name ^ ": level") (Ref.level st unfused) (Ref.level st fused);
      Alcotest.(check bool) (name ^ ": scale and noise estimate") true
        (fused.Ref.scale_bits = unfused.Ref.scale_bits
        && Ref.noise_estimate st fused = Ref.noise_estimate st unfused);
      let a = Ref.decrypt st ct and cst = Clear.create ~slots:64 in
      let clear_unfused =
        match List.map (fun offset -> Clear.rotate cst a ~offset) offsets with
        | r :: rs -> List.fold_left (Clear.addcc cst) r rs
        | [] -> assert false
      in
      Alcotest.(check bool) (name ^ ": clear bits") true
        (bits_equal [ Clear.rot_sum cst a ~terms ] [ clear_unfused ]))
    offset_lists

(* The lattice backend as the interpreter drives it, counting single and
   grouped rotations and fused sums, and keeping the noise estimate of the
   ciphertext it last decrypted. *)
module Counting = struct
  module L = Halo_runtime.Lattice_backend
  include L

  let rotates = ref 0
  let rot_sums = ref 0
  let decrypted_noise = ref 0.0

  let rotate st c ~offset =
    incr rotates;
    L.rotate st c ~offset

  let rotate_many st c ~offsets =
    rotates := !rotates + List.length offsets;
    L.rotate_many st c ~offsets

  let rot_sum st c ~terms =
    incr rot_sums;
    L.rot_sum st c ~terms

  let decrypt st c =
    decrypted_noise := L.noise_estimate st c;
    L.decrypt st c
end

module LC = Halo_runtime.Interp.Make (Counting)

(* On real RLWE ciphertexts each stage is one backend rot_sum and no
   rotation runs on its own, and the noise estimate grows by one key switch
   per stage.  Inputs are scaled by 1/size so every sum stays in [-1, 1],
   inside the headroom of level 1, where the compiled output sits.  At
   these parameters (27-bit scale) a ciphertext decrypts far above its
   estimate, so the error bound is measured: the size-1 program (input
   straight to output) gives the per-slot error [e1], and a sum of [size]
   slots, each member adding a key switch's error, stays within
   [2 * size * e1].  Sizes above the slot count wrap around the ring, as in
   the exact reference. *)
let test_sum_on_lattice () =
  let keys = Keys.keygen ~seed:0x5A5 (Params.test_small ()) in
  let slots = keys.Keys.params.Params.slots in
  let units = Halo_cost.Noise_units.default in
  let e1 = ref 0.0 in
  List.iter
    (fun size ->
      let a = Array.map (fun v -> v /. float_of_int size) (sample_values 9 slots) in
      let p = Strategy.compile ~strategy:Strategy.Halo (sum_program ~slots ~size) in
      Counting.rotates := 0;
      Counting.rot_sums := 0;
      let outs, _ = LC.run keys ~inputs:[ ("x", a) ] p in
      let stages = ceil_log4 size in
      Alcotest.(check int) (Printf.sprintf "size %d: rotations" size) 0 !Counting.rotates;
      Alcotest.(check int) (Printf.sprintf "size %d: rot_sums" size) stages !Counting.rot_sums;
      Alcotest.(check (float 1e-20))
        (Printf.sprintf "size %d: noise estimate" size)
        (units.enc +. (float_of_int stages *. units.keyswitch))
        !Counting.decrypted_noise;
      let want = List.hd (Halo_runtime.Interp.reference ~inputs:[ ("x", a) ] p) in
      let err = ref 0.0 in
      Array.iteri (fun i w -> err := Float.max !err (Float.abs (w -. (List.hd outs).(i)))) want;
      if size = 1 then e1 := !err
      else if !err > 2.0 *. float_of_int size *. !e1 then
        Alcotest.failf "size %d: error %g above 2 x %d x %g" size !err size !e1)
    sum_sizes

(* Dynamic bootstrap counts of the seven benchmark programs under every
   strategy at the end-to-end benchmark's geometry (2 iterations, 64
   samples, 1024 slots): emitting sums as rot_sum stages keeps the level of
   every value, so placement does not move. *)
let bench_bootstraps =
  [
    ("Linear", [ 0; 5; 4; 4; 4 ]);
    ("Polynomial", [ 0; 8; 6; 6; 6 ]);
    ("Multivariate", [ 0; 9; 1; 1; 1 ]);
    ("Logistic", [ 15; 18; 18; 18; 18 ]);
    ("K-means", [ 11; 11; 10; 10; 10 ]);
    ("SVM", [ 11; 12; 10; 10; 10 ]);
    ("PCA", [ 20; 23; 23; 19; 19 ]);
  ]

let test_bench_bootstrap_counts () =
  let got =
    List.map
      (fun (b : Halo_ml.Bench_def.t) ->
        let bindings = Halo_ml.Workloads.default_bindings b ~iters:2 in
        let src = b.build ~slots:1024 ~size:64 in
        ( b.name,
          List.map
            (fun strategy ->
              (Halo_tune.Predict.program ~bindings
                 (Strategy.compile ~bindings ~strategy src))
                .Halo_tune.Predict.b_bootstraps)
            Strategy.all ))
      Halo_ml.Workloads.all
  in
  Alcotest.(check (list (pair string (list int))))
    "bootstraps per program, strategies in Strategy.all order" bench_bootstraps got

let () =
  Alcotest.run "halo_rotations"
    [
      ( "kernels",
        [
          Alcotest.test_case "hoisting identity" `Quick test_hoisting_identity;
          Alcotest.test_case "decompose+apply = key_switch" `Quick
            test_decompose_apply_is_key_switch;
          Alcotest.test_case "rotate_many = sequential (fresh keys)" `Quick
            test_rotate_many_matches_sequential;
          Alcotest.test_case "pool-size bit identity" `Quick
            test_rotate_many_pool_sizes;
          Alcotest.test_case "rotate_many decrypts" `Quick
            test_rotate_many_decrypts;
          Alcotest.test_case "concurrent key generation" `Quick
            test_concurrent_galois_key;
        ] );
      ( "ir",
        [
          Alcotest.test_case "printer/parser round trip" `Quick
            test_printer_parser_roundtrip;
          Alcotest.test_case "binary round trip" `Quick test_binary_roundtrip;
          Alcotest.test_case "ir_check arity" `Quick test_ir_check_arity;
          Alcotest.test_case "typecheck arity" `Quick test_typecheck_arity;
        ] );
      ( "rotate_fuse",
        [
          Alcotest.test_case "groups same-source rotations" `Quick
            test_rotate_fuse_groups;
          Alcotest.test_case "fuses inside loops" `Quick
            test_rotate_fuse_in_loops;
        ] );
      ( "interp",
        [
          Alcotest.test_case "counters and bit identity" `Quick
            test_counters_and_bit_identity;
          Alcotest.test_case "zero-offset member" `Quick
            test_zero_offset_member;
          Alcotest.test_case "unpack fan counters" `Quick
            test_unpack_fan_counters;
        ] );
      ( "sum_slots",
        [
          Alcotest.test_case "pure rot_sum = unfused fold" `Quick
            test_pure_rot_sum_is_the_fold;
          Alcotest.test_case "clear = radix-2 tree" `Quick test_sum_matches_radix2;
          Alcotest.test_case "radix-4 rotation keys" `Quick test_sum_rotation_keys;
          Alcotest.test_case "lattice stages" `Quick test_sum_on_lattice;
          Alcotest.test_case "bench bootstrap counts" `Quick
            test_bench_bootstrap_counts;
        ] );
    ]

type t = Dacapo | Type_matched | Packing | Packing_unrolling | Halo

let all = [ Dacapo; Type_matched; Packing; Packing_unrolling; Halo ]

let to_string = function
  | Dacapo -> "dacapo"
  | Type_matched -> "type-matched"
  | Packing -> "packing"
  | Packing_unrolling -> "packing+unrolling"
  | Halo -> "halo"

let of_string = function
  | "dacapo" -> Some Dacapo
  | "type-matched" | "type_matched" -> Some Type_matched
  | "packing" -> Some Packing
  | "packing+unrolling" | "packing_unrolling" -> Some Packing_unrolling
  | "halo" -> Some Halo
  | _ -> None

(* Conservative replan ladder: each step disables one noise-amplifying
   optimization — Halo's target-level tuning first, then unrolling, then
   packing — and bottoms out at the fully unrolled DaCapo baseline, whose
   straight-line placement bootstraps most eagerly.  [None] means there is
   no safer strategy left and the caller must surface the failure. *)
let safer = function
  | Halo -> Some Packing_unrolling
  | Packing_unrolling -> Some Packing
  | Packing -> Some Type_matched
  | Type_matched -> Some Dacapo
  | Dacapo -> None

type milestone = Structure | Leveled | Typed

let milestone_rank = function Structure -> 0 | Leveled -> 1 | Typed -> 2

type pass = {
  pass_name : string;
  milestone : milestone option;
  run : Ir.program -> Ir.program;
}

type knobs = {
  unroll : int;
  boot_slack : int;
  rotate_fuse : bool;
  lazy_switch : bool;
}

let default_knobs =
  { unroll = 0; boot_slack = 0; rotate_fuse = true; lazy_switch = true }

let passes ?(bindings = []) ?dacapo_config ?(lower = true)
    ?(knobs = default_knobs) ~strategy () =
  let pass ?milestone pass_name run = { pass_name; milestone; run } in
  let prologue =
    [
      pass "dce" Dce.program;
      (* Loop-invariant code (including constants) is hoisted before anything
         else: it shrinks every loop body's level consumption, which benefits
         all strategies — including the DaCapo baseline, whose fully unrolled
         code would otherwise replicate the invariants. *)
      pass "licm" Licm.program;
      pass "cse" Cse.program;
    ]
  in
  let placement =
    match strategy with
    | Dacapo ->
      (* Baseline: full unrolling, then placement over straight-line code.
         Loop_codegen degenerates to exactly that once no loop remains. *)
      [
        pass "full-unroll" (Full_unroll.program ~bindings);
        pass "dce-unrolled" Dce.program;
        pass ~milestone:Leveled "loop-codegen" (Loop_codegen.program ?dacapo_config);
      ]
    | Type_matched ->
      [
        pass "peel" Peel.program;
        pass ~milestone:Leveled "loop-codegen" (Loop_codegen.program ?dacapo_config);
      ]
    | Packing ->
      [
        pass "peel" Peel.program;
        pass ~milestone:Leveled "loop-codegen" (Loop_codegen.program ?dacapo_config);
        pass "packing" (Packing.program ?dacapo_config);
      ]
    | Packing_unrolling ->
      [
        pass "peel" Peel.program;
        pass ~milestone:Leveled "loop-codegen" (Loop_codegen.program ?dacapo_config);
        pass "packing" (Packing.program ?dacapo_config);
        pass "unroll" (Unroll.program ~factor_cap:knobs.unroll);
      ]
    | Halo ->
      [
        pass "peel" Peel.program;
        pass ~milestone:Leveled "loop-codegen" (Loop_codegen.program ?dacapo_config);
        pass "packing" (Packing.program ?dacapo_config);
        pass "unroll" (Unroll.program ~factor_cap:knobs.unroll);
        pass "tuning" (Tuning.program ~slack:knobs.boot_slack);
      ]
  in
  let epilogue =
    (if lower then [ pass "lower-pack" Lower_pack.program ] else [])
    (* Lowering materializes mask constants inside loop bodies; hoist and
       deduplicate them before the final normalization. *)
    @ [
        pass "licm-lowered" Licm.program;
        pass "cse-lowered" Cse.program;
        pass ~milestone:Typed "normalize" Normalize.program;
      ]
    (* After normalize the rotation set is final (no pass below introduces
       or moves rotations), so same-source groups are maximal here. *)
    @ (if knobs.rotate_fuse then [ pass "rotate-fuse" Rotate_fuse.program ]
       else [])
    (* Rotate-and-sum reductions are only complete once the rotation groups
       are (rotate-fuse above); fusing them into RotSum lets the lattice
       backend share one digit decomposition and pay one mod-down. *)
    @ (if knobs.lazy_switch then [ pass "lazy-switch" Lazy_switch.program ]
       else [])
  in
  prologue @ placement @ epilogue

let verified ~strategy p =
  match Typecheck.verify p with
  | Ok () -> p
  | Error msg ->
    raise
      (Typecheck.Type_error
         (Printf.sprintf "%s: compiled program fails verification: %s"
            (to_string strategy) msg))

let compile ?bindings ?dacapo_config ?lower ?knobs ?observer ~strategy p =
  let step p ps =
    let after = ps.run p in
    (match observer with
     | Some f -> f ~pass:ps ~before:p ~after
     | None -> ());
    after
  in
  verified ~strategy
    (List.fold_left step p
       (passes ?bindings ?dacapo_config ?lower ?knobs ~strategy ()))

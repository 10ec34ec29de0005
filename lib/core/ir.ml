type var = int

type count =
  | Static of int
  | Dyn of { name : string; add : int; div : int; rem : bool }

type status = Plain | Cipher

type binop = Add | Sub | Mul

type const = Splat of float | Vector of float array

type op =
  | Const of { value : const; size : int }
  | Binary of { kind : binop; lhs : var; rhs : var }
  | Rotate of { src : var; offset : int }
  | RotateMany of { src : var; offsets : int list }
      (** Grouped rotation of one source: one result per offset, hoisted to
          a single key-switch decomposition by capable backends.  The only
          multi-result operation besides [For]. *)
  | RotSum of { src : var; terms : (int * var option) list }
      (** Fused rotate-and-sum reduction: [sum_g coeff_g * rotate(src, o_g)]
          folded left in term order.  Coefficient operands must be plain and
          are all present (the matvec_diag shape, absorbing each member's
          multiply and rescale: the result drops one level) or all absent (a
          pure rotate-and-sum at the source's level).  Capable backends pay
          one digit decomposition and one mod-down for the whole group. *)
  | Rescale of { src : var }
  | Modswitch of { src : var; down : int }
  | Bootstrap of { src : var; target : int }
  | Pack of { srcs : var list; num_e : int }
  | Unpack of { src : var; index : int; num_e : int; count : int }
  | For of for_op

and for_op = {
  count : count;
  inits : var list;
  body : block;
  boundary : int option;
}

and block = { params : var list; instrs : instr list; yields : var list }

and instr = { results : var list; op : op }

type input = { in_name : string; in_var : var; in_status : status; in_size : int }

type program = {
  prog_name : string;
  slots : int;
  max_level : int;
  inputs : input list;
  body : block;
  next_var : int;
}

let result i =
  match i.results with
  | [ r ] -> r
  | _ -> invalid_arg "Ir.result: not a single-result instruction"

let op_operands = function
  | Const _ -> []
  | Binary { lhs; rhs; _ } -> [ lhs; rhs ]
  | Rotate { src; _ } | RotateMany { src; _ } | Rescale { src }
  | Modswitch { src; _ } | Bootstrap { src; _ } | Unpack { src; _ } ->
    [ src ]
  | RotSum { src; terms } ->
    src :: List.filter_map (fun (_, c) -> c) terms
  | Pack { srcs; _ } -> srcs
  | For { inits; _ } -> inits

let map_op_operands f = function
  | Const _ as op -> op
  | Binary b -> Binary { b with lhs = f b.lhs; rhs = f b.rhs }
  | Rotate r -> Rotate { r with src = f r.src }
  | RotateMany r -> RotateMany { r with src = f r.src }
  | RotSum { src; terms } ->
    RotSum
      { src = f src; terms = List.map (fun (o, c) -> (o, Option.map f c)) terms }
  | Rescale { src } -> Rescale { src = f src }
  | Modswitch m -> Modswitch { m with src = f m.src }
  | Bootstrap b -> Bootstrap { b with src = f b.src }
  | Pack p -> Pack { p with srcs = List.map f p.srcs }
  | Unpack u -> Unpack { u with src = f u.src }
  | For fo -> For { fo with inits = List.map f fo.inits }

let rec substitute_block f block =
  let sub_instr i =
    let op =
      match i.op with
      | For fo ->
        For { fo with inits = List.map f fo.inits; body = substitute_block f fo.body }
      | op -> map_op_operands f op
    in
    { results = List.map f i.results; op }
  in
  {
    params = List.map f block.params;
    instrs = List.map sub_instr block.instrs;
    yields = List.map f block.yields;
  }

module VarSet = Set.Make (Int)

let rec free_vars_set block =
  let defined = ref (VarSet.of_list block.params) in
  let free = ref VarSet.empty in
  let use v = if not (VarSet.mem v !defined) then free := VarSet.add v !free in
  List.iter
    (fun i ->
      List.iter use (op_operands i.op);
      (match i.op with
       | For fo ->
         VarSet.iter
           (fun v -> if not (VarSet.mem v !defined) then free := VarSet.add v !free)
           (free_vars_set fo.body)
       | _ -> ());
      List.iter (fun r -> defined := VarSet.add r !defined) i.results)
    block.instrs;
  List.iter use block.yields;
  !free

let free_vars block = VarSet.elements (free_vars_set block)

let defined_vars block =
  block.params @ List.concat_map (fun i -> i.results) block.instrs

let rec iter_blocks f block =
  f block;
  List.iter
    (fun i -> match i.op with For fo -> iter_blocks f fo.body | _ -> ())
    block.instrs

let count_ops ?(p = fun _ -> true) block =
  let n = ref 0 in
  iter_blocks
    (fun b -> List.iter (fun i -> if p i.op then incr n) b.instrs)
    block;
  !n

let count_static_bootstraps block =
  count_ops ~p:(function Bootstrap _ -> true | _ -> false) block

type fresh = { mutable next : int }

let fresh_of_program p = { next = p.next_var }

let fresh_var f =
  let v = f.next in
  f.next <- f.next + 1;
  v

let clone_block fresh ~subst block =
  (* Give every binding occurrence a fresh name, then overlay the caller's
     substitution (which wins, so callers can map parameters to values).
     Free variables without a seed stay untouched. *)
  let map = Hashtbl.create 64 in
  let rec bind b =
    List.iter (fun v -> Hashtbl.replace map v (fresh_var fresh)) b.params;
    List.iter
      (fun i ->
        List.iter (fun v -> Hashtbl.replace map v (fresh_var fresh)) i.results;
        match i.op with For fo -> bind fo.body | _ -> ())
      b.instrs
  in
  bind block;
  List.iter (fun (a, b) -> Hashtbl.replace map a b) subst;
  let rename v = match Hashtbl.find_opt map v with Some v' -> v' | None -> v in
  substitute_block rename block

let inline_block fresh ~args block =
  if List.length args <> List.length block.params then
    invalid_arg "Ir.inline_block: arity mismatch";
  let subst = List.combine block.params args in
  let cloned = clone_block fresh ~subst block in
  (cloned.instrs, cloned.yields)

let count_to_string = function
  | Static n -> string_of_int n
  | Dyn { name; add; div; rem } ->
    let base = if add = 0 then name else Printf.sprintf "%s%+d" name add in
    if div = 1 then base
    else Printf.sprintf "%s %s %d" base (if rem then "%" else "/") div

let eval_count ~bindings = function
  | Static n ->
    if n < 0 then invalid_arg "Ir.eval_count: negative count";
    n
  | Dyn { name; add; div; rem } ->
    let k = List.assoc name bindings + add in
    if k < 0 then invalid_arg "Ir.eval_count: negative count";
    if rem then k mod div else k / div

(* Bit-exact equality, with a physical-equality short-cut at every node: a
   block or instruction a pass returned as it found it is not walked. *)
let vars_equal = List.equal Int.equal
let bits_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let const_equal a b =
  a == b
  ||
  match (a, b) with
  | Splat x, Splat y -> bits_equal x y
  | Vector xs, Vector ys ->
    xs == ys
    || Array.length xs = Array.length ys
       &&
       let rec go i = i < 0 || (bits_equal xs.(i) ys.(i) && go (i - 1)) in
       go (Array.length xs - 1)
  | (Splat _ | Vector _), _ -> false

let count_equal a b =
  match (a, b) with
  | Static m, Static n -> m = n
  | Dyn x, Dyn y ->
    String.equal x.name y.name && x.add = y.add && x.div = y.div && Bool.equal x.rem y.rem
  | (Static _ | Dyn _), _ -> false

let binop_equal a b =
  match (a, b) with
  | Add, Add | Sub, Sub | Mul, Mul -> true
  | (Add | Sub | Mul), _ -> false

let status_equal a b =
  match (a, b) with Plain, Plain | Cipher, Cipher -> true | (Plain | Cipher), _ -> false

let rec op_equal a b =
  a == b
  ||
  match (a, b) with
  | Const x, Const y -> x.size = y.size && const_equal x.value y.value
  | Binary x, Binary y -> binop_equal x.kind y.kind && x.lhs = y.lhs && x.rhs = y.rhs
  | Rotate x, Rotate y -> x.src = y.src && x.offset = y.offset
  | RotateMany x, RotateMany y -> x.src = y.src && vars_equal x.offsets y.offsets
  | RotSum x, RotSum y ->
    x.src = y.src
    && List.equal
         (fun (o, c) (o', c') -> o = o' && Option.equal Int.equal c c')
         x.terms y.terms
  | Rescale x, Rescale y -> x.src = y.src
  | Modswitch x, Modswitch y -> x.src = y.src && x.down = y.down
  | Bootstrap x, Bootstrap y -> x.src = y.src && x.target = y.target
  | Pack x, Pack y -> vars_equal x.srcs y.srcs && x.num_e = y.num_e
  | Unpack x, Unpack y ->
    x.src = y.src && x.index = y.index && x.num_e = y.num_e && x.count = y.count
  | For x, For y ->
    count_equal x.count y.count
    && vars_equal x.inits y.inits
    && block_equal x.body y.body
    && Option.equal Int.equal x.boundary y.boundary
  | ( ( Const _ | Binary _ | Rotate _ | RotateMany _ | RotSum _ | Rescale _
      | Modswitch _ | Bootstrap _ | Pack _ | Unpack _ | For _ ),
      _ ) ->
    false

and block_equal a b =
  a == b
  || vars_equal a.params b.params
     && List.equal
          (fun i j -> i == j || (vars_equal i.results j.results && op_equal i.op j.op))
          a.instrs b.instrs
     && vars_equal a.yields b.yields

let input_equal a b =
  String.equal a.in_name b.in_name
  && a.in_var = b.in_var
  && status_equal a.in_status b.in_status
  && a.in_size = b.in_size

let equal_program a b =
  a == b
  || String.equal a.prog_name b.prog_name
     && a.slots = b.slots
     && a.max_level = b.max_level
     && List.equal input_equal a.inputs b.inputs
     && block_equal a.body b.body
     && a.next_var = b.next_var

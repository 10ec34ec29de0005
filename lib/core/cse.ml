(* Structural keys for pure operations.  Commutative binary operations are
   canonicalized by sorting the operands. *)
type key =
  | Kconst of string * int
  | Kbinary of Ir.binop * Ir.var * Ir.var
  | Krotate of Ir.var * int
  | Krotsum of Ir.var * int list
  | Krescale of Ir.var
  | Kmodswitch of Ir.var * int
  | Kpack of Ir.var list * int
  | Kunpack of Ir.var * int * int * int

(* A splat is its 9-byte tag-and-bits string; a vector the 16-byte digest
   of its elements' bits, so the two never collide. *)
let const_fingerprint = function
  | Ir.Splat x ->
    let b = Bytes.create 9 in
    Bytes.set b 0 's';
    Bytes.set_int64_le b 1 (Int64.bits_of_float x);
    Bytes.unsafe_to_string b
  | Ir.Vector xs ->
    let n = Array.length xs in
    let b = Bytes.create (8 * n) in
    for i = 0 to n - 1 do
      Bytes.set_int64_le b (8 * i) (Int64.bits_of_float (Array.unsafe_get xs i))
    done;
    Digest.bytes b

let key_of_op : Ir.op -> key option = function
  | Ir.Const { value; size } -> Some (Kconst (const_fingerprint value, size))
  | Ir.Binary { kind; lhs; rhs } ->
    let lhs, rhs =
      match kind with
      | Ir.Add | Ir.Mul -> (min lhs rhs, max lhs rhs)
      | Ir.Sub -> (lhs, rhs)
    in
    Some (Kbinary (kind, lhs, rhs))
  | Ir.Rotate { src; offset } -> Some (Krotate (src, offset))
  | Ir.Rescale { src } -> Some (Krescale src)
  | Ir.Modswitch { src; down } -> Some (Kmodswitch (src, down))
  | Ir.Pack { srcs; num_e } -> Some (Kpack (srcs, num_e))
  | Ir.Unpack { src; index; num_e; count } -> Some (Kunpack (src, index, num_e, count))
  | Ir.RotateMany _ ->
    (* Multi-result: the single-variable rename table cannot express its
       elimination.  Duplicate single rotations are merged here before
       Rotate_fuse ever groups them, so fused groups carry no duplicates
       in the standard pipeline. *)
    None
  | Ir.RotSum { src; terms } when List.for_all (fun (_, c) -> c = None) terms ->
    (* A pure reduction (as Dsl.sum_slots emits it) is determined by its
       source and its offsets in term order, the order its adds fold in. *)
    Some (Krotsum (src, List.map fst terms))
  | Ir.RotSum _ ->
    (* Weighted reductions are built by Lazy_switch, which runs after the
       last CSE pass. *)
    None
  | Ir.Bootstrap _ | Ir.For _ -> None

let rec block (b : Ir.block) : Ir.block =
  let table : (key, Ir.var) Hashtbl.t = Hashtbl.create 64 in
  let rename : (Ir.var, Ir.var) Hashtbl.t = Hashtbl.create 16 in
  let resolve v = match Hashtbl.find_opt rename v with Some v' -> v' | None -> v in
  let out = ref [] in
  List.iter
    (fun (i : Ir.instr) ->
      match i.op with
      | Ir.For fo ->
        let fo =
          {
            fo with
            inits = List.map resolve fo.inits;
            body = block (Ir.substitute_block resolve fo.body);
          }
        in
        out := { i with op = Ir.For fo } :: !out
      | op ->
        let op = Ir.map_op_operands resolve op in
        (match key_of_op op with
         | Some key ->
           (match Hashtbl.find_opt table key with
            | Some existing -> Hashtbl.replace rename (Ir.result i) existing
            | None ->
              Hashtbl.replace table key (Ir.result i);
              out := { i with op } :: !out)
         | None -> out := { i with op } :: !out))
    b.instrs;
  { b with instrs = List.rev !out; yields = List.map resolve b.yields }

let program (p : Ir.program) = { p with body = block p.body }

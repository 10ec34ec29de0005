type value = Ir.var

type frame = { mutable rev_instrs : Ir.instr list; params : Ir.var list }

type t = {
  fresh : Ir.fresh;
  mutable stack : frame list; (* innermost frame first *)
  mutable inputs : Ir.input list; (* reverse order *)
  mutable outputs : Ir.var list; (* reverse order *)
  slots : int;
  max_level : int;
  name : string;
}

let current b =
  match b.stack with
  | f :: _ -> f
  | [] -> invalid_arg "Dsl: no open block"

let emit b op =
  let v = Ir.fresh_var b.fresh in
  let f = current b in
  f.rev_instrs <- { Ir.results = [ v ]; op } :: f.rev_instrs;
  v

let input b ?(status = Ir.Cipher) name ~size =
  if b.stack <> [] && List.length b.stack > 1 then
    invalid_arg "Dsl.input: inputs must be declared at the top level";
  let v = Ir.fresh_var b.fresh in
  b.inputs <- { Ir.in_name = name; in_var = v; in_status = status; in_size = size } :: b.inputs;
  v

let const b x = emit b (Ir.Const { value = Ir.Splat x; size = 1 })

let const_vec b ?size values =
  let size = match size with Some s -> s | None -> Array.length values in
  emit b (Ir.Const { value = Ir.Vector values; size })

let add b x y = emit b (Ir.Binary { kind = Ir.Add; lhs = x; rhs = y })
let sub b x y = emit b (Ir.Binary { kind = Ir.Sub; lhs = x; rhs = y })
let mul b x y = emit b (Ir.Binary { kind = Ir.Mul; lhs = x; rhs = y })
let rotate b x offset = emit b (Ir.Rotate { src = x; offset })

let rotate_many b x offsets =
  if offsets = [] then invalid_arg "Dsl.rotate_many: no offsets";
  let results = List.map (fun _ -> Ir.fresh_var b.fresh) offsets in
  let f = current b in
  f.rev_instrs <- { Ir.results; op = Ir.RotateMany { src = x; offsets } } :: f.rev_instrs;
  results

let for_ b ~count ~init f =
  let params = List.map (fun _ -> Ir.fresh_var b.fresh) init in
  let frame = { rev_instrs = []; params } in
  b.stack <- frame :: b.stack;
  let yields = f b params in
  (match b.stack with
   | _ :: rest -> b.stack <- rest
   | [] -> assert false);
  if List.length yields <> List.length init then
    invalid_arg "Dsl.for_: yield arity differs from init arity";
  let body =
    { Ir.params; instrs = List.rev frame.rev_instrs; yields }
  in
  let results = List.map (fun _ -> Ir.fresh_var b.fresh) init in
  let fo = { Ir.count; inits = init; body; boundary = None } in
  let f = current b in
  f.rev_instrs <- { Ir.results; op = Ir.For fo } :: f.rev_instrs;
  results

let output b v = b.outputs <- v :: b.outputs

let build ~name ~slots ~max_level f =
  let b =
    {
      fresh = { Ir.next = 0 };
      stack = [ { rev_instrs = []; params = [] } ];
      inputs = [];
      outputs = [];
      slots;
      max_level;
      name;
    }
  in
  f b;
  let top =
    match b.stack with
    | [ f ] -> f
    | _ -> invalid_arg "Dsl.build: unbalanced blocks"
  in
  let inputs = List.rev b.inputs in
  {
    Ir.prog_name = b.name;
    slots = b.slots;
    max_level = b.max_level;
    inputs;
    body =
      {
        Ir.params = List.map (fun i -> i.Ir.in_var) inputs;
        instrs = List.rev top.rev_instrs;
        yields = List.rev b.outputs;
      };
    next_var = b.fresh.Ir.next;
  }

let sum_slots b x ~size =
  if size land (size - 1) <> 0 then invalid_arg "Dsl.sum_slots: size not a power of two";
  let stage acc offsets =
    emit b (Ir.RotSum { src = acc; terms = List.map (fun o -> (o, None)) offsets })
  in
  let rec go acc step =
    if step >= size then acc
    else if 4 * step <= size then
      go (stage acc [ 0; step; 2 * step; 3 * step ]) (4 * step)
    else go (stage acc [ 0; step ]) (2 * step)
  in
  go x 1

let scale_by b x c = mul b x (const b c)

let mean_slots b x ~size = scale_by b (sum_slots b x ~size) (1.0 /. float_of_int size)

let poly_eval b x coeffs =
  let degree = Array.length coeffs - 1 in
  if degree < 0 then invalid_arg "Dsl.poly_eval: empty coefficients";
  (* Memoized balanced power tree: pow k has multiplicative depth
     ceil(log2 k), so the whole evaluation has depth ceil(log2 (degree+1)),
     matching the approximation depths quoted in the paper (section 7). *)
  let memo = Hashtbl.create 16 in
  Hashtbl.replace memo 1 x;
  let rec pow k =
    match Hashtbl.find_opt memo k with
    | Some v -> v
    | None ->
      let half = k / 2 in
      let v = mul b (pow half) (pow (k - half)) in
      Hashtbl.replace memo k v;
      v
  in
  let acc = ref None in
  Array.iteri
    (fun k c ->
      if Float.abs c > 1e-15 && k > 0 then begin
        let term = scale_by b (pow k) c in
        acc := Some (match !acc with None -> term | Some a -> add b a term)
      end)
    coeffs;
  let with_constant v = if Float.abs coeffs.(0) > 1e-15 then add b v (const b coeffs.(0)) else v in
  match !acc with
  | Some v -> with_constant v
  | None -> const b coeffs.(0)

let op_name : Ir.op -> string = function
  | Ir.Const _ -> "const"
  | Ir.Binary { kind = Ir.Add; _ } -> "add"
  | Ir.Binary { kind = Ir.Sub; _ } -> "sub"
  | Ir.Binary { kind = Ir.Mul; _ } -> "mul"
  | Ir.Rotate _ -> "rotate"
  | Ir.RotateMany _ -> "rotate_many"
  | Ir.RotSum _ -> "rot_sum"
  | Ir.Rescale _ -> "rescale"
  | Ir.Modswitch _ -> "modswitch"
  | Ir.Bootstrap _ -> "bootstrap"
  | Ir.Pack _ -> "pack"
  | Ir.Unpack _ -> "unpack"
  | Ir.For _ -> "for"

let var v = Printf.sprintf "%%%d" v

let vars vs = String.concat ", " (List.map var vs)

let float_lit x =
  (* Round-trippable float syntax. *)
  let s = Printf.sprintf "%.17g" x in
  if
    String.contains s '.' || String.contains s 'e' || String.contains s 'n'
    || String.contains s 'i'
  then s
  else s ^ ".0"

(* Vectors are serialized with run-length compression ("v x n" repeats a
   value n times): pack/unpack masks and other structured plaintexts would
   otherwise dominate the measured code size with thousands of repeated
   literals. *)
let const_to_string = function
  | Ir.Splat x -> float_lit x
  | Ir.Vector xs ->
    let buf = Buffer.create 64 in
    Buffer.add_char buf '[';
    let n = Array.length xs in
    let i = ref 0 and first = ref true in
    while !i < n do
      let v = xs.(!i) in
      let run = ref 1 in
      while !i + !run < n && xs.(!i + !run) = v do incr run done;
      if not !first then Buffer.add_string buf ", ";
      first := false;
      if !run >= 4 then
        Buffer.add_string buf (Printf.sprintf "%s x %d" (float_lit v) !run)
      else
        for k = 0 to !run - 1 do
          if k > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (float_lit v)
        done;
      i := !i + !run
    done;
    Buffer.add_char buf ']';
    Buffer.contents buf

let rec instr_to_buf buf ~indent (i : Ir.instr) =
  let pad = String.make indent ' ' in
  match i.op with
  | Ir.For fo ->
    Buffer.add_string buf
      (Printf.sprintf "%s%s = for %s init(%s)%s {\n" pad (vars i.results)
         (Ir.count_to_string fo.count) (vars fo.inits)
         (match fo.boundary with
          | None -> ""
          | Some m -> Printf.sprintf " boundary=%d" m));
    block_to_buf buf ~indent:(indent + 2) fo.body;
    Buffer.add_string buf (Printf.sprintf "%s}\n" pad)
  | op ->
    let rhs =
      match op with
      | Ir.Const { value; size } ->
        Printf.sprintf "const %s size=%d" (const_to_string value) size
      | Ir.Binary { lhs; rhs; _ } ->
        Printf.sprintf "%s %s, %s" (op_name op) (var lhs) (var rhs)
      | Ir.Rotate { src; offset } -> Printf.sprintf "rotate %s, %d" (var src) offset
      | Ir.RotateMany { src; offsets } ->
        Printf.sprintf "rotate_many %s, %s" (var src)
          (String.concat ", " (List.map string_of_int offsets))
      | Ir.RotSum { src; terms } ->
        (* Weighted terms print as "offset:%coeff", pure ones as the bare
           offset — mirroring rotate_many's offset list. *)
        Printf.sprintf "rot_sum %s, %s" (var src)
          (String.concat ", "
             (List.map
                (function
                  | o, None -> string_of_int o
                  | o, Some c -> Printf.sprintf "%d:%s" o (var c))
                terms))
      | Ir.Rescale { src } -> Printf.sprintf "rescale %s" (var src)
      | Ir.Modswitch { src; down } -> Printf.sprintf "modswitch %s, %d" (var src) down
      | Ir.Bootstrap { src; target } ->
        Printf.sprintf "bootstrap %s, %d" (var src) target
      | Ir.Pack { srcs; num_e } ->
        Printf.sprintf "pack(%s) num_e=%d" (vars srcs) num_e
      | Ir.Unpack { src; index; num_e; count } ->
        Printf.sprintf "unpack %s, %d, %d, %d" (var src) index num_e count
      | Ir.For _ -> assert false
    in
    Buffer.add_string buf (Printf.sprintf "%s%s = %s\n" pad (vars i.results) rhs)

and block_to_buf buf ~indent (b : Ir.block) =
  let pad = String.make indent ' ' in
  if b.params <> [] then
    Buffer.add_string buf (Printf.sprintf "%s^(%s):\n" pad (vars b.params));
  List.iter (instr_to_buf buf ~indent) b.instrs;
  Buffer.add_string buf (Printf.sprintf "%syield %s\n" pad (vars b.yields))

let program_to_string (p : Ir.program) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "program \"%s\" slots=%d level=%d {\n" p.prog_name p.slots
       p.max_level);
  List.iter
    (fun (i : Ir.input) ->
      Buffer.add_string buf
        (Printf.sprintf "  input %s \"%s\" %s size=%d\n" (var i.in_var) i.in_name
           (match i.in_status with Ir.Plain -> "plain" | Ir.Cipher -> "cipher")
           i.in_size))
    p.inputs;
  List.iter (instr_to_buf buf ~indent:2) p.body.instrs;
  Buffer.add_string buf (Printf.sprintf "  output %s\n" (vars p.body.yields));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let code_size_bytes p = String.length (program_to_string p)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type state = { mutable toks : Lexer.token list }

let peek st = match st.toks with [] -> Lexer.EOF | t :: _ -> t

let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let next st =
  let t = peek st in
  advance st;
  t

let expect st tok =
  let t = next st in
  if t <> tok then
    fail "expected %s, found %s" (Lexer.token_to_string tok) (Lexer.token_to_string t)

let ident st =
  match next st with
  | Lexer.IDENT s -> s
  | t -> fail "expected identifier, found %s" (Lexer.token_to_string t)

let keyword st kw =
  let s = ident st in
  if s <> kw then fail "expected keyword %s, found %s" kw s

let int_lit st =
  match next st with
  | Lexer.INT k -> k
  | t -> fail "expected integer, found %s" (Lexer.token_to_string t)

let signed_int st =
  match next st with
  | Lexer.INT k -> k
  | Lexer.MINUS -> -int_lit st
  | t -> fail "expected integer, found %s" (Lexer.token_to_string t)

let float_lit st =
  match next st with
  | Lexer.FLOAT x -> x
  | Lexer.INT k -> float_of_int k
  | Lexer.MINUS ->
    (match next st with
     | Lexer.FLOAT x -> -.x
     | Lexer.INT k -> float_of_int (-k)
     | t -> fail "expected number, found %s" (Lexer.token_to_string t))
  | t -> fail "expected number, found %s" (Lexer.token_to_string t)

let var st =
  match next st with
  | Lexer.VAR v -> v
  | t -> fail "expected variable, found %s" (Lexer.token_to_string t)

let var_list st =
  let rec go acc =
    let v = var st in
    if peek st = Lexer.COMMA then begin
      advance st;
      go (v :: acc)
    end
    else List.rev (v :: acc)
  in
  go []

let attr st name =
  keyword st name;
  expect st Lexer.EQUAL;
  int_lit st

let count st =
  match next st with
  | Lexer.INT k -> Ir.Static k
  | Lexer.IDENT name ->
    let add =
      match peek st with
      | Lexer.PLUS ->
        advance st;
        int_lit st
      | Lexer.MINUS ->
        advance st;
        -int_lit st
      | _ -> 0
    in
    let div, rem =
      match peek st with
      | Lexer.SLASH ->
        advance st;
        (int_lit st, false)
      | Lexer.MOD ->
        advance st;
        (int_lit st, true)
      | _ -> (1, false)
    in
    if div < 1 then fail "loop-count divisor %d is below 1" div;
    Ir.Dyn { name; add; div; rem }
  | t -> fail "expected iteration count, found %s" (Lexer.token_to_string t)

let const_value st =
  if peek st = Lexer.LBRACKET then begin
    advance st;
    (* Elements are "v" or run-length "v x n" (see Printer). *)
    let rec go acc =
      if peek st = Lexer.RBRACKET then begin
        advance st;
        List.rev acc
      end
      else begin
        let x = float_lit st in
        let repeat =
          match peek st with
          | Lexer.IDENT "x" ->
            advance st;
            int_lit st
          | _ -> 1
        in
        let rec push acc k = if k = 0 then acc else push (x :: acc) (k - 1) in
        (match peek st with Lexer.COMMA -> advance st | _ -> ());
        go (push acc repeat)
      end
    in
    Ir.Vector (Array.of_list (go []))
  end
  else Ir.Splat (float_lit st)

let rec instr st results : Ir.instr =
  let op =
    match ident st with
    | "const" ->
      let value = const_value st in
      let size = attr st "size" in
      Ir.Const { value; size }
    | ("add" | "sub" | "mul") as k ->
      let lhs = var st in
      expect st Lexer.COMMA;
      let rhs = var st in
      let kind =
        match k with "add" -> Ir.Add | "sub" -> Ir.Sub | _ -> Ir.Mul
      in
      Ir.Binary { kind; lhs; rhs }
    | "rotate" ->
      let src = var st in
      expect st Lexer.COMMA;
      Ir.Rotate { src; offset = signed_int st }
    | "rotate_many" ->
      let src = var st in
      expect st Lexer.COMMA;
      (* The offsets run to the end of the instruction; the next line opens
         with a variable or a keyword, never a comma. *)
      let rec offsets acc =
        let o = signed_int st in
        if peek st = Lexer.COMMA then begin
          advance st;
          offsets (o :: acc)
        end
        else List.rev (o :: acc)
      in
      Ir.RotateMany { src; offsets = offsets [] }
    | "rot_sum" ->
      let src = var st in
      expect st Lexer.COMMA;
      (* Terms are "offset" (pure) or "offset:%coeff" (weighted), running
         to the end of the instruction like rotate_many's offsets. *)
      let rec terms acc =
        let o = signed_int st in
        let c =
          match peek st with
          | Lexer.COLON ->
            advance st;
            Some (var st)
          | _ -> None
        in
        if peek st = Lexer.COMMA then begin
          advance st;
          terms ((o, c) :: acc)
        end
        else List.rev ((o, c) :: acc)
      in
      Ir.RotSum { src; terms = terms [] }
    | "rescale" -> Ir.Rescale { src = var st }
    | "modswitch" ->
      let src = var st in
      expect st Lexer.COMMA;
      Ir.Modswitch { src; down = int_lit st }
    | "bootstrap" ->
      let src = var st in
      expect st Lexer.COMMA;
      Ir.Bootstrap { src; target = int_lit st }
    | "pack" ->
      expect st Lexer.LPAREN;
      let srcs = var_list st in
      expect st Lexer.RPAREN;
      let num_e = attr st "num_e" in
      Ir.Pack { srcs; num_e }
    | "unpack" ->
      let src = var st in
      expect st Lexer.COMMA;
      let index = int_lit st in
      expect st Lexer.COMMA;
      let num_e = int_lit st in
      expect st Lexer.COMMA;
      let count = int_lit st in
      Ir.Unpack { src; index; num_e; count }
    | "for" ->
      let c = count st in
      keyword st "init";
      expect st Lexer.LPAREN;
      let inits = var_list st in
      expect st Lexer.RPAREN;
      let boundary =
        match peek st with
        | Lexer.IDENT "boundary" -> Some (attr st "boundary")
        | _ -> None
      in
      expect st Lexer.LBRACE;
      let body = block st in
      expect st Lexer.RBRACE;
      Ir.For { count = c; inits; body; boundary }
    | s -> fail "unknown operation %s" s
  in
  { Ir.results; op }

and block st : Ir.block =
  let params =
    if peek st = Lexer.CARET then begin
      advance st;
      expect st Lexer.LPAREN;
      let ps = var_list st in
      expect st Lexer.RPAREN;
      expect st Lexer.COLON;
      ps
    end
    else []
  in
  let rec instrs acc =
    match peek st with
    | Lexer.IDENT "yield" ->
      advance st;
      let yields = var_list st in
      { Ir.params; instrs = List.rev acc; yields }
    | Lexer.VAR _ ->
      let results = var_list st in
      expect st Lexer.EQUAL;
      instrs (instr st results :: acc)
    | t -> fail "expected instruction or yield, found %s" (Lexer.token_to_string t)
  in
  instrs []

let parse_program src =
  let st = { toks = Lexer.tokenize src } in
  keyword st "program";
  let name =
    match next st with
    | Lexer.STRING s -> s
    | t -> fail "expected program name, found %s" (Lexer.token_to_string t)
  in
  let slots = attr st "slots" in
  let max_level = attr st "level" in
  expect st Lexer.LBRACE;
  let inputs = ref [] in
  while peek st = Lexer.IDENT "input" do
    advance st;
    let v = var st in
    let name =
      match next st with
      | Lexer.STRING s -> s
      | t -> fail "expected input name, found %s" (Lexer.token_to_string t)
    in
    let status =
      match ident st with
      | "plain" -> Ir.Plain
      | "cipher" -> Ir.Cipher
      | s -> fail "expected plain or cipher, found %s" s
    in
    let size = attr st "size" in
    inputs := { Ir.in_name = name; in_var = v; in_status = status; in_size = size } :: !inputs
  done;
  let inputs = List.rev !inputs in
  let rec instrs acc =
    match peek st with
    | Lexer.IDENT "output" ->
      advance st;
      let yields = var_list st in
      (List.rev acc, yields)
    | Lexer.VAR _ ->
      let results = var_list st in
      expect st Lexer.EQUAL;
      instrs (instr st results :: acc)
    | t -> fail "expected instruction or output, found %s" (Lexer.token_to_string t)
  in
  let body_instrs, yields = instrs [] in
  expect st Lexer.RBRACE;
  let body =
    {
      Ir.params = List.map (fun (i : Ir.input) -> i.in_var) inputs;
      instrs = body_instrs;
      yields;
    }
  in
  (* Recompute the fresh-variable counter from the maximum variable seen. *)
  let max_var = ref (-1) in
  let note v = if v > !max_var then max_var := v in
  List.iter (fun (i : Ir.input) -> note i.in_var) inputs;
  Ir.iter_blocks
    (fun b ->
      List.iter note b.params;
      List.iter
        (fun (i : Ir.instr) ->
          List.iter note i.results;
          List.iter note (Ir.op_operands i.op))
        b.instrs)
    body;
  {
    Ir.prog_name = name;
    slots;
    max_level;
    inputs;
    body;
    next_var = !max_var + 1;
  }

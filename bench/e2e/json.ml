(* Just enough JSON for the benchmark's own files: BENCHMARK.json, the
   result records it appends, and the span traces it writes.  Numbers are
   floats; printing keeps all 17 significant digits. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let number x =
  if not (Float.is_finite x) then invalid_arg "Json.number: not finite";
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x -> number x
  | Str s -> escape s
  | Arr xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | Obj kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) kvs)
    ^ "}"

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec skip () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip ()
      | _ -> ()
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           if !pos + 4 > n then fail "bad \\u escape";
           let code = int_of_string ("0x" ^ String.sub s !pos 4) in
           pos := !pos + 4;
           if code < 0x80 then Buffer.add_char b (Char.chr code)
           else Buffer.add_char b '?'
         | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec members acc =
          let k = string () in
          expect ':';
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then begin
            incr pos;
            members ((k, v) :: acc)
          end
          else begin
            expect '}';
            Obj (List.rev ((k, v) :: acc))
          end
        in
        members []
    | '[' ->
      incr pos;
      skip ();
      if !pos < n && s.[!pos] = ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec elements acc =
          let v = value () in
          skip ();
          if !pos < n && s.[!pos] = ',' then begin
            incr pos;
            elements (v :: acc)
          end
          else begin
            expect ']';
            Arr (List.rev (v :: acc))
          end
        in
        elements []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while
        !pos < n
        && match s.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false
      do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
       | Some x when !pos > start -> Num x
       | _ -> fail "bad number")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing data";
  v

let member k = function
  | Obj kvs -> (
    match List.assoc_opt k kvs with
    | Some v -> v
    | None -> raise (Parse_error ("missing key " ^ k)))
  | _ -> raise (Parse_error ("not an object looking up " ^ k))

let to_num = function Num x -> x | _ -> raise (Parse_error "expected a number")
let to_str = function Str s -> s | _ -> raise (Parse_error "expected a string")
let to_list = function Arr xs -> xs | _ -> raise (Parse_error "expected an array")
let to_bool = function Bool b -> b | _ -> raise (Parse_error "expected a boolean")

let to_assoc = function
  | Obj kvs -> kvs
  | _ -> raise (Parse_error "expected an object")

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let read_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map of_string

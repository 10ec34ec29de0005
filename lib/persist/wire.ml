let u8 b v = Buffer.add_uint8 b v
let i64 b v = Buffer.add_int64_le b (Int64.of_int v)
let f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

let str b s =
  i64 b (String.length s);
  Buffer.add_string b s

let int_array b a =
  i64 b (Array.length a);
  Array.iter (i64 b) a

let float_array b a =
  i64 b (Array.length a);
  Array.iter (f64 b) a

let list b f xs =
  i64 b (List.length xs);
  List.iter (f b) xs

let bool b v = u8 b (if v then 1 else 0)

let option b f = function
  | None -> bool b false
  | Some v ->
    bool b true;
    f b v

type reader = {
  src : string;
  path : string option;
  base : int;
  version : int;
  stamp : int64;
  mutable pos : int;
}

let reader ?path ?(base = 0) ?(version = max_int) ?(stamp = 0L) src =
  { src; path; base; version; stamp; pos = 0 }

let fail r ?expected ?got fmt =
  Halo_error.persist_error ?path:r.path ~offset:(r.base + r.pos) ?expected ?got fmt

type check = ?expected:string -> ?got:string -> string -> unit

let check_at r : check =
 fun ?expected ?got reason -> fail r ?expected ?got "%s" reason

let check_arg who : check =
 fun ?expected ?got reason ->
  invalid_arg (who ^ ": " ^ Halo_error.with_detail ?expected ?got reason)

let checked decode check r =
  let v = decode r in
  check (check_at r) v;
  v

let need r n =
  let remain = String.length r.src - r.pos in
  if n < 0 || n > remain then
    fail r ~expected:(Printf.sprintf "%d bytes" n)
      ~got:(Printf.sprintf "%d bytes" remain)
      "truncated field"

let ru8 r =
  need r 1;
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let ri64 r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let rf64 r =
  need r 8;
  let v = Int64.float_of_bits (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let rlen r =
  let n = ri64 r in
  if n < 0 then fail r ~got:(string_of_int n) "negative length";
  n

let rstr r =
  let n = rlen r in
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let rint_array r =
  let n = rlen r in
  need r (8 * n);
  Array.init n (fun _ -> ri64 r)

let rfloat_array r =
  let n = rlen r in
  need r (8 * n);
  Array.init n (fun _ -> rf64 r)

let rlist r f =
  let n = rlen r in
  List.init n (fun _ -> f r)

let rbool r ~what =
  match ru8 r with
  | 0 -> false
  | 1 -> true
  | t -> fail r ~got:(string_of_int t) "bad %s flag" what

let roption r ~what f = if rbool r ~what then Some (f r) else None

let expect_end r ~what =
  let remain = String.length r.src - r.pos in
  if remain <> 0 then
    fail r ~expected:(Printf.sprintf "end of %s" what)
      ~got:(Printf.sprintf "%d trailing bytes" remain)
      "trailing garbage"

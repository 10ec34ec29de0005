module Params = Halo_ckks.Params
module Rns_poly = Halo_ckks.Rns_poly
module Eval = Halo_ckks.Eval
module Keys = Halo_ckks.Keys
module Ref_backend = Halo_ckks.Ref_backend
module Stats = Halo_runtime.Stats
module Ir = Halo.Ir

type kind =
  | Rns_poly_frame
  | Ref_ct_frame
  | Lattice_ct_frame
  | Keys_frame
  | Program_frame
  | Manifest_frame
  | Entry_frame
  | Serve_manifest_frame
  | Serve_request_frame
  | Serve_entry_frame
  | Serve_plan_frame
  | Serve_quarantine_frame
  | Serve_drain_frame
  | Serve_chaos_frame
  | Rescue_frame
  | Tune_manifest_frame

let format_version = 5

(* Version 3 and 4 frames remain decodable: decoders read the fields added
   since (stats counters, noise estimates, guard and rescue knobs) only
   when [Wire.reader.version] says the frame has them. *)
let min_format_version = 3
let magic = "HALO"
let header_len = 4 + 1 + 1 + 8 + 8

(* The tag is on disk: never renumber a kind or reuse a retired tag. *)
let kind_info = function
  | Rns_poly_frame -> (1, "rns_poly")
  | Ref_ct_frame -> (2, "ref ciphertext")
  | Lattice_ct_frame -> (3, "lattice ciphertext")
  | Keys_frame -> (4, "key material")
  | Program_frame -> (5, "compiled program")
  | Manifest_frame -> (6, "run manifest")
  | Entry_frame -> (7, "checkpoint entry")
  | Serve_manifest_frame -> (8, "serve manifest")
  | Serve_request_frame -> (9, "serve request")
  | Serve_entry_frame -> (10, "serve batch entry")
  | Serve_plan_frame -> (11, "serve plan record")
  | Serve_quarantine_frame -> (12, "serve quarantine snapshot")
  | Serve_drain_frame -> (13, "serve drain handoff")
  | Serve_chaos_frame -> (14, "chaos soak state")
  | Rescue_frame -> (15, "rescue record")
  | Tune_manifest_frame -> (16, "tuned strategy manifest")

let kind_tag k = fst (kind_info k)
let kind_name k = snd (kind_info k)

(* --- frames ------------------------------------------------------------ *)

let frame ~kind ~fingerprint payload =
  let body = Buffer.create 256 in
  payload body;
  let b = Buffer.create (header_len + Buffer.length body + 4) in
  Buffer.add_string b magic;
  Buffer.add_uint8 b format_version;
  Buffer.add_uint8 b (kind_tag kind);
  Buffer.add_int64_le b fingerprint;
  Buffer.add_int64_le b (Int64.of_int (Buffer.length body));
  Buffer.add_buffer b body;
  let crc = Crc32.string (Buffer.contents b) in
  Buffer.add_int32_le b crc;
  Buffer.contents b

let unframe ?path ~kind ~fingerprint s =
  let r = Wire.reader ?path s in
  let total = String.length s in
  if total < header_len + 4 then
    Wire.fail r
      ~expected:(Printf.sprintf "at least %d bytes" (header_len + 4))
      ~got:(Printf.sprintf "%d bytes" total)
      "file too short for a frame";
  let got_magic = String.sub s 0 4 in
  if not (String.equal got_magic magic) then
    Wire.fail r ~expected:(Printf.sprintf "%S" magic)
      ~got:(Printf.sprintf "%S" got_magic) "bad magic";
  r.Wire.pos <- 4;
  let version = Wire.ru8 r in
  if version < min_format_version || version > format_version then
    Wire.fail r
      ~expected:
        (Printf.sprintf "format version in [%d, %d]" min_format_version
           format_version)
      ~got:(string_of_int version) "unsupported format version";
  let tag = Wire.ru8 r in
  if tag <> kind_tag kind then
    Wire.fail r
      ~expected:(Printf.sprintf "%s (tag %d)" (kind_name kind) (kind_tag kind))
      ~got:(Printf.sprintf "tag %d" tag) "wrong artifact kind";
  let stamp = String.get_int64_le s 6 in
  r.Wire.pos <- 14;
  let len = Wire.ri64 r in
  if len < 0 || header_len + len + 4 <> total then
    Wire.fail r
      ~expected:(Printf.sprintf "payload of %d bytes" (total - header_len - 4))
      ~got:(string_of_int len) "payload length mismatch";
  let stored_crc = String.get_int32_le s (total - 4) in
  let actual_crc = Crc32.string ~pos:0 ~len:(total - 4) s in
  if not (Int32.equal stored_crc actual_crc) then begin
    r.Wire.pos <- total - 4;
    Wire.fail r
      ~expected:(Printf.sprintf "crc 0x%08lx" actual_crc)
      ~got:(Printf.sprintf "crc 0x%08lx" stored_crc)
      "checksum mismatch (bit rot or truncation)"
  end;
  (match fingerprint with
   | Some fp when not (Int64.equal fp stamp) ->
     r.Wire.pos <- 6;
     Wire.fail r
       ~expected:(Printf.sprintf "fingerprint 0x%016Lx" fp)
       ~got:(Printf.sprintf "0x%016Lx" stamp)
       "artifact was written under different parameters"
   | _ -> ());
  Wire.reader ?path ~base:header_len ~version ~stamp
    (String.sub s header_len len)

(* --- artifacts ---------------------------------------------------------- *)

type 'a stamp = Fixed of int64 | Of_value of ('a -> int64) | Given

type 'a artifact = {
  kind : kind;
  stamp : 'a stamp;
  encode : Buffer.t -> 'a -> unit;
  decode : Wire.reader -> 'a;
}

let misuse a fingerprint =
  invalid_arg
    (Printf.sprintf "Codec: a %s frame %s" (kind_name a.kind)
       (if fingerprint = None then "needs a caller fingerprint"
        else "carries its own stamp"))

let to_frame ?fingerprint a v =
  let fingerprint =
    match (a.stamp, fingerprint) with
    | Fixed fp, None -> fp
    | Of_value f, None -> f v
    | Given, Some fp -> fp
    | _ -> misuse a fingerprint
  in
  frame ~kind:a.kind ~fingerprint (fun b -> a.encode b v)

let of_frame ?path ?fingerprint a s =
  let expected =
    match (a.stamp, fingerprint) with
    | Fixed fp, None -> Some fp
    | Of_value _, fp -> fp
    | Given, Some _ -> fingerprint
    | _ -> misuse a fingerprint
  in
  let r = unframe ?path ~kind:a.kind ~fingerprint:expected s in
  let v = a.decode r in
  Wire.expect_end r ~what:(kind_name a.kind);
  v

let payload_fingerprint encode v =
  let b = Buffer.create 1024 in
  encode b v;
  Int64.logor
    (Int64.logand (Int64.of_int32 (Crc32.string (Buffer.contents b))) 0xFFFFFFFFL)
    (Int64.shift_left (Int64.of_int (Buffer.length b land 0xFFFFFF)) 32)

(* --- RNS polynomials ---------------------------------------------------- *)

let encode_rns b (p : Rns_poly.t) =
  Wire.u8 b (match Rns_poly.domain p with Rns_poly.Coeff -> 0 | Rns_poly.Eval -> 1);
  Wire.i64 b (Rns_poly.level p);
  Array.iter (Wire.int_array b) p.res

let decode_rns (params : Params.t) r =
  let domain =
    match Wire.ru8 r with
    | 0 -> Rns_poly.Coeff
    | 1 -> Rns_poly.Eval
    | t -> Wire.fail r ~got:(string_of_int t) "bad domain tag"
  in
  let level = Wire.ri64 r in
  if level < 1 || level > params.max_level then
    Wire.fail r
      ~expected:(Printf.sprintf "level in [1, %d]" params.max_level)
      ~got:(string_of_int level) "level out of range";
  let res =
    Array.init level (fun i ->
        let limb = Wire.rint_array r in
        if Array.length limb <> params.n then
          Wire.fail r
            ~expected:(Printf.sprintf "limb of %d residues" params.n)
            ~got:(string_of_int (Array.length limb))
            "limb length mismatch";
        let q = params.moduli.(i) in
        Array.iter
          (fun c ->
            if c < 0 || c >= q then
              Wire.fail r
                ~expected:(Printf.sprintf "residue in [0, %d)" q)
                ~got:(string_of_int c) "residue out of range")
          limb;
        limb)
  in
  Rns_poly.of_residues ~domain res

let rns params =
  {
    kind = Rns_poly_frame;
    stamp = Fixed (Params.fingerprint params);
    encode = encode_rns;
    decode = decode_rns params;
  }

(* --- ciphertexts -------------------------------------------------------- *)

(* The noise estimate arrived with format version 5; version-3/4 frames end
   the ciphertext here and decode with the estimate at zero (a resumed old
   run never fires a rescue, exactly as it could not before). *)
let decode_ct_noise r =
  if r.Wire.version > 4 then begin
    let est = Wire.rf64 r in
    if not (Float.is_finite est) || est < 0.0 then
      Wire.fail r ~expected:"finite non-negative noise estimate"
        ~got:(Printf.sprintf "%h" est) "bad noise estimate";
    est
  end
  else 0.0

let decode_ref_ct ~slots ~max_level r =
  let level = Wire.ri64 r in
  if level < 1 || level > max_level then
    Wire.fail r
      ~expected:(Printf.sprintf "level in [1, %d]" max_level)
      ~got:(string_of_int level) "ciphertext level out of range";
  let scale_bits = Wire.rf64 r in
  let data = Wire.rfloat_array r in
  if Array.length data <> slots then
    Wire.fail r
      ~expected:(Printf.sprintf "%d slots" slots)
      ~got:(string_of_int (Array.length data))
      "slot count mismatch";
  let noise_est = decode_ct_noise r in
  Ref_backend.make_ct ~noise_est ~data ~level ~scale_bits ()

let ref_ct ~slots ~max_level =
  {
    kind = Ref_ct_frame;
    stamp = Fixed 0L;
    encode =
      (fun b (ct : Ref_backend.ct) ->
        Wire.i64 b ct.ct_level;
        Wire.f64 b ct.scale_bits;
        Wire.float_array b ct.data;
        Wire.f64 b ct.noise_est);
    decode = decode_ref_ct ~slots ~max_level;
  }

let decode_lattice_ct params r =
  let c0 = decode_rns params r in
  let c1 = decode_rns params r in
  let scale = Wire.rf64 r in
  if Rns_poly.level c0 <> Rns_poly.level c1 then
    Wire.fail r
      ~expected:(Printf.sprintf "c1 at level %d" (Rns_poly.level c0))
      ~got:(string_of_int (Rns_poly.level c1))
      "ciphertext halves at different levels";
  if not (Float.is_finite scale) || scale <= 0.0 then
    Wire.fail r ~expected:"positive finite scale"
      ~got:(Printf.sprintf "%h" scale) "bad ciphertext scale";
  let noise_est = decode_ct_noise r in
  let ct = Eval.of_parts ~c0 ~c1 ~scale in
  Eval.set_noise_est ct noise_est;
  ct

let lattice_ct params =
  {
    kind = Lattice_ct_frame;
    stamp = Fixed (Params.fingerprint params);
    encode =
      (fun b (ct : Eval.ct) ->
        encode_rns b ct.c0;
        encode_rns b ct.c1;
        Wire.f64 b (Eval.scale ct);
        Wire.f64 b (Eval.noise_est ct));
    decode = decode_lattice_ct params;
  }

(* --- RNG snapshots ------------------------------------------------------ *)

let encode_rng b rng = Wire.str b (Marshal.to_string (rng : Random.State.t) [])

let decode_rng r =
  let blob = Wire.rstr r in
  (* Only reached after the frame CRC validated, so the blob is exactly what
     encode_rng wrote; unmarshalling is safe. *)
  try (Marshal.from_string blob 0 : Random.State.t)
  with Failure m -> Wire.fail r ~got:m "unreadable RNG snapshot"

(* --- key material ------------------------------------------------------- *)

let encode_switch_key b sk =
  let k0, k1 = Keys.switch_key_raw sk in
  let half h =
    Wire.i64 b (Array.length h);
    Array.iter
      (fun digit ->
        Wire.i64 b (Array.length digit);
        Array.iter (Wire.int_array b) digit)
      h
  in
  half k0;
  half k1

let decode_switch_key params r =
  let half () =
    let digits = Wire.ri64 r in
    if digits < 0 || digits > 4096 then
      Wire.fail r ~got:(string_of_int digits) "absurd digit count";
    Array.init digits (fun _ ->
        let positions = Wire.ri64 r in
        if positions < 0 || positions > 4096 then
          Wire.fail r ~got:(string_of_int positions) "absurd chain length";
        Array.init positions (fun _ -> Wire.rint_array r))
  in
  let k0 = half () in
  let k1 = half () in
  try Keys.switch_key_of_raw params ~k0 ~k1
  with Invalid_argument m -> Wire.fail r ~got:m "malformed switching key"

let encode_keys b (keys : Keys.t) =
  Wire.int_array b keys.secret.coeffs;
  encode_rns b keys.pk0;
  encode_rns b keys.pk1;
  encode_switch_key b keys.relin;
  Wire.list b
    (fun b (k, sk) ->
      Wire.i64 b k;
      encode_switch_key b sk)
    (Keys.rotation_entries keys);
  encode_rng b (Keys.rng_state keys)

let decode_keys (params : Params.t) r =
  let secret = Wire.rint_array r in
  Array.iter
    (fun c ->
      if c < -1 || c > 1 then
        Wire.fail r ~expected:"ternary coefficient"
          ~got:(string_of_int c) "secret is not ternary")
    secret;
  let pk0 = decode_rns params r in
  let pk1 = decode_rns params r in
  let relin = decode_switch_key params r in
  let rotations =
    Wire.rlist r (fun r ->
        let k = Wire.ri64 r in
        let sk = decode_switch_key params r in
        (k, sk))
  in
  let rng = decode_rng r in
  try Keys.of_parts params ~secret ~pk0 ~pk1 ~relin ~rotations ~rng
  with Invalid_argument m -> Wire.fail r ~got:m "malformed key material"

let keys params =
  {
    kind = Keys_frame;
    stamp = Fixed (Params.fingerprint params);
    encode = encode_keys;
    decode = decode_keys params;
  }

(* --- compiled programs -------------------------------------------------- *)

(* A program is one length-prefixed blob inside its payload.  Every tag is
   checked; a loop count divides by at least 1. *)

let encode_count b : Ir.count -> unit = function
  | Ir.Static n ->
    Wire.u8 b 0;
    Wire.i64 b n
  | Ir.Dyn { name; add; div; rem } ->
    Wire.u8 b 1;
    Wire.str b name;
    Wire.i64 b add;
    Wire.i64 b div;
    Wire.bool b rem

let decode_count r : Ir.count =
  match Wire.ru8 r with
  | 0 -> Ir.Static (Wire.ri64 r)
  | 1 ->
    let name = Wire.rstr r in
    let add = Wire.ri64 r in
    let div = Wire.ri64 r in
    if div < 1 then
      Wire.fail r ~got:(string_of_int div) "loop-count divisor below 1";
    let rem = Wire.rbool r ~what:"remainder" in
    Ir.Dyn { name; add; div; rem }
  | t -> Wire.fail r ~got:(string_of_int t) "bad count tag"

let vars b = Wire.list b Wire.i64
let rvars r = Wire.rlist r Wire.ri64

let rec encode_op b : Ir.op -> unit = function
  | Ir.Const { value; size } ->
    Wire.u8 b 0;
    (match value with
     | Ir.Splat x ->
       Wire.u8 b 0;
       Wire.f64 b x
     | Ir.Vector xs ->
       Wire.u8 b 1;
       Wire.float_array b xs);
    Wire.i64 b size
  | Ir.Binary { kind; lhs; rhs } ->
    Wire.u8 b 1;
    Wire.u8 b (match kind with Ir.Add -> 0 | Ir.Sub -> 1 | Ir.Mul -> 2);
    Wire.i64 b lhs;
    Wire.i64 b rhs
  | Ir.Rotate { src; offset } ->
    Wire.u8 b 2;
    Wire.i64 b src;
    Wire.i64 b offset
  | Ir.Rescale { src } ->
    Wire.u8 b 3;
    Wire.i64 b src
  | Ir.Modswitch { src; down } ->
    Wire.u8 b 4;
    Wire.i64 b src;
    Wire.i64 b down
  | Ir.Bootstrap { src; target } ->
    Wire.u8 b 5;
    Wire.i64 b src;
    Wire.i64 b target
  | Ir.Pack { srcs; num_e } ->
    Wire.u8 b 6;
    vars b srcs;
    Wire.i64 b num_e
  | Ir.Unpack { src; index; num_e; count } ->
    Wire.u8 b 7;
    Wire.i64 b src;
    Wire.i64 b index;
    Wire.i64 b num_e;
    Wire.i64 b count
  | Ir.For { count; inits; body; boundary } ->
    Wire.u8 b 8;
    encode_count b count;
    vars b inits;
    encode_block b body;
    Wire.option b Wire.i64 boundary
  | Ir.RotateMany { src; offsets } ->
    Wire.u8 b 9;
    Wire.i64 b src;
    vars b offsets
  | Ir.RotSum { src; terms } ->
    Wire.u8 b 10;
    Wire.i64 b src;
    Wire.list b
      (fun b (o, c) ->
        Wire.i64 b o;
        Wire.option b Wire.i64 c)
      terms

and encode_block b (blk : Ir.block) =
  vars b blk.params;
  Wire.list b
    (fun b (i : Ir.instr) ->
      vars b i.results;
      encode_op b i.op)
    blk.instrs;
  vars b blk.yields

let rec decode_op r : Ir.op =
  match Wire.ru8 r with
  | 0 ->
    let value =
      match Wire.ru8 r with
      | 0 -> Ir.Splat (Wire.rf64 r)
      | 1 -> Ir.Vector (Wire.rfloat_array r)
      | t -> Wire.fail r ~got:(string_of_int t) "bad const tag"
    in
    let size = Wire.ri64 r in
    Ir.Const { value; size }
  | 1 ->
    let kind =
      match Wire.ru8 r with
      | 0 -> Ir.Add
      | 1 -> Ir.Sub
      | 2 -> Ir.Mul
      | t -> Wire.fail r ~got:(string_of_int t) "bad binop tag"
    in
    let lhs = Wire.ri64 r in
    let rhs = Wire.ri64 r in
    Ir.Binary { kind; lhs; rhs }
  | 2 ->
    let src = Wire.ri64 r in
    let offset = Wire.ri64 r in
    Ir.Rotate { src; offset }
  | 3 -> Ir.Rescale { src = Wire.ri64 r }
  | 4 ->
    let src = Wire.ri64 r in
    let down = Wire.ri64 r in
    Ir.Modswitch { src; down }
  | 5 ->
    let src = Wire.ri64 r in
    let target = Wire.ri64 r in
    Ir.Bootstrap { src; target }
  | 6 ->
    let srcs = rvars r in
    let num_e = Wire.ri64 r in
    Ir.Pack { srcs; num_e }
  | 7 ->
    let src = Wire.ri64 r in
    let index = Wire.ri64 r in
    let num_e = Wire.ri64 r in
    let count = Wire.ri64 r in
    Ir.Unpack { src; index; num_e; count }
  | 8 ->
    let count = decode_count r in
    let inits = rvars r in
    let body = decode_block r in
    let boundary = Wire.roption r ~what:"boundary" Wire.ri64 in
    Ir.For { count; inits; body; boundary }
  | 9 ->
    let src = Wire.ri64 r in
    let offsets = rvars r in
    Ir.RotateMany { src; offsets }
  | 10 ->
    let src = Wire.ri64 r in
    let terms =
      Wire.rlist r (fun r ->
          let o = Wire.ri64 r in
          let c = Wire.roption r ~what:"coefficient" Wire.ri64 in
          (o, c))
    in
    Ir.RotSum { src; terms }
  | t -> Wire.fail r ~got:(string_of_int t) "bad op tag"

and decode_block r : Ir.block =
  let params = rvars r in
  let instrs =
    Wire.rlist r (fun r ->
        let results = rvars r in
        let op = decode_op r in
        { Ir.results; op })
  in
  let yields = rvars r in
  { params; instrs; yields }

let encode_program b (p : Ir.program) =
  let body = Buffer.create 1024 in
  Wire.str body p.prog_name;
  Wire.i64 body p.slots;
  Wire.i64 body p.max_level;
  Wire.list body
    (fun b (i : Ir.input) ->
      Wire.str b i.in_name;
      Wire.i64 b i.in_var;
      Wire.u8 b (match i.in_status with Ir.Plain -> 0 | Ir.Cipher -> 1);
      Wire.i64 b i.in_size)
    p.inputs;
  encode_block body p.body;
  Wire.i64 body p.next_var;
  Wire.str b (Buffer.contents body)

let decode_program r =
  let blob = Wire.rstr r in
  let r =
    Wire.reader ?path:r.Wire.path
      ~base:(r.base + r.pos - String.length blob)
      ~version:r.version blob
  in
  let prog_name = Wire.rstr r in
  let slots = Wire.ri64 r in
  let max_level = Wire.ri64 r in
  let inputs =
    Wire.rlist r (fun r ->
        let in_name = Wire.rstr r in
        let in_var = Wire.ri64 r in
        let in_status =
          match Wire.ru8 r with
          | 0 -> Ir.Plain
          | 1 -> Ir.Cipher
          | t -> Wire.fail r ~got:(string_of_int t) "bad status tag"
        in
        let in_size = Wire.ri64 r in
        { Ir.in_name; in_var; in_status; in_size })
  in
  let body = decode_block r in
  let next_var = Wire.ri64 r in
  Wire.expect_end r ~what:"program";
  { Ir.prog_name; slots; max_level; inputs; body; next_var }

let program =
  {
    kind = Program_frame;
    stamp = Fixed 0L;
    encode = encode_program;
    decode = decode_program;
  }

(* --- statistics --------------------------------------------------------- *)

(* The stats record is [Stats.counters] in order, 8 bytes a counter.  The
   table is append-only, so an older frame holds a prefix of it: version 3
   the first 22 counters, version 4 the first 28 (key-cache counters added),
   version 5 all 31 (rescue counters added).  Counters past the prefix
   decode as zero.  A new counter bumps [format_version] and adds the
   previous version's count here. *)
let stats_counters = function
  | 3 -> 22
  | 4 -> 28
  | _ -> List.length Stats.counters

let encode_stats b s =
  List.iter
    (function
      | _, Stats.Int (get, _) -> Wire.i64 b (get s)
      | _, Stats.Us (get, _) -> Wire.f64 b (get s))
    Stats.counters

let decode_stats r =
  let s = Stats.create () and n = stats_counters r.Wire.version in
  List.iteri
    (fun i -> function
      | _ when i >= n -> ()
      | _, Stats.Int (_, set) -> set s (Wire.ri64 r)
      | _, Stats.Us (_, set) -> set s (Wire.rf64 r))
    Stats.counters;
  s

(* --- run manifest ------------------------------------------------------- *)

type backend_cfg = {
  slots : int;
  max_level : int;
  scale_bits : int;
  seed : int;
  enc_noise : float;
  mult_noise : float;
  boot_noise : float;
  rescale_noise : float;
}

let encode_backend_cfg b c =
  Wire.i64 b c.slots;
  Wire.i64 b c.max_level;
  Wire.i64 b c.scale_bits;
  Wire.i64 b c.seed;
  Wire.f64 b c.enc_noise;
  Wire.f64 b c.mult_noise;
  Wire.f64 b c.boot_noise;
  Wire.f64 b c.rescale_noise

let decode_backend_cfg r =
  let slots = Wire.ri64 r in
  let max_level = Wire.ri64 r in
  let scale_bits = Wire.ri64 r in
  let seed = Wire.ri64 r in
  let enc_noise = Wire.rf64 r in
  let mult_noise = Wire.rf64 r in
  let boot_noise = Wire.rf64 r in
  let rescale_noise = Wire.rf64 r in
  { slots; max_level; scale_bits; seed; enc_noise; mult_noise; boot_noise;
    rescale_noise }

let check_backend_cfg (fail : Wire.check) c =
  if c.slots < 1 then fail ~got:(string_of_int c.slots) "slot count below 1";
  if c.max_level < 1 then
    fail ~got:(string_of_int c.max_level) "max level below 1"

let encode_rescue_tail b (rescue, margin, budget) =
  Wire.bool b rescue;
  Wire.f64 b margin;
  Wire.i64 b budget

(* Rescue knobs arrived with format version 5; older manifests decode with
   the monitor off at the default margin and budget. *)
let decode_rescue_tail r =
  if r.Wire.version > 4 then begin
    let rescue = Wire.rbool r ~what:"rescue" in
    let margin = Wire.rf64 r in
    let budget = Wire.ri64 r in
    (rescue, margin, budget)
  end
  else
    ( false,
      Halo_runtime.Noise_monitor.default_rescue_margin,
      Halo_runtime.Noise_monitor.default_max_rescues )

let check_rescue_tail (fail : Wire.check) (_, margin, budget) =
  if not (Float.is_finite margin) || margin < 1.0 then
    fail ~expected:"finite rescue margin >= 1"
      ~got:(Printf.sprintf "%h" margin) "bad rescue margin";
  if budget < 0 then fail ~got:(string_of_int budget) "negative rescue budget"

let check_guard_margin (fail : Wire.check) gm =
  if not (Float.is_finite gm) || gm <= 0.0 then
    fail ~expected:"positive finite guard margin"
      ~got:(Printf.sprintf "%h" gm) "bad guard margin"

type manifest = {
  prog : Halo.Ir.program;
  strategy : string;
  bindings : (string * int) list;
  inputs : (string * float array) list;
  backend : backend_cfg;
  every_n : int;
  retain : int;
  guard_every : int;
  guard_margin : float;
  rescue : bool;
  rescue_margin : float;
  max_rescues : int;
}

let encode_manifest b m =
  encode_program b m.prog;
  Wire.str b m.strategy;
  Wire.list b
    (fun b (n, v) ->
      Wire.str b n;
      Wire.i64 b v)
    m.bindings;
  Wire.list b
    (fun b (n, v) ->
      Wire.str b n;
      Wire.float_array b v)
    m.inputs;
  encode_backend_cfg b m.backend;
  Wire.i64 b m.every_n;
  Wire.i64 b m.retain;
  Wire.i64 b m.guard_every;
  Wire.f64 b m.guard_margin;
  encode_rescue_tail b (m.rescue, m.rescue_margin, m.max_rescues)

let decode_manifest r =
  let prog = decode_program r in
  let strategy = Wire.rstr r in
  let bindings =
    Wire.rlist r (fun r ->
        let n = Wire.rstr r in
        let v = Wire.ri64 r in
        (n, v))
  in
  let inputs =
    Wire.rlist r (fun r ->
        let n = Wire.rstr r in
        let v = Wire.rfloat_array r in
        (n, v))
  in
  let backend = decode_backend_cfg r in
  let every_n = Wire.ri64 r in
  let retain = Wire.ri64 r in
  let guard_every = Wire.ri64 r in
  (* The guard margin arrived with format version 5, with the rescue knobs;
     older manifests resume with the historical margin. *)
  let guard_margin =
    if r.Wire.version > 4 then Wire.rf64 r
    else Halo_runtime.Guard.default_margin
  in
  let rescue, rescue_margin, max_rescues = decode_rescue_tail r in
  {
    prog;
    strategy;
    bindings;
    inputs;
    backend;
    every_n;
    retain;
    guard_every;
    guard_margin;
    rescue;
    rescue_margin;
    max_rescues;
  }

let check_manifest (fail : Wire.check) m =
  check_backend_cfg fail m.backend;
  check_guard_margin fail m.guard_margin;
  check_rescue_tail fail (m.rescue, m.rescue_margin, m.max_rescues);
  if m.every_n < 1 then fail ~got:(string_of_int m.every_n) "cadence below 1";
  if m.retain < 1 then fail ~got:(string_of_int m.retain) "retention below 1";
  if m.guard_every < 0 then
    fail ~got:(string_of_int m.guard_every) "negative guard cadence"

let manifest_fingerprint = payload_fingerprint encode_manifest

let manifest =
  {
    kind = Manifest_frame;
    stamp = Of_value manifest_fingerprint;
    encode = encode_manifest;
    decode = Wire.checked decode_manifest check_manifest;
  }

(* --- checkpoint entries ------------------------------------------------- *)

type 'ct carried = Plain of float array | Cipher of 'ct

type 'ct entry = {
  seq : int;
  loop_var : int;
  iter : int;
  carried : 'ct carried list;
  rng : Random.State.t;
  stats : Stats.t;
}

let entry ct =
  let encode b e =
    Wire.i64 b e.seq;
    Wire.i64 b e.loop_var;
    Wire.i64 b e.iter;
    Wire.list b
      (fun b -> function
        | Plain v ->
          Wire.u8 b 0;
          Wire.float_array b v
        | Cipher c ->
          Wire.u8 b 1;
          ct.encode b c)
      e.carried;
    encode_rng b e.rng;
    encode_stats b e.stats
  in
  let decode r =
    let seq = Wire.ri64 r in
    let loop_var = Wire.ri64 r in
    let iter = Wire.ri64 r in
    if seq < 0 then Wire.fail r ~got:(string_of_int seq) "negative sequence";
    if iter < 0 then Wire.fail r ~got:(string_of_int iter) "negative iteration";
    let carried =
      Wire.rlist r (fun r ->
          match Wire.ru8 r with
          | 0 -> Plain (Wire.rfloat_array r)
          | 1 -> Cipher (ct.decode r)
          | t -> Wire.fail r ~got:(string_of_int t) "bad carried-value tag")
    in
    let rng = decode_rng r in
    let stats = decode_stats r in
    { seq; loop_var; iter; carried; rng; stats }
  in
  { kind = Entry_frame; stamp = Given; encode; decode }

(* --- rescue records ------------------------------------------------------ *)

let rescue =
  {
    kind = Rescue_frame;
    stamp = Given;
    encode =
      (fun b (e : Halo_runtime.Noise_monitor.rescue_event) ->
        Wire.i64 b e.r_seq;
        Wire.i64 b e.r_target;
        Wire.f64 b e.r_before;
        Wire.f64 b e.r_after);
    decode =
      (fun r : Halo_runtime.Noise_monitor.rescue_event ->
        let r_seq = Wire.ri64 r in
        let r_target = Wire.ri64 r in
        let r_before = Wire.rf64 r in
        let r_after = Wire.rf64 r in
        if r_seq < 0 then
          Wire.fail r ~got:(string_of_int r_seq) "negative rescue sequence";
        if r_target < 1 then
          Wire.fail r ~got:(string_of_int r_target) "rescue target below 1";
        if not (Float.is_finite r_before) || r_before < 0.0 then
          Wire.fail r ~expected:"finite non-negative estimate"
            ~got:(Printf.sprintf "%h" r_before) "bad pre-rescue estimate";
        if not (Float.is_finite r_after) || r_after < 0.0 then
          Wire.fail r ~expected:"finite non-negative estimate"
            ~got:(Printf.sprintf "%h" r_after) "bad post-rescue estimate";
        { r_seq; r_target; r_before; r_after });
  }

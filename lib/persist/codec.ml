module Params = Halo_ckks.Params
module Rns_poly = Halo_ckks.Rns_poly
module Eval = Halo_ckks.Eval
module Keys = Halo_ckks.Keys
module Ref_backend = Halo_ckks.Ref_backend
module Stats = Halo_runtime.Stats

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

(* Version 3 and 4 frames remain decodable: the only payload difference is
   that their stats record stops short (see [stats_counters]). *)
let min_format_version = 3
let magic = "HALO"
let header_len = 4 + 1 + 1 + 8 + 8

let kind_tag = function
  | Rns_poly_frame -> 1
  | Ref_ct_frame -> 2
  | Lattice_ct_frame -> 3
  | Keys_frame -> 4
  | Program_frame -> 5
  | Manifest_frame -> 6
  | Entry_frame -> 7
  | Serve_manifest_frame -> 8
  | Serve_request_frame -> 9
  | Serve_entry_frame -> 10
  | Serve_plan_frame -> 11
  | Serve_quarantine_frame -> 12
  | Serve_drain_frame -> 13
  | Serve_chaos_frame -> 14
  | Rescue_frame -> 15
  | Tune_manifest_frame -> 16

let kind_name = function
  | Rns_poly_frame -> "rns_poly"
  | Ref_ct_frame -> "ref ciphertext"
  | Lattice_ct_frame -> "lattice ciphertext"
  | Keys_frame -> "key material"
  | Program_frame -> "compiled program"
  | Manifest_frame -> "run manifest"
  | Entry_frame -> "checkpoint entry"
  | Serve_manifest_frame -> "serve manifest"
  | Serve_request_frame -> "serve request"
  | Serve_entry_frame -> "serve batch entry"
  | Serve_plan_frame -> "serve plan record"
  | Serve_quarantine_frame -> "serve quarantine snapshot"
  | Serve_drain_frame -> "serve drain handoff"
  | Serve_chaos_frame -> "chaos soak state"
  | Rescue_frame -> "rescue record"
  | Tune_manifest_frame -> "tuned strategy manifest"

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
  Wire.reader ?path ~base:header_len ~version (String.sub s header_len len)

let fingerprint_of ?path s =
  let r = Wire.reader ?path s in
  let total = String.length s in
  if total < header_len + 4 then
    Wire.fail r
      ~expected:(Printf.sprintf "at least %d bytes" (header_len + 4))
      ~got:(Printf.sprintf "%d bytes" total)
      "file too short for a frame";
  if not (String.equal (String.sub s 0 4) magic) then
    Wire.fail r ~expected:(Printf.sprintf "%S" magic)
      ~got:(Printf.sprintf "%S" (String.sub s 0 4)) "bad magic";
  let stored_crc = String.get_int32_le s (total - 4) in
  let actual_crc = Crc32.string ~pos:0 ~len:(total - 4) s in
  if not (Int32.equal stored_crc actual_crc) then
    Wire.fail r
      ~expected:(Printf.sprintf "crc 0x%08lx" actual_crc)
      ~got:(Printf.sprintf "crc 0x%08lx" stored_crc)
      "checksum mismatch (bit rot or truncation)";
  String.get_int64_le s 6

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

(* --- reference-backend ciphertexts -------------------------------------- *)

let encode_ref_ct b (ct : Ref_backend.ct) =
  Wire.i64 b ct.ct_level;
  Wire.f64 b ct.scale_bits;
  Wire.float_array b ct.data;
  Wire.f64 b ct.noise_est

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

(* --- lattice ciphertexts ------------------------------------------------ *)

let encode_lattice_ct b (ct : Eval.ct) =
  encode_rns b ct.c0;
  encode_rns b ct.c1;
  Wire.f64 b (Eval.scale ct);
  Wire.f64 b (Eval.noise_est ct)

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

(* --- compiled programs -------------------------------------------------- *)

let encode_program b p = Wire.str b (Halo.Ir_bin.encode p)

let decode_program r =
  let bytes = Wire.rstr r in
  try Halo.Ir_bin.decode bytes
  with Halo.Ir_bin.Decode_error { offset; reason } ->
    Wire.fail r
      ~got:(Printf.sprintf "decode error at program byte %d" offset)
      "malformed program: %s" reason

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
  Wire.i64 b m.backend.slots;
  Wire.i64 b m.backend.max_level;
  Wire.i64 b m.backend.scale_bits;
  Wire.i64 b m.backend.seed;
  Wire.f64 b m.backend.enc_noise;
  Wire.f64 b m.backend.mult_noise;
  Wire.f64 b m.backend.boot_noise;
  Wire.f64 b m.backend.rescale_noise;
  Wire.i64 b m.every_n;
  Wire.i64 b m.retain;
  Wire.i64 b m.guard_every;
  Wire.f64 b m.guard_margin;
  Wire.u8 b (if m.rescue then 1 else 0);
  Wire.f64 b m.rescue_margin;
  Wire.i64 b m.max_rescues

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
  let slots = Wire.ri64 r in
  let max_level = Wire.ri64 r in
  let scale_bits = Wire.ri64 r in
  let seed = Wire.ri64 r in
  let enc_noise = Wire.rf64 r in
  let mult_noise = Wire.rf64 r in
  let boot_noise = Wire.rf64 r in
  let rescale_noise = Wire.rf64 r in
  let every_n = Wire.ri64 r in
  let retain = Wire.ri64 r in
  let guard_every = Wire.ri64 r in
  (* Guard-margin and rescue knobs arrived with format version 5; older
     manifests resume with the historical defaults (margin 10, no rescue). *)
  let guard_margin, rescue, rescue_margin, max_rescues =
    if r.Wire.version > 4 then begin
      let gm = Wire.rf64 r in
      let rescue =
        match Wire.ru8 r with
        | 0 -> false
        | 1 -> true
        | t -> Wire.fail r ~got:(string_of_int t) "bad rescue flag"
      in
      let rm = Wire.rf64 r in
      let mr = Wire.ri64 r in
      if not (Float.is_finite gm) || gm <= 0.0 then
        Wire.fail r ~expected:"positive finite guard margin"
          ~got:(Printf.sprintf "%h" gm) "bad guard margin";
      if not (Float.is_finite rm) || rm < 1.0 then
        Wire.fail r ~expected:"finite rescue margin >= 1"
          ~got:(Printf.sprintf "%h" rm) "bad rescue margin";
      if mr < 0 then
        Wire.fail r ~got:(string_of_int mr) "negative rescue budget";
      (gm, rescue, rm, mr)
    end
    else
      ( Halo_runtime.Guard.default_margin,
        false,
        Halo_runtime.Noise_monitor.default_rescue_margin,
        Halo_runtime.Noise_monitor.default_max_rescues )
  in
  if every_n < 1 then
    Wire.fail r ~got:(string_of_int every_n) "cadence below 1";
  if retain < 1 then Wire.fail r ~got:(string_of_int retain) "retention below 1";
  if guard_every < 0 then
    Wire.fail r ~got:(string_of_int guard_every) "negative guard cadence";
  {
    prog;
    strategy;
    bindings;
    inputs;
    backend =
      { slots; max_level; scale_bits; seed; enc_noise; mult_noise; boot_noise; rescale_noise };
    every_n;
    retain;
    guard_every;
    guard_margin;
    rescue;
    rescue_margin;
    max_rescues;
  }

let manifest_fingerprint m =
  let b = Buffer.create 1024 in
  encode_manifest b m;
  Int64.logor
    (Int64.logand (Int64.of_int32 (Crc32.string (Buffer.contents b))) 0xFFFFFFFFL)
    (Int64.shift_left (Int64.of_int (Buffer.length b land 0xFFFFFF)) 32)

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

let encode_entry ~enc_ct b e =
  Wire.i64 b e.seq;
  Wire.i64 b e.loop_var;
  Wire.i64 b e.iter;
  Wire.list b
    (fun b -> function
      | Plain v ->
        Wire.u8 b 0;
        Wire.float_array b v
      | Cipher ct ->
        Wire.u8 b 1;
        enc_ct b ct)
    e.carried;
  encode_rng b e.rng;
  encode_stats b e.stats

let decode_entry ~dec_ct r =
  let seq = Wire.ri64 r in
  let loop_var = Wire.ri64 r in
  let iter = Wire.ri64 r in
  if seq < 0 then Wire.fail r ~got:(string_of_int seq) "negative sequence";
  if iter < 0 then Wire.fail r ~got:(string_of_int iter) "negative iteration";
  let carried =
    Wire.rlist r (fun r ->
        match Wire.ru8 r with
        | 0 -> Plain (Wire.rfloat_array r)
        | 1 -> Cipher (dec_ct r)
        | t -> Wire.fail r ~got:(string_of_int t) "bad carried-value tag")
  in
  let rng = decode_rng r in
  let stats = decode_stats r in
  { seq; loop_var; iter; carried; rng; stats }

(* --- rescue records ------------------------------------------------------ *)

let encode_rescue b (e : Halo_runtime.Noise_monitor.rescue_event) =
  Wire.i64 b e.r_seq;
  Wire.i64 b e.r_target;
  Wire.f64 b e.r_before;
  Wire.f64 b e.r_after

let decode_rescue r : Halo_runtime.Noise_monitor.rescue_event =
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
  { r_seq; r_target; r_before; r_after }

open Halo
module Codec = Halo_persist.Codec
module Wire = Halo_persist.Wire
module Crc32 = Halo_persist.Crc32

type t = {
  p_prog : string;
  p_fingerprint : int64;
  p_strategy : Strategy.t;
  p_knobs : Strategy.knobs;
  p_key_budget : int;
  p_pool : int;
  p_profile : string;
  p_predicted_us : float;
  p_breakdown : (string * float) list;
}

(* The stamp binds a manifest to one (source program, bindings) pair: the
   canonical program encoding plus the sorted bindings, hashed twice with
   domain separation so the two 32-bit halves are independent. *)
let fingerprint ~bindings (p : Ir.program) =
  let buf = Buffer.create 1024 in
  Codec.program.encode buf p;
  Wire.list buf
    (fun b (k, v) ->
      Wire.str b k;
      Wire.i64 b v)
    (List.sort compare bindings);
  let s = Buffer.contents buf in
  let lo = Crc32.string s in
  let hi = Crc32.string (s ^ "\x00halo-tune") in
  Int64.logor
    (Int64.shift_left (Int64.of_int32 hi) 32)
    (Int64.logand (Int64.of_int32 lo) 0xFFFFFFFFL)

let encode buf t =
  Wire.str buf t.p_prog;
  Wire.str buf (Strategy.to_string t.p_strategy);
  Wire.i64 buf t.p_knobs.unroll;
  Wire.i64 buf t.p_knobs.boot_slack;
  Wire.bool buf t.p_knobs.rotate_fuse;
  Wire.bool buf t.p_knobs.lazy_switch;
  Wire.i64 buf t.p_key_budget;
  Wire.i64 buf t.p_pool;
  Wire.str buf t.p_profile;
  Wire.f64 buf t.p_predicted_us;
  Wire.list buf
    (fun b (k, v) ->
      Wire.str b k;
      Wire.f64 b v)
    t.p_breakdown

let decode r =
  let p_prog = Wire.rstr r in
  let sname = Wire.rstr r in
  let p_strategy =
    match Strategy.of_string sname with
    | Some s -> s
    | None -> Wire.fail r ~expected:"strategy name" ~got:sname "tune manifest"
  in
  let unroll = Wire.ri64 r in
  let boot_slack = Wire.ri64 r in
  let rotate_fuse = Wire.rbool r ~what:"rotate-fuse" in
  let lazy_switch = Wire.rbool r ~what:"lazy-switch" in
  let p_key_budget = Wire.ri64 r in
  let p_pool = Wire.ri64 r in
  let p_profile = Wire.rstr r in
  let p_predicted_us = Wire.rf64 r in
  let p_breakdown =
    Wire.rlist r (fun r ->
        let k = Wire.rstr r in
        let v = Wire.rf64 r in
        (k, v))
  in
  {
    p_prog;
    p_fingerprint = r.Wire.stamp;
    p_strategy;
    p_knobs = { Strategy.unroll; boot_slack; rotate_fuse; lazy_switch };
    p_key_budget;
    p_pool;
    p_profile;
    p_predicted_us;
    p_breakdown;
  }

let artifact =
  {
    Codec.kind = Codec.Tune_manifest_frame;
    stamp = Of_value (fun t -> t.p_fingerprint);
    encode;
    decode;
  }

(* Each knob as (display name, value), in manifest order. *)
let knob_fields (k : Strategy.knobs) =
  [
    ("unroll", string_of_int k.unroll);
    ("slack", string_of_int k.boot_slack);
    ("fuse", string_of_bool k.rotate_fuse);
    ("lazy", string_of_bool k.lazy_switch);
  ]

let show_knobs fields =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fields)

let to_string t =
  Printf.sprintf "%s: strategy=%s %s budget=%d pool=%d profile=%s \
                  predicted=%.0fus"
    t.p_prog
    (Strategy.to_string t.p_strategy)
    (show_knobs (knob_fields t.p_knobs))
    t.p_key_budget t.p_pool t.p_profile t.p_predicted_us

(* A serve manifest persists each program's strategy and one global
   [rotate_fuse], so a plan applies only when its knobs are the ones every
   registered program compiles under. *)
let retarget ~knobs t (programs : Halo_serve.Serve_codec.prog_def list) =
  let carried = knob_fields knobs in
  match
    List.filter
      (fun kv -> not (List.mem kv carried))
      (knob_fields t.p_knobs)
  with
  | _ :: _ as lost ->
    Error
      (Printf.sprintf
         "serve cannot carry tuned plan %S: %s (serving compiles with %s)"
         t.p_prog (show_knobs lost) (show_knobs carried))
  | [] ->
    let retargeted =
      List.filter_map
        (fun (pd : Halo_serve.Serve_codec.prog_def) ->
          if Int64.equal (fingerprint ~bindings:[] pd.pd_traced) t.p_fingerprint
          then Some pd.pd_name
          else None)
        programs
    in
    Ok
      ( List.map
          (fun (pd : Halo_serve.Serve_codec.prog_def) ->
            if List.mem pd.pd_name retargeted then
              { pd with pd_strategy = t.p_strategy }
            else pd)
          programs,
        retargeted )

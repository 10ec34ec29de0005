module Codec = Halo_persist.Codec
module Wire = Halo_persist.Wire
module Stats = Halo_runtime.Stats
module Resilient = Halo_runtime.Resilient

type prog_def = {
  pd_name : string;
  pd_strategy : Halo.Strategy.t;
  pd_traced : Halo.Ir.program;
}

type fault_cfg = {
  f_seed : int;
  f_transient : float;
  f_bootstrap : float;
  f_spike : float;
  f_magnitude : float;
  f_poison : int list;
}

type sup_cfg = {
  s_deadline_us : int;
  s_ttl_us : int;
  s_fallback : bool;
  s_tenant_window : int;
  s_tenant_threshold : int;
  s_program_window : int;
  s_program_threshold : int;
  s_cooldown_us : int;
  s_quarantine_after : int;
  s_guard : bool;
  s_rescue : bool;
  s_rescue_margin : float;
  s_max_rescues : int;
}

let default_sup =
  {
    s_deadline_us = 0;
    s_ttl_us = 0;
    s_fallback = false;
    s_tenant_window = 8;
    s_tenant_threshold = 0;
    s_program_window = 8;
    s_program_threshold = 0;
    s_cooldown_us = 50_000;
    s_quarantine_after = 0;
    s_guard = false;
    s_rescue = false;
    s_rescue_margin = Halo_runtime.Noise_monitor.default_rescue_margin;
    s_max_rescues = Halo_runtime.Noise_monitor.default_max_rescues;
  }

type config = {
  backend : Codec.backend_cfg;
  queue_depth : int;
  batch_window : int;
  lane : int;
  margin : float;
  rotate_fuse : bool;
  policy : Resilient.policy;
  faults : fault_cfg option;
  sup : sup_cfg;
}

type manifest = { config : config; progs : prog_def list }

type request = {
  req_id : int;
  tenant_id : int;
  tenant_key : int;
  pname : string;
  tol : float;
  admit_us : int;
  payload : (string * float array) list;
}

type batch_status =
  | Ok of float array list list
  | Degraded of {
      d_op : string;
      d_reason : string;
      d_attempts : int;
      d_iteration : int option;
    }
  | Deadline of { dl_op : string; dl_now_us : int; dl_deadline_us : int }
  | Breach of {
      br_output : int;
      br_slot : int;
      br_observed : float;
      br_bound : float;
    }

type entry = {
  e_key : int;
  e_seq : int;
  e_reqs : int list;
  e_status : batch_status;
  e_stats : Stats.t;
}

type plan = {
  pl_seq : int;
  pl_clock_us : int;
  pl_watermark : int;
  pl_expired : int list;
}

type quarantine = { qr_tenants : (int * int) list }

type drain = {
  dr_accepted : int;
  dr_served : int;
  dr_failed : int;
  dr_clock_us : int;
  dr_seq : int;
  dr_quarantined : int list;
}

(* --- payload codecs ----------------------------------------------------- *)

let encode_policy b (p : Resilient.policy) =
  Wire.i64 b p.max_attempts;
  Wire.i64 b p.max_restores;
  Wire.f64 b p.base_backoff_us;
  Wire.f64 b p.backoff_factor;
  Wire.f64 b p.max_backoff_us

let decode_policy r : Resilient.policy =
  let max_attempts = Wire.ri64 r in
  let max_restores = Wire.ri64 r in
  let base_backoff_us = Wire.rf64 r in
  let backoff_factor = Wire.rf64 r in
  let max_backoff_us = Wire.rf64 r in
  { max_attempts; max_restores; base_backoff_us; backoff_factor;
    max_backoff_us }

let encode_sup b (s : sup_cfg) =
  Wire.i64 b s.s_deadline_us;
  Wire.i64 b s.s_ttl_us;
  Wire.bool b s.s_fallback;
  Wire.i64 b s.s_tenant_window;
  Wire.i64 b s.s_tenant_threshold;
  Wire.i64 b s.s_program_window;
  Wire.i64 b s.s_program_threshold;
  Wire.i64 b s.s_cooldown_us;
  Wire.i64 b s.s_quarantine_after;
  Wire.bool b s.s_guard;
  Codec.encode_rescue_tail b (s.s_rescue, s.s_rescue_margin, s.s_max_rescues)

let decode_sup r : sup_cfg =
  let s_deadline_us = Wire.ri64 r in
  let s_ttl_us = Wire.ri64 r in
  let s_fallback = Wire.rbool r ~what:"fallback" in
  let s_tenant_window = Wire.ri64 r in
  let s_tenant_threshold = Wire.ri64 r in
  let s_program_window = Wire.ri64 r in
  let s_program_threshold = Wire.ri64 r in
  let s_cooldown_us = Wire.ri64 r in
  let s_quarantine_after = Wire.ri64 r in
  let s_guard = Wire.rbool r ~what:"guard" in
  let s_rescue, s_rescue_margin, s_max_rescues = Codec.decode_rescue_tail r in
  { s_deadline_us; s_ttl_us; s_fallback; s_tenant_window; s_tenant_threshold;
    s_program_window; s_program_threshold; s_cooldown_us; s_quarantine_after;
    s_guard; s_rescue; s_rescue_margin; s_max_rescues }

let encode_config b (c : config) =
  Codec.encode_backend_cfg b c.backend;
  Wire.i64 b c.queue_depth;
  Wire.i64 b c.batch_window;
  Wire.i64 b c.lane;
  Wire.f64 b c.margin;
  Wire.bool b c.rotate_fuse;
  encode_policy b c.policy;
  encode_sup b c.sup;
  Wire.option b
    (fun b f ->
      Wire.i64 b f.f_seed;
      Wire.f64 b f.f_transient;
      Wire.f64 b f.f_bootstrap;
      Wire.f64 b f.f_spike;
      Wire.f64 b f.f_magnitude;
      Wire.list b Wire.i64 f.f_poison)
    c.faults

let decode_config r =
  let backend = Codec.decode_backend_cfg r in
  let queue_depth = Wire.ri64 r in
  let batch_window = Wire.ri64 r in
  let lane = Wire.ri64 r in
  let margin = Wire.rf64 r in
  let rotate_fuse = Wire.rbool r ~what:"rotate_fuse" in
  let policy = decode_policy r in
  let sup = decode_sup r in
  let faults =
    Wire.roption r ~what:"fault-config" (fun r ->
        let f_seed = Wire.ri64 r in
        let f_transient = Wire.rf64 r in
        let f_bootstrap = Wire.rf64 r in
        let f_spike = Wire.rf64 r in
        let f_magnitude = Wire.rf64 r in
        let f_poison = Wire.rlist r Wire.ri64 in
        { f_seed; f_transient; f_bootstrap; f_spike; f_magnitude; f_poison })
  in
  { backend; queue_depth; batch_window; lane; margin; rotate_fuse; policy;
    faults; sup }

let encode_manifest b (m : manifest) =
  encode_config b m.config;
  Wire.list b
    (fun b (pd : prog_def) ->
      Wire.str b pd.pd_name;
      Wire.str b (Halo.Strategy.to_string pd.pd_strategy);
      Codec.program.encode b pd.pd_traced)
    m.progs

let decode_manifest r =
  let config = decode_config r in
  let progs =
    Wire.rlist r (fun r ->
        let pd_name = Wire.rstr r in
        let sname = Wire.rstr r in
        let pd_strategy =
          match Halo.Strategy.of_string sname with
          | Some s -> s
          | None -> Wire.fail r ~got:sname "unknown strategy"
        in
        let pd_traced = Codec.program.decode r in
        { pd_name; pd_strategy; pd_traced })
  in
  { config; progs }

(* --- field checks --------------------------------------------------------- *)

let check_config (fail : Wire.check) (c : config) =
  let int = string_of_int in
  Codec.check_backend_cfg fail c.backend;
  if c.queue_depth < 1 then fail ~got:(int c.queue_depth) "queue depth below 1";
  if c.batch_window < 1 then
    fail ~got:(int c.batch_window) "batch window below 1";
  if c.lane < 1 || c.lane land (c.lane - 1) <> 0 then
    fail ~got:(int c.lane) "lane not a positive power of two";
  if c.lane > c.backend.Codec.slots then
    fail
      ~got:(Printf.sprintf "lane %d, slots %d" c.lane c.backend.Codec.slots)
      "lane wider than the ciphertext";
  (* The admission margin is also every batch's guard margin. *)
  Codec.check_guard_margin fail c.margin;
  if c.policy.max_attempts < 1 then
    fail ~got:(int c.policy.max_attempts) "retry budget below 1";
  Option.iter
    (fun f ->
      List.iter
        (fun t -> if t < 0 then fail ~got:(int t) "negative poisoned tenant id")
        f.f_poison)
    c.faults;
  let s = c.sup in
  if s.s_deadline_us < 0 then
    fail ~got:(int s.s_deadline_us) "negative batch deadline";
  if s.s_ttl_us < 0 then fail ~got:(int s.s_ttl_us) "negative admission TTL";
  let breaker scope ~window ~threshold =
    if window < 1 then fail ~got:(int window) (scope ^ " breaker window below 1");
    if threshold < 0 || threshold > window then
      fail
        ~expected:(Printf.sprintf "0..%d" window)
        ~got:(int threshold)
        (scope ^ " breaker threshold outside its window")
  in
  breaker "tenant" ~window:s.s_tenant_window ~threshold:s.s_tenant_threshold;
  breaker "program" ~window:s.s_program_window
    ~threshold:s.s_program_threshold;
  if s.s_cooldown_us < 1 then
    fail ~got:(int s.s_cooldown_us) "breaker cooldown below 1us";
  if s.s_quarantine_after < 0 then
    fail ~got:(int s.s_quarantine_after) "negative quarantine threshold";
  Codec.check_rescue_tail fail (s.s_rescue, s.s_rescue_margin, s.s_max_rescues)

let check_manifest (fail : Wire.check) (m : manifest) =
  check_config fail m.config;
  if m.progs = [] then fail "empty program registry";
  let names = List.map (fun pd -> pd.pd_name) m.progs in
  if List.length (List.sort_uniq compare names) <> List.length names then
    fail "duplicate program name"

let encode_request b (q : request) =
  Wire.i64 b q.req_id;
  Wire.i64 b q.tenant_id;
  Wire.i64 b q.tenant_key;
  Wire.str b q.pname;
  Wire.f64 b q.tol;
  Wire.i64 b q.admit_us;
  Wire.list b
    (fun b (name, v) ->
      Wire.str b name;
      Wire.float_array b v)
    q.payload

let decode_request r =
  let req_id = Wire.ri64 r in
  let tenant_id = Wire.ri64 r in
  let tenant_key = Wire.ri64 r in
  let pname = Wire.rstr r in
  let tol = Wire.rf64 r in
  let admit_us = Wire.ri64 r in
  let payload =
    Wire.rlist r (fun r ->
        let name = Wire.rstr r in
        let v = Wire.rfloat_array r in
        (name, v))
  in
  if req_id < 0 then Wire.fail r ~got:(string_of_int req_id) "negative request id";
  if admit_us < 0 then
    Wire.fail r ~got:(string_of_int admit_us) "negative admission stamp";
  List.iter
    (fun (name, v) ->
      if Array.length v = 0 then Wire.fail r ~got:name "empty input vector")
    payload;
  { req_id; tenant_id; tenant_key; pname; tol; admit_us; payload }

let encode_entry b (e : entry) =
  Wire.i64 b e.e_key;
  Wire.i64 b e.e_seq;
  Wire.list b Wire.i64 e.e_reqs;
  (match e.e_status with
   | Ok sealed ->
     Wire.u8 b 0;
     Wire.list b (fun b outs -> Wire.list b Wire.float_array outs) sealed
   | Degraded d ->
     Wire.u8 b 1;
     Wire.str b d.d_op;
     Wire.str b d.d_reason;
     Wire.i64 b d.d_attempts;
     Wire.option b Wire.i64 d.d_iteration
   | Deadline d ->
     Wire.u8 b 2;
     Wire.str b d.dl_op;
     Wire.i64 b d.dl_now_us;
     Wire.i64 b d.dl_deadline_us
   | Breach br ->
     Wire.u8 b 3;
     Wire.i64 b br.br_output;
     Wire.i64 b br.br_slot;
     Wire.f64 b br.br_observed;
     Wire.f64 b br.br_bound);
  Codec.encode_stats b e.e_stats

let decode_entry r =
  let e_key = Wire.ri64 r in
  let e_seq = Wire.ri64 r in
  let e_reqs = Wire.rlist r Wire.ri64 in
  let e_status =
    match Wire.ru8 r with
    | 0 ->
      let sealed = Wire.rlist r (fun r -> Wire.rlist r Wire.rfloat_array) in
      Ok sealed
    | 1 ->
      let d_op = Wire.rstr r in
      let d_reason = Wire.rstr r in
      let d_attempts = Wire.ri64 r in
      let d_iteration = Wire.roption r ~what:"iteration" Wire.ri64 in
      Degraded { d_op; d_reason; d_attempts; d_iteration }
    | 2 ->
      let dl_op = Wire.rstr r in
      let dl_now_us = Wire.ri64 r in
      let dl_deadline_us = Wire.ri64 r in
      Deadline { dl_op; dl_now_us; dl_deadline_us }
    | 3 ->
      let br_output = Wire.ri64 r in
      let br_slot = Wire.ri64 r in
      let br_observed = Wire.rf64 r in
      let br_bound = Wire.rf64 r in
      Breach { br_output; br_slot; br_observed; br_bound }
    | n -> Wire.fail r ~got:(string_of_int n) "bad batch-status tag"
  in
  let e_stats = Codec.decode_stats r in
  if e_reqs = [] then Wire.fail r "batch entry with no requests";
  if e_seq < 0 then
    Wire.fail r ~got:(string_of_int e_seq) "negative delivery sequence";
  if List.hd e_reqs <> e_key then
    Wire.fail r
      ~expected:(string_of_int e_key)
      ~got:(string_of_int (List.hd e_reqs))
      "batch key is not the first member's request id";
  (match e_status with
   | Ok sealed when List.length sealed <> List.length e_reqs ->
     Wire.fail r
       ~expected:(Printf.sprintf "%d result groups" (List.length e_reqs))
       ~got:(string_of_int (List.length sealed))
       "sealed outputs do not cover the batch members"
   | _ -> ());
  { e_key; e_seq; e_reqs; e_status; e_stats }

let encode_plan b (p : plan) =
  Wire.i64 b p.pl_seq;
  Wire.i64 b p.pl_clock_us;
  Wire.i64 b p.pl_watermark;
  Wire.list b Wire.i64 p.pl_expired

let decode_plan r =
  let pl_seq = Wire.ri64 r in
  let pl_clock_us = Wire.ri64 r in
  let pl_watermark = Wire.ri64 r in
  let pl_expired = Wire.rlist r Wire.ri64 in
  if pl_seq < 0 then
    Wire.fail r ~got:(string_of_int pl_seq) "negative plan sequence";
  if pl_clock_us < 0 then
    Wire.fail r ~got:(string_of_int pl_clock_us) "negative plan clock";
  List.iter
    (fun id ->
      if id < 0 || id > pl_watermark then
        Wire.fail r
          ~expected:(Printf.sprintf "0..%d" pl_watermark)
          ~got:(string_of_int id)
          "expired request id above the evaluation watermark")
    pl_expired;
  { pl_seq; pl_clock_us; pl_watermark; pl_expired }

let encode_quarantine b (q : quarantine) =
  Wire.list b
    (fun b (tenant, culprit) ->
      Wire.i64 b tenant;
      Wire.i64 b culprit)
    q.qr_tenants

let decode_quarantine r =
  let qr_tenants =
    Wire.rlist r (fun r ->
        let tenant = Wire.ri64 r in
        let culprit = Wire.ri64 r in
        if tenant < 0 then
          Wire.fail r ~got:(string_of_int tenant) "negative quarantined tenant";
        if culprit < 0 then
          Wire.fail r ~got:(string_of_int culprit) "negative culprit request id";
        (tenant, culprit))
  in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      if fst a >= fst b then
        Wire.fail r
          ~got:(Printf.sprintf "%d then %d" (fst a) (fst b))
          "quarantine tenants not strictly increasing"
      else sorted rest
    | _ -> ()
  in
  sorted qr_tenants;
  { qr_tenants }

let encode_drain b (d : drain) =
  Wire.i64 b d.dr_accepted;
  Wire.i64 b d.dr_served;
  Wire.i64 b d.dr_failed;
  Wire.i64 b d.dr_clock_us;
  Wire.i64 b d.dr_seq;
  Wire.list b Wire.i64 d.dr_quarantined

let decode_drain r =
  let dr_accepted = Wire.ri64 r in
  let dr_served = Wire.ri64 r in
  let dr_failed = Wire.ri64 r in
  let dr_clock_us = Wire.ri64 r in
  let dr_seq = Wire.ri64 r in
  let dr_quarantined = Wire.rlist r Wire.ri64 in
  if dr_accepted < 0 then
    Wire.fail r ~got:(string_of_int dr_accepted) "negative accepted count";
  if dr_served < 0 || dr_failed < 0 then
    Wire.fail r
      ~got:(Printf.sprintf "served %d, failed %d" dr_served dr_failed)
      "negative completion count";
  if dr_served + dr_failed <> dr_accepted then
    Wire.fail r
      ~expected:(Printf.sprintf "served + failed = %d" dr_accepted)
      ~got:(Printf.sprintf "%d + %d" dr_served dr_failed)
      "drain handoff does not account for every accepted request";
  if dr_clock_us < 0 then
    Wire.fail r ~got:(string_of_int dr_clock_us) "negative drain clock";
  if dr_seq < 0 then
    Wire.fail r ~got:(string_of_int dr_seq) "negative drain sequence";
  { dr_accepted; dr_served; dr_failed; dr_clock_us; dr_seq; dr_quarantined }

(* --- artifacts ------------------------------------------------------------ *)

let manifest_fingerprint = Codec.payload_fingerprint encode_manifest

let manifest =
  {
    Codec.kind = Codec.Serve_manifest_frame;
    stamp = Of_value manifest_fingerprint;
    encode = encode_manifest;
    decode = Wire.checked decode_manifest check_manifest;
  }

let given kind encode decode = { Codec.kind; stamp = Given; encode; decode }
let request = given Codec.Serve_request_frame encode_request decode_request
let entry = given Codec.Serve_entry_frame encode_entry decode_entry
let plan = given Codec.Serve_plan_frame encode_plan decode_plan

let quarantine =
  given Codec.Serve_quarantine_frame encode_quarantine decode_quarantine

let drain = given Codec.Serve_drain_frame encode_drain decode_drain

let chaos =
  given Codec.Serve_chaos_frame Wire.i64 (fun r ->
      let rounds = Wire.ri64 r in
      if rounds < 0 then
        Wire.fail r ~got:(string_of_int rounds) "negative chaos round count";
      rounds)

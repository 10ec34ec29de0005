module Codec = Serve_codec
module Clock = Halo_runtime.Clock
module Stats = Halo_runtime.Stats

type scope = Tenant_scope of int | Program_scope of string

let scope_to_string = function
  | Tenant_scope id -> Printf.sprintf "tenant %d" id
  | Program_scope p -> Printf.sprintf "program %S" p

type breaker_state = Closed | Open of { until_us : int }

type breaker = {
  b_window : int;
  b_threshold : int;
  mutable b_state : breaker_state;
  mutable b_recent : bool list;  (* newest-first; [true] = failure *)
  mutable b_probing : bool;  (* process-local: a probe is in flight *)
}

type t = {
  sup : Codec.sup_cfg;
  clock : Clock.t;
  tenants : (int, breaker) Hashtbl.t;
  programs : (string, breaker) Hashtbl.t;
  solo_failures : (int, int) Hashtbl.t;
  quarantine : (int, int) Hashtbl.t;  (* tenant -> culprit request id *)
  latencies : (int, int) Hashtbl.t;  (* request -> virtual completion latency *)
  mutable opens : int;
  mutable closes : int;
  mutable reopens : int;
  mutable expired : int;
  mutable fallbacks : int;
}

let create sup =
  {
    sup;
    clock = Clock.create ();
    tenants = Hashtbl.create 8;
    programs = Hashtbl.create 8;
    solo_failures = Hashtbl.create 8;
    quarantine = Hashtbl.create 4;
    latencies = Hashtbl.create 64;
    opens = 0;
    closes = 0;
    reopens = 0;
    expired = 0;
    fallbacks = 0;
  }

let now_us t = Clock.now_us t.clock
let charge t (st : Stats.t) =
  Clock.advance t.clock ~us:(st.Stats.total_latency_us +. st.Stats.backoff_us)

let tick t ~us = Clock.tick t.clock ~us

(* --- circuit breakers --------------------------------------------------- *)

let tenant_breaker t id =
  match Hashtbl.find_opt t.tenants id with
  | Some b -> b
  | None ->
    let b =
      {
        b_window = t.sup.Codec.s_tenant_window;
        b_threshold = t.sup.Codec.s_tenant_threshold;
        b_state = Closed;
        b_recent = [];
        b_probing = false;
      }
    in
    Hashtbl.replace t.tenants id b;
    b

let program_breaker t name =
  match Hashtbl.find_opt t.programs name with
  | Some b -> b
  | None ->
    let b =
      {
        b_window = t.sup.Codec.s_program_window;
        b_threshold = t.sup.Codec.s_program_threshold;
        b_state = Closed;
        b_recent = [];
        b_probing = false;
      }
    in
    Hashtbl.replace t.programs name b;
    b

let failures b =
  List.fold_left (fun n f -> if f then n + 1 else n) 0 b.b_recent

let push b failed =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  b.b_recent <- take b.b_window (failed :: b.b_recent)

(* Outcome-driven transitions only: admission never touches [b_state], so a
   resumed server folding journaled outcomes in delivery order reconstructs
   exactly the breaker state the live server had. *)
let observe_breaker t b ~success =
  if b.b_threshold > 0 then begin
    let now = Clock.now_us t.clock in
    b.b_probing <- false;
    match b.b_state with
    | Closed ->
      push b (not success);
      if failures b >= b.b_threshold then begin
        b.b_state <- Open { until_us = now + t.sup.Codec.s_cooldown_us };
        b.b_recent <- [];
        t.opens <- t.opens + 1
      end
    | Open { until_us } when now < until_us ->
      (* An in-flight batch from before the trip; its verdict is stale. *)
      ()
    | Open _ ->
      if success then begin
        b.b_state <- Closed;
        b.b_recent <- [];
        t.closes <- t.closes + 1
      end
      else begin
        b.b_state <- Open { until_us = now + t.sup.Codec.s_cooldown_us };
        t.reopens <- t.reopens + 1
      end
  end

let observe t ~tenant ~pname ~success =
  observe_breaker t (tenant_breaker t tenant) ~success;
  observe_breaker t (program_breaker t pname) ~success

type verdict =
  | Admit
  | Quarantined of { tenant : int; culprit : int }
  | Breaker_open of { scope : scope; until_us : int; now_us : int }

(* [`Pass needs_probe] or [`Block until]: pure inspection, no mutation, so a
   tenant probe slot is never consumed when the program breaker then blocks
   the same request. *)
let gate t b =
  if b.b_threshold = 0 then `Pass false
  else
    match b.b_state with
    | Closed -> `Pass false
    | Open { until_us } when Clock.now_us t.clock < until_us -> `Block until_us
    | Open { until_us } -> if b.b_probing then `Block until_us else `Pass true

let admit t ~tenant ~pname =
  match Hashtbl.find_opt t.quarantine tenant with
  | Some culprit -> Quarantined { tenant; culprit }
  | None -> (
    let now = Clock.now_us t.clock in
    let tb = tenant_breaker t tenant in
    let pb = program_breaker t pname in
    match gate t tb with
    | `Block until_us ->
      Breaker_open { scope = Tenant_scope tenant; until_us; now_us = now }
    | `Pass t_probe -> (
      match gate t pb with
      | `Block until_us ->
        Breaker_open { scope = Program_scope pname; until_us; now_us = now }
      | `Pass p_probe ->
        if t_probe then tb.b_probing <- true;
        if p_probe then pb.b_probing <- true;
        Admit))

(* --- quarantine --------------------------------------------------------- *)

let record_solo_failure t ~tenant ~req =
  if t.sup.Codec.s_quarantine_after > 0 && not (Hashtbl.mem t.quarantine tenant)
  then begin
    let n =
      (match Hashtbl.find_opt t.solo_failures tenant with
       | Some n -> n
       | None -> 0)
      + 1
    in
    Hashtbl.replace t.solo_failures tenant n;
    if n >= t.sup.Codec.s_quarantine_after then begin
      Hashtbl.replace t.quarantine tenant req;
      true
    end
    else false
  end
  else false

let quarantined t =
  Hashtbl.fold (fun tenant culprit acc -> (tenant, culprit) :: acc)
    t.quarantine []
  |> List.sort compare

(* --- bookkeeping -------------------------------------------------------- *)

let record_expired t = t.expired <- t.expired + 1
let record_fallbacks t ~count = t.fallbacks <- t.fallbacks + count

let record_latency t ~req ~admit_us =
  Hashtbl.replace t.latencies req (max 0 (Clock.now_us t.clock - admit_us))

let latencies t =
  Hashtbl.fold (fun req l acc -> (req, l) :: acc) t.latencies []
  |> List.sort compare

let max_latency_us t =
  Hashtbl.fold (fun _ l acc -> max l acc) t.latencies 0

let opens t = t.opens
let closes t = t.closes
let reopens t = t.reopens
let expired t = t.expired
let fallbacks t = t.fallbacks

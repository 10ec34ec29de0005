open Halo
module Codec = Serve_codec
module Stats = Halo_runtime.Stats
module Guard = Halo_runtime.Guard
module Clock = Halo_runtime.Clock
module Faults = Halo_runtime.Faults
module Domain_pool = Halo_ckks.Domain_pool
module Store = Halo_persist.Store
module Ref_run = Halo_persist.Ref_run

type reject =
  | Queue_full of { depth : int }
  | Unknown_program of string
  | Missing_input of string
  | Over_slots of { input : string; len : int; slots : int }
  | Noise_budget of { bound : float; scaled : float; tol : float }
  | Unbounded_noise
  | Quarantined of { tenant : int; culprit : int }
  | Breaker_open of {
      scope : Supervisor.scope;
      until_us : int;
      now_us : int;
    }
  | Draining

let reject_to_string = function
  | Queue_full { depth } -> Printf.sprintf "queue full (depth %d)" depth
  | Unknown_program p -> Printf.sprintf "unknown program %S" p
  | Missing_input i -> Printf.sprintf "missing input %S" i
  | Over_slots { input; len; slots } ->
    Printf.sprintf "input %S has %d elements but the ciphertext has %d slots"
      input len slots
  | Noise_budget { bound; scaled; tol } ->
    Printf.sprintf
      "noise budget refused: bound %.3g (scaled %.3g) exceeds tolerance %.3g"
      bound scaled tol
  | Unbounded_noise -> "noise budget refused: no finite bound"
  | Quarantined { tenant; culprit } ->
    Printf.sprintf "tenant %d quarantined (culprit request %d)" tenant culprit
  | Breaker_open { scope; until_us; now_us } ->
    Printf.sprintf "circuit breaker open for %s: %dus of cooldown left"
      (Supervisor.scope_to_string scope)
      (max 0 (until_us - now_us))
  | Draining -> "server draining: admission closed"

type failure = {
  f_req : int;
  f_op : string;
  f_reason : string;
  f_attempts : int;
  f_iteration : int option;
}

type outcome =
  | Served of { batch_key : int; lanes : int; sealed : Tenant.sealed list }
  | Failed of failure

type counters = {
  accepted : int;
  rejected_queue : int;
  rejected_admission : int;
  rejected_supervised : int;
  served : int;
  failed : int;
  batches : int;
  batched_requests : int;
  solo_requests : int;
  expired : int;
  fallback_requests : int;
  breaker_opens : int;
  breaker_closes : int;
  breaker_reopens : int;
  quarantined_tenants : int;
}

exception Killed of { writes : int }

type compiled = {
  def : Codec.prog_def;
  solo : Ir.program;  (* compiled one-request form *)
  outputs : int;  (* program output count *)
  can_batch : bool;  (* compiled form is slotwise *)
  bound : Noise_budget.report;  (* admission bound, on the solo form *)
  wrappers : (int, Ir.program) Hashtbl.t;  (* lanes -> compiled wrapper *)
  safer : (Strategy.t * Ir.program) option;
      (* the solo form recompiled one rung down the replan ladder
         ([Strategy.safer]); [None] when already at the most conservative
         strategy *)
}

(* Execution phases.  A request id can key a failed primary batch, its solo
   fallback re-execution and a conservative replan, and the three journal
   entries must not shadow each other — batch tables are keyed
   [(key, phase)] and each phase journals under its own file prefix: this
   table, in the order a resume loads them. *)
type phase = Primary | Fallback | Replan

let phases = [ (Primary, "batch-"); (Fallback, "solo-"); (Replan, "replan-") ]

type t = {
  cfg : Codec.config;
  dir : string option;
  fingerprint : int64;
  progs : (string * compiled) list;
  sup : Supervisor.t;
  lock : Mutex.t;  (* serializes admission; submit is domain-safe *)
  requests : (int, Codec.request) Hashtbl.t;  (* every accepted request *)
  results : (int, outcome) Hashtbl.t;
  batch_stats : (int * phase, Stats.t) Hashtbl.t;
  batch_members : (int * phase, int list) Hashtbl.t;
  expired : (int, unit) Hashtbl.t;  (* requests failed by admission TTL *)
  mutable next_id : int;
  mutable pending_rev : Codec.request list;
  mutable pending_n : int;
  mutable fallback_rev : Codec.request list;  (* awaiting solo re-execution *)
  mutable replan_rev : Codec.request list;
      (* solo breaches awaiting re-execution under the safer strategy *)
  mutable accepted : int;
  mutable rejected_queue : int;
  mutable rejected_admission : int;
  mutable rejected_supervised : int;
  mutable seq : int;  (* delivery sequences handed out (journal order) *)
  mutable plan_seq : int;  (* TTL planning records written *)
  mutable ttl_watermark : int;  (* highest request id TTL-evaluated *)
  mutable draining : bool;
  mutable handoff : Codec.drain option;  (* drain manifest found or written *)
  mutable writes : int;  (* journal appends by this process *)
  mutable damaged : (string * string) list;
}

(* One batch of work: members in lane order, the compiled program to run
   (wrapper for >= 2 lanes, solo form otherwise), the strategy it was
   compiled under and the lane layout. *)
type batch = {
  b_key : int;
  b_members : Codec.request list;
  b_layout : Slot_batch.layout option;
  b_prog : Ir.program;
  b_strategy : Strategy.t;
  b_outputs : int;
}

let manifest_path dir = Filename.concat dir "manifest.halo"
let requests_dir dir = Filename.concat dir "requests"
let journal_dir dir = Filename.concat dir "journal"
let quarantine_path dir = Filename.concat dir "quarantine.halo"
let drain_path dir = Filename.concat dir "drain.halo"
let request_path dir id =
  Filename.concat (requests_dir dir) (Printf.sprintf "req-%010d.halo" id)
let entry_path dir ~phase key =
  Filename.concat (journal_dir dir)
    (Printf.sprintf "%s%010d.ckpt" (List.assoc phase phases) key)
let plan_path dir seq =
  Filename.concat (journal_dir dir) (Printf.sprintf "plan-%010d.ckpt" seq)

(* Every record after the manifest carries the manifest's fingerprint. *)
let save_record t a ~path v =
  ignore (Store.save ~fingerprint:t.fingerprint a ~path v)

let load_record t a ~path = Store.load ~fingerprint:t.fingerprint a ~path

(* Nonce for output [j] of request [id]: unique per sealed artifact as long
   as a program has fewer than 1024 outputs. *)
let nonce ~req ~output = (req * 1024) + output

let request_size (q : Codec.request) =
  List.fold_left (fun acc (_, v) -> max acc (Array.length v)) 1 q.payload

let static_counts (p : Ir.program) =
  let ok = ref true in
  Ir.iter_blocks
    (fun b ->
      List.iter
        (fun (i : Ir.instr) ->
          match i.op with
          | Ir.For { count = Ir.Dyn _; _ } -> ok := false
          | _ -> ())
        b.instrs)
    p.body;
  !ok

let knobs (cfg : Codec.config) =
  { Strategy.default_knobs with rotate_fuse = cfg.rotate_fuse }

let compile_def (cfg : Codec.config) (def : Codec.prog_def) =
  if def.pd_traced.slots <> cfg.backend.slots then
    invalid_arg
      (Printf.sprintf "Server.create: program %S has %d slots, backend %d"
         def.pd_name def.pd_traced.slots cfg.backend.slots);
  if not (static_counts def.pd_traced) then
    invalid_arg
      (Printf.sprintf
         "Server.create: program %S has a dynamic iteration count"
         def.pd_name);
  let knobs = knobs cfg in
  let solo = Strategy.compile ~knobs ~strategy:def.pd_strategy def.pd_traced in
  let safer =
    if not cfg.sup.s_rescue then None
    else
      Option.map
        (fun s -> (s, Strategy.compile ~knobs ~strategy:s def.pd_traced))
        (Strategy.safer def.pd_strategy)
  in
  {
    def;
    solo;
    outputs = List.length solo.body.yields;
    can_batch = Slot_batch.slotwise solo;
    bound = Noise_budget.analyze solo;
    wrappers = Hashtbl.create 4;
    safer;
  }

let build ?dir (cfg : Codec.config) progs =
  let manifest = { Codec.config = cfg; progs } in
  Codec.check_manifest (Halo_persist.Wire.check_arg "Server.create") manifest;
  {
    cfg;
    dir;
    fingerprint = Codec.manifest_fingerprint manifest;
    progs = List.map (fun d -> (d.Codec.pd_name, compile_def cfg d)) progs;
    sup = Supervisor.create cfg.sup;
    lock = Mutex.create ();
    requests = Hashtbl.create 64;
    results = Hashtbl.create 64;
    batch_stats = Hashtbl.create 16;
    batch_members = Hashtbl.create 16;
    expired = Hashtbl.create 4;
    next_id = 0;
    pending_rev = [];
    pending_n = 0;
    fallback_rev = [];
    replan_rev = [];
    accepted = 0;
    rejected_queue = 0;
    rejected_admission = 0;
    rejected_supervised = 0;
    seq = 0;
    plan_seq = 0;
    ttl_watermark = -1;
    draining = false;
    handoff = None;
    writes = 0;
    damaged = [];
  }

let mkdir_p path =
  let rec go p =
    if p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      (try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    end
  in
  go path

let create ?dir cfg ~programs =
  let t = build ?dir cfg programs in
  (match dir with
   | None -> ()
   | Some d ->
     (* The fingerprint does not cover the traffic: only [open_resume] may
        adopt a previous job's requests and journal. *)
     let used p = Sys.file_exists p && Sys.readdir p <> [||] in
     if
       Sys.file_exists (manifest_path d)
       || used (requests_dir d)
       || used (journal_dir d)
     then
       Halo_error.persist_error ~path:d
         "serve directory already holds a job; resume it (serve --resume) \
          or use an unused directory";
     mkdir_p (requests_dir d);
     mkdir_p (journal_dir d);
     ignore
       (Store.save Codec.manifest ~path:(manifest_path d)
          { Codec.config = cfg; progs = programs });
     Store.fsync_dir d);
  t

let config t = t.cfg
let damaged t = t.damaged
let handoff t = t.handoff
let clock_us t = Supervisor.now_us t.sup
let tick t ~us = Supervisor.tick t.sup ~us
let quarantine t = Supervisor.quarantined t.sup
let latencies t = Supervisor.latencies t.sup
let max_latency_us t = Supervisor.max_latency_us t.sup

let find_prog t name =
  match List.assoc_opt name t.progs with
  | Some cp -> cp
  | None -> raise Not_found

let solo_program t name = (find_prog t name).solo
let noise_report t name = (find_prog t name).bound
let batchable t name = (find_prog t name).can_batch
let pending t = t.pending_n

let persist_quarantine t =
  match t.dir with
  | None -> ()
  | Some d ->
    save_record t Codec.quarantine ~path:(quarantine_path d)
      { Codec.qr_tenants = Supervisor.quarantined t.sup }

let accept t (q : Codec.request) =
  Hashtbl.replace t.requests q.req_id q;
  t.pending_rev <- q :: t.pending_rev;
  t.pending_n <- t.pending_n + 1;
  t.accepted <- t.accepted + 1

let submit ?(tol = infinity) t ~tenant ~program ~payload =
  Mutex.protect t.lock @@ fun () ->
  if t.draining then begin
    t.rejected_supervised <- t.rejected_supervised + 1;
    Error Draining
  end
  else
    match List.assoc_opt program t.progs with
    | None ->
      t.rejected_admission <- t.rejected_admission + 1;
      Error (Unknown_program program)
    | Some cp ->
      let missing =
        List.find_opt
          (fun (i : Ir.input) -> not (List.mem_assoc i.in_name payload))
          cp.solo.inputs
      in
      let oversized =
        List.find_opt
          (fun (i : Ir.input) ->
            match List.assoc_opt i.in_name payload with
            | Some v -> Array.length v > t.cfg.backend.slots
            | None -> false)
          cp.solo.inputs
      in
      (match missing, oversized with
       | Some i, _ ->
         t.rejected_admission <- t.rejected_admission + 1;
         Error (Missing_input i.in_name)
       | None, Some i ->
         t.rejected_admission <- t.rejected_admission + 1;
         Error
           (Over_slots
              {
                input = i.in_name;
                len = Array.length (List.assoc i.in_name payload);
                slots = t.cfg.backend.slots;
              })
       | None, None ->
         if t.pending_n >= t.cfg.queue_depth then begin
           t.rejected_queue <- t.rejected_queue + 1;
           Error (Queue_full { depth = t.cfg.queue_depth })
         end
         else if not cp.bound.bounded then begin
           t.rejected_admission <- t.rejected_admission + 1;
           Error Unbounded_noise
         end
         else begin
           let scaled = cp.bound.worst *. t.cfg.margin in
           if scaled > tol then begin
             t.rejected_admission <- t.rejected_admission + 1;
             Error (Noise_budget { bound = cp.bound.worst; scaled; tol })
           end
           else
             match
               Supervisor.admit t.sup ~tenant:tenant.Tenant.id ~pname:program
             with
             | Supervisor.Quarantined { tenant; culprit } ->
               t.rejected_supervised <- t.rejected_supervised + 1;
               Error (Quarantined { tenant; culprit })
             | Supervisor.Breaker_open { scope; until_us; now_us } ->
               t.rejected_supervised <- t.rejected_supervised + 1;
               Error (Breaker_open { scope; until_us; now_us })
             | Supervisor.Admit ->
               let q =
                 {
                   Codec.req_id = t.next_id;
                   tenant_id = tenant.Tenant.id;
                   tenant_key = tenant.Tenant.key_seed;
                   pname = program;
                   tol;
                   admit_us = Supervisor.now_us t.sup;
                   (* Store exactly the program's inputs, in program order,
                      so the durable request is canonical. *)
                   payload =
                     List.map
                       (fun (i : Ir.input) ->
                         (i.in_name, List.assoc i.in_name payload))
                       cp.solo.inputs;
                 }
               in
               t.next_id <- t.next_id + 1;
               (* [Store.save] is tmp + fsync + rename: the accepted
                  request is durable before submit returns. *)
               (match t.dir with
                | None -> ()
                | Some d ->
                  save_record t Codec.request ~path:(request_path d q.req_id) q);
               accept t q;
               Ok q.req_id
         end)

(* --- planning ----------------------------------------------------------- *)

let lane_capacity t =
  min t.cfg.batch_window
    (Slot_batch.capacity ~slots:t.cfg.backend.slots ~lane:t.cfg.lane)

let wrapper_for t (cp : compiled) lanes =
  match Hashtbl.find_opt cp.wrappers lanes with
  | Some p -> p
  | None ->
    let offsets = List.init lanes (fun i -> i * t.cfg.lane) in
    let p =
      Strategy.compile ~knobs:(knobs t.cfg) ~strategy:cp.def.pd_strategy
        (Slot_batch.wrap cp.def.pd_traced ~offsets)
    in
    Hashtbl.replace cp.wrappers lanes p;
    p

let close_batch t (cp : compiled) members =
  match members with
  | [] -> assert false
  | [ q ] ->
    {
      b_key = q.Codec.req_id;
      b_members = members;
      b_layout = None;
      b_prog = cp.solo;
      b_strategy = cp.def.pd_strategy;
      b_outputs = cp.outputs;
    }
  | first :: _ ->
    let sizes = List.map request_size members in
    let layout =
      Slot_batch.plan ~slots:t.cfg.backend.slots ~lane:t.cfg.lane ~sizes
    in
    {
      b_key = first.Codec.req_id;
      b_members = members;
      b_layout = Some layout;
      b_prog = wrapper_for t cp (List.length members);
      b_strategy = cp.def.pd_strategy;
      b_outputs = cp.outputs;
    }

let ttl_failure t ~now (q : Codec.request) =
  {
    f_req = q.req_id;
    f_op = "admission-ttl";
    f_reason =
      Printf.sprintf "admission TTL expired: waited %dus, budget %dus"
        (now - q.admit_us) t.cfg.sup.s_ttl_us;
    f_attempts = 0;
    f_iteration = None;
  }

(* Admission-TTL gate, run once per request at its first planning.  The
   verdicts (and the evaluation watermark) are journaled {e before} the
   wave executes, so a crash between planning and execution can never
   re-evaluate a request's TTL against a different clock: on resume,
   requests at or below the watermark are immune and the journaled expired
   set is terminal. *)
let ttl_expire t queue =
  if t.cfg.sup.s_ttl_us <= 0 then queue
  else begin
    let now = Supervisor.now_us t.sup in
    let fresh =
      List.filter
        (fun (q : Codec.request) -> q.req_id > t.ttl_watermark)
        queue
    in
    if fresh <> [] then begin
      let expired_now =
        List.filter
          (fun (q : Codec.request) -> now - q.admit_us > t.cfg.sup.s_ttl_us)
          fresh
      in
      let watermark =
        List.fold_left
          (fun w (q : Codec.request) -> max w q.req_id)
          t.ttl_watermark fresh
      in
      (match t.dir with
       | None -> ()
       | Some d ->
         save_record t Codec.plan ~path:(plan_path d t.plan_seq)
           {
             Codec.pl_seq = t.plan_seq;
             pl_clock_us = now;
             pl_watermark = watermark;
             pl_expired =
               List.map (fun (q : Codec.request) -> q.Codec.req_id) expired_now;
           });
      t.plan_seq <- t.plan_seq + 1;
      t.ttl_watermark <- watermark;
      List.iter
        (fun (q : Codec.request) ->
          Hashtbl.replace t.expired q.req_id ();
          Supervisor.record_expired t.sup;
          Hashtbl.replace t.results q.req_id (Failed (ttl_failure t ~now q)))
        expired_now
    end;
    List.filter
      (fun (q : Codec.request) -> not (Hashtbl.mem t.expired q.req_id))
      queue
  end

(* Greedy FIFO planning.  The plan is a pure function of the pending
   request sequence (in id order): consecutive requests for the same
   batchable program accumulate into one open batch per program until it
   reaches capacity.  Because batch keys are first-member ids and journal
   appends happen in key order, a resumed server replanning only the
   un-journaled suffix of requests reproduces the original remaining
   batches exactly. *)
let plan_batches t =
  let queue = ttl_expire t (List.rev t.pending_rev) in
  t.pending_rev <- [];
  t.pending_n <- 0;
  let cap = lane_capacity t in
  let opens : (string, Codec.request list ref) Hashtbl.t = Hashtbl.create 8 in
  let closed = ref [] in
  List.iter
    (fun (q : Codec.request) ->
      let cp = find_prog t q.pname in
      let fits_lane = request_size q <= t.cfg.lane in
      if not (cp.can_batch && fits_lane && cap >= 2) then
        closed := close_batch t cp [ q ] :: !closed
      else begin
        let members =
          match Hashtbl.find_opt opens q.pname with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.replace opens q.pname r;
            r
        in
        members := q :: !members;
        if List.length !members >= cap then begin
          closed := close_batch t cp (List.rev !members) :: !closed;
          Hashtbl.remove opens q.pname
        end
      end)
    queue;
  Hashtbl.iter
    (fun pname members ->
      closed := close_batch t (find_prog t pname) (List.rev !members) :: !closed)
    opens;
  List.sort (fun a b -> compare a.b_key b.b_key) !closed

(* --- execution ---------------------------------------------------------- *)

let fault_config (cfg : Codec.config) (b : batch) =
  match cfg.faults with
  | None -> Faults.config ~seed:0 ()
  | Some (f : Codec.fault_cfg) ->
    (* A batch containing a poisoned tenant gets a fixed schedule dense
       enough to fault the first instruction through every retry and every
       checkpoint restore: retry exhaustion is certain and deterministic,
       batched or solo. *)
    let poisoned =
      f.f_poison <> []
      && List.exists
           (fun (q : Codec.request) -> List.mem q.Codec.tenant_id f.f_poison)
           b.b_members
    in
    let schedule =
      if not poisoned then []
      else
        List.init
          (cfg.policy.max_attempts * (cfg.policy.max_restores + 1))
          (fun _ -> { Faults.at = 0; kind = Faults.Transient_op })
    in
    Faults.config ~transient_prob:f.f_transient ~bootstrap_prob:f.f_bootstrap
      ~spike_prob:f.f_spike ~spike_magnitude:f.f_magnitude ~schedule
      ~seed:(f.f_seed + b.b_key) ()

(* Execute one batch through [Ref_run]: the batch program on its packed
   inputs, on the configured backend with a key-derived seed.  Pure
   function of (config, batch): the backend and fault seeds derive from the
   batch key, not from scheduling, and the deadline clock is virtual, so
   the entry is bit-identical for any pool size and any crash history.
   With the zero-probability fault config the injector draws nothing, and
   on a quiet batch the noise monitor ([s_rescue]) never fires, so both are
   byte-invisible. *)
let exec_batch (cfg : Codec.config) (b : batch) =
  let prog = b.b_prog in
  let stats = Stats.create () in
  let member_input name (q : Codec.request) = List.assoc name q.payload in
  let inputs =
    List.map
      (fun (i : Ir.input) ->
        let v =
          match b.b_layout with
          | None -> member_input i.in_name (List.hd b.b_members)
          | Some l ->
            Slot_batch.pack l (List.map (member_input i.in_name) b.b_members)
        in
        (i.in_name, v))
      prog.Ir.inputs
  in
  let m =
    Ref_run.manifest ~guard_margin:cfg.margin ~rescue:cfg.sup.s_rescue
      ~rescue_margin:cfg.sup.s_rescue_margin
      ~max_rescues:cfg.sup.s_max_rescues ~strategy:b.b_strategy ~bindings:[]
      ~inputs prog
  in
  let m =
    {
      m with
      backend =
        {
          cfg.backend with
          seed = cfg.backend.seed lxor ((b.b_key + 1) * 0x2545F49);
          slots = prog.Ir.slots;
          max_level = prog.Ir.max_level;
        };
    }
  in
  let ids = List.map (fun (q : Codec.request) -> q.Codec.req_id) b.b_members in
  let lanes = List.length b.b_members in
  let clock =
    if cfg.sup.s_deadline_us > 0 then
      Some (Clock.create ~deadline_us:cfg.sup.s_deadline_us ())
    else None
  in
  let status =
    match
      Ref_run.exec ~faults:(fault_config cfg b) ~policy:cfg.policy ~stats
        ?clock m
    with
    | (Ref_run.Rec.R.Complete { outputs; stats = _ } as outcome), _ -> (
      let breach =
        if not cfg.sup.s_guard then None
        else
          match Ref_run.verdict m outcome with
          | Some (Guard.Breach { observed; bound; output; slot }) ->
            (* Under rescue the breach counts as one guard trip here, in
               the breaching entry's own stats — the replan re-execution
               is a fresh entry whose stats start at zero, so the trip is
               never double-counted across the rescue/replan chain (and
               the journaled bytes stay resume-identical). *)
            if cfg.sup.s_rescue then Stats.record_guard_trip stats;
            Some
              (Codec.Breach
                 {
                   br_output = output;
                   br_slot = slot;
                   br_observed = observed;
                   br_bound = bound;
                 })
          | Some (Guard.Healthy _ | Guard.Unbounded _) | None -> None
      in
      match breach with
      | Some s -> s
      | None ->
        let outputs = Array.of_list outputs in
        let groups =
          List.mapi
            (fun i (q : Codec.request) ->
              let rsize = request_size q in
              List.init b.b_outputs (fun j ->
                  let raw =
                    match b.b_layout with
                    | None -> outputs.(j)
                    | Some _ -> outputs.((j * lanes) + i)
                  in
                  let data = Array.sub raw 0 (min rsize (Array.length raw)) in
                  let tenant =
                    { Tenant.id = q.tenant_id; key_seed = q.tenant_key }
                  in
                  (Tenant.seal tenant ~nonce:(nonce ~req:q.req_id ~output:j)
                     data)
                    .Tenant.s_data))
            b.b_members
        in
        Codec.Ok groups)
    | Ref_run.Rec.R.Degraded d, _ ->
      Codec.Degraded
        {
          d_op = d.failed.Halo_error.op;
          d_reason = d.reason;
          d_attempts = d.attempts;
          d_iteration = d.iteration;
        }
    | exception Halo_error.Deadline_exceeded { site; now_us; deadline_us } ->
      Codec.Deadline
        { dl_op = site.Halo_error.op; dl_now_us = now_us;
          dl_deadline_us = deadline_us }
  in
  { Codec.e_key = b.b_key; e_seq = 0; e_reqs = ids; e_status = status;
    e_stats = stats }

let failure_of_status rid = function
  | Codec.Degraded d ->
    {
      f_req = rid;
      f_op = d.d_op;
      f_reason = d.d_reason;
      f_attempts = d.d_attempts;
      f_iteration = d.d_iteration;
    }
  | Codec.Deadline dl ->
    {
      f_req = rid;
      f_op = dl.dl_op;
      f_reason =
        Printf.sprintf
          "deadline exceeded: virtual time %dus past the %dus budget"
          dl.dl_now_us dl.dl_deadline_us;
      f_attempts = 1;
      f_iteration = None;
    }
  | Codec.Breach br ->
    {
      f_req = rid;
      f_op = "guard";
      f_reason =
        Printf.sprintf
          "noise breach at output %d slot %d: observed %.3g exceeds bound %.3g"
          br.br_output br.br_slot br.br_observed br.br_bound;
      f_attempts = 1;
      f_iteration = None;
    }
  | Codec.Ok _ -> assert false

(* Record a completed batch's outcome for each member.  Works identically
   for a freshly executed entry and one reloaded from the journal — the
   sealed records are reconstituted from the member requests and the
   supervisor is driven purely by the entry's stats and outcomes — so both
   delivery and supervision state after resume match the uninterrupted
   run exactly. *)
let deliver t ~phase (e : Codec.entry) =
  Supervisor.charge t.sup e.Codec.e_stats;
  let lanes = List.length e.e_reqs in
  let success = match e.e_status with Codec.Ok _ -> true | _ -> false in
  List.iter
    (fun rid ->
      let q = Hashtbl.find t.requests rid in
      Supervisor.observe t.sup ~tenant:q.Codec.tenant_id ~pname:q.Codec.pname
        ~success)
    e.e_reqs;
  (match e.e_status with
   | Codec.Ok groups ->
     List.iter2
       (fun rid group ->
         let q = Hashtbl.find t.requests rid in
         let sealed =
           List.mapi
             (fun j data ->
               {
                 Tenant.s_tenant = q.Codec.tenant_id;
                 s_nonce = nonce ~req:rid ~output:j;
                 s_data = data;
               })
             group
         in
         Hashtbl.replace t.results rid
           (Served { batch_key = e.e_key; lanes; sealed });
         Supervisor.record_latency t.sup ~req:rid ~admit_us:q.Codec.admit_us)
       e.e_reqs groups
   | status ->
     let replannable =
       phase <> Replan && lanes = 1 && t.cfg.sup.s_rescue
       && (match status with Codec.Breach _ -> true | _ -> false)
       && (match e.e_reqs with
           | [ rid ] ->
             let q = Hashtbl.find t.requests rid in
             (find_prog t q.Codec.pname).safer <> None
           | _ -> false)
     in
     if phase = Primary && lanes >= 2 && t.cfg.sup.s_fallback then begin
       (* Degraded-mode fallback: don't fail the members — queue each for a
          solo re-execution, where the culprit fails alone. *)
       let members = List.map (Hashtbl.find t.requests) e.e_reqs in
       t.fallback_rev <- List.rev_append members t.fallback_rev;
       Supervisor.record_fallbacks t.sup ~count:lanes
     end
     else if replannable then begin
       (* Conservative replan: the rescue machinery could not keep the solo
          execution inside its noise budget, so re-execute one rung down
          the strategy ladder instead of failing the request. *)
       let members = List.map (Hashtbl.find t.requests) e.e_reqs in
       t.replan_rev <- List.rev_append members t.replan_rev
     end
     else
       List.iter
         (fun rid ->
           let q = Hashtbl.find t.requests rid in
           Hashtbl.replace t.results rid
             (Failed (failure_of_status rid status));
           Supervisor.record_latency t.sup ~req:rid ~admit_us:q.Codec.admit_us;
           if lanes = 1 then
             if
               Supervisor.record_solo_failure t.sup ~tenant:q.Codec.tenant_id
                 ~req:rid
             then persist_quarantine t)
         e.e_reqs);
  Hashtbl.replace t.batch_stats (e.e_key, phase) e.e_stats;
  Hashtbl.replace t.batch_members (e.e_key, phase) e.e_reqs

let journal_append t ?kill_after ~phase (e : Codec.entry) =
  let e = { e with Codec.e_seq = t.seq } in
  t.seq <- t.seq + 1;
  (match t.dir with
   | None -> ()
   | Some d ->
     save_record t Codec.entry ~path:(entry_path d ~phase e.Codec.e_key) e;
     t.writes <- t.writes + 1;
     (match kill_after with
      | Some k when t.writes >= k -> raise (Killed { writes = t.writes })
      | _ -> ()));
  e

let exec_wave t ?kill_after ?on_batch ~phase batches =
  let batches = Array.of_list batches in
  let entries = Array.make (Array.length batches) None in
  let wave = max 1 (Domain_pool.size ()) in
  let i = ref 0 in
  while !i < Array.length batches do
    let lo = !i in
    let hi = min (Array.length batches) (lo + wave) in
    (* Execute the wave in parallel; every slot writes index-private
       state.  Journal appends and delivery stay sequential, in batch-key
       order, so the journal is always a key-ordered prefix of the plan. *)
    Domain_pool.parallel_for ~n:(hi - lo) (fun k ->
        let e = exec_batch t.cfg batches.(lo + k) in
        (* Phase is deterministic, so stamping the replan counter here
           keeps the journaled entry bytes reproducible. *)
        if phase = Replan then Stats.record_replan e.Codec.e_stats;
        entries.(lo + k) <- Some e);
    for j = lo to hi - 1 do
      let e = journal_append t ?kill_after ~phase (Option.get entries.(j)) in
      deliver t ~phase e;
      match on_batch with
      | Some f -> f ~key:e.Codec.e_key ~reqs:e.Codec.e_reqs
      | None -> ()
    done;
    i := hi
  done

(* A replan batch runs the member's program recompiled one rung down the
   strategy ladder ([compile_def] precomputed it).  Only reachable when
   [deliver] found [safer <> None]. *)
let replan_batch t (q : Codec.request) =
  let cp = find_prog t q.Codec.pname in
  match cp.safer with
  | None -> assert false
  | Some (strategy, prog) ->
    {
      b_key = q.Codec.req_id;
      b_members = [ q ];
      b_layout = None;
      b_prog = prog;
      b_strategy = strategy;
      b_outputs = cp.outputs;
    }

let run_until_drained ?kill_after ?on_batch t =
  exec_wave t ?kill_after ?on_batch ~phase:Primary (plan_batches t);
  (* Fallback phase: members of failed multi-member batches re-execute
     solo, in request-id order.  Solo failures are terminal (or divert to
     the replan phase), so this converges in one round per primary phase. *)
  while t.fallback_rev <> [] do
    let members =
      List.sort
        (fun (a : Codec.request) b -> compare a.req_id b.Codec.req_id)
        t.fallback_rev
    in
    t.fallback_rev <- [];
    let batches =
      List.map (fun (q : Codec.request) ->
          close_batch t (find_prog t q.pname) [ q ])
        members
    in
    exec_wave t ?kill_after ?on_batch ~phase:Fallback batches
  done;
  (* Replan phase: solo breaches re-execute under the safer strategy, in
     request-id order.  Replan outcomes are terminal, so one round
     suffices. *)
  while t.replan_rev <> [] do
    let members =
      List.sort
        (fun (a : Codec.request) b -> compare a.req_id b.Codec.req_id)
        t.replan_rev
    in
    t.replan_rev <- [];
    exec_wave t ?kill_after ?on_batch ~phase:Replan
      (List.map (replan_batch t) members)
  done

let count_results t =
  Hashtbl.fold
    (fun _ o (s, f) ->
      match o with Served _ -> (s + 1, f) | Failed _ -> (s, f + 1))
    t.results (0, 0)

let drain ?kill_after ?on_batch t =
  t.draining <- true;
  run_until_drained ?kill_after ?on_batch t;
  let served, failed = count_results t in
  let d =
    {
      Codec.dr_accepted = t.accepted;
      dr_served = served;
      dr_failed = failed;
      dr_clock_us = Supervisor.now_us t.sup;
      dr_seq = t.seq;
      dr_quarantined = List.map fst (Supervisor.quarantined t.sup);
    }
  in
  (match t.dir with
   | None -> ()
   | Some dir ->
     save_record t Codec.drain ~path:(drain_path dir) d);
  t.handoff <- Some d;
  d

(* --- resume ------------------------------------------------------------- *)

let scan_ids dir ~prefix ~suffix =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           if
             String.length f > String.length prefix + String.length suffix
             && String.sub f 0 (String.length prefix) = prefix
             && Filename.check_suffix f suffix
           then
             int_of_string_opt
               (String.sub f (String.length prefix)
                  (String.length f - String.length prefix
                 - String.length suffix))
           else None)
    |> List.sort compare

let open_resume ~dir =
  let m = Store.load Codec.manifest ~path:(manifest_path dir) in
  let t = build ~dir m.Codec.config m.Codec.progs in
  (* Accepted requests reload loudly: a damaged request file would
     silently drop an accepted request, which the serving contract
     forbids. *)
  let req_ids = scan_ids (requests_dir dir) ~prefix:"req-" ~suffix:".halo" in
  List.iter
    (fun id ->
      let q = load_record t Codec.request ~path:(request_path dir id) in
      accept t q;
      t.next_id <- max t.next_id (id + 1))
    req_ids;
  (* TTL planning records also load loudly: they carry terminal verdicts
     about accepted requests (and the evaluation watermark that makes
     those verdicts crash-immune), so discarding a damaged one would
     re-evaluate admission TTLs against a different clock. *)
  List.iter
    (fun seq ->
      let p = load_record t Codec.plan ~path:(plan_path dir seq) in
      t.plan_seq <- max t.plan_seq (p.Codec.pl_seq + 1);
      t.ttl_watermark <- max t.ttl_watermark p.pl_watermark;
      List.iter
        (fun rid ->
          let q = Hashtbl.find t.requests rid in
          Hashtbl.replace t.expired rid ();
          Supervisor.record_expired t.sup;
          Hashtbl.replace t.results rid
            (Failed (ttl_failure t ~now:p.pl_clock_us q)))
        p.pl_expired)
    (scan_ids (journal_dir dir) ~prefix:"plan-" ~suffix:".ckpt");
  (* Journal entries follow the scan-and-discard-damaged discipline: an
     intact entry is delivered as-is; a damaged one is reported and its
     batch simply re-executed (deterministically, to the same bytes).
     Intact entries are folded in delivery order ([e_seq]) so the clock
     advances and the breaker transitions replay exactly as they happened
     live. *)
  let loaded = ref [] in
  let load ~phase key =
    let path = entry_path dir ~phase key in
    match load_record t Codec.entry ~path with
    | e -> loaded := (e, phase) :: !loaded
    | exception Halo_error.Persist_error { reason; _ } ->
      t.damaged <- (path, reason) :: t.damaged
  in
  List.iter
    (fun (phase, prefix) ->
      List.iter (load ~phase)
        (scan_ids (journal_dir dir) ~prefix ~suffix:".ckpt"))
    phases;
  t.damaged <- List.rev t.damaged;
  let completed = Hashtbl.create 16 in
  List.iter
    (fun ((e : Codec.entry), phase) ->
      deliver t ~phase e;
      t.seq <- max t.seq (e.e_seq + 1);
      List.iter (fun rid -> Hashtbl.replace completed rid ()) e.e_reqs)
    (List.sort
       (fun ((a : Codec.entry), _) ((b : Codec.entry), _) ->
         compare a.e_seq b.e_seq)
       !loaded);
  (* Fallback (and replan) members whose re-execution entry was already
     journaled have results; the rest still owe their re-execution.  A
     member the fold diverted to the replan queue has no result yet its
     fallback execution DID happen (its solo entry is what diverted it), so
     the fallback filter must also exclude it — otherwise the resumed
     server re-runs the solo batch, re-diverts, and delivers the whole
     chain twice. *)
  let diverted = Hashtbl.create 8 in
  List.iter
    (fun (q : Codec.request) -> Hashtbl.replace diverted q.Codec.req_id ())
    t.replan_rev;
  let owes_rerun (q : Codec.request) =
    not (Hashtbl.mem t.results q.Codec.req_id)
  in
  t.fallback_rev <-
    List.filter
      (fun (q : Codec.request) ->
        owes_rerun q && not (Hashtbl.mem diverted q.Codec.req_id))
      t.fallback_rev;
  t.replan_rev <- List.filter owes_rerun t.replan_rev;
  (* Pending = accepted minus completed minus TTL-expired, in id order. *)
  let pending =
    List.rev t.pending_rev
    |> List.filter (fun (q : Codec.request) ->
           (not (Hashtbl.mem completed q.Codec.req_id))
           && not (Hashtbl.mem t.expired q.Codec.req_id))
  in
  t.pending_rev <- List.rev pending;
  t.pending_n <- List.length pending;
  (* A drain handoff pins what the journal must already contain: fewer
     delivery sequences than the handoff recorded means durable state was
     lost after the drain, which resume must refuse to paper over. *)
  (if Sys.file_exists (drain_path dir) then begin
     let d = load_record t Codec.drain ~path:(drain_path dir) in
     if t.seq < d.Codec.dr_seq then
       Halo_error.persist_error ~path:(drain_path dir)
         ~expected:(Printf.sprintf "%d delivery sequences" d.Codec.dr_seq)
         ~got:(string_of_int t.seq)
         "journal behind the drain handoff";
     if t.accepted < d.Codec.dr_accepted then
       Halo_error.persist_error ~path:(drain_path dir)
         ~expected:(Printf.sprintf "%d accepted requests" d.Codec.dr_accepted)
         ~got:(string_of_int t.accepted)
         "request log behind the drain handoff";
     t.handoff <- Some d
   end);
  (* Quarantine is journal-derived; refresh the durable mirror so it can
     never lag the fold. *)
  if Supervisor.quarantined t.sup <> [] then persist_quarantine t;
  t

(* --- results and accounting --------------------------------------------- *)

let result t id = Hashtbl.find_opt t.results id

let results t =
  Hashtbl.fold (fun id o acc -> (id, o) :: acc) t.results []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let stats t =
  let acc = Stats.create () in
  List.iter
    (fun key -> Stats.merge ~into:acc (Hashtbl.find t.batch_stats key))
    (sorted_keys t.batch_stats);
  acc

let counters t =
  let served, failed = count_results t in
  let batched_requests, solo_requests =
    Hashtbl.fold
      (fun _ members (b, s) ->
        match members with
        | [ _ ] -> (b, s + 1)
        | l -> (b + List.length l, s))
      t.batch_members (0, 0)
  in
  {
    accepted = t.accepted;
    rejected_queue = t.rejected_queue;
    rejected_admission = t.rejected_admission;
    rejected_supervised = t.rejected_supervised;
    served;
    failed;
    batches = Hashtbl.length t.batch_members;
    batched_requests;
    solo_requests;
    expired = Supervisor.expired t.sup;
    fallback_requests = Supervisor.fallbacks t.sup;
    breaker_opens = Supervisor.opens t.sup;
    breaker_closes = Supervisor.closes t.sup;
    breaker_reopens = Supervisor.reopens t.sup;
    quarantined_tenants = List.length (Supervisor.quarantined t.sup);
  }

let key_budget_report t ~budget =
  let cfg = t.cfg.Codec.backend in
  Key_budget.to_string
    (Key_budget.assess
       ~n:(2 * cfg.Halo_persist.Codec.slots)
       ~level:cfg.Halo_persist.Codec.max_level ~budget
       (List.map (fun (name, c) -> (name, c.solo)) t.progs))

let report t =
  let c = counters t in
  let b = Buffer.create 256 in
  Printf.bprintf b
    "serving: accepted=%d served=%d failed=%d rejected_queue=%d \
     rejected_admission=%d\n"
    c.accepted c.served c.failed c.rejected_queue c.rejected_admission;
  Printf.bprintf b
    "batching: batches=%d batched_requests=%d solo_requests=%d pending=%d\n"
    c.batches c.batched_requests c.solo_requests t.pending_n;
  if
    c.expired + c.fallback_requests + c.breaker_opens + c.breaker_closes
    + c.breaker_reopens + c.quarantined_tenants + c.rejected_supervised
    > 0
  then
    Printf.bprintf b
      "supervision: expired=%d fallbacks=%d breaker_opens=%d \
       breaker_closes=%d breaker_reopens=%d quarantined=%d \
       rejected_supervised=%d clock=%dus\n"
      c.expired c.fallback_requests c.breaker_opens c.breaker_closes
      c.breaker_reopens c.quarantined_tenants c.rejected_supervised
      (clock_us t);
  Buffer.add_string b (Stats.to_string (stats t));
  Buffer.add_char b '\n';
  Buffer.contents b

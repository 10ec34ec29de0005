type t = {
  mutable addcc : int;
  mutable addcp : int;
  mutable subcc : int;
  mutable multcc : int;
  mutable multcp : int;
  mutable rotate : int;
  mutable rescale : int;
  mutable modswitch : int;
  mutable bootstrap : int;
  mutable total_latency_us : float;
  mutable bootstrap_latency_us : float;
  mutable injected_faults : int;
  mutable retries : int;
  mutable checkpoint_restores : int;
  mutable backoff_us : float;
  mutable checkpoint_writes : int;
  mutable checkpoint_bytes : int;
  mutable guard_trips : int;
  mutable key_switches : int;
  mutable hoisted_groups : int;
  mutable decompositions_saved : int;
  mutable deadline_aborts : int;
  mutable key_cache_hits : int;
  mutable key_cache_misses : int;
  mutable key_cache_evictions : int;
  mutable key_cache_regens : int;
  mutable digit_reuses : int;
  mutable lazy_rotsums : int;
  mutable rescues : int;
  mutable rescue_aborts : int;
  mutable replans : int;
}

let create () =
  {
    addcc = 0;
    addcp = 0;
    subcc = 0;
    multcc = 0;
    multcp = 0;
    rotate = 0;
    rescale = 0;
    modswitch = 0;
    bootstrap = 0;
    total_latency_us = 0.0;
    bootstrap_latency_us = 0.0;
    injected_faults = 0;
    retries = 0;
    checkpoint_restores = 0;
    backoff_us = 0.0;
    checkpoint_writes = 0;
    checkpoint_bytes = 0;
    guard_trips = 0;
    key_switches = 0;
    hoisted_groups = 0;
    decompositions_saved = 0;
    deadline_aborts = 0;
    key_cache_hits = 0;
    key_cache_misses = 0;
    key_cache_evictions = 0;
    key_cache_regens = 0;
    digit_reuses = 0;
    lazy_rotsums = 0;
    rescues = 0;
    rescue_aborts = 0;
    replans = 0;
  }

let record t (op : Halo_cost.Cost_model.op) ~level =
  (match op with
   | Halo_cost.Cost_model.Addcc -> t.addcc <- t.addcc + 1
   | Addcp -> t.addcp <- t.addcp + 1
   | Subcc -> t.subcc <- t.subcc + 1
   | Multcc -> t.multcc <- t.multcc + 1
   | Multcp -> t.multcp <- t.multcp + 1
   | Rotate -> t.rotate <- t.rotate + 1
   | Rescale -> t.rescale <- t.rescale + 1
   | Modswitch -> t.modswitch <- t.modswitch + 1
   | Encode -> ());
  t.total_latency_us <-
    t.total_latency_us +. Halo_cost.Cost_model.latency_us op ~level

let record_bootstrap t ~target =
  t.bootstrap <- t.bootstrap + 1;
  let l = Halo_cost.Cost_model.bootstrap_latency_us ~target in
  t.total_latency_us <- t.total_latency_us +. l;
  t.bootstrap_latency_us <- t.bootstrap_latency_us +. l

let record_fault t = t.injected_faults <- t.injected_faults + 1

let record_retry t ~backoff_us =
  t.retries <- t.retries + 1;
  t.backoff_us <- t.backoff_us +. backoff_us

let record_restore t = t.checkpoint_restores <- t.checkpoint_restores + 1

let record_checkpoint_write t ~bytes =
  t.checkpoint_writes <- t.checkpoint_writes + 1;
  t.checkpoint_bytes <- t.checkpoint_bytes + bytes

let record_guard_trip t = t.guard_trips <- t.guard_trips + 1

let record_key_switch t = t.key_switches <- t.key_switches + 1

(* A hoisted group of [size] rotations pays one digit decomposition instead
   of [size]: size - 1 decompositions saved.  Each member still counts as a
   key switch (the apply half runs per offset). *)
let record_hoisted_group t ~size =
  t.hoisted_groups <- t.hoisted_groups + 1;
  t.decompositions_saved <- t.decompositions_saved + (size - 1)

let record_deadline_abort t = t.deadline_aborts <- t.deadline_aborts + 1

(* Key-cache and digit-reuse accounting, folded in from the key set's own
   counters at reporting time (never mid-run: kill/resume stats comparisons
   must not depend on how warm a cache happened to be at the kill point).
   Each digit reuse skips one whole decomposition, so it also counts toward
   [decompositions_saved]. *)
let record_key_cache t ~hits ~misses ~evictions ~regens ~digit_hits =
  t.key_cache_hits <- t.key_cache_hits + hits;
  t.key_cache_misses <- t.key_cache_misses + misses;
  t.key_cache_evictions <- t.key_cache_evictions + evictions;
  t.key_cache_regens <- t.key_cache_regens + regens;
  t.digit_reuses <- t.digit_reuses + digit_hits;
  t.decompositions_saved <- t.decompositions_saved + digit_hits

(* One fused rotate-and-sum executed: the group paid a single mod-down. *)
let record_lazy_rotsum t = t.lazy_rotsums <- t.lazy_rotsums + 1

(* A rescue is an unplanned bootstrap: it counts in the bootstrap totals
   (it IS one) and is charged the rescue latency — bootstrap plus the
   monitor's bookkeeping overhead — on the virtual clock. *)
let record_rescue t ~target =
  t.rescues <- t.rescues + 1;
  t.bootstrap <- t.bootstrap + 1;
  let l = Halo_cost.Cost_model.rescue_latency_us ~target in
  t.total_latency_us <- t.total_latency_us +. l;
  t.bootstrap_latency_us <- t.bootstrap_latency_us +. l

let record_rescue_abort t = t.rescue_aborts <- t.rescue_aborts + 1
let record_replan t = t.replans <- t.replans + 1

type field =
  | Int of (t -> int) * (t -> int -> unit)
  | Us of (t -> float) * (t -> float -> unit)

(* Every counter, once, as (name, getter/setter).  The order is the persist
   frame's field order and is append-only: a new counter goes at the end,
   and [Halo_persist.Codec] bumps its format version. *)
let counters =
  [
    ("addcc", Int ((fun t -> t.addcc), fun t v -> t.addcc <- v));
    ("addcp", Int ((fun t -> t.addcp), fun t v -> t.addcp <- v));
    ("subcc", Int ((fun t -> t.subcc), fun t v -> t.subcc <- v));
    ("multcc", Int ((fun t -> t.multcc), fun t v -> t.multcc <- v));
    ("multcp", Int ((fun t -> t.multcp), fun t v -> t.multcp <- v));
    ("rotate", Int ((fun t -> t.rotate), fun t v -> t.rotate <- v));
    ("rescale", Int ((fun t -> t.rescale), fun t v -> t.rescale <- v));
    ("modswitch", Int ((fun t -> t.modswitch), fun t v -> t.modswitch <- v));
    ("bootstrap", Int ((fun t -> t.bootstrap), fun t v -> t.bootstrap <- v));
    ( "total_latency_us",
      Us ((fun t -> t.total_latency_us), fun t v -> t.total_latency_us <- v) );
    ( "bootstrap_latency_us",
      Us ((fun t -> t.bootstrap_latency_us), fun t v -> t.bootstrap_latency_us <- v) );
    ( "injected_faults",
      Int ((fun t -> t.injected_faults), fun t v -> t.injected_faults <- v) );
    ("retries", Int ((fun t -> t.retries), fun t v -> t.retries <- v));
    ( "checkpoint_restores",
      Int ((fun t -> t.checkpoint_restores), fun t v -> t.checkpoint_restores <- v) );
    ("backoff_us", Us ((fun t -> t.backoff_us), fun t v -> t.backoff_us <- v));
    ( "checkpoint_writes",
      Int ((fun t -> t.checkpoint_writes), fun t v -> t.checkpoint_writes <- v) );
    ( "checkpoint_bytes",
      Int ((fun t -> t.checkpoint_bytes), fun t v -> t.checkpoint_bytes <- v) );
    ( "guard_trips",
      Int ((fun t -> t.guard_trips), fun t v -> t.guard_trips <- v) );
    ( "key_switches",
      Int ((fun t -> t.key_switches), fun t v -> t.key_switches <- v) );
    ( "hoisted_groups",
      Int ((fun t -> t.hoisted_groups), fun t v -> t.hoisted_groups <- v) );
    ( "decompositions_saved",
      Int ((fun t -> t.decompositions_saved), fun t v -> t.decompositions_saved <- v) );
    ( "deadline_aborts",
      Int ((fun t -> t.deadline_aborts), fun t v -> t.deadline_aborts <- v) );
    ( "key_cache_hits",
      Int ((fun t -> t.key_cache_hits), fun t v -> t.key_cache_hits <- v) );
    ( "key_cache_misses",
      Int ((fun t -> t.key_cache_misses), fun t v -> t.key_cache_misses <- v) );
    ( "key_cache_evictions",
      Int ((fun t -> t.key_cache_evictions), fun t v -> t.key_cache_evictions <- v) );
    ( "key_cache_regens",
      Int ((fun t -> t.key_cache_regens), fun t v -> t.key_cache_regens <- v) );
    ( "digit_reuses",
      Int ((fun t -> t.digit_reuses), fun t v -> t.digit_reuses <- v) );
    ( "lazy_rotsums",
      Int ((fun t -> t.lazy_rotsums), fun t v -> t.lazy_rotsums <- v) );
    ("rescues", Int ((fun t -> t.rescues), fun t v -> t.rescues <- v));
    ( "rescue_aborts",
      Int ((fun t -> t.rescue_aborts), fun t v -> t.rescue_aborts <- v) );
    ("replans", Int ((fun t -> t.replans), fun t v -> t.replans <- v));
  ]

let assign ~into src =
  List.iter
    (function
      | _, Int (get, set) -> set into (get src)
      | _, Us (get, set) -> set into (get src))
    counters

let merge ~into src =
  List.iter
    (function
      | _, Int (get, set) -> set into (get into + get src)
      | _, Us (get, set) -> set into (get into +. get src))
    counters

let equal a b =
  List.for_all
    (function
      | _, Int (get, _) -> get a = get b
      | _, Us (get, _) ->
        Int64.equal (Int64.bits_of_float (get a)) (Int64.bits_of_float (get b)))
    counters

let total_ops t =
  t.addcc + t.addcp + t.subcc + t.multcc + t.multcp + t.rotate + t.rescale
  + t.modswitch + t.bootstrap

let compute_latency_us t = t.total_latency_us -. t.bootstrap_latency_us

let to_string t =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "addcc=%d addcp=%d subcc=%d multcc=%d multcp=%d rotate=%d rescale=%d \
     modswitch=%d bootstrap=%d latency=%.0fus (bootstrap %.0fus, %.1f%%)"
    t.addcc t.addcp t.subcc t.multcc t.multcp t.rotate t.rescale t.modswitch
    t.bootstrap t.total_latency_us t.bootstrap_latency_us
    (if t.total_latency_us > 0.0 then
       100.0 *. t.bootstrap_latency_us /. t.total_latency_us
     else 0.0);
  (* The header above prints the first 11 counters (ops and latency). *)
  List.iteri
    (fun i (name, field) ->
      match field with
      | Int (get, _) when i >= 11 && get t <> 0 ->
        Printf.bprintf b " %s=%d" name (get t)
      | Us (get, _) when i >= 11 && get t <> 0.0 ->
        Printf.bprintf b " %s=%.0f" name (get t)
      | _ -> ())
    counters;
  Buffer.contents b

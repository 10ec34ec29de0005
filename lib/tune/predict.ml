open Halo
module Cost = Halo_cost.Cost_model

(* ------------------------------------------------------------------ *)
(* Static walk                                                         *)
(* ------------------------------------------------------------------ *)

(* Raw accumulators from one walk over a compiled program.  [compute],
   [rot_flat] and [boot] together replicate exactly the charging rule of
   the interpreter's [Stats.record] (same op, same operand level, same
   dynamic multiplicity), so [base = compute + rot_flat + boot] is the
   latency a reference-backend run of this very program would report.  The
   three adjustments price what the runtime counters cannot see in the flat
   per-op charge: hoisted groups sharing one digit decomposition
   ([hoist_adj] <= 0), fused rotate-and-sum groups paying one mod-down and
   one deferred rescale ([lazy_adj], sign depends on the machine profile's
   extended-basis lift overhead), and the cross-op digit memo skipping
   repeat decompositions of the same ciphertext ([digit_adj] <= 0). *)
type walk = {
  mutable compute : float;  (** non-rotation, non-bootstrap op latency *)
  mutable rot_flat : float;  (** rotations at the flat [Rotate] estimate *)
  mutable boot : float;
  mutable hoist_adj : float;
  mutable lazy_adj : float;
  mutable digit_adj : float;
  mutable bootstraps : int;
  mutable rotations : int;
  mutable hoisted_groups : int;
  mutable lazy_groups : int;
  mutable digit_hits : int;
  slots : int;
  max_level : int;
  key_count : int;
  working_set_bytes : int;
}

let scale n x = float_of_int n *. x

let walk_program ~bindings (p : Ir.program) =
  let tys = Typecheck.infer_program p in
  let level_of v =
    match Hashtbl.find_opt tys v with
    | Some (Typecheck.Tcipher { level; _ }) -> Some level
    | Some Typecheck.Tplain | None -> None
  in
  let key_count = Rotations.count p in
  let w =
    {
      compute = 0.0;
      rot_flat = 0.0;
      boot = 0.0;
      hoist_adj = 0.0;
      lazy_adj = 0.0;
      digit_adj = 0.0;
      bootstraps = 0;
      rotations = 0;
      hoisted_groups = 0;
      lazy_groups = 0;
      digit_hits = 0;
      slots = p.slots;
      max_level = p.max_level;
      key_count;
      working_set_bytes =
        key_count
        * Cost.switch_key_bytes ~n:(2 * p.slots) ~level:p.max_level;
    }
  in
  let profile = Cost.current_profile () in
  let charge ?(times = 1) op ~level =
    w.compute <- w.compute +. scale times (Cost.latency_us op ~level)
  in
  let charge_rotations ~times ~members ~level =
    w.rotations <- w.rotations + (times * members);
    w.rot_flat <-
      w.rot_flat +. scale (times * members) (Cost.latency_us Cost.Rotate ~level)
  in
  let charge_group ~times ~members ~level =
    (* A hoisted group of [members] shares one digit decomposition. *)
    if members >= 2 then begin
      w.hoisted_groups <- w.hoisted_groups + times;
      w.hoist_adj <-
        w.hoist_adj -. scale (times * (members - 1)) (Cost.decompose_us ~level)
    end
  in
  (* [times] is the product of the enclosing loops' iteration counts: the
     type-matched property makes every iteration level-identical, so one
     pass over a body prices all its executions. *)
  let rec walk_block ~times (b : Ir.block) =
    List.iter
      (fun (i : Ir.instr) ->
        match i.op with
        | Ir.Const _ -> ()
        | Ir.Binary { kind; lhs; rhs } ->
          (match (kind, level_of lhs, level_of rhs) with
           | _, None, None -> ()
           | Ir.Add, Some l, Some _ -> charge ~times Cost.Addcc ~level:l
           | Ir.Sub, Some l, Some _ -> charge ~times Cost.Subcc ~level:l
           | Ir.Mul, Some l, Some _ -> charge ~times Cost.Multcc ~level:l
           | Ir.Add, Some l, None | Ir.Add, None, Some l ->
             charge ~times Cost.Addcp ~level:l
           | Ir.Sub, Some l, None | Ir.Sub, None, Some l ->
             charge ~times Cost.Addcp ~level:l
           | Ir.Mul, Some l, None | Ir.Mul, None, Some l ->
             charge ~times Cost.Multcp ~level:l)
        | Ir.Rotate { src; offset } ->
          (match level_of src with
           | None -> ()
           | Some _ when offset = 0 -> ()
           | Some level ->
             charge_rotations ~times ~members:1 ~level)
        | Ir.RotateMany { src; offsets } ->
          (match level_of src with
           | None -> ()
           | Some level ->
             let m = List.length (List.filter (fun o -> o <> 0) offsets) in
             if m > 0 then begin
               charge_rotations ~times ~members:m ~level;
               charge_group ~times ~members:m ~level
             end)
        | Ir.RotSum { src; terms } ->
          (match level_of src with
           | None -> ()
           | Some level ->
             let k = List.length terms in
             let m = List.length (List.filter (fun (o, _) -> o <> 0) terms) in
             let weighted =
               List.exists (fun (_, c) -> Option.is_some c) terms
             in
             let out_level = if weighted then max 1 (level - 1) else level in
             (* Base accounting mirrors the interpreter's (which mirrors the
                unfused sequence): a flat rotate per nonzero member, a
                multcp + rescale per weighted member, an add per extra
                member at the result's level. *)
             if m > 0 then begin
               charge_rotations ~times ~members:m ~level;
               charge_group ~times ~members:m ~level
             end;
             if weighted then begin
               charge ~times:(times * k) Cost.Multcp ~level;
               charge ~times:(times * k) Cost.Rescale ~level
             end;
             if k > 1 then charge ~times:(times * (k - 1)) Cost.Addcc ~level:out_level;
             (* Fusion delta against the hoisted-eager expansion the base +
                hoist adjustment just priced: per-member MACs carry the
                profile's extended-basis lift, all but one mod-down and all
                but one deferred rescale are saved. *)
             if m > 0 then begin
               w.lazy_groups <- w.lazy_groups + times;
               let delta =
                 scale m (Cost.keyswitch_mac_us ~level)
                 *. profile.Cost.lazy_mac_overhead
                 -. scale (m - 1) (Cost.moddown_us ~level)
                 -.
                 (if weighted then
                    scale (k - 1) (Cost.latency_us Cost.Rescale ~level)
                  else 0.0)
               in
               w.lazy_adj <- w.lazy_adj +. scale times delta
             end)
        | Ir.Rescale { src } ->
          (match level_of src with
           | Some level -> charge ~times Cost.Rescale ~level
           | None -> ())
        | Ir.Modswitch { src; _ } ->
          (match level_of src with
           | Some level -> charge ~times Cost.Modswitch ~level
           | None -> ())
        | Ir.Bootstrap { target; _ } ->
          w.bootstraps <- w.bootstraps + times;
          w.boot <- w.boot +. scale times (Cost.bootstrap_latency_us ~target)
        | Ir.Pack _ | Ir.Unpack _ ->
          invalid_arg
            "Predict.program: composite pack/unpack; compile with lowering"
        | Ir.For fo ->
          let n =
            try Ir.eval_count ~bindings fo.count
            with Not_found ->
              invalid_arg
                (Printf.sprintf
                   "Predict.program: missing binding for iteration count %s"
                   (Ir.count_to_string fo.count))
          in
          if n > 0 then walk_block ~times:(times * n) fo.body)
      b.instrs;
    (* Cross-op digit memo: the second and later key-switch-bearing uses of
       the same ciphertext within this block reuse its decomposition. *)
    let consumers = Hashtbl.create 16 in
    collect_consumers consumers b;
    Hashtbl.iter
      (fun src count ->
        if count > 1 then
          match level_of src with
          | Some level ->
            w.digit_hits <- w.digit_hits + (times * (count - 1));
            w.digit_adj <-
              w.digit_adj
              -. scale (times * (count - 1)) (Cost.decompose_us ~level)
          | None -> ())
      consumers
  and collect_consumers consumers (b : Ir.block) =
    List.iter
      (fun (i : Ir.instr) ->
        let bump src =
          Hashtbl.replace consumers src
            (1 + Option.value ~default:0 (Hashtbl.find_opt consumers src))
        in
        match i.op with
        | Ir.Rotate { src; offset } when offset <> 0 -> bump src
        | Ir.RotateMany { src; offsets }
          when List.exists (fun o -> o <> 0) offsets ->
          bump src
        | Ir.RotSum { src; terms } when List.exists (fun (o, _) -> o <> 0) terms
          ->
          bump src
        | _ -> ())
      b.instrs
  in
  walk_block ~times:1 p.body;
  w

(* ------------------------------------------------------------------ *)
(* Pricing a walk under deployment knobs                               *)
(* ------------------------------------------------------------------ *)

type breakdown = {
  b_compute_us : float;
  b_keyswitch_us : float;
  b_bootstrap_us : float;
  b_keygen_us : float;
  b_pool_us : float;
  b_total_us : float;
  b_base_us : float;
  b_bootstraps : int;
  b_rotations : int;
  b_hoisted_groups : int;
  b_lazy_groups : int;
  b_digit_hits : int;
  b_key_count : int;
  b_working_set_bytes : int;
}

(* Fraction of execution work that parallelizes across the limb-sliced
   domain pool, and the per-extra-domain spawn/sync overhead.  Both are
   deployment estimates (the reference backend ignores the pool); they scale
   every candidate's work uniformly, so they never reorder strategies. *)
let pool_parallel_fraction = 0.9
let pool_spawn_us = 250.0

let price ?(pool = 1) ?(key_budget = 0) (w : walk) =
  let keyswitch = w.rot_flat +. w.hoist_adj +. w.digit_adj +. w.lazy_adj in
  let base = w.compute +. w.rot_flat +. w.boot in
  let work = w.compute +. keyswitch +. w.boot in
  let cold_keygen =
    scale w.key_count (Cost.keygen_us ~level:w.max_level)
  in
  let regen =
    (* LRU under a byte budget: the fraction of the working set that cannot
       stay resident is regenerated, in expectation, once per dynamic
       rotation that would have hit it.  Monotone non-increasing in the
       budget; zero when the full set fits (budget 0 = unbounded). *)
    if key_budget <= 0 || key_budget >= w.working_set_bytes
       || w.working_set_bytes = 0
    then 0.0
    else begin
      let miss =
        1.0
        -. (float_of_int key_budget /. float_of_int w.working_set_bytes)
      in
      miss *. scale w.rotations (Cost.keygen_us ~level:w.max_level)
    end
  in
  let pool = max 1 pool in
  let pooled =
    ((1.0 -. pool_parallel_fraction) *. work)
    +. (pool_parallel_fraction *. work /. float_of_int pool)
    +. (pool_spawn_us *. float_of_int (pool - 1))
  in
  let pool_us = pooled -. work in
  {
    b_compute_us = w.compute;
    b_keyswitch_us = keyswitch;
    b_bootstrap_us = w.boot;
    b_keygen_us = cold_keygen +. regen;
    b_pool_us = pool_us;
    b_total_us = work +. pool_us +. cold_keygen +. regen;
    b_base_us = base;
    b_bootstraps = w.bootstraps;
    b_rotations = w.rotations;
    b_hoisted_groups = w.hoisted_groups;
    b_lazy_groups = w.lazy_groups;
    b_digit_hits = w.digit_hits;
    b_key_count = w.key_count;
    b_working_set_bytes = w.working_set_bytes;
  }

let program ?pool ?key_budget ~bindings p =
  price ?pool ?key_budget (walk_program ~bindings p)

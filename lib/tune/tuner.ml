open Halo
module Cost = Halo_cost.Cost_model
module Pipeline = Halo_verify.Pipeline

type candidate = {
  c_strategy : Strategy.t;
  c_knobs : Strategy.knobs;
  c_key_budget : int;
  c_pool : int;
}

let candidate_to_string c =
  Printf.sprintf "%s u=%d s=%d fuse=%b lazy=%b budget=%d pool=%d"
    (Strategy.to_string c.c_strategy)
    c.c_knobs.unroll c.c_knobs.boot_slack c.c_knobs.rotate_fuse
    c.c_knobs.lazy_switch c.c_key_budget c.c_pool

type result = {
  r_best : candidate;
  r_breakdown : Predict.breakdown;
  r_fixed : (Strategy.t * Predict.breakdown) list;
      (** default-knob prediction per strategy, the hand-picked baselines *)
  r_compiles : int;  (** pass-pipeline runs performed by the search *)
  r_evaluated : int;  (** candidates actually priced *)
  r_pruned : int;  (** candidates eliminated by a dominance argument *)
  r_drift : float;  (** tuned-vs-source fingerprint deviation *)
  r_plan : Plan.t;
}

(* ------------------------------------------------------------------ *)
(* Search space                                                        *)
(* ------------------------------------------------------------------ *)

let unrolls_for = function
  | Strategy.Packing_unrolling | Strategy.Halo -> [ 0; 1; 2; 4 ]
  | Strategy.Dacapo | Strategy.Type_matched | Strategy.Packing -> [ 0 ]

let slacks_for = function
  | Strategy.Halo -> [ 0; 1; 2 ]
  | Strategy.Dacapo | Strategy.Type_matched | Strategy.Packing
  | Strategy.Packing_unrolling ->
    [ 0 ]

let pools = [ 1; 2; 4; 8 ]

(* Byte budgets swept relative to a candidate's switching-key working set:
   unbounded first (ties resolve to it), then half and quarter residency. *)
let budgets_for ~working_set = [ 0; working_set / 2; working_set / 4 ]

(* Candidate enumeration order, shared verbatim by the exhaustive and the
   pruned search so both resolve cost ties to the same (earliest) point:
   strategy in [Strategy.all] order, then unroll asc, slack asc, the
   fuse/lazy combinations [(t,t); (t,f); (f,f)], budget tiers as listed,
   pool asc.  A pruned axis always discards points that come later in this
   order than the point justifying the prune, so pruning preserves the
   argmin even through exact ties. *)
let fuse_lazy = [ (true, true); (true, false); (false, false) ]

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

type search_state = {
  mutable best : (candidate * Predict.breakdown) option;
  mutable compiles : int;
  mutable evaluated : int;
  mutable pruned : int;
}

let consider st cand (b : Predict.breakdown) =
  st.evaluated <- st.evaluated + 1;
  match st.best with
  | Some (_, bb) when bb.Predict.b_total_us <= b.Predict.b_total_us -> ()
  | _ -> st.best <- Some (cand, b)

let prune st n = st.pruned <- st.pruned + n

let compile_for st ~bindings cand p =
  st.compiles <- st.compiles + 1;
  Strategy.compile ~bindings ~knobs:cand.c_knobs ~strategy:cand.c_strategy p

(* Price every (budget, pool) refinement of one compiled+walked point. *)
let sweep_deployment st ~exhaustive cand walk =
  let probe = Predict.price walk in
  let working_set = probe.Predict.b_working_set_bytes in
  let budgets = budgets_for ~working_set in
  List.iteri
    (fun bi budget ->
      if bi > 0 && not exhaustive then
        (* Regeneration cost is monotone non-increasing in the budget, so
           every bounded tier is dominated by the unbounded one (which also
           precedes it in enumeration order). *)
        prune st (List.length pools)
      else begin
        let rec over_pools prev = function
          | [] -> ()
          | pool :: rest ->
            let b = Predict.price ~pool ~key_budget:budget walk in
            consider st
              { cand with c_key_budget = budget; c_pool = pool }
              b;
            if (not exhaustive)
               && Option.fold ~none:false
                    ~some:(fun p -> b.Predict.b_total_us > p)
                    prev
            then
              (* Pool cost is convex (hyperbolic work shrink + linear spawn
                 overhead): once it rises, every larger pool is worse. *)
              prune st (List.length rest)
            else over_pools (Some b.Predict.b_total_us) rest
        in
        over_pools None pools
      end)
    budgets

let search ~exhaustive ~bindings (p : Ir.program) =
  let st = { best = None; compiles = 0; evaluated = 0; pruned = 0 } in
  let fixed = ref [] in
  List.iter
    (fun strategy ->
      List.iter
        (fun unroll ->
          let slacks = slacks_for strategy in
          List.iteri
            (fun si slack ->
              if si > 0 && not exhaustive then
                (* Bootstrap-target slack only raises already-placed
                   bootstraps above their minimum feasible target, and
                   bootstrap latency is monotone in the target, so any
                   positive slack is dominated by slack 0. *)
                prune st
                  (List.length fuse_lazy * 3 * List.length pools)
              else begin
                let cand =
                  {
                    c_strategy = strategy;
                    c_knobs =
                      { Strategy.default_knobs with unroll; boot_slack = slack };
                    c_key_budget = 0;
                    c_pool = 1;
                  }
                in
                (* One pipeline run prices both lazy settings: lazy-switch
                   is the last pass, so the lazy-off program is the run
                   without it and the lazy-on program is that pass applied
                   on top.  Each setting is priced on the program it
                   compiles to, whose every RotSum the lattice backend runs
                   lazily. *)
                let eager =
                  compile_for st ~bindings
                    { cand with c_knobs = { cand.c_knobs with lazy_switch = false } }
                    p
                in
                let fused = Strategy.verified ~strategy (Lazy_switch.program eager) in
                let walk = Predict.walk_program ~bindings fused in
                let eager_walk =
                  if fused = eager then walk else Predict.walk_program ~bindings eager
                in
                List.iter
                  (fun (rotate_fuse, lazy_switch) ->
                    let point =
                      {
                        cand with
                        c_knobs = { cand.c_knobs with rotate_fuse; lazy_switch };
                      }
                    in
                    if rotate_fuse then
                      sweep_deployment st ~exhaustive point
                        (if lazy_switch then walk else eager_walk)
                    else if exhaustive then
                      sweep_deployment st ~exhaustive point
                        (Predict.walk_program ~bindings
                           (compile_for st ~bindings point p))
                    else
                      (* Hoisted groups share a digit decomposition, so the
                         fused program never prices above the unfused one
                         (equal only when no group formed, where the fused
                         point also precedes in order). *)
                      prune st (3 * List.length pools))
                  fuse_lazy;
                if unroll = 0 && slack = 0 then
                  fixed := (strategy, Predict.price walk) :: !fixed
              end)
            slacks)
        (unrolls_for strategy))
    Strategy.all;
  (st, List.rev !fixed)

(* ------------------------------------------------------------------ *)
(* Verification of the winning plan                                    *)
(* ------------------------------------------------------------------ *)

let compile_plan ?(verify = true) ?tol ~bindings (plan : Plan.t) p =
  Pipeline.compile ~bindings ~knobs:plan.Plan.p_knobs ~verify ?tol
    ~strategy:plan.Plan.p_strategy p

let breakdown_pairs (b : Predict.breakdown) =
  [
    ("compute", b.Predict.b_compute_us);
    ("keyswitch", b.Predict.b_keyswitch_us);
    ("bootstrap", b.Predict.b_bootstrap_us);
    ("keygen", b.Predict.b_keygen_us);
    ("pool", b.Predict.b_pool_us);
    ("total", b.Predict.b_total_us);
    ("base", b.Predict.b_base_us);
  ]

let tune ?(exhaustive = false) ?(bindings = []) ?(name = "program") ?tol
    (p : Ir.program) =
  let st, fixed = search ~exhaustive ~bindings p in
  let best, breakdown =
    match st.best with
    | Some bb -> bb
    | None -> invalid_arg "Tuner.tune: empty search space"
  in
  let plan =
    {
      Plan.p_prog = name;
      p_fingerprint = Plan.fingerprint ~bindings p;
      p_strategy = best.c_strategy;
      p_knobs = best.c_knobs;
      p_key_budget = best.c_key_budget;
      p_pool = best.c_pool;
      p_profile = (Cost.current_profile ()).Cost.profile_name;
      p_predicted_us = breakdown.Predict.b_total_us;
      p_breakdown = breakdown_pairs breakdown;
    }
  in
  (* Ship nothing unverified: the winner goes back through the checked
     pipeline (every pass validated, fingerprint drift bounded), then its
     output is compared against the untuned source reference once more.
     The checked run already interpreted both programs on the same inputs;
     only a stage it could not evaluate is interpreted again here, so that
     failure raises. *)
  let checked =
    Pipeline.compile_checked ?tol ~bindings ~knobs:plan.Plan.p_knobs
      ~strategy:plan.Plan.p_strategy p
  in
  let tuned = checked.Pipeline.program in
  let reference =
    match checked.Pipeline.source_fp with
    | Some fp -> fp
    | None -> Pipeline.fingerprint ~bindings p
  in
  let tuned_fp =
    match checked.Pipeline.final_fp with
    | Some fp -> fp
    | None -> Pipeline.fingerprint ~bindings ~inputs:(Pipeline.fixed_inputs p) tuned
  in
  let drift = Pipeline.max_deviation reference tuned_fp in
  let tol = Option.value tol ~default:1e-6 in
  if drift > tol then
    raise
      (Pipeline.Verification_failure
         {
           strategy = Strategy.to_string best.c_strategy;
           pass_name = "tuned-plan";
           detail =
             Printf.sprintf
               "tuned program drifts from untuned reference by %.3e \
                (tolerance %.1e)"
               drift tol;
         });
  ( {
      r_best = best;
      r_breakdown = breakdown;
      r_fixed = fixed;
      r_compiles = st.compiles;
      r_evaluated = st.evaluated;
      r_pruned = st.pruned;
      r_drift = drift;
      r_plan = plan;
    },
    tuned )

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let report (r : result) =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let row label (d : Predict.breakdown) =
    pf "  %-24s %12.1f %10.1f %10.1f %10.1f %10.1f %8.1f %6d %6d\n" label
      d.Predict.b_total_us d.Predict.b_compute_us d.Predict.b_keyswitch_us
      d.Predict.b_bootstrap_us d.Predict.b_keygen_us d.Predict.b_pool_us
      d.Predict.b_bootstraps d.Predict.b_rotations
  in
  pf "tuned plan for %s (profile %s)\n" r.r_plan.Plan.p_prog
    r.r_plan.Plan.p_profile;
  pf "  %s\n" (candidate_to_string r.r_best);
  pf "  search: %d compiles, %d candidates priced, %d pruned, drift %.1e\n\n"
    r.r_compiles r.r_evaluated r.r_pruned r.r_drift;
  pf "  %-24s %12s %10s %10s %10s %10s %8s %6s %6s\n" "configuration"
    "total_us" "compute" "keyswitch" "bootstrap" "keygen" "pool" "boots"
    "rots";
  List.iter
    (fun (s, d) -> row (Strategy.to_string s ^ " (fixed)") d)
    r.r_fixed;
  row "autotuned" r.r_breakdown;
  let best_fixed =
    List.fold_left
      (fun acc (_, d) -> Float.min acc d.Predict.b_total_us)
      infinity r.r_fixed
  in
  pf "\n  predicted speedup vs best fixed strategy: %.3fx\n"
    (best_fixed /. r.r_breakdown.Predict.b_total_us);
  Buffer.contents b

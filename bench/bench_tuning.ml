(* Autotuner benchmark over the paper's seven ML workloads.

   For each workload the harness tunes with [Halo_tune.Tuner] (pruned
   search, checked-pipeline verification of the argmin) and compares the
   tuned plan against every fixed strategy compiled with default knobs, on
   both axes the tuner is judged by:

   - predicted: the cost model's total for the tuned configuration must not
     exceed any fixed strategy's predicted total (holds by construction —
     the search space contains every fixed point — so a violation means the
     search is broken);
   - measured: executing the tuned program on the reference backend must
     not report more virtual latency than the best fixed strategy's run
     (this is the substantive claim: the model's ordering survives contact
     with execution).

   Every tuned run also checks its RMSE against the cleartext reference to
   the same magnitude as the best fixed strategy's, so a plan can never buy
   speed with accuracy.

   The process exits nonzero on any violation.  Results go to stdout and,
   with [--json PATH], to a halo-bench-tuning/v1 report (the committed
   BENCH_tuning.json). *)

module Workloads = Halo_ml.Workloads
module Bench_def = Halo_ml.Bench_def
module Tuner = Halo_tune.Tuner
module Plan = Halo_tune.Plan
module Predict = Halo_tune.Predict
module Cost = Halo_cost.Cost_model
open Halo

type fixed_row = {
  f_strategy : Strategy.t;
  f_predicted_us : float;
  f_measured_us : float;
  f_rmse : float;
}

type row = {
  w_name : string;
  w_plan : Plan.t;
  w_predicted_us : float;
  w_measured_us : float;
  w_rmse : float;
  w_fixed : fixed_row list;
  w_predicted_ok : bool;
  w_measured_ok : bool;
  w_rmse_ok : bool;
}

let run_workload ~iters ~size (b : Bench_def.t) =
  let slots = 16 * size in
  let prog = b.build ~slots ~size in
  let bindings = Workloads.default_bindings b ~iters in
  let result, tuned = Tuner.tune ~bindings ~name:b.name prog in
  let measure compiled =
    let rmse, stats = Workloads.run_compiled b ~slots ~size ~seed:0 ~iters compiled in
    (stats.Halo_runtime.Stats.total_latency_us, rmse)
  in
  let fixed =
    List.map
      (fun strategy ->
        let compiled = Strategy.compile ~bindings ~strategy prog in
        let predicted =
          (Predict.program ~bindings compiled).Predict.b_total_us
        in
        let measured, rmse = measure compiled in
        { f_strategy = strategy; f_predicted_us = predicted;
          f_measured_us = measured; f_rmse = rmse })
      Strategy.all
  in
  let measured, rmse = measure tuned in
  let best_fixed f = List.fold_left (fun acc r -> Float.min acc (f r)) infinity fixed in
  let predicted = result.Tuner.r_plan.Plan.p_predicted_us in
  let predicted_ok =
    List.for_all (fun r -> predicted <= r.f_predicted_us) fixed
  in
  let measured_ok = measured <= best_fixed (fun r -> r.f_measured_us) in
  (* The tuned plan passed the checked pipeline, so its cleartext semantics
     are the untuned program's; RMSE can still differ slightly through
     backend noise order.  Require the same magnitude as the best fixed
     strategy, with headroom. *)
  let rmse_ok = rmse <= 10.0 *. best_fixed (fun r -> r.f_rmse) in
  let row =
    {
      w_name = b.name;
      w_plan = result.Tuner.r_plan;
      w_predicted_us = predicted;
      w_measured_us = measured;
      w_rmse = rmse;
      w_fixed = fixed;
      w_predicted_ok = predicted_ok;
      w_measured_ok = measured_ok;
      w_rmse_ok = rmse_ok;
    }
  in
  Printf.printf "%-13s tuned: %-60s\n%!" b.name
    (Tuner.candidate_to_string result.Tuner.r_best);
  Printf.printf "  %-22s %14s %14s %10s\n" "configuration" "predicted_us"
    "measured_us" "rmse";
  List.iter
    (fun r ->
      Printf.printf "  %-22s %14.1f %14.1f %10.2e\n"
        (Strategy.to_string r.f_strategy)
        r.f_predicted_us r.f_measured_us r.f_rmse)
    fixed;
  Printf.printf "  %-22s %14.1f %14.1f %10.2e  %s\n%!" "autotuned" predicted
    measured rmse
    (if predicted_ok && measured_ok && rmse_ok then "OK"
     else
       Printf.sprintf "VIOLATION (predicted %b, measured %b, rmse %b)"
         predicted_ok measured_ok rmse_ok);
  row

let json_escape s = String.concat "\\\"" (String.split_on_char '"' s)

let json_of_rows ~iters ~size rows =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "{\n";
  pf "  \"schema\": \"halo-bench-tuning/v1\",\n";
  pf "  \"profile\": \"%s\",\n"
    (json_escape (Cost.current_profile ()).Cost.profile_name);
  pf "  \"iters\": %d,\n" iters;
  pf "  \"size\": %d,\n" size;
  pf "  \"workloads\": [\n";
  List.iteri
    (fun i r ->
      let p = r.w_plan in
      pf "    {\n";
      pf "      \"name\": \"%s\",\n" (json_escape r.w_name);
      pf
        "      \"tuned\": { \"strategy\": \"%s\", \"unroll\": %d, \
         \"boot_slack\": %d, \"rotate_fuse\": %b, \"lazy_switch\": %b, \
         \"key_budget\": %d, \"pool\": %d, \"predicted_us\": %.1f, \
         \"measured_us\": %.1f, \"rmse\": %.3e },\n"
        (Strategy.to_string p.Plan.p_strategy)
        p.Plan.p_knobs.unroll p.Plan.p_knobs.boot_slack
        p.Plan.p_knobs.rotate_fuse p.Plan.p_knobs.lazy_switch
        p.Plan.p_key_budget p.Plan.p_pool
        r.w_predicted_us r.w_measured_us r.w_rmse;
      pf "      \"fixed\": [\n";
      List.iteri
        (fun j f ->
          pf
            "        { \"strategy\": \"%s\", \"predicted_us\": %.1f, \
             \"measured_us\": %.1f, \"rmse\": %.3e }%s\n"
            (Strategy.to_string f.f_strategy)
            f.f_predicted_us f.f_measured_us f.f_rmse
            (if j = List.length r.w_fixed - 1 then "" else ","))
        r.w_fixed;
      pf "      ],\n";
      pf "      \"predicted_ok\": %b,\n" r.w_predicted_ok;
      pf "      \"measured_ok\": %b,\n" r.w_measured_ok;
      pf "      \"rmse_ok\": %b\n" r.w_rmse_ok;
      pf "    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  pf "  ],\n";
  pf "  \"all_ok\": %b\n"
    (List.for_all
       (fun r -> r.w_predicted_ok && r.w_measured_ok && r.w_rmse_ok)
       rows);
  pf "}\n";
  Buffer.contents b

let () =
  let iters = ref 10 in
  let size = ref 64 in
  let json = ref "" in
  let only = ref [] in
  let spec =
    [
      ("--iters", Arg.Set_int iters, "N training iterations (default 10)");
      ("--size", Arg.Set_int size, "N samples; slots = 16*N (default 64)");
      ("--json", Arg.Set_string json, "PATH write a JSON report");
      ( "--workload",
        Arg.String (fun s -> only := s :: !only),
        "NAME restrict to one workload (repeatable)" );
      ( "--tiny",
        Arg.Unit
          (fun () ->
            iters := 3;
            size := 16),
        " CI mode: 3 iterations, 16 samples" );
    ]
  in
  Arg.parse spec
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "bench_tuning [--iters N] [--size N] [--workload NAME] [--json PATH]";
  let workloads =
    if !only = [] then Workloads.all
    else
      List.map Workloads.find !only
  in
  let rows = List.map (run_workload ~iters:!iters ~size:!size) workloads in
  let ok =
    List.for_all
      (fun r -> r.w_predicted_ok && r.w_measured_ok && r.w_rmse_ok)
      rows
  in
  if !json <> "" then begin
    let oc = open_out !json in
    output_string oc (json_of_rows ~iters:!iters ~size:!size rows);
    close_out oc;
    Printf.printf "wrote %s\n" !json
  end;
  Printf.printf "autotuned <= best fixed on %d/%d workloads\n"
    (List.length
       (List.filter
          (fun r -> r.w_predicted_ok && r.w_measured_ok && r.w_rmse_ok)
          rows))
    (List.length rows);
  exit (if ok then 0 else 1)

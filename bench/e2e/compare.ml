(* Compares benchmark results from two commits:

     dune exec bench/e2e/compare.exe -- BENCHMARK.json PARENT.jsonl CHANGE.jsonl

   Each results file holds the records [bench_e2e --out FILE] appends, one
   run per line.  Runs of the two sides are paired by workload and seed.
   For every (metric, workload) it prints each side's median and quartiles
   (Python's statistics.quantiles, exclusive method), the change in the
   median, the paired wins, and a verdict:

   - improved: the change wins at least 9/10 of the pairs (ties count for
     neither) and the medians differ by more than the parent's quartile
     spread;
   - regressed: the change's median is worse than the parent's by more than
     the metric's bound in BENCHMARK.json;
   - unresolved: the parent's own quartile spread exceeds the bound and not
     every change run beats every parent run, or the change has more failed
     operations on the workload than the parent;
   - unchanged: otherwise.

   Per-layer metrics have no bound: they are improved or worse by the
   paired rule alone, and never fail the comparison.  The exit code is 1 if
   any end-to-end metric regressed. *)

type run = { workload : string; seed : int; trace : int; result : Json.t }

let read_runs path =
  List.map
    (fun j ->
      {
        workload = Json.to_str (Json.member "workload" j);
        seed = int_of_float (Json.to_num (Json.member "seed" j));
        trace = int_of_float (Json.to_num (Json.member "trace" j));
        result = Json.member "result" j;
      })
    (Json.read_lines path)

let quartiles xs =
  let data = Array.of_list (List.sort compare xs) in
  let n = Array.length data in
  if n = 1 then (data.(0), data.(0), data.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((data.(j - 1) *. (4.0 -. delta)) +. (data.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let value run name =
  Json.to_num (Json.member "value" (Json.member name (Json.member "metrics" run.result)))

let failed runs =
  List.fold_left
    (fun acc r -> acc + int_of_float (Json.to_num (Json.member "failed" r.result)))
    0 runs

let () =
  match Array.to_list Sys.argv with
  | [ _; bench; parent_file; change_file ] ->
    let spec = Json.of_string (Json.read_file bench) in
    let parent = read_runs parent_file and change = read_runs change_file in
    let workloads =
      List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change))
    in
    let regressed = ref false in
    Printf.printf "%-15s %-32s %-34s %-34s %8s %6s  %s\n" "workload" "metric"
      "parent median [q1, q3]" "change median [q1, q3]" "delta" "wins" "verdict";
    List.iter
      (fun (list, trace) ->
        List.iter
          (fun m ->
            let name = Json.to_str (Json.member "name" m) in
            let lower = Json.to_str (Json.member "better" m) = "lower" in
            let bound =
              match m with
              | Json.Obj kvs -> Option.map Json.to_num (List.assoc_opt "bound" kvs)
              | _ -> None
            in
            List.iter
              (fun w ->
                let side runs =
                  List.filter (fun r -> r.workload = w && r.trace = trace) runs
                in
                let ps = side parent and cs = side change in
                if ps <> [] && cs <> [] then begin
                  let better a b = if lower then a < b else a > b in
                  let pv = List.map (fun r -> value r name) ps in
                  let cv = List.map (fun r -> value r name) cs in
                  let p1, pm, p3 = quartiles pv and c1, cm, c3 = quartiles cv in
                  let pairs =
                    List.filter_map
                      (fun c ->
                        Option.map
                          (fun p -> (value p name, value c name))
                          (List.find_opt (fun p -> p.seed = c.seed) ps))
                      cs
                  in
                  let wins = List.length (List.filter (fun (p, c) -> better c p) pairs) in
                  let losses = List.length (List.filter (fun (p, c) -> better p c) pairs) in
                  let npairs = List.length pairs in
                  let decisive k = npairs > 0 && 10 * k >= 9 * npairs in
                  let apart = Float.abs (cm -. pm) > p3 -. p1 in
                  let scale = Float.abs pm in
                  let worse = if scale = 0.0 then 0.0 else (if lower then cm -. pm else pm -. cm) /. scale in
                  let spread = if scale = 0.0 then 0.0 else (p3 -. p1) /. scale in
                  let all_better =
                    List.for_all (fun c -> List.for_all (fun p -> better c p) pv) cv
                  in
                  let improved = decisive wins && apart && better cm pm in
                  let verdict =
                    match bound with
                    | None ->
                      if improved then "improved"
                      else if decisive losses && apart then "worse"
                      else "unchanged"
                    | Some b ->
                      if failed cs > failed ps then "unresolved (more failures)"
                      else if spread > b && not all_better then "unresolved"
                      else if improved then "improved"
                      else if worse > b then begin
                        regressed := true;
                        "REGRESSED"
                      end
                      else "unchanged"
                  in
                  Printf.printf "%-15s %-32s %-34s %-34s %+7.1f%% %6s  %s\n" w name
                    (Printf.sprintf "%.5g [%.5g, %.5g]" pm p1 p3)
                    (Printf.sprintf "%.5g [%.5g, %.5g]" cm c1 c3)
                    (if scale = 0.0 then 0.0 else 100.0 *. (cm -. pm) /. scale)
                    (Printf.sprintf "%d/%d" wins npairs)
                    verdict
                end)
              workloads)
          (Json.to_list (Json.member list spec)))
      [ ("end_to_end", 0); ("per_layer", 1) ];
    exit (if !regressed then 1 else 0)
  | _ ->
    prerr_endline "usage: compare BENCHMARK.json PARENT.jsonl CHANGE.jsonl";
    exit 2

(* Per-layer summary of span traces written by [bench_e2e --trace 1
   --trace-out FILE]:

     dune exec bench/e2e/trace_summary.exe -- FILE...

   For each workload it prints, per (layer, name): calls, total and self
   time, self time as a share of all traced time, and where the spans
   carry one, the host cost-model prediction and measured/predicted.
   It then checks that the interpreter spans (which contain the backend
   spans) cover at least 95 % of exec-job wall time, so the per-layer split
   accounts for the end-to-end time; the exit code is 1 if any workload
   falls short. *)

let min_coverage = 0.95

let workload_of (s : Span.t) =
  match String.index_opt s.trace '/' with
  | Some i -> String.sub s.trace 0 i
  | None -> s.trace

let summarize workload spans =
  let aggs = Span.aggregate spans in
  let rows = Hashtbl.fold (fun key a acc -> (key, a) :: acc) aggs [] in
  let rows = List.sort (fun (_, a) (_, b) -> compare b.Span.self_ns a.Span.self_ns) rows in
  (* Root spans (jobs and standalone measurements) partition traced time. *)
  let traced =
    List.fold_left
      (fun acc (s : Span.t) -> if s.parent = 0 then acc +. Span.duration_ns s else acc)
      0.0 spans
  in
  Printf.printf "== %s: %d spans, %.1f ms traced ==\n" workload (List.length spans)
    (traced /. 1e6);
  Printf.printf "  %-10s %-24s %8s %12s %12s %7s %12s %10s\n" "layer" "name" "calls"
    "total_ms" "self_ms" "self%" "pred_ms" "meas/pred";
  List.iter
    (fun ((layer, name), (a : Span.agg)) ->
      let pred =
        if a.pred_us > 0.0 then
          Printf.sprintf "%12.3f %10.3f" (a.pred_us /. 1e3) (Span.ratio [ a ])
        else Printf.sprintf "%12s %10s" "-" "-"
      in
      Printf.printf "  %-10s %-24s %8d %12.3f %12.3f %6.1f%% %s\n" layer name a.calls
        (a.total_ns /. 1e6) (a.self_ns /. 1e6)
        (if traced > 0.0 then 100.0 *. a.self_ns /. traced else 0.0)
        pred)
    rows;
  let find = Span.find aggs in
  let exec_jobs = (find "bench" "exec").total_ns in
  let covered = (find "runtime" "interp.run").total_ns in
  let coverage = if exec_jobs > 0.0 then covered /. exec_jobs else 1.0 in
  Printf.printf
    "  cost-model ratios (measured / host-profile prediction; the prediction is \
     a model value):\n";
  let backend = find "backend" in
  List.iter
    (fun (label, aggs) -> Printf.printf "    %-10s %10.4f\n" label (Span.ratio aggs))
    [
      ("exec", [ find "runtime" "interp.run" ]);
      ("rotate", List.map backend [ "rotate"; "rotate_many"; "rot_sum" ]);
      ("multcc", [ backend "multcc" ]);
      ("rescale", [ backend "rescale" ]);
      ("bootstrap", [ backend "bootstrap" ]);
      ("keygen", [ find "ckks" "keys.rotation_keygen" ]);
    ];
  Printf.printf "  interpreter+backend spans cover %.1f%% of exec-job wall time%s\n"
    (100.0 *. coverage)
    (if coverage < min_coverage then "  BELOW 95%" else "");
  coverage >= min_coverage

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
    prerr_endline "usage: trace_summary FILE...";
    exit 2
  | files ->
    let spans = List.concat_map Span.read files in
    let workloads = List.sort_uniq compare (List.map workload_of spans) in
    let verdicts =
      List.map
        (fun w -> summarize w (List.filter (fun s -> workload_of s = w) spans))
        workloads
    in
    exit (if List.for_all Fun.id verdicts then 0 else 1)

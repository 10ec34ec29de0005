(* Benchmark harness: regenerates every table and figure of the HALO paper's
   evaluation (Section 7).  Run with no arguments for everything, or
   `--only table5,fig4` for a subset; `--iters`, `--size` and `--slots`
   rescale the workloads.  EXPERIMENTS.md records paper-vs-measured.

   Latency numbers are modeled: the interpreter counts every executed
   RNS-CKKS operation and charges it from the cost model calibrated to the
   paper's own GPU measurements (Tables 2-3) — see DESIGN.md's substitution
   table.  Compile times and code sizes are real measurements of this
   implementation.  The bechamel section measures the real lattice backend
   (small parameters) live. *)

open Halo
module W = Halo_ml.Workloads
module Stats = Halo_runtime.Stats
module Cost = Halo_cost.Cost_model
module R = Halo_runtime.Interp.Make (Halo_ckks.Ref_backend)

type config = {
  slots : int;
  size : int;
  iters : int;
  seeds : int list;
  sections : string list; (* empty = all *)
}

let default_config =
  { slots = 8192; size = 512; iters = 40; seeds = [ 0; 1; 2; 3; 4 ]; sections = [] }

let wants cfg section = cfg.sections = [] || List.mem section cfg.sections

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let strategies = Strategy.all

let strategy_label s =
  match s with
  | Strategy.Dacapo -> "DaCapo"
  | Strategy.Type_matched -> "Type-matched"
  | Strategy.Packing -> "Packing"
  | Strategy.Packing_unrolling -> "Packing+Unroll"
  | Strategy.Halo -> "HALO"

(* Compile + execute one benchmark under one strategy; memoized because
   several sections need the same runs. *)
let run_cache : (string * Strategy.t * int, Stats.t * float) Hashtbl.t =
  Hashtbl.create 64

let run cfg (b : Halo_ml.Bench_def.t) strategy ~iters =
  let key = (b.name, strategy, iters) in
  match Hashtbl.find_opt run_cache key with
  | Some r -> r
  | None ->
    let rmse, stats =
      W.run_rmse b ~slots:cfg.slots ~size:cfg.size ~seed:(List.hd cfg.seeds)
        ~iters ~strategy
    in
    Hashtbl.replace run_cache key (stats, rmse);
    (stats, rmse)

let compile_only cfg (b : Halo_ml.Bench_def.t) strategy ~iters =
  let program = b.build ~slots:cfg.slots ~size:cfg.size in
  Strategy.compile ~bindings:(W.default_bindings b ~iters) ~strategy program

(* ------------------------------------------------------------------ *)
(* Table 1: FHE parameters                                             *)
(* ------------------------------------------------------------------ *)

let table1 cfg =
  header "Table 1: FHE parameters";
  let s = Halo_ckks.Params.paper_spec in
  Printf.printf "paper parameter set:   N = 2^%d, log2 Q = %d, R_f = 2^%d, L = %d\n"
    s.spec_log_n s.spec_log_q s.spec_scale_bits s.spec_max_level;
  Printf.printf "simulated workload:    slots = %d, vector size = %d, L = 16\n"
    cfg.slots cfg.size;
  let p = Halo_ckks.Params.test_small () in
  Printf.printf "lattice test set:      N = 2^10 (%d slots), L = %d, scale = 2^27\n"
    p.slots p.max_level

(* ------------------------------------------------------------------ *)
(* Table 2 / Table 3: operation latencies                              *)
(* ------------------------------------------------------------------ *)

let table2 _cfg =
  header "Table 2: latency of FHE operations at different levels (us)";
  Printf.printf "%-10s %10s %10s %10s %10s   (cost model; paper anchors)\n"
    "operation" "l=1" "l=5" "l=10" "l=15";
  List.iter
    (fun op ->
      Printf.printf "%-10s" (Cost.op_to_string op);
      List.iter
        (fun l -> Printf.printf " %10.0f" (Cost.latency_us op ~level:l))
        Cost.table2_levels;
      print_newline ())
    Cost.[ Multcc; Rescale; Modswitch; Addcc; Multcp; Rotate ]

let table3 _cfg =
  header "Table 3: bootstrap latency by target level (us)";
  Printf.printf "%-10s" "target";
  List.iter (fun t -> Printf.printf " %10d" t) Cost.table3_targets;
  Printf.printf "\n%-10s" "bootstrap";
  List.iter
    (fun t -> Printf.printf " %10.0f" (Cost.bootstrap_latency_us ~target:t))
    Cost.table3_targets;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table 4: benchmark characteristics and RMSE                         *)
(* ------------------------------------------------------------------ *)

let table4 cfg =
  header "Table 4: benchmark characteristics and RMSE (HALO, across seeds)";
  Printf.printf "%-13s %5s %9s %-10s %12s %12s\n" "benchmark" "depth"
    "#carried" "approx." "max RMSE" "min RMSE";
  List.iter
    (fun (b : Halo_ml.Bench_def.t) ->
      let iters = if b.loop_depth = 2 then 6 else cfg.iters in
      let rmses =
        List.map
          (fun seed ->
            let r, _ =
              W.run_rmse b ~slots:cfg.slots ~size:cfg.size ~seed ~iters
                ~strategy:Strategy.Halo
            in
            r)
          cfg.seeds
      in
      let mx = List.fold_left Float.max neg_infinity rmses in
      let mn = List.fold_left Float.min infinity rmses in
      Printf.printf "%-13s %5d %9s %-10s %12.2e %12.2e\n" b.name b.loop_depth
        b.carried
        (match b.approx with [] -> "-" | l -> String.concat "," l)
        mx mn)
    W.all

(* ------------------------------------------------------------------ *)
(* Table 5: bootstrap counts, five compilers, 40 iterations            *)
(* ------------------------------------------------------------------ *)

let table5 cfg =
  header
    (Printf.sprintf "Table 5: bootstrap count per compiler (%d iterations)" cfg.iters);
  Printf.printf "%-13s" "benchmark";
  List.iter (fun s -> Printf.printf " %15s" (strategy_label s)) strategies;
  print_newline ();
  List.iter
    (fun (b : Halo_ml.Bench_def.t) ->
      Printf.printf "%-13s" b.name;
      List.iter
        (fun s ->
          let stats, _ = run cfg b s ~iters:cfg.iters in
          Printf.printf " %15d" stats.Stats.bootstrap)
        strategies;
      print_newline ())
    W.flat

(* ------------------------------------------------------------------ *)
(* Figure 4: end-to-end latency with bootstrap share                   *)
(* ------------------------------------------------------------------ *)

let fig4 cfg =
  header
    (Printf.sprintf
       "Figure 4: end-to-end latency (s), bootstrap share in parentheses (%d iterations)"
       cfg.iters);
  Printf.printf "%-13s" "benchmark";
  List.iter (fun s -> Printf.printf " %18s" (strategy_label s)) strategies;
  print_newline ();
  let geo_speedup = ref 0.0 and n = ref 0 in
  List.iter
    (fun (b : Halo_ml.Bench_def.t) ->
      Printf.printf "%-13s" b.name;
      let latency s =
        let stats, _ = run cfg b s ~iters:cfg.iters in
        stats.Stats.total_latency_us
      in
      List.iter
        (fun s ->
          let stats, _ = run cfg b s ~iters:cfg.iters in
          Printf.printf " %11.2f (%3.0f%%)"
            (stats.Stats.total_latency_us /. 1e6)
            (100.0 *. stats.Stats.bootstrap_latency_us /. stats.Stats.total_latency_us))
        strategies;
      print_newline ();
      geo_speedup := !geo_speedup +. log (latency Strategy.Dacapo /. latency Strategy.Halo);
      incr n)
    W.flat;
  Printf.printf
    "geomean HALO speedup over DaCapo: %.2fx (paper reports 1.27x on GPU HEaaN)\n"
    (exp (!geo_speedup /. float_of_int !n));
  let tm_gain = ref 0.0 in
  List.iter
    (fun (b : Halo_ml.Bench_def.t) ->
      let l s =
        let stats, _ = run cfg b s ~iters:cfg.iters in
        stats.Stats.total_latency_us
      in
      tm_gain := !tm_gain +. log (l Strategy.Type_matched /. l Strategy.Halo))
    W.flat;
  Printf.printf
    "geomean HALO speedup over Type-matched: %.2fx (paper reports 2.39x)\n"
    (exp (!tm_gain /. float_of_int (List.length W.flat)))

(* ------------------------------------------------------------------ *)
(* Table 7: code size scaling (Table 6, compile time, is              *)
(* bench/bench_compile.ml)                                             *)
(* ------------------------------------------------------------------ *)

let iteration_grid = [ 10; 20; 30; 40 ]

let table7 cfg =
  header "Table 7: code size (KB) -- DaCapo fully unrolled vs HALO";
  Printf.printf "%-13s" "benchmark";
  List.iter (fun k -> Printf.printf " %10s" (Printf.sprintf "DaCapo@%d" k)) iteration_grid;
  Printf.printf " %10s %12s\n" "HALO" "improv@40";
  List.iter
    (fun (b : Halo_ml.Bench_def.t) ->
      Printf.printf "%-13s%!" b.name;
      let kb p = float_of_int (Printer.code_size_bytes p) /. 1024.0 in
      let dacapo_sizes =
        List.map
          (fun iters ->
            let p = compile_only cfg b Strategy.Dacapo ~iters in
            let s = kb p in
            Printf.printf " %10.1f%!" s;
            s)
          iteration_grid
      in
      let p = compile_only cfg b Strategy.Halo ~iters:cfg.iters in
      let halo_kb = kb p in
      let last = List.nth dacapo_sizes (List.length dacapo_sizes - 1) in
      Printf.printf " %10.1f %11.1fx\n" halo_kb (last /. halo_kb))
    W.flat

(* ------------------------------------------------------------------ *)
(* Figure 5 / Table 8: the PCA nested loop                             *)
(* ------------------------------------------------------------------ *)

let pca_run cfg strategy ~outer ~inner =
  let b = W.find "PCA" in
  let program = b.build ~slots:cfg.slots ~size:cfg.size in
  let bindings = [ ("outer", outer); ("inner", inner) ] in
  let t0 = Unix.gettimeofday () in
  let compiled = Strategy.compile ~bindings ~strategy program in
  let compile_t = Unix.gettimeofday () -. t0 in
  let inputs = b.gen_inputs ~seed:(List.hd cfg.seeds) ~size:cfg.size in
  let st =
    Halo_ckks.Ref_backend.create ~slots:cfg.slots ~max_level:16 ~scale_bits:51 ()
  in
  let _, stats = R.run st ~bindings ~inputs compiled in
  (stats, compile_t, Printer.code_size_bytes compiled)

let fig5 cfg =
  header "Figure 5: PCA latency (s) by (outer, inner) iterations";
  let outers = [ 2; 4; 6; 8 ] and inners = [ 2; 4; 8 ] in
  Printf.printf "%-18s" "config:";
  List.iter
    (fun o -> List.iter (fun i -> Printf.printf " %9s" (Printf.sprintf "(%d,%d)" o i)) inners)
    outers;
  print_newline ();
  List.iter
    (fun s ->
      Printf.printf "%-18s" (strategy_label s);
      List.iter
        (fun o ->
          List.iter
            (fun i ->
              let stats, _, _ = pca_run cfg s ~outer:o ~inner:i in
              Printf.printf " %9.2f" (stats.Stats.total_latency_us /. 1e6))
            inners)
        outers;
      print_newline ())
    Strategy.[ Dacapo; Type_matched; Halo ]

let table8 cfg =
  header "Table 8: PCA bootstrap counts by (outer, inner) iterations";
  let configs = [ (2, 2); (2, 8); (4, 2); (4, 8); (6, 2); (6, 8); (8, 2); (8, 8) ] in
  Printf.printf "%-18s" "compiler";
  List.iter (fun (o, i) -> Printf.printf " %8s" (Printf.sprintf "(%d,%d)" o i)) configs;
  print_newline ();
  List.iter
    (fun s ->
      Printf.printf "%-18s" (strategy_label s);
      List.iter
        (fun (o, i) ->
          let stats, _, _ = pca_run cfg s ~outer:o ~inner:i in
          Printf.printf " %8d" stats.Stats.bootstrap)
        configs;
      print_newline ())
    Strategy.[ Dacapo; Type_matched; Halo ];
  (* The paper highlights the (8,8) code-size / compile-time gap. *)
  let _, dacapo_t, dacapo_sz = pca_run cfg Strategy.Dacapo ~outer:8 ~inner:8 in
  let _, halo_t, halo_sz = pca_run cfg Strategy.Halo ~outer:8 ~inner:8 in
  Printf.printf
    "(8,8): code size %.1fx smaller, compile %.1fx faster with HALO \
     (paper: 13.66x, 146.75x)\n"
    (float_of_int dacapo_sz /. float_of_int halo_sz)
    (dacapo_t /. Float.max 1e-9 halo_t)

(* ------------------------------------------------------------------ *)
(* Ablations beyond the paper                                          *)
(* ------------------------------------------------------------------ *)

let ablations cfg =
  header "Ablation: DaCapo candidate filter width (Linear, 40 iterations)";
  let b = W.find "Linear" in
  let program = b.build ~slots:cfg.slots ~size:cfg.size in
  let bindings = W.default_bindings b ~iters:cfg.iters in
  List.iter
    (fun width ->
      let t0 = Unix.gettimeofday () in
      let compiled =
        Strategy.compile ~bindings ~dacapo_config:{ Dacapo.filter_width = width }
          ~strategy:Strategy.Dacapo program
      in
      let dt = Unix.gettimeofday () -. t0 in
      let inputs = b.gen_inputs ~seed:0 ~size:cfg.size in
      let st =
        Halo_ckks.Ref_backend.create ~slots:cfg.slots ~max_level:16 ~scale_bits:51 ()
      in
      let _, stats = R.run st ~bindings ~inputs compiled in
      Printf.printf
        "filter width %3d: %3d bootstraps, latency %6.2fs, compile %5.2fs\n" width
        stats.Stats.bootstrap
        (stats.Stats.total_latency_us /. 1e6)
        dt)
    [ 2; 4; 8; 16 ];
  header "Ablation: tuning contribution per benchmark (bootstrap latency saved)";
  List.iter
    (fun (b : Halo_ml.Bench_def.t) ->
      let pu, _ = run cfg b Strategy.Packing_unrolling ~iters:cfg.iters in
      let halo, _ = run cfg b Strategy.Halo ~iters:cfg.iters in
      Printf.printf "%-13s bootstrap latency %6.2fs -> %6.2fs (%.0f%% saved)\n"
        b.name
        (pu.Stats.bootstrap_latency_us /. 1e6)
        (halo.Stats.bootstrap_latency_us /. 1e6)
        (100.0
        *. (pu.Stats.bootstrap_latency_us -. halo.Stats.bootstrap_latency_us)
        /. pu.Stats.bootstrap_latency_us))
    W.flat

(* ------------------------------------------------------------------ *)
(* Static analyses of the compiled artifacts (beyond the paper)        *)
(* ------------------------------------------------------------------ *)

let analysis cfg =
  header "Compiled-artifact analysis (HALO strategy): depth, keys, noise";
  Printf.printf "%-13s %8s %12s %14s %16s\n" "benchmark" "depth" "rot. keys"
    "static noise" "ops (static)";
  List.iter
    (fun (b : Halo_ml.Bench_def.t) ->
      let program = b.build ~slots:cfg.slots ~size:cfg.size in
      let compiled = Strategy.compile ~strategy:Strategy.Halo program in
      let nb = Noise_budget.analyze compiled in
      Printf.printf "%-13s %8d %12d %14s %16d\n" b.name
        (Depth.program_depth program)
        (Rotations.count compiled)
        (if nb.bounded then Printf.sprintf "%.1e" nb.worst else "unbounded")
        (Ir.count_ops compiled.body))
    W.all

(* ------------------------------------------------------------------ *)
(* Live micro-benchmarks of the lattice backend (bechamel)             *)
(* ------------------------------------------------------------------ *)

let bechamel_section _cfg =
  header "Live lattice-backend microbenchmarks (bechamel, N=2^10)";
  let open Bechamel in
  let params = Halo_ckks.Params.test_small () in
  let keys = Halo_ckks.Keys.keygen params in
  let values = Array.init params.slots (fun i -> float_of_int (i mod 16) /. 16.0) in
  let ct_at level = Halo_ckks.Eval.encrypt_sym keys ~level values in
  let tests =
    List.concat_map
      (fun level ->
        let a = ct_at level and b = ct_at level in
        [
          Test.make
            ~name:(Printf.sprintf "multcc@l%d (table2)" level)
            (Staged.stage (fun () -> ignore (Halo_ckks.Eval.multcc keys a b)));
          Test.make
            ~name:(Printf.sprintf "rescale@l%d (table2)" level)
            (Staged.stage (fun () ->
                 ignore (Halo_ckks.Eval.rescale keys (Halo_ckks.Eval.multcc keys a b))));
          Test.make
            ~name:(Printf.sprintf "modswitch@l%d (table2)" level)
            (Staged.stage (fun () ->
                 ignore (Halo_ckks.Eval.modswitch keys a ~down:1)));
        ])
      [ 2; 4; 8 ]
    @ List.map
        (fun target ->
          let a = ct_at 2 in
          Test.make
            ~name:(Printf.sprintf "bootstrap@t%d (table3)" target)
            (Staged.stage (fun () ->
                 ignore (Halo_ckks.Bootstrap_oracle.bootstrap keys a ~target))))
        [ 2; 4; 8 ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg_b = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg_b [ instance ] test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance results
      in
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-28s %12.1f ns/run\n" name est
          | _ -> Printf.printf "%-28s (no estimate)\n" name)
        ols)
    tests

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("fig4", fig4);
    ("table7", table7);
    ("fig5", fig5);
    ("table8", table8);
    ("ablations", ablations);
    ("analysis", analysis);
    ("bechamel", bechamel_section);
  ]

let parse_args () =
  let cfg = ref default_config in
  let rec go = function
    | [] -> ()
    | "--only" :: v :: rest ->
      cfg := { !cfg with sections = String.split_on_char ',' v };
      go rest
    | "--iters" :: v :: rest ->
      cfg := { !cfg with iters = int_of_string v };
      go rest
    | "--size" :: v :: rest ->
      cfg := { !cfg with size = int_of_string v };
      go rest
    | "--slots" :: v :: rest ->
      cfg := { !cfg with slots = int_of_string v };
      go rest
    | "--seeds" :: v :: rest ->
      cfg :=
        { !cfg with seeds = List.map int_of_string (String.split_on_char ',' v) };
      go rest
    | arg :: _ ->
      Printf.eprintf
        "unknown argument %s\nusage: main.exe [--only s1,s2] [--iters N] [--size N] \
         [--slots N] [--seeds a,b,...]\nsections: %s\n"
        arg
        (String.concat ", " (List.map fst sections));
      exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  !cfg

let () =
  let cfg = parse_args () in
  Printf.printf
    "HALO benchmark harness -- slots=%d size=%d iterations=%d seeds=[%s]\n"
    cfg.slots cfg.size cfg.iters
    (String.concat ";" (List.map string_of_int cfg.seeds));
  List.iter (fun (name, f) -> if wants cfg name then f cfg) sections

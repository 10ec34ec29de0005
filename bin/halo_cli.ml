(* Command-line driver for the HALO compiler.

   halo_cli compile prog.halo --strategy halo --bind K=40
   halo_cli run     prog.halo --strategy halo --bind K=40 [--seed 7] [--guard]
                    [--checkpoint-dir DIR --every N --retain N --guard-every N]
   halo_cli resume  DIR [--out FILE]
   halo_cli inspect prog.halo
   halo_cli bench   linear --strategy halo --iters 40
   halo_cli verify  --seeds 50 [--seed 7] [--tol 1e-3] [--fault-rate 0.02]
   halo_cli soak    linear --trials 20 --fault-rate 0.05 [--no-retry]
   halo_cli soak    linear --trials 20 --kill-after 3   # crash-recovery soak *)

open Halo
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let strategy_conv =
  let parse s =
    match Strategy.of_string s with
    | Some st -> Ok st
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown strategy %S (expected %s)" s
              (String.concat ", " (List.map Strategy.to_string Strategy.all))))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Strategy.to_string s))

let binding_conv =
  let parse s =
    match String.split_on_char '=' s with
    | [ name; v ] -> (
      match int_of_string_opt v with
      | Some k -> Ok (name, k)
      | None -> Error (`Msg (Printf.sprintf "binding %S: not an integer" s)))
    | _ -> Error (`Msg (Printf.sprintf "binding %S: expected NAME=INT" s))
  in
  Arg.conv
    (parse, fun fmt (n, v) -> Format.fprintf fmt "%s=%d" n v)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Textual IR file.")

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv Strategy.Halo
    & info [ "s"; "strategy" ] ~docv:"STRATEGY"
        ~doc:"Compilation strategy: dacapo, type-matched, packing, \
              packing+unrolling or halo.")

let bindings_arg =
  Arg.(
    value
    & opt_all binding_conv []
    & info [ "b"; "bind" ] ~docv:"NAME=INT"
        ~doc:"Bind a dynamic iteration count (repeatable).")

let no_rotate_fuse_arg =
  Arg.(
    value & flag
    & info [ "no-rotate-fuse" ]
        ~doc:
          "Disable the rotation-fusion pass: every rotation pays its own \
           key-switch decomposition instead of sharing one per same-source \
           group.  Outputs are bit-identical either way; use this to \
           measure the hoisting counters' effect.")

let no_lazy_switch_arg =
  Arg.(
    value & flag
    & info [ "no-lazy-switch" ]
        ~doc:
          "Disable the lazy key-switching pass: rotate-and-sum reductions \
           stay unfused, paying one digit decomposition and one mod-down \
           per member instead of one per group.  Outputs are bit-identical \
           either way.")

let unroll_factor_arg =
  Arg.(
    value & opt int 0
    & info [ "unroll-factor" ] ~docv:"F"
        ~doc:
          "Cap the packing+unrolling / halo unroll factor at F (0 = the \
           level-budget-derived default, 1 = no unrolling).  The \
           autotuner's B-2 axis, exposed so a tuned plan can be reproduced \
           by hand.")

let boot_slack_arg =
  Arg.(
    value & opt int 0
    & info [ "boot-slack" ] ~docv:"S"
        ~doc:
          "Raise every tuned bootstrap target S levels above its minimum \
           feasible value (clamped to the original target).  The \
           autotuner's B-3 axis, exposed so a tuned plan can be reproduced \
           by hand.")

(* The four compile knobs of [compile] and [run], as one record. *)
let knobs_term =
  let make no_fuse no_lazy unroll boot_slack =
    {
      Strategy.unroll;
      boot_slack;
      rotate_fuse = not no_fuse;
      lazy_switch = not no_lazy;
    }
  in
  Term.(
    const make $ no_rotate_fuse_arg $ no_lazy_switch_arg $ unroll_factor_arg
    $ boot_slack_arg)

let strategy_manifest_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "strategy-manifest" ] ~docv:"FILE"
        ~doc:
          "Compile under the configuration of a tuned strategy manifest \
           written by $(b,halo_cli tune).  The manifest's fingerprint must \
           match the program and bindings being compiled; a manifest tuned \
           for anything else is rejected.  Overrides --strategy, \
           --unroll-factor, --boot-slack, --no-rotate-fuse and \
           --no-lazy-switch, and a --rescue replan keeps the plan's knobs.  \
           Under $(b,serve) the plan retargets the matching registry \
           program's strategy; a plan whose unroll, slack, fuse or lazy \
           setting differs from what serving compiles with is refused.")

let key_budget_arg =
  Arg.(
    value & opt string ""
    & info [ "key-budget" ] ~docv:"BYTES"
        ~doc:
          "Rotation-key byte budget with optional K/M/G suffix (0 or empty \
           = unbounded; overrides $(b,HALO_KEY_BUDGET)).  Keys evicted \
           under the budget regenerate deterministically, so the budget is \
           bit-invisible — it only trades memory for regeneration time.")

(* --key-budget BYTES, falling back to HALO_KEY_BUDGET, then unbounded. *)
let resolve_key_budget s =
  let parse s = Halo_ckks.Keys.parse_budget (String.trim s) in
  if String.trim s <> "" then parse s
  else match Sys.getenv_opt "HALO_KEY_BUDGET" with Some e -> parse e | None -> 0

(* Noise-telemetry flags shared by run, soak, serve and chaos.  The guard
   margin defaults through Guard.margin (), so HALO_GUARD_MARGIN reaches
   every subcommand without further plumbing. *)
let guard_margin_arg =
  Arg.(
    value
    & opt float (Halo_runtime.Guard.margin ())
    & info [ "guard-margin" ] ~docv:"M"
        ~doc:
          "Noise-guard calibration margin: observed error (and the runtime \
           rescue threshold) is checked against M times the static bound.  \
           Defaults to $(b,HALO_GUARD_MARGIN) when set, else 10.")

let rescue_arg =
  Arg.(
    value & flag
    & info [ "rescue" ]
        ~doc:
          "Enable the runtime noise monitor: the estimated noise of every \
           loop-carried ciphertext is checked at iteration boundaries, an \
           unplanned rescue bootstrap fires when headroom against the \
           guard threshold drops below the rescue margin, and a run that \
           still breaches the decrypt-time guard is re-executed once under \
           a recompiled conservative strategy (a replan).")

let rescue_margin_arg =
  Arg.(
    value
    & opt float Halo_runtime.Noise_monitor.default_rescue_margin
    & info [ "rescue-margin" ] ~docv:"M"
        ~doc:
          "Headroom ratio (threshold / estimate) below which the monitor \
           fires a rescue bootstrap; must be at least 1.")

let max_rescues_arg =
  Arg.(
    value
    & opt int Halo_runtime.Noise_monitor.default_max_rescues
    & info [ "max-rescues" ] ~docv:"N"
        ~doc:
          "Rescue-bootstrap budget per execution; opportunities past the \
           budget are declined and counted as rescue aborts.")

let load path = Parser.parse_program (read_file path)

let handle_code f =
  match f () with
  | code -> code
  | exception Typecheck.Type_error m ->
    Printf.eprintf "type error: %s\n" m;
    1
  | exception Parser.Parse_error m ->
    Printf.eprintf "parse error: %s\n" m;
    1
  | exception Lexer.Lex_error { pos; msg } ->
    Printf.eprintf "lex error at offset %d: %s\n" pos msg;
    1
  | exception Sys_error m ->
    Printf.eprintf "%s\n" m;
    1
  | exception Invalid_argument m ->
    Printf.eprintf "invalid argument: %s\n" m;
    1
  | exception
      (( Halo_error.Persist_error _ | Halo_error.Backend_error _
       | Halo_error.Interp_error _ ) as e) ->
    (* [Halo_error.to_string] already names the error's kind. *)
    prerr_endline (Halo_error.to_string e);
    1

let handle f = handle_code (fun () -> f (); 0)

(* ------------------------------------------------------------------ *)

(* Compile a loaded program under either explicit knobs or a tuned plan
   (which must be stamped for exactly this program + bindings).  Returns the
   strategy and knobs it compiled under, which a plan overrides: the run
   manifest and any replan follow them, not the command-line defaults. *)
let compile_source ~bindings ~strategy ~knobs ~manifest (p : Ir.program) =
  match manifest with
  | Some path ->
    let plan =
      Halo_persist.Store.load
        ~fingerprint:(Halo_tune.Plan.fingerprint ~bindings p)
        Halo_tune.Plan.artifact ~path
    in
    Printf.printf "applying tuned plan: %s\n" (Halo_tune.Plan.to_string plan);
    ( fst (Halo_tune.Tuner.compile_plan ~verify:false ~bindings plan p),
      plan.p_strategy,
      plan.p_knobs )
  | None -> (Strategy.compile ~bindings ~knobs ~strategy p, strategy, knobs)

let compile_cmd =
  let run file strategy bindings knobs manifest output =
    handle (fun () ->
        let p = load file in
        let compiled, _, _ =
          compile_source ~bindings ~strategy ~knobs ~manifest p
        in
        let text = Printer.program_to_string compiled in
        match output with
        | None -> print_string text
        | Some path ->
          let oc = open_out path in
          output_string oc text;
          close_out oc;
          Printf.printf "wrote %s (%d bytes, %d bootstraps)\n" path
            (String.length text)
            (Ir.count_static_bootstraps compiled.body))
  in
  let output_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a textual IR program.")
    Term.(
      const run $ file_arg $ strategy_arg $ bindings_arg $ knobs_term
      $ strategy_manifest_arg $ output_arg)

let inspect_cmd =
  let run file =
    handle (fun () ->
        let p = load file in
        Printf.printf "program %S: slots=%d max_level=%d\n" p.prog_name p.slots
          p.max_level;
        Printf.printf "  inputs: %s\n"
          (String.concat ", "
             (List.map
                (fun (i : Ir.input) ->
                  Printf.sprintf "%s (%s, size %d)" i.in_name
                    (match i.in_status with Ir.Plain -> "plain" | Ir.Cipher -> "cipher")
                    i.in_size)
                p.inputs));
        Printf.printf "  operations: %d (of which %d bootstraps)\n"
          (Ir.count_ops p.body)
          (Ir.count_static_bootstraps p.body);
        let loops = ref 0 in
        Ir.iter_blocks
          (fun b ->
            List.iter
              (fun (i : Ir.instr) ->
                match i.op with
                | Ir.For fo ->
                  incr loops;
                  Printf.printf "  loop: count=%s carried=%d boundary=%s\n"
                    (Ir.count_to_string fo.count)
                    (List.length fo.inits)
                    (match fo.boundary with
                     | None -> "unset"
                     | Some m -> string_of_int m)
                | _ -> ())
              b.instrs)
          p.body;
        Printf.printf "  loops: %d\n" !loops;
        Printf.printf "  multiplicative depth: %d\n" (Depth.program_depth p);
        let rots = Rotations.required p in
        Printf.printf "  rotation keys required: %d%s\n" (List.length rots)
          (if rots = [] then ""
           else
             Printf.sprintf " (offsets %s)"
               (String.concat ", " (List.map string_of_int rots)));
        (match Typecheck.verify p with
         | Ok () ->
           print_endline "  verification: OK";
           let nb = Noise_budget.analyze p in
           Printf.printf "  static noise bound: %s\n"
             (if nb.bounded then Printf.sprintf "%.2e" nb.worst else "unbounded")
         | Error m -> Printf.printf "  verification: FAILED (%s)\n" m))
  in
  Cmd.v (Cmd.info "inspect" ~doc:"Print program statistics.") Term.(const run $ file_arg)

(* ---- checkpointed execution (run --checkpoint-dir / resume) ---------- *)

module Persist = Halo_persist
module Ref_run = Halo_persist.Ref_run

let print_outputs outs =
  List.iteri
    (fun k out ->
      let show = min 8 (Array.length out) in
      Printf.printf "  output %d: [" k;
      for j = 0 to show - 1 do
        Printf.printf "%s%.5f" (if j > 0 then "; " else "") out.(j)
      done;
      Printf.printf "%s]\n" (if Array.length out > show then "; ..." else ""))
    outs

(* Hex floats: a bit-exact, diffable rendering of the decrypted outputs,
   used by the CI crash-resume smoke job and the kill-and-resume tests. *)
let hex_line buf prefix out =
  Buffer.add_string buf prefix;
  Array.iter (Printf.bprintf buf " %h") out;
  Buffer.add_char buf '\n'

let write_buffer path buf =
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf)

let write_outputs path outs =
  let buf = Buffer.create 4096 in
  List.iteri (fun k -> hex_line buf (Printf.sprintf "output %d:" k)) outs;
  write_buffer path buf

(* Outputs as raw bits: structural equality on them is bit-exact. *)
let output_bits = List.map (Array.map Int64.bits_of_float)

let warn_damaged =
  List.iter (fun (f, reason) ->
      Printf.printf "  warning: discarded damaged journal entry %s (%s)\n" f
        reason)

let report_run ?out ?verdict (outcome, damaged) =
  warn_damaged damaged;
  match outcome with
  | Ref_run.Rec.R.Complete { outputs; stats } ->
    print_outputs outputs;
    Printf.printf "  %s\n" (Halo_runtime.Stats.to_string stats);
    (match out with
     | Some path ->
       write_outputs path outputs;
       Printf.printf "  wrote outputs to %s\n" path
     | None -> ());
    Option.iter
      (fun v ->
        Printf.printf "  noise guard: %s\n"
          (Halo_runtime.Guard.verdict_to_string v))
      verdict;
    (match verdict with Some (Halo_runtime.Guard.Breach _) -> 4 | _ -> 0)
  | Ref_run.Rec.R.Degraded d ->
    Printf.printf "  %s\n" (Ref_run.Rec.R.degraded_to_string d);
    1

let simulated_crash writes =
  Printf.printf "simulated crash after %d checkpoint writes\n" writes;
  (* the exit status a SIGKILLed process would report *)
  exit 137

let run_cmd =
  let run file strategy bindings knobs manifest seed guard guard_margin rescue
      rescue_margin max_rescues checkpoint_dir every retain guard_every
      kill_after out =
    handle_code (fun () ->
        if kill_after <> None && checkpoint_dir = None then begin
          prerr_endline
            "run: --kill-after needs --checkpoint-dir (it counts durable \
             checkpoint writes)";
          2
        end
        else
        let p = load file in
        let compiled, strategy, knobs =
          compile_source ~bindings ~strategy ~knobs ~manifest p
        in
        let rng = Random.State.make [| seed |] in
        let inputs =
          List.map
            (fun (i : Ir.input) ->
              ( i.in_name,
                Array.init i.in_size (fun _ -> Random.State.float rng 2.0 -. 1.0) ))
            p.inputs
        in
        let manifest =
          Ref_run.manifest ~every_n:every ~retain ~guard_every ~guard_margin
            ~rescue ~rescue_margin ~max_rescues ~strategy ~bindings ~inputs
            compiled
        in
        (match checkpoint_dir with
         | Some dir ->
           Ref_run.start ~dir manifest;
           Printf.printf
             "running %S with checkpoints in %s (every %d, retain %d)\n"
             p.prog_name dir every retain
         | None -> ());
        match Ref_run.exec ?kill_after ?dir:checkpoint_dir manifest with
        | exception Ref_run.Simulated_crash { writes } -> simulated_crash writes
        | outcome, damaged ->
          let outcome, verdict =
            if not guard then (outcome, None)
            else begin
              let recompile s =
                Strategy.compile ~bindings ~knobs ~strategy:s p
              in
              let g = Ref_run.guard ~recompile manifest outcome in
              Option.iter
                (fun (breach, s) ->
                  Printf.printf "  noise guard: %s\n"
                    (Halo_runtime.Guard.verdict_to_string breach);
                  Printf.printf "  replanning under %s\n"
                    (Strategy.to_string s))
                g.replan;
              (g.outcome, g.verdict)
            end
          in
          if checkpoint_dir = None then
            Printf.printf "ran %S with seeded random inputs (seed %d)\n"
              p.prog_name seed;
          report_run ?out ?verdict (outcome, damaged))
  in
  let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED") in
  let guard_arg =
    Arg.(
      value & flag
      & info [ "guard" ]
          ~doc:
            "Also compute the exact cleartext reference and check the \
             observed error against the static noise bound.")
  in
  let checkpoint_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Write a durable run manifest and a checkpoint journal to DIR; \
             a killed run can be continued with $(b,halo_cli resume DIR).")
  in
  let every_arg =
    Arg.(
      value & opt int 1
      & info [ "every" ] ~docv:"N"
          ~doc:"Checkpoint cadence: journal every N-th loop iteration.")
  in
  let retain_arg =
    Arg.(
      value & opt int 4
      & info [ "retain" ] ~docv:"N"
          ~doc:"Journal entries retained per loop (older ones are pruned).")
  in
  let guard_every_arg =
    Arg.(
      value & opt int 0
      & info [ "guard-every" ] ~docv:"N"
          ~doc:
            "Check the carried values for corruption every N iterations (0 \
             disables); trips are counted in the statistics.")
  in
  let kill_after_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after" ] ~docv:"K"
          ~doc:
            "Simulate a crash: abort the process (exit 137) right after the \
             K-th durable checkpoint write.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Also write the outputs as bit-exact hex floats to FILE.")
  in
  let exits =
    Cmd.Exit.info 4
      ~doc:
        "The run completed but the decrypt-time noise guard ($(b,--guard)) \
         reported a breach that no replan cleared."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "run" ~exits
       ~doc:"Compile and execute with random inputs on the reference backend.")
    Term.(
      const run $ file_arg $ strategy_arg $ bindings_arg $ knobs_term
      $ strategy_manifest_arg $ seed_arg $ guard_arg $ guard_margin_arg
      $ rescue_arg $ rescue_margin_arg $ max_rescues_arg $ checkpoint_dir_arg
      $ every_arg $ retain_arg $ guard_every_arg $ kill_after_arg $ out_arg)

let resume_cmd =
  let run dir out kill_after =
    handle_code (fun () ->
        let manifest = Ref_run.load ~dir in
        Printf.printf "resuming %S from %s (strategy %s, every %d, retain %d)\n"
          manifest.Persist.Codec.prog.prog_name dir manifest.strategy
          manifest.every_n manifest.retain;
        match Ref_run.exec ?kill_after ~dir ~resume:true manifest with
        | result -> report_run ?out result
        | exception Ref_run.Simulated_crash { writes } ->
          simulated_crash writes)
  in
  let dir_arg =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR" ~doc:"Checkpoint directory written by $(b,run --checkpoint-dir).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Also write the outputs as bit-exact hex floats to FILE.")
  in
  let kill_after_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after" ] ~docv:"K"
          ~doc:
            "Simulate another crash after K total checkpoint writes \
             (restored writes included), for repeated-crash testing.")
  in
  Cmd.v
    (Cmd.info "resume"
       ~doc:
         "Validate the checkpoint journal in DIR (discarding any corrupt \
          tail entries with a warning), restore the newest intact \
          checkpoint of every loop, and continue the run.  Outputs are \
          bit-identical to an uninterrupted run's.")
    Term.(const run $ dir_arg $ out_arg $ kill_after_arg)

let tune_cmd =
  let module Tuner = Halo_tune.Tuner in
  let module Plan = Halo_tune.Plan in
  let module Cost = Halo_cost.Cost_model in
  let run file ml bindings iters size exhaustive profile output tol =
    handle_code (fun () ->
        (match profile with
         | "" -> ()
         | name -> (
           match Cost.find_profile name with
           | Some p -> Cost.set_profile p
           | None ->
             failwith
               (Printf.sprintf "unknown cost profile %S (expected %s)" name
                  (String.concat ", "
                     (List.map
                        (fun (p : Cost.profile) -> p.Cost.profile_name)
                        Cost.profiles)))));
        let name, prog, bindings, default_out =
          match (file, ml) with
          | Some f, "" ->
            let p = load f in
            (p.Ir.prog_name, p, bindings, f ^ ".tune.ckpt")
          | None, "" | Some _, _ ->
            failwith "tune: give exactly one of FILE or --ml BENCHMARK"
          | None, name ->
            let b =
              try Halo_ml.Workloads.find name
              with Not_found ->
                failwith
                  (Printf.sprintf "unknown benchmark %S (expected %s)" name
                     (String.concat ", "
                        (List.map
                           (fun (b : Halo_ml.Bench_def.t) -> b.name)
                           Halo_ml.Workloads.all)))
            in
            let slots = 16 * size in
            ( b.name,
              b.build ~slots ~size,
              Halo_ml.Workloads.default_bindings b ~iters,
              String.lowercase_ascii b.name ^ ".tune.ckpt" )
        in
        let result, _tuned = Tuner.tune ~exhaustive ~bindings ~name ?tol prog in
        print_string (Tuner.report result);
        let path = Option.value output ~default:default_out in
        ignore
          (Halo_persist.Store.save Plan.artifact ~path result.Tuner.r_plan);
        Printf.printf "\nwrote tuned strategy manifest to %s\n" path;
        Printf.printf
          "verification: OK (checked pipeline passed, fingerprint drift \
           %.1e vs untuned reference)\n"
          result.Tuner.r_drift;
        0)
  in
  let file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Textual IR file (or use $(b,--ml)).")
  in
  let ml_arg =
    Arg.(
      value & opt string ""
      & info [ "ml" ] ~docv:"BENCHMARK"
          ~doc:"Tune one of the paper's seven ML benchmarks instead of a file.")
  in
  let iters_arg =
    Arg.(
      value & opt int 20
      & info [ "iters" ] ~docv:"N" ~doc:"Training iterations (with --ml).")
  in
  let size_arg =
    Arg.(
      value & opt int 256
      & info [ "size" ] ~docv:"N" ~doc:"Samples (with --ml); slots = 16*N.")
  in
  let exhaustive_arg =
    Arg.(
      value & flag
      & info [ "exhaustive" ]
          ~doc:
            "Compile and price every point of the configuration space \
             instead of pruning dominated ones.  Same argmin by \
             construction; useful for auditing the pruner.")
  in
  let profile_arg =
    Arg.(
      value & opt string ""
      & info [ "profile" ] ~docv:"NAME"
          ~doc:
            "Cost-model machine profile to price under (paper-gpu or host; \
             overrides $(b,HALO_COST_PROFILE)).")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT"
          ~doc:
            "Manifest path (default FILE.tune.ckpt or BENCHMARK.tune.ckpt).")
  in
  let tol_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "tol" ] ~docv:"TOL"
          ~doc:"Fingerprint drift tolerance for plan verification.")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Search the full strategy configuration space (strategy, unroll \
          factor, bootstrap-target slack, rotation fusion, lazy \
          key-switching, key budget, domain pool) with the cost model, \
          verify the argmin through the checked pipeline, and write it as \
          a strategy manifest for $(b,run --strategy-manifest).")
    Term.(
      const run $ file_arg $ ml_arg $ bindings_arg $ iters_arg $ size_arg
      $ exhaustive_arg $ profile_arg $ output_arg $ tol_arg)

let bench_cmd =
  let run name strategy iters size =
    handle (fun () ->
        let b =
          try Halo_ml.Workloads.find name
          with Not_found ->
            failwith
              (Printf.sprintf "unknown benchmark %S (expected %s)" name
                 (String.concat ", "
                    (List.map (fun (b : Halo_ml.Bench_def.t) -> b.name)
                       Halo_ml.Workloads.all)))
        in
        let slots = 16 * size in
        let rmse, stats =
          Halo_ml.Workloads.run_rmse b ~slots ~size ~seed:0 ~iters ~strategy
        in
        Printf.printf "%s under %s (%d iterations, %d samples):\n" b.name
          (Strategy.to_string strategy) iters size;
        Printf.printf "  rmse vs cleartext reference: %.3e\n" rmse;
        Printf.printf "  %s\n" (Halo_runtime.Stats.to_string stats))
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK")
  in
  let iters_arg = Arg.(value & opt int 20 & info [ "iters" ] ~docv:"N") in
  let size_arg = Arg.(value & opt int 256 & info [ "size" ] ~docv:"N") in
  Cmd.v
    (Cmd.info "bench" ~doc:"Run one of the paper's seven benchmarks.")
    Term.(const run $ name_arg $ strategy_arg $ iters_arg $ size_arg)

let verify_cmd =
  let module Oracle = Halo_verify.Oracle in
  let module Pipeline = Halo_verify.Pipeline in
  let print_failures r =
    List.iter
      (fun f -> Printf.printf "    %s\n" (Oracle.failure_to_string f))
      r.Oracle.failures
  in
  let run seeds seed_opt start tol fault_rate verbose =
    match seed_opt with
    | Some seed ->
      (* Single-seed reproduction mode: print the generated program, every
         strategy's per-pass report, and any failure in full. *)
      let r = Oracle.run_seed ~tol ~fault_rate seed in
      Printf.printf "seed %d (bindings: %s)\n" seed
        (if r.bindings = [] then "none"
         else
           String.concat ", "
             (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) r.bindings));
      print_string (Printer.program_to_string r.program);
      List.iter
        (fun (s, reports) ->
          Printf.printf "  %s: %d passes checked\n" (Strategy.to_string s)
            (List.length reports);
          List.iter
            (fun rep -> Printf.printf "    %s\n" (Pipeline.report_to_string rep))
            reports)
        r.pass_reports;
      if Oracle.ok r then begin
        Printf.printf "seed %d: OK (all strategies agree)\n" seed;
        0
      end
      else begin
        Printf.printf "seed %d: FAILED\n" seed;
        print_failures r;
        1
      end
    | None ->
      let reports =
        Oracle.fuzz ~tol ~fault_rate
          ~progress:(fun r ->
            if not (Oracle.ok r) then begin
              Printf.printf "seed %d: FAILED\n" r.Oracle.seed;
              print_failures r
            end
            else if verbose then Printf.printf "seed %d: ok\n" r.Oracle.seed)
          ~seeds:(List.init (max 0 seeds) (fun i -> start + i))
          ()
      in
      print_endline (Oracle.summarize reports);
      if List.for_all Oracle.ok reports then begin
        print_endline "verification: OK (no invariant violations, no divergences)";
        0
      end
      else begin
        print_endline
          "verification: FAILED (reproduce with: halo_cli verify --seed N)";
        1
      end
  in
  let seeds_arg =
    Arg.(
      value & opt int 50
      & info [ "n"; "seeds" ] ~docv:"N" ~doc:"Number of fuzz seeds to run.")
  in
  let seed_arg =
    Arg.(
      value & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Reproduce a single seed with a full per-pass report.")
  in
  let start_arg =
    Arg.(value & opt int 0 & info [ "start" ] ~docv:"S" ~doc:"First seed.")
  in
  let tol_arg =
    Arg.(
      value & opt float Halo_verify.Oracle.default_tol
      & info [ "tol" ] ~docv:"TOL" ~doc:"Cross-strategy output tolerance.")
  in
  let fault_rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:
            "Also re-execute each clean artifact under seeded fault \
             injection with the resilient runtime and require recovery to \
             the fault-free outputs.")
  in
  let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ]) in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Fuzz the compiler: generate seeded random programs, compile under \
          every strategy with per-pass invariant checks and semantic \
          fingerprints, and differentially execute all strategies against \
          each other on the reference backend.")
    Term.(
      const run $ seeds_arg $ seed_arg $ start_arg $ tol_arg $ fault_rate_arg
      $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* Multi-tenant serving                                                *)

module Server = Halo_serve.Server
module Tenant = Halo_serve.Tenant
module Workload = Halo_serve.Workload
module Serve_codec = Halo_serve.Serve_codec
module Soak = Halo_serve.Soak

(* Base directory of a soak's per-trial state: [dir], or a per-process
   directory under the system temp dir. *)
let soak_root name = function
  | Some d -> d
  | None ->
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "halo-%s-%d" name (Unix.getpid ()))

let serve_config ?(sup = Halo_serve.Serve_codec.default_sup)
    ?(margin = Halo_runtime.Guard.margin ()) ?(rotate_fuse = true)
    ?(policy = Halo_runtime.Resilient.default_policy) ?faults ~slots
    ~max_level ~queue_depth ~batch_window ~lane ~backend_seed () =
  {
    Halo_serve.Serve_codec.backend =
      Ref_run.default_backend ~seed:backend_seed ~slots ~max_level ();
    queue_depth;
    batch_window;
    lane;
    margin;
    rotate_fuse;
    policy;
    faults;
    sup;
  }

(* Submit simulated traffic with backpressure: a queue-full rejection
   drains the server once and resubmits, so a bounded queue throttles the
   clients instead of dropping their requests. *)
let serve_submit ?kill_after server reqs =
  let accepted = ref 0 and rejected = ref 0 in
  List.iter
    (fun (w : Workload.req) ->
      let submit () =
        Server.submit server ~tenant:w.w_tenant ~tol:w.w_tol
          ~program:w.w_program ~payload:w.w_payload
      in
      match submit () with
      | Ok _ -> incr accepted
      | Error (Server.Queue_full _) -> (
        Server.run_until_drained ?kill_after server;
        match submit () with
        | Ok _ -> incr accepted
        | Error _ -> incr rejected)
      | Error _ -> incr rejected)
    reqs;
  Server.run_until_drained ?kill_after server;
  (!accepted, !rejected)

let write_serve_outputs path opened =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (id, r) ->
      match r with
      | Ok (key, lanes, outs) ->
        List.iteri
          (fun j ->
            hex_line buf
              (Printf.sprintf "req %d batch %d lanes %d output %d:" id key
                 lanes j))
          outs
      | Error (f : Server.failure) ->
        Printf.bprintf buf "req %d degraded op=%s attempts=%d reason=%s\n" id
          f.Server.f_op f.Server.f_attempts f.Server.f_reason)
    opened;
  write_buffer path buf

let serve_cmd =
  let module Resilient = Halo_runtime.Resilient in
  let run clients per_client queue_depth batch_window lane slots iters seed
      dir resume kill_after solo no_fuse manifest fault_rate spike_rate
      no_retry deadline_us ttl_us fallback tenant_threshold program_threshold
      breaker_window cooldown_us quarantine_after poison guard_batches
      guard_margin rescue rescue_margin max_rescues drain_flag key_budget out
      verbose =
    handle_code (fun () ->
        if resume && dir = None then begin
          Printf.eprintf "serve: --resume requires --dir\n";
          2
        end
        else begin
          let max_level = 16 in
          let faults =
            if fault_rate = 0.0 && spike_rate = 0.0 && poison = [] then None
            else
              Some
                {
                  Halo_serve.Serve_codec.f_seed = (seed * 7919) + 1;
                  f_transient = fault_rate;
                  f_bootstrap = fault_rate;
                  f_spike = spike_rate;
                  f_magnitude = 1e-4;
                  f_poison = poison;
                }
          in
          let sup =
            {
              Halo_serve.Serve_codec.s_deadline_us = deadline_us;
              s_ttl_us = ttl_us;
              s_fallback = fallback;
              s_tenant_window = breaker_window;
              s_tenant_threshold = tenant_threshold;
              s_program_window = breaker_window;
              s_program_threshold = program_threshold;
              s_cooldown_us = cooldown_us;
              s_quarantine_after = quarantine_after;
              (* --rescue implies the per-batch guard: the replan phase
                 triggers on a Breach status, which only the guard emits. *)
              s_guard = guard_batches || rescue;
              s_rescue = rescue;
              s_rescue_margin = rescue_margin;
              s_max_rescues = max_rescues;
            }
          in
          let cfg =
            serve_config ~sup ~margin:guard_margin ~slots ~max_level
              ~queue_depth
              ~batch_window:(if solo then 1 else batch_window)
              ~lane ~rotate_fuse:(not no_fuse) ~backend_seed:(0xB00 + seed)
              ~policy:
                (if no_retry then Resilient.no_retry
                 else Resilient.default_policy)
              ?faults ()
          in
          let killed = ref None in
          let server =
            if resume then begin
              let s = Server.open_resume ~dir:(Option.get dir) in
              warn_damaged (Server.damaged s);
              s
            end
            else begin
              let programs = Workload.programs ~slots ~max_level ~iters in
              let programs =
                (* A tuned plan retargets the registry entry whose traced
                   program carries the plan's fingerprint; the other
                   entries keep their configured strategy. *)
                match manifest with
                | None -> programs
                | Some path -> (
                  let plan =
                    Halo_persist.Store.load Halo_tune.Plan.artifact ~path
                  in
                  match
                    Halo_tune.Plan.retarget ~knobs:(Server.knobs cfg) plan
                      programs
                  with
                  | Error msg -> invalid_arg msg
                  | Ok (programs, []) ->
                    Printf.printf
                      "warning: tuned plan %S matches no registered \
                       program; strategies unchanged\n"
                      plan.p_prog;
                    programs
                  | Ok (programs, names) ->
                    List.iter
                      (Printf.printf
                         "applying tuned strategy %s to program %S\n"
                         (Strategy.to_string plan.p_strategy))
                      names;
                    programs)
              in
              Server.create ?dir cfg ~programs
            end
          in
          let final_rejected = ref 0 in
          (try
             if resume then
               if drain_flag then ignore (Server.drain ?kill_after server)
               else Server.run_until_drained ?kill_after server
             else begin
               let reqs =
                 Workload.requests ~seed ~clients ~per_client ~lane ()
               in
               let accepted, rejected =
                 serve_submit ?kill_after server reqs
               in
               final_rejected := rejected;
               Printf.printf "submitted %d requests: %d accepted, %d rejected\n"
                 (List.length reqs) accepted rejected;
               if drain_flag then ignore (Server.drain server)
             end
           with Server.Killed { writes } ->
             killed := Some writes);
          match !killed with
          | Some writes ->
            Printf.printf
              "killed after %d journal writes (resume with --resume --dir)\n"
              writes;
            0
          | None ->
            print_string (Server.report server);
            if
              String.trim key_budget <> ""
              || Sys.getenv_opt "HALO_KEY_BUDGET" <> None
            then
              print_string
                (Server.key_budget_report server
                   ~budget:(resolve_key_budget key_budget));
            (match Server.handoff server with
             | Some (d : Halo_serve.Serve_codec.drain) ->
               Printf.printf
                 "drain handoff: accepted=%d served=%d failed=%d clock=%dus \
                  quarantined=%d\n"
                 d.dr_accepted d.dr_served d.dr_failed d.dr_clock_us
                 (List.length d.dr_quarantined)
             | None -> ());
            let opened = Workload.opened server in
            if verbose then
              List.iter
                (fun (id, r) ->
                  match r with
                  | Ok (key, lanes, outs) ->
                    Printf.printf "req %d (batch %d, %d lanes):\n" id key
                      lanes;
                    print_outputs outs
                  | Error f ->
                    Printf.printf "req %d failed at %s: %s\n" id
                      f.Server.f_op f.Server.f_reason)
                opened;
            (match out with
             | Some path ->
               write_serve_outputs path opened;
               Printf.printf "wrote per-request outputs to %s\n" path
             | None -> ());
            let c = Server.counters server in
            if c.Server.failed > 0 then 4
            else if !final_rejected > 0 then 3
            else 0
        end)
  in
  let clients_arg =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~docv:"N" ~doc:"Simulated tenants.")
  in
  let per_client_arg =
    Arg.(
      value & opt int 4
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let queue_depth_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Bounded admission queue; a full queue throttles submission \
             (the CLI drains and resubmits).")
  in
  let batch_window_arg =
    Arg.(
      value & opt int 8
      & info [ "batch-window" ] ~docv:"N"
          ~doc:"Max requests packed into one ciphertext.")
  in
  let lane_arg =
    Arg.(
      value & opt int 8
      & info [ "lane" ] ~docv:"N"
          ~doc:"Slot lane width per batched request (power of two).")
  in
  let slots_arg =
    Arg.(value & opt int 64 & info [ "slots" ] ~docv:"N")
  in
  let iters_arg =
    Arg.(
      value & opt int 3
      & info [ "iters" ] ~docv:"N"
          ~doc:"Iteration count of the built-in loop workload.")
  in
  let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED") in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Serve directory for durable job state (manifest, accepted \
             requests, batch journal).  Without it the server is \
             in-memory only.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Reopen $(b,--dir) after a kill and complete every accepted \
             request instead of submitting new traffic.")
  in
  let kill_after_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after" ] ~docv:"K"
          ~doc:"Simulate a crash after K durable journal writes.")
  in
  let solo_arg =
    Arg.(
      value & flag
      & info [ "solo" ]
          ~doc:
            "Disable cross-request batching (batch window 1): every \
             request pays for its own ciphertext.")
  in
  let fault_rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:"Per-op transient fault probability on the serving backend.")
  in
  let spike_rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "spike-rate" ] ~docv:"P"
          ~doc:"Silent noise-spike probability.")
  in
  let no_retry_arg =
    Arg.(
      value & flag
      & info [ "no-retry" ]
          ~doc:"First fault degrades the batch (structured report).")
  in
  let deadline_us_arg =
    Arg.(
      value & opt int 0
      & info [ "deadline-us" ] ~docv:"US"
          ~doc:
            "Per-batch execution budget in virtual microseconds (charged \
             from the cost model); a batch that blows it aborts at the \
             next instruction boundary.  0 disables.")
  in
  let ttl_us_arg =
    Arg.(
      value & opt int 0
      & info [ "ttl-us" ] ~docv:"US"
          ~doc:
            "Admission time-to-live in virtual microseconds, checked once \
             per request at its first planning.  0 disables.")
  in
  let fallback_arg =
    Arg.(
      value & flag
      & info [ "fallback" ]
          ~doc:
            "Degraded mode: re-execute members of a failed multi-member \
             batch solo, so the culprit fails alone and its lane-mates \
             still succeed.")
  in
  let tenant_threshold_arg =
    Arg.(
      value & opt int 0
      & info [ "tenant-threshold" ] ~docv:"N"
          ~doc:
            "Failures within the window that open a tenant's circuit \
             breaker.  0 disables the tenant breaker.")
  in
  let program_threshold_arg =
    Arg.(
      value & opt int 0
      & info [ "program-threshold" ] ~docv:"N"
          ~doc:
            "Failures within the window that open a program's circuit \
             breaker.  0 disables the program breaker.")
  in
  let breaker_window_arg =
    Arg.(
      value & opt int 8
      & info [ "breaker-window" ] ~docv:"N"
          ~doc:"Sliding outcome window of both breaker dimensions.")
  in
  let cooldown_us_arg =
    Arg.(
      value & opt int 50_000
      & info [ "cooldown-us" ] ~docv:"US"
          ~doc:
            "Virtual time an open breaker waits before admitting one probe \
             request.")
  in
  let quarantine_after_arg =
    Arg.(
      value & opt int 0
      & info [ "quarantine-after" ] ~docv:"N"
          ~doc:
            "Durably quarantine a tenant after N failed solo executions.  \
             0 disables.")
  in
  let poison_arg =
    Arg.(
      value
      & opt (list int) []
      & info [ "poison" ] ~docv:"TENANTS"
          ~doc:
            "Comma-separated tenant ids whose batches get a fixed fault \
             schedule dense enough to exhaust the retry budget \
             deterministically (the poisoned-request scenario).")
  in
  let guard_batches_arg =
    Arg.(
      value & flag
      & info [ "guard-batches" ]
          ~doc:
            "Compute the exact cleartext reference for every batch and fail \
             it on a noise breach against the static bound.")
  in
  let drain_arg =
    Arg.(
      value & flag
      & info [ "drain" ]
          ~doc:
            "Graceful shutdown: close admission, finish and journal \
             everything in flight, and write a durable handoff manifest \
             that a later $(b,--resume) validates the journal against.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write per-request opened outputs as bit-exact hex floats \
             (diffable with cmp).")
  in
  let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ]) in
  let exits =
    Cmd.Exit.info 3
      ~doc:
        "Admission-only rejections: every accepted request was served, but \
         at least one request was refused at admission (queue, noise \
         budget, breaker, quarantine or drain)."
    :: Cmd.Exit.info 4
         ~doc:"At least one accepted request failed (degraded, deadline, \
               guard breach or admission TTL)."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Run the multi-tenant serving layer over simulated clients: \
          bounded admission with noise-budget refusal, cross-request slot \
          batching (several tenants' vectors share one ciphertext's \
          lanes), parallel batch execution, per-tenant sealed results, \
          durable kill/resume job state under $(b,--dir), and a \
          supervision layer (per-batch deadlines, admission TTLs, circuit \
          breakers, quarantine, degraded-mode fallback, graceful drain).  \
          Exits 0 only when every accepted request was served and nothing \
          was rejected; 4 if any accepted request failed; 3 on \
          admission-only rejections.")
    Term.(
      const run $ clients_arg $ per_client_arg $ queue_depth_arg
      $ batch_window_arg $ lane_arg $ slots_arg $ iters_arg $ seed_arg
      $ dir_arg $ resume_arg $ kill_after_arg $ solo_arg $ no_rotate_fuse_arg
      $ strategy_manifest_arg $ fault_rate_arg $ spike_rate_arg
      $ no_retry_arg $ deadline_us_arg
      $ ttl_us_arg $ fallback_arg $ tenant_threshold_arg
      $ program_threshold_arg $ breaker_window_arg $ cooldown_us_arg
      $ quarantine_after_arg $ poison_arg $ guard_batches_arg
      $ guard_margin_arg $ rescue_arg $ rescue_margin_arg $ max_rescues_arg
      $ drain_arg $ key_budget_arg $ out_arg $ verbose_arg)

(* Crash-recovery soak: for each trial, run a benchmark to completion with
   checkpointing (the baseline), run it again and simulate a kill after a
   trial-dependent number of checkpoint writes, resume from the journal,
   and require the resumed outputs and statistics to be bit-identical to
   the baseline's. *)
let crash_soak (b : Halo_ml.Bench_def.t) ~strategy ~iters ~size ~trials ~seed
    ~dir ~kill_after ~verbose =
  let module Stats = Halo_runtime.Stats in
  let slots = 16 * size in
  let bindings = Halo_ml.Workloads.default_bindings b ~iters in
  let compiled = Strategy.compile ~bindings ~strategy (b.build ~slots ~size) in
  Printf.printf
    "crash soak %s under %s: %d trials, %d iterations, kill after %d+trial \
     checkpoint writes (dirs under %s)\n"
    b.name (Strategy.to_string strategy) trials iters kill_after dir;
  let ok = ref 0 in
  for trial = 0 to trials - 1 do
    let inputs = b.gen_inputs ~seed:(seed + trial) ~size in
    let manifest =
      Ref_run.manifest ~backend_seed:(1000 + trial) ~strategy ~bindings ~inputs
        compiled
    in
    let dir_a = Filename.concat dir (Printf.sprintf "trial%d-baseline" trial) in
    let dir_b = Filename.concat dir (Printf.sprintf "trial%d-crashed" trial) in
    Ref_run.start ~dir:dir_a manifest;
    Ref_run.start ~dir:dir_b manifest;
    let baseline, _ = Ref_run.exec ~dir:dir_a ~resume:false manifest in
    let crashed =
      match Ref_run.exec ~kill_after:(kill_after + trial) ~dir:dir_b
              ~resume:false manifest
      with
      | _ -> false (* completed before reaching the kill threshold *)
      | exception Ref_run.Simulated_crash _ -> true
    in
    let resumed, damaged = Ref_run.exec ~dir:dir_b ~resume:true manifest in
    let report outcome detail =
      if verbose || outcome <> "recovered" then
        Printf.printf "  trial %2d: %s%s%s\n" trial outcome
          (if crashed then "" else " (completed before kill threshold)")
          detail
    in
    (match (baseline, resumed) with
     | ( Ref_run.Rec.R.Complete { outputs = a; stats = sa },
         Ref_run.Rec.R.Complete { outputs = c; stats = sc } ) ->
       let same_out = output_bits a = output_bits c in
       let same_stats = Stats.equal sa sc in
       if same_out && same_stats && damaged = [] then begin
         incr ok;
         report "recovered"
           (Printf.sprintf " (%d checkpoint writes, outputs bit-identical)"
              sc.Stats.checkpoint_writes)
       end
       else
         report "FAILED"
           (Printf.sprintf
              " (outputs identical: %b, stats identical: %b, damaged \
               entries: %d)"
              same_out same_stats (List.length damaged))
     | _ -> report "FAILED" " (degraded run)")
  done;
  Printf.printf "recovered %d/%d crash trials bit-identically\n" !ok trials;
  if !ok = trials then 0 else 1

let soak_cmd =
  let module Faults = Halo_runtime.Faults in
  let module Resilient = Halo_runtime.Resilient in
  let module Guard = Halo_runtime.Guard in
  let module Stats = Halo_runtime.Stats in
  let run serve name strategy iters size trials seed fault_rate boot_rate
      spike_rate spike_magnitude no_retry max_attempts kill_after
      checkpoint_dir guard_margin rescue rescue_margin max_rescues verbose =
    if serve then begin
      (* One single-round {!Halo_serve.Soak.trial} per trial, killed after
         K+trial journal writes; every {!Halo_serve.Soak.compare} check
         must hold. *)
      let k = Option.value kill_after ~default:1 in
      let dir = soak_root "serve-soak" checkpoint_dir in
      let slots = 64 and max_level = 16 and lane = 8 in
      let clients = 6 and per_client = 4 in
      handle_code (fun () ->
          Printf.printf
            "serve crash soak: %d trials, %d clients x %d requests, kill \
             after %d+trial journal writes (dirs under %s)\n"
            trials clients per_client k dir;
          let programs = Workload.programs ~slots ~max_level ~iters:3 in
          let ok = ref 0 in
          for trial = 0 to trials - 1 do
            let cfg =
              serve_config ~slots ~max_level ~backend_seed:(0xB00 + trial)
                ~queue_depth:(clients * per_client) ~batch_window:4 ~lane ()
            in
            let t =
              Soak.trial ~cfg ~programs ~rounds:1 ~kill_after:(k + trial)
                ~requests:(fun _ ->
                  Workload.requests ~seed:(seed + trial) ~clients ~per_client
                    ~lane ())
                ~dir:(Filename.concat dir (Printf.sprintf "trial%d" trial))
            in
            match t.Soak.failures with
            | [] ->
              incr ok;
              if verbose then
                Printf.printf
                  "  trial %2d: recovered%s (%d requests bit-identical)\n"
                  trial
                  (if t.Soak.killed <> None then ""
                   else " (completed before kill threshold)")
                  (List.length (Server.results t.Soak.resumed))
            | failed ->
              Printf.printf "  trial %2d: FAILED (%s)\n" trial
                (String.concat ", " failed)
          done;
          Printf.printf "recovered %d/%d serve crash trials bit-identically\n"
            !ok trials;
          if !ok = trials then 0 else 1)
    end
    else
    let b =
      try Some (Halo_ml.Workloads.find name) with Not_found -> None
    in
    match b with
    | None ->
      Printf.eprintf "unknown benchmark %S (expected %s)\n" name
        (String.concat ", "
           (List.map (fun (b : Halo_ml.Bench_def.t) -> b.name)
              Halo_ml.Workloads.all));
      1
    | Some b when kill_after <> None ->
      let dir = soak_root "crash-soak" checkpoint_dir in
      handle_code (fun () ->
          crash_soak b ~strategy ~iters ~size ~trials ~seed ~dir
            ~kill_after:(Option.get kill_after) ~verbose)
    | Some b ->
      let slots = 16 * size in
      let bindings = Halo_ml.Workloads.default_bindings b ~iters in
      let compiled =
        Strategy.compile ~bindings ~strategy (b.build ~slots ~size)
      in
      let boot_rate = match boot_rate with Some r -> r | None -> fault_rate in
      let policy =
        if no_retry then Resilient.no_retry
        else { Resilient.default_policy with max_attempts }
      in
      Printf.printf
        "soak %s under %s: %d trials, %d iterations, %d samples, fault rate \
         %g (bootstrap %g, spike %g)%s%s\n"
        b.name
        (Strategy.to_string strategy)
        trials iters size fault_rate boot_rate spike_rate
        (if no_retry then " [retries disabled]" else "")
        (if rescue then " [rescue enabled]" else "");
      let recompile s =
        Strategy.compile ~bindings ~strategy:s (b.build ~slots ~size)
      in
      let recovered = ref 0 in
      let total = Stats.create () in
      for trial = 0 to trials - 1 do
        let stats = Stats.create () in
        let manifest =
          Ref_run.manifest ~backend_seed:(1000 + trial) ~guard_margin ~rescue
            ~rescue_margin ~max_rescues ~strategy ~bindings
            ~inputs:(b.gen_inputs ~seed:(seed + trial) ~size)
            compiled
        in
        let faults =
          Faults.config ~transient_prob:fault_rate ~bootstrap_prob:boot_rate
            ~spike_prob:spike_rate ~spike_magnitude
            ~seed:((seed * 7919) + trial)
            ()
        in
        (* A breach under rescue replans on a fault-free executor: the
           injector models this trial's hostile environment, the replan a
           hand-off to a healthy one. *)
        let g =
          Ref_run.guard ~recompile manifest
            (fst (Ref_run.exec ~faults ~policy ~stats manifest))
        in
        let guard =
          Option.fold ~none:"" ~some:Guard.verdict_to_string g.verdict
        in
        let status, detail =
          match (g.outcome, g.verdict, g.replan) with
          | Ref_run.Rec.R.Degraded d, _, _ ->
            ("degraded", " " ^ Ref_run.Rec.R.degraded_to_string d)
          | _, Some (Guard.Breach _), None -> ("guard breach", " " ^ guard)
          | _, Some (Guard.Breach _), Some _ ->
            ("guard breach", " after replan " ^ guard)
          | _, _, None -> ("recovered", " guard: " ^ guard)
          | _, _, Some (_, s) ->
            ( "recovered",
              Printf.sprintf " replanned under %s, guard: %s"
                (Strategy.to_string s) guard )
        in
        if status = "recovered" then incr recovered;
        if verbose || status <> "recovered" then
          Printf.printf
            "  trial %2d: %s (%d faults, %d retries, %d restores)%s\n" trial
            status stats.Stats.injected_faults stats.Stats.retries
            stats.Stats.checkpoint_restores detail;
        Stats.merge ~into:total stats
      done;
      Printf.printf
        "recovered %d/%d trials (%.1f%%); %d faults injected, %d retries, %d \
         checkpoint restores, %.1fms simulated backoff\n"
        !recovered trials
        (100.0 *. float_of_int !recovered /. float_of_int (max 1 trials))
        total.Stats.injected_faults total.Stats.retries
        total.Stats.checkpoint_restores
        (total.Stats.backoff_us /. 1000.0);
      if rescue then
        Printf.printf
          "rescue telemetry: rescues=%d rescue_aborts=%d replans=%d \
           guard_trips=%d\n"
          total.Stats.rescues total.Stats.rescue_aborts total.Stats.replans
          total.Stats.guard_trips;
      if !recovered = trials then 0 else 1
  in
  let serve_arg =
    Arg.(
      value & flag
      & info [ "serve" ]
          ~doc:
            "Kill/resume soak of the serving layer instead of a benchmark: \
             each trial serves a seeded multi-tenant workload, is killed \
             after K+trial durable journal writes, resumed from the serve \
             directory, and must complete every accepted request with \
             bit-identical outputs and statistics.")
  in
  let name_arg =
    Arg.(value & pos 0 string "linear" & info [] ~docv:"BENCHMARK")
  in
  let iters_arg = Arg.(value & opt int 8 & info [ "iters" ] ~docv:"N") in
  let size_arg = Arg.(value & opt int 32 & info [ "size" ] ~docv:"N") in
  let trials_arg =
    Arg.(
      value & opt int 20
      & info [ "trials" ] ~docv:"N" ~doc:"Independent fault-injected runs.")
  in
  let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED") in
  let fault_rate_arg =
    Arg.(
      value & opt float 0.02
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:"Per-op transient fault probability.")
  in
  let boot_rate_arg =
    Arg.(
      value & opt (some float) None
      & info [ "boot-rate" ] ~docv:"P"
          ~doc:
            "Additional per-bootstrap failure probability (defaults to the \
             fault rate).")
  in
  let spike_rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "spike-rate" ] ~docv:"P"
          ~doc:"Silent noise-spike probability (caught by the guard only).")
  in
  let spike_magnitude_arg =
    Arg.(
      value & opt float 1e-4
      & info [ "spike-magnitude" ] ~docv:"M"
          ~doc:
            "Noise-spike amplitude added to the payload (and to the \
             telemetry bound the runtime monitor watches).")
  in
  let no_retry_arg =
    Arg.(
      value & flag
      & info [ "no-retry" ]
          ~doc:"Disable retries: the first fault degrades the trial.")
  in
  let max_attempts_arg =
    Arg.(
      value & opt int Resilient.default_policy.Resilient.max_attempts
      & info [ "max-attempts" ] ~docv:"N"
          ~doc:"Retry budget per instruction.")
  in
  let kill_after_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after" ] ~docv:"K"
          ~doc:
            "Crash-recovery soak instead of fault injection: each trial \
             runs with checkpointing, is killed after K+trial durable \
             checkpoint writes, resumed from the journal, and must \
             reproduce the uninterrupted run's outputs bit-identically.")
  in
  let checkpoint_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR"
          ~doc:
            "Base directory for crash-soak checkpoint state (defaults to a \
             per-process directory under the system temp dir).")
  in
  let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ]) in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Stress a benchmark under seeded fault injection: N independent \
          trials on the reference backend with transient, bootstrap and \
          noise-spike faults, recovered by the resilient runtime and \
          checked against the noise-budget guard.  With $(b,--kill-after), \
          stress crash recovery instead.  Exits non-zero unless every \
          trial recovers.")
    Term.(
      const run $ serve_arg $ name_arg $ strategy_arg $ iters_arg $ size_arg
      $ trials_arg $ seed_arg $ fault_rate_arg $ boot_rate_arg
      $ spike_rate_arg $ spike_magnitude_arg $ no_retry_arg $ max_attempts_arg
      $ kill_after_arg $ checkpoint_dir_arg $ guard_margin_arg $ rescue_arg
      $ rescue_margin_arg $ max_rescues_arg $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* Chaos soak: supervised serving under a poisoned tenant (deterministic
   retry exhaustion), seeded faults and breaker trips.  Each trial is a
   multi-round {!Halo_serve.Soak.trial} killed after a trial-dependent
   number of journal writes.  Everything is asserted in virtual time, so
   the whole soak is reproducible from the seed. *)
let chaos_cmd =
  let run trials rounds clients per_client seed dir kill_after fault_rate
      spike_rate spike_magnitude rescue tenant_threshold program_threshold
      cooldown_us quarantine_after max_latency_us verbose =
    let dir = soak_root "chaos" dir in
    handle_code (fun () ->
        let slots = 64 and max_level = 16 and lane = 8 in
        let sup =
          {
            Serve_codec.default_sup with
            Serve_codec.s_fallback = true;
            s_tenant_threshold = tenant_threshold;
            s_program_threshold = program_threshold;
            s_cooldown_us = cooldown_us;
            s_quarantine_after = quarantine_after;
            (* --rescue implies the per-batch guard: the replan phase
               triggers on a Breach status, which only the guard emits. *)
            s_guard = rescue;
            s_rescue = rescue;
          }
        in
        let programs = Workload.programs ~slots ~max_level ~iters:3 in
        let cfg trial =
          serve_config ~sup ~slots ~max_level
            ~queue_depth:(clients * per_client * rounds)
            ~batch_window:4 ~lane ~backend_seed:(0xB00 + trial)
            ~faults:
              {
                Serve_codec.f_seed = (seed * 7919) + trial;
                f_transient = fault_rate;
                f_bootstrap = fault_rate;
                f_spike = spike_rate;
                f_magnitude = spike_magnitude;
                f_poison = [ 0 ];
              }
            ()
        in
        (* Poisoned tenant last: its failures trip the breakers, and the
           next round's probe comes from a healthy tenant so closes are
           observed. *)
        let round_reqs trial r =
          Workload.requests
            ~seed:(seed + (trial * 6151) + (r * 389))
            ~clients ~per_client ~lane ()
          |> List.stable_sort (fun (a : Workload.req) (b : Workload.req) ->
                 compare (a.w_tenant.Tenant.id = 0) (b.w_tenant.Tenant.id = 0))
        in
        Printf.printf
          "chaos soak: %d trials, %d rounds x %d clients x %d requests, \
           tenant 0 poisoned, kill after %d+3*trial journal writes (dirs \
           under %s)\n"
          trials rounds clients per_client kill_after dir;
        let ok = ref 0 in
        for trial = 0 to trials - 1 do
          let t =
            Soak.trial ~cfg:(cfg trial) ~programs ~requests:(round_reqs trial)
              ~rounds
              ~kill_after:(kill_after + (3 * trial))
              ~dir:(Filename.concat dir (Printf.sprintf "trial%d" trial))
          in
          let a = t.Soak.baseline in
          let ca = Server.counters a in
          (* Not the report: it prints rejected_supervised, and admission
             rejections made before the kill are never journaled. *)
          match
            List.filter (( <> ) "report") t.Soak.failures
            @ Soak.chaos_failures ~max_latency_us a
          with
          | [] ->
            incr ok;
            if verbose then
              Printf.printf
                "  trial %2d: survived%s (%d accepted, %d served, %d failed, \
                 %d breaker opens, %d closes, %d reopens, max latency %dus)\n"
                trial
                (if t.Soak.killed <> None then " a mid-chaos kill"
                 else " (no kill reached)")
                ca.Server.accepted ca.Server.served ca.Server.failed
                ca.Server.breaker_opens ca.Server.breaker_closes
                ca.Server.breaker_reopens (Server.max_latency_us a)
          | failed ->
            Printf.printf "  trial %2d: FAILED (%s)\n" trial
              (String.concat ", " failed)
        done;
        Printf.printf "survived %d/%d chaos trials bit-identically\n" !ok
          trials;
        if !ok = trials then 0 else 1)
  in
  let trials_arg =
    Arg.(
      value & opt int 3
      & info [ "trials" ] ~docv:"N"
          ~doc:"Independent chaos trials (each is baseline + killed run).")
  in
  let rounds_arg =
    Arg.(
      value & opt int 4
      & info [ "rounds" ] ~docv:"N" ~doc:"Submission rounds per trial.")
  in
  let clients_arg =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Simulated tenants per round.")
  in
  let per_client_arg =
    Arg.(
      value & opt int 3
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per client per round.")
  in
  let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED") in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Base directory for the trial serve directories (defaults to a \
             per-process directory under the system temp dir).")
  in
  let kill_after_arg =
    Arg.(
      value & opt int 5
      & info [ "kill-after" ] ~docv:"K"
          ~doc:
            "Kill the chaos run after K+3*trial durable journal writes, \
             then resume it from the serve directory.")
  in
  let fault_rate_arg =
    Arg.(
      value & opt float 0.01
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:
            "Per-op transient and bootstrap fault probability on top of \
             the poisoned tenant.")
  in
  let spike_rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "spike-rate" ] ~docv:"P"
          ~doc:
            "Silent noise-spike probability on the serving backend; pair \
             with $(b,--rescue) so the runtime monitor can see the spikes.")
  in
  let spike_magnitude_arg =
    Arg.(
      value & opt float 1e-3
      & info [ "spike-magnitude" ] ~docv:"M"
          ~doc:
            "Noise-spike amplitude; the default is far past the guard \
             bound, so every spiked batch breaches and exercises the \
             rescue/replan ladder.")
  in
  let chaos_rescue_arg =
    Arg.(
      value & flag
      & info [ "rescue" ]
          ~doc:
            "Enable the per-batch guard, the runtime noise monitor and the \
             replan phase; the kill/resume assertion then also covers the \
             rescue and replan sequence.")
  in
  let tenant_threshold_arg =
    Arg.(value & opt int 2 & info [ "tenant-threshold" ] ~docv:"N")
  in
  let program_threshold_arg =
    Arg.(value & opt int 2 & info [ "program-threshold" ] ~docv:"N")
  in
  let cooldown_us_arg =
    Arg.(
      value & opt int 1000
      & info [ "cooldown-us" ] ~docv:"US"
          ~doc:
            "Breaker cooldown in virtual microseconds (short, so probes \
             happen within a few rounds).")
  in
  let quarantine_after_arg =
    Arg.(value & opt int 2 & info [ "quarantine-after" ] ~docv:"N")
  in
  let max_latency_us_arg =
    Arg.(
      value & opt int 50_000_000
      & info [ "max-latency-us" ] ~docv:"US"
          ~doc:
            "Upper bound every request's virtual completion latency must \
             stay under.")
  in
  let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ]) in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Chaos-soak the supervised serving layer: seeded fault schedules, \
          a poisoned tenant, breaker trips, quarantine and a mid-chaos \
          kill/resume per trial.  Asserts zero lost accepted requests, \
          bit-identical outputs, statistics, quarantine, breaker history, \
          clock and per-request latencies between the baseline and the \
          killed-and-resumed run, observed breaker transitions, quarantine \
          convergence on the poisoned tenant, and bounded tail latency in \
          virtual time.  Exits non-zero unless every trial survives.")
    Term.(
      const run $ trials_arg $ rounds_arg $ clients_arg $ per_client_arg
      $ seed_arg $ dir_arg $ kill_after_arg $ fault_rate_arg $ spike_rate_arg
      $ spike_magnitude_arg $ chaos_rescue_arg $ tenant_threshold_arg
      $ program_threshold_arg $ cooldown_us_arg $ quarantine_after_arg
      $ max_latency_us_arg $ verbose_arg)

let () =
  let info =
    Cmd.info "halo_cli" ~version:"1.0.0"
      ~doc:"Loop-aware bootstrapping management for RNS-CKKS programs."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            compile_cmd;
            inspect_cmd;
            run_cmd;
            resume_cmd;
            tune_cmd;
            bench_cmd;
            verify_cmd;
            soak_cmd;
            serve_cmd;
            chaos_cmd;
          ]))

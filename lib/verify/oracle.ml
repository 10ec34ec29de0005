open Halo
module R = Halo_runtime.Interp.Make (Halo_ckks.Ref_backend)
module Ref_run = Halo_persist.Ref_run

type failure =
  | Compile_error of {
      strategy : Strategy.t;
      pass_name : string option;
      msg : string;
    }
  | Run_error of { strategy : Strategy.t; msg : string }
  | Divergence of {
      strategy : Strategy.t;
      baseline : Strategy.t;
      output : int;
      slot : int;
      got : float;
      expected : float;
    }
  | Fault_recovery of { strategy : Strategy.t; msg : string }

let failure_to_string = function
  | Compile_error { strategy; pass_name; msg } ->
    Printf.sprintf "%s: compile failed%s: %s"
      (Strategy.to_string strategy)
      (match pass_name with
       | Some p -> Printf.sprintf " in pass %S" p
       | None -> "")
      msg
  | Run_error { strategy; msg } ->
    Printf.sprintf "%s: execution failed: %s" (Strategy.to_string strategy) msg
  | Divergence { strategy; baseline; output; slot; got; expected } ->
    Printf.sprintf "%s diverges from %s: output %d slot %d: %g vs %g"
      (Strategy.to_string strategy)
      (Strategy.to_string baseline)
      output slot got expected
  | Fault_recovery { strategy; msg } ->
    Printf.sprintf "%s: faulty-backend recovery failed: %s"
      (Strategy.to_string strategy) msg

type seed_report = {
  seed : int;
  program : Ir.program;
  bindings : (string * int) list;
  pass_reports : (Strategy.t * Pipeline.pass_report list) list;
  failures : failure list;
}

let ok r = r.failures = []

let default_tol = 1e-3

(* Faulty-backend re-execution: run the compiled artifact once more through
   [Ref_run] under seeded fault injection, and require the recovered
   outputs to agree with the fault-free ones.  Checks the whole recovery
   path (retry + checkpoint restore), not just the compiler.  The run
   manifest's default backend is the one the fault-free run used. *)
let check_fault_recovery ~tol ~fault_rate ~seed ~strategy ~bindings ~inputs
    (compiled : Ir.program) (clean : float array list) =
  let faults =
    Halo_runtime.Faults.config ~transient_prob:fault_rate
      ~bootstrap_prob:fault_rate ~seed:((seed * 7919) + 1) ()
  in
  let stats = Halo_runtime.Stats.create () in
  match
    Ref_run.exec ~faults ~stats
      (Ref_run.manifest ~strategy ~bindings ~inputs compiled)
  with
  | exception e ->
    Some
      (Fault_recovery { strategy; msg = Halo_error.to_string e })
  | Ref_run.Rec.R.Degraded d, _ ->
    (* A degraded report's partial stats omit the injected count: fuzz
       logs are diffed byte for byte across builds, and only a divergence
       report names the count. *)
    d.stats.injected_faults <- 0;
    Some
      (Fault_recovery { strategy; msg = Ref_run.Rec.R.degraded_to_string d })
  | Ref_run.Rec.R.Complete { outputs; _ }, _ ->
    let worst = ref 0.0 and where = ref (0, 0) in
    List.iteri
      (fun output (exp, got) ->
        let n = min (Array.length exp) (Array.length got) in
        for slot = 0 to n - 1 do
          let d = Float.abs (exp.(slot) -. got.(slot)) in
          if d > !worst then begin
            worst := d;
            where := (output, slot)
          end
        done)
      (List.combine clean outputs);
    if !worst > tol then
      Some
        (Fault_recovery
           {
             strategy;
             msg =
               Printf.sprintf
                 "recovered run diverges from fault-free run: output %d slot \
                  %d off by %g (tol %g; %d faults injected)"
                 (fst !where) (snd !where) !worst tol
                 stats.Halo_runtime.Stats.injected_faults;
           })
    else None

let run_seed ?(tol = default_tol) ?(strategies = Strategy.all) ?fault_rate seed
    =
  let g = Gen.generate seed in
  let inputs = Pipeline.fixed_inputs g.prog in
  let failures = ref [] in
  let pass_reports = ref [] in
  let outputs =
    List.filter_map
      (fun strategy ->
        match
          Pipeline.compile ~bindings:g.bindings ~verify:true ~strategy g.prog
        with
        | exception Pipeline.Verification_failure { pass_name; detail; _ } ->
          failures :=
            Compile_error { strategy; pass_name = Some pass_name; msg = detail }
            :: !failures;
          None
        | exception Typecheck.Type_error msg ->
          failures :=
            Compile_error { strategy; pass_name = None; msg } :: !failures;
          None
        | exception e ->
          failures :=
            Compile_error { strategy; pass_name = None; msg = Printexc.to_string e }
            :: !failures;
          None
        | compiled, reports ->
          pass_reports := (strategy, reports) :: !pass_reports;
          let st =
            Halo_ckks.Ref_backend.create ~slots:g.prog.slots
              ~max_level:g.prog.max_level ~scale_bits:51 ()
          in
          (match R.run st ~bindings:g.bindings ~inputs compiled with
           | outs, _ ->
             (match fault_rate with
              | Some rate when rate > 0.0 ->
                (match
                   check_fault_recovery ~tol ~fault_rate:rate ~seed ~strategy
                     ~bindings:g.bindings ~inputs compiled outs
                 with
                 | Some f -> failures := f :: !failures
                 | None -> ())
              | _ -> ());
             Some (strategy, outs)
           | exception e ->
             failures :=
               Run_error { strategy; msg = Halo_error.to_string e } :: !failures;
             None))
      strategies
  in
  (* Pairwise agreement against the first strategy that ran (DaCapo when the
     full set is used): transitivity makes all-pairs checks redundant. *)
  (match outputs with
   | [] -> ()
   | (baseline, base_outs) :: rest ->
     List.iter
       (fun (strategy, outs) ->
         if List.length outs <> List.length base_outs then
           failures :=
             Run_error
               {
                 strategy;
                 msg =
                   Printf.sprintf "output arity %d, baseline has %d"
                     (List.length outs) (List.length base_outs);
               }
             :: !failures
         else
           List.iteri
             (fun output exp ->
               let got = List.nth outs output in
               let n = min (Array.length exp) (Array.length got) in
               let worst = ref (-1) and worst_d = ref tol in
               for slot = 0 to n - 1 do
                 let d = Float.abs (exp.(slot) -. got.(slot)) in
                 if d > !worst_d then begin
                   worst := slot;
                   worst_d := d
                 end
               done;
               if !worst >= 0 then
                 failures :=
                   Divergence
                     {
                       strategy;
                       baseline;
                       output;
                       slot = !worst;
                       got = got.(!worst);
                       expected = exp.(!worst);
                     }
                   :: !failures)
             base_outs)
       rest);
  {
    seed;
    program = g.prog;
    bindings = g.bindings;
    pass_reports = List.rev !pass_reports;
    failures = List.rev !failures;
  }

let fuzz ?tol ?strategies ?fault_rate ?progress ~seeds () =
  List.map
    (fun seed ->
      let r = run_seed ?tol ?strategies ?fault_rate seed in
      (match progress with Some f -> f r | None -> ());
      r)
    seeds

let summarize reports =
  let failed = List.filter (fun r -> not (ok r)) reports in
  let count p = List.length (List.concat_map (fun r -> List.filter p r.failures) reports) in
  let compile_errors = count (function Compile_error _ -> true | _ -> false) in
  let run_errors = count (function Run_error _ -> true | _ -> false) in
  let divergences = count (function Divergence _ -> true | _ -> false) in
  let fault_failures = count (function Fault_recovery _ -> true | _ -> false) in
  Printf.sprintf
    "%d seeds: %d ok, %d failing (%d invariant/compile errors, %d run errors, \
     %d output divergences, %d fault-recovery failures)"
    (List.length reports)
    (List.length reports - List.length failed)
    (List.length failed) compile_errors run_errors divergences fault_failures

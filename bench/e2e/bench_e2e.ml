(* End-to-end wall-clock benchmark: the HALO compiler, autotuner and
   interpreter driven from outside through their public functions, with
   compiled programs executed on real RLWE ciphertexts (Lattice_backend on
   Params.test_deep) and on the reference backend.

     dune exec bench/e2e/bench_e2e.exe -- [--workload W] [--seed N]
       [--seconds S] [--trace 0|1] [--trace-out FILE] [--out FILE]
       [--tiny] [--check BENCHMARK.json]

   Each workload is one client issuing jobs back to back (a closed loop).  A
   job is one compile, one tune or one encrypted execution; every job is
   timed from outside after a [Gc.compact], and a job shorter than
   [min_batch_s] is repeated until the batch lasts that long.  Every sample
   is corrected for the host's speed at that moment (see [timed]).  Rounds
   of jobs repeat until [--seconds] is spent; each job's median sample is
   combined across jobs with a geometric mean.  Set-up is repeated and its
   median reported.

   The parent process re-executes itself twice per workload, first to screen
   the workload's inputs (see [screened_case]) and then to run it, with
   HALO_DOMAINS=2 (at most the core count) and every other HALO_* variable
   cleared, so each workload's peak memory is its own and no run depends on
   the caller's environment.  The child prints one row per job, one
   [metric <name> <value> <unit>] row per metric and, last, one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   [--trace 0], the per-layer metrics (from one extra traced round) with
   [--trace 1].  It exits nonzero on any output that disagrees with its
   independent reference, on nondeterminism across rounds, and on a failure
   missing from the known-failure ledger below. *)

open Halo
module Workloads = Halo_ml.Workloads
module Bench_def = Halo_ml.Bench_def
module Stats = Halo_runtime.Stats
module Interp = Halo_runtime.Interp
module Lattice = Halo_runtime.Lattice_backend
module Ref = Halo_ckks.Ref_backend
module Keys = Halo_ckks.Keys
module Params = Halo_ckks.Params
module Eval = Halo_ckks.Eval
module Cost = Halo_cost.Cost_model
module Tuner = Halo_tune.Tuner
module Predict = Halo_tune.Predict

let workload_names = [ "lattice_train"; "lattice_matvec"; "ref_sim" ]

(* ------------------------------------------------------------------ *)
(* Metric catalogue (BENCHMARK.json lists the same names and units).   *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("setup_s", "s");
    ("exec_s", "s");
    ("precision_bits", "bits");
    ("ok_share", "ratio");
    ("peak_rss_mb", "MB");
    ("compile_s", "s");
    ("code_kb", "KB");
    ("tune_s", "s");
  ]

let backend_ops =
  [
    "encrypt"; "decrypt"; "addcc"; "subcc"; "addcp"; "multcc"; "multcp";
    "rotate"; "rotate_many"; "rot_sum"; "rescale"; "modswitch"; "bootstrap";
    "negate";
  ]

(* Backend self time is reported per op class rather than per op: every
   workload executes every class (the matvec loop has no rotate, multcc or
   rescale), so no timing reads a constant zero. *)
let backend_classes =
  [
    ("keyswitch", [ "rotate"; "rotate_many"; "rot_sum"; "multcc" ]);
    ("arith", [ "addcc"; "subcc"; "addcp"; "multcp"; "negate" ]);
    ("level", [ "rescale"; "modswitch" ]);
    ("bootstrap", [ "bootstrap" ]);
    ("encrypt", [ "encrypt" ]);
    ("decrypt", [ "decrypt" ]);
  ]

(* The pass names of both ends of the strategy range; together they cover
   every pass any strategy runs. *)
let pass_names =
  List.concat_map
    (fun strategy ->
      List.map (fun p -> p.Strategy.pass_name) (Strategy.passes ~strategy ()))
    [ Strategy.Dacapo; Strategy.Halo ]
  |> List.sort_uniq compare

let stat_counters =
  [
    ("bootstraps", fun (s : Stats.t) -> s.bootstrap);
    ("key_switches", fun s -> s.key_switches);
    ("hoisted_groups", fun s -> s.hoisted_groups);
    ("decompositions_saved", fun s -> s.decompositions_saved);
    ("lazy_rotsums", fun s -> s.lazy_rotsums);
    ("digit_reuses", fun s -> s.digit_reuses);
  ]

let cache_counters =
  [
    ("cache_hits", fun (s : Stats.t) -> s.key_cache_hits);
    ("cache_misses", fun s -> s.key_cache_misses);
    ("cache_evictions", fun s -> s.key_cache_evictions);
    ("cache_regens", fun s -> s.key_cache_regens);
  ]

(* Standalone kernels at test_deep: (metric stem, repetitions). *)
let kernels =
  [
    ("ntt.forward", 400);
    ("ntt.inverse", 400);
    ("rns_poly.mul", 60);
    ("keys.decompose", 12);
    ("keys.apply", 12);
    ("eval.rescale", 30);
  ]

let cost_ratios = [ "exec"; "rotate"; "multcc"; "rescale"; "bootstrap"; "keygen" ]

let per_layer =
  List.map (fun op -> ("backend." ^ op ^ ".calls", "count")) backend_ops
  @ List.map (fun (c, _) -> ("backend." ^ c ^ ".self_ms", "ms")) backend_classes
  @ [ ("runtime.interp.self_ms", "ms"); ("runtime.interp.ops", "count") ]
  @ List.map (fun (c, _) -> ("runtime.stats." ^ c, "count")) stat_counters
  @ [
      ("ckks.keys.keygen_ms", "ms");
      ("ckks.keys.rotation_keygen_ms", "ms");
      ("ckks.keys.rotation_keys", "count");
    ]
  @ List.map (fun (c, _) -> ("ckks.keys." ^ c, "count")) cache_counters
  @ List.map (fun (k, _) -> ("ckks." ^ k ^ "_us", "us")) kernels
  @ List.map (fun r -> ("costmodel." ^ r ^ "_ratio", "ratio")) cost_ratios
  @ List.map (fun p -> ("core.pass." ^ p ^ ".ms", "ms")) pass_names
  @ [
      ("core.ir_ops", "count");
      ("tune.compiles", "count");
      ("tune.priced", "count");
      ("tune.pruned", "count");
      ("tune.predict_ms", "ms");
      ("verify.pipeline_ms", "ms");
      ("ocaml.gc.minor_words", "count");
      ("ocaml.gc.major_collections", "count");
      ("bench.trace_overhead", "ratio");
    ]

(* ------------------------------------------------------------------ *)
(* Small numeric helpers.                                               *)
(* ------------------------------------------------------------------ *)

let secs_since t0 = Int64.to_float (Int64.sub (Span.now_ns ()) t0) /. 1e9

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let geomean = function
  | [] -> 0.0
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

let host f = Cost.with_profile Cost.host f

(* VmHWM of this process, from Linux's /proc. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Traced backend: one span per call, with the host profile's           *)
(* prediction at the operand level.                                     *)
(* ------------------------------------------------------------------ *)

module Timed (B : Halo_runtime.Backend.S) :
  Halo_runtime.Backend.S with type ct = B.ct and type state = B.state = struct
  include B

  let call name pred f = Span.with_ ~layer:"backend" ~name ~pred_us:(host pred) f
  let at op st ct () = Cost.latency_us op ~level:(B.level st ct)

  let encrypt st ~level v =
    call "encrypt" (fun () -> Cost.latency_us Cost.Encode ~level) (fun () ->
        B.encrypt st ~level v)

  let decrypt st ct = call "decrypt" (at Cost.Encode st ct) (fun () -> B.decrypt st ct)
  let addcc st a b = call "addcc" (at Cost.Addcc st a) (fun () -> B.addcc st a b)
  let subcc st a b = call "subcc" (at Cost.Subcc st a) (fun () -> B.subcc st a b)
  let addcp st a v = call "addcp" (at Cost.Addcp st a) (fun () -> B.addcp st a v)
  let multcc st a b = call "multcc" (at Cost.Multcc st a) (fun () -> B.multcc st a b)
  let multcp st a v = call "multcp" (at Cost.Multcp st a) (fun () -> B.multcp st a v)
  let negate st a = call "negate" (at Cost.Addcp st a) (fun () -> B.negate st a)
  let rescale st a = call "rescale" (at Cost.Rescale st a) (fun () -> B.rescale st a)

  let modswitch st a ~down =
    call "modswitch" (at Cost.Modswitch st a) (fun () -> B.modswitch st a ~down)

  let rotate st a ~offset =
    call "rotate" (at Cost.Rotate st a) (fun () -> B.rotate st a ~offset)

  let rotate_many st a ~offsets =
    let level = B.level st a in
    call "rotate_many"
      (fun () ->
        Cost.decompose_us ~level
        +. float_of_int (List.length offsets)
           *. Cost.key_switch_us ~digits_cached:true ~level)
      (fun () -> B.rotate_many st a ~offsets)

  let rot_sum st a ~terms =
    let level = B.level st a in
    call "rot_sum"
      (fun () ->
        Cost.rot_sum_us ~lazy_switch:true
          ~weighted:(List.exists (fun (_, c) -> c <> None) terms)
          ~members:(List.length terms) ~level)
      (fun () -> B.rot_sum st a ~terms)

  let bootstrap st a ~target =
    call "bootstrap"
      (fun () -> Cost.bootstrap_latency_us ~target)
      (fun () -> B.bootstrap st a ~target)
end

module Exec (B : Halo_runtime.Backend.S) = struct
  module Plain = Interp.Make (B)
  module Traced = Interp.Make (Timed (B))

  let run ~traced ~pred_us st ~bindings ~inputs prog =
    if traced then
      Span.with_ ~layer:"runtime" ~name:"interp.run" ~pred_us:(Lazy.force pred_us)
        (fun () -> Traced.run st ~bindings ~inputs prog)
    else Plain.run st ~bindings ~inputs prog
end

module Lat_exec = Exec (Lattice)
module Ref_exec = Exec (Ref)

(* ------------------------------------------------------------------ *)
(* Jobs.                                                                *)
(* ------------------------------------------------------------------ *)

type kind = Compile | Tune | Exec

let kind_name = function Compile -> "compile" | Tune -> "tune" | Exec -> "exec"

type outcome =
  | Compiled of Ir.program
  | Tuned of {
      result : Tuner.result;
      tuned : Ir.program;
      source : Ir.program;
      bindings : (string * int) list;
    }
  | Ran of float array list * Stats.t

type failure =
  | Backend_error of string  (** the [Halo_error] site *)
  | Accuracy of float  (** RMSE above [rmse_limit] *)
  | Crash of string
  | Nondeterministic

let failure_to_string = function
  | Backend_error site -> "backend_error at " ^ site
  | Accuracy r -> Printf.sprintf "accuracy (rmse %.3g)" r
  | Crash msg -> "error: " ^ msg
  | Nondeterministic -> "nondeterministic: outcome differs across rounds"

let same_class a b =
  match (a, b) with
  | Backend_error _, Backend_error _ | Accuracy _, Accuracy _ -> true
  | _ -> false

let rmse_limit = 1e-2

type job = {
  name : string;  (** kind/program[/strategy] *)
  kind : kind;
  run : traced:bool -> outcome;  (** the timed region *)
  check : outcome -> (float option, failure) result;
      (** untimed: the RMSE of an execution, or why the outcome is wrong *)
  prepare_trace : unit -> unit;  (** untimed work the traced run needs *)
}

(* One benchmark program with seeded inputs and its independent cleartext
   reference, computed before any timing. *)
type case = {
  label : string;
  build : unit -> Ir.program;
  bindings : (string * int) list;
  inputs : (string * float array) list;
  expected : float array list;
  lens : int list;
}

let worst_rmse case outputs =
  List.fold_left2
    (fun acc (e, a) len -> Float.max acc (Workloads.rmse ~expected:e ~actual:a ~len))
    0.0
    (List.combine case.expected outputs)
    case.lens

(* Geometry of every program. *)
let lattice_slots = 1024
let lattice_size = 64

let ml_case (b : Bench_def.t) ~iters ~seed =
  let size = lattice_size in
  let bindings = Workloads.default_bindings b ~iters in
  let inputs = b.gen_inputs ~seed ~size in
  {
    label = b.name;
    build = (fun () -> b.build ~slots:lattice_slots ~size);
    bindings;
    inputs;
    expected = b.reference ~size ~bindings ~inputs;
    lens = b.output_len ~size;
  }

let ref_state ~seed =
  Ref.create ~seed:(0x5EED + seed) ~slots:lattice_slots ~max_level:16 ~scale_bits:51 ()

(* The ML programs replace sign, sigmoid and 1/sqrt by polynomials and
   Newton steps, and run in fixed point.  On some draws of their data the
   approximation, the noise it amplifies, or a value past the headroom of a
   low level puts the output past [rmse_limit]: a K-means point on the
   cluster boundary, a PCA covariance whose ||Cv||^2 leaves Newton's basin
   (RMSE up to 1.0 on about 1 % of seeds, on every backend and strategy),
   or a PCA value that wraps around at level 1 of the lattice backend (RMSE
   near 1.0 on about 2 % of seeds, where the reference backend, which has
   no modulus, reads 5e-5).  That is a property of the data, not of the
   compiler, so an executed case keeps the first draw on which its
   HALO-compiled program, run once on the case's own backend with keys and
   noise of its own, stays within the screen's limit.  The draw is a
   function of the seed.  Screening runs in a process of its own (--screen),
   so that its keys and runs do not count in the workload's peak memory;
   the workload process gets the draws through --draws. *)
type screen = {
  limit : float;  (** a few times the backend's own error *)
  run : seed:int -> case -> Ir.program -> float array list;
}

let max_draws = 16

(* Draw index per program name: given by --draws, or found by screening. *)
let draws : (string, int) Hashtbl.t = Hashtbl.create 8

(* Every program's own noise on the reference backend is about 3e-5. *)
let ref_screen =
  {
    limit = 2e-4;
    run =
      (fun ~seed c prog ->
        fst (Ref_exec.Plain.run (ref_state ~seed) ~bindings:c.bindings ~inputs:c.inputs prog));
  }

let screened_case ?(screen = ref_screen) (b : Bench_def.t) ~iters ~seed =
  let draw_seed k = seed + (k lsl 24) in
  let case k = ml_case b ~iters ~seed:(draw_seed k) in
  match Hashtbl.find_opt draws b.name with
  | Some k -> case k
  | None ->
    let bindings = Workloads.default_bindings b ~iters in
    let prog =
      Strategy.compile ~bindings ~strategy:Strategy.Halo
        (b.build ~slots:lattice_slots ~size:lattice_size)
    in
    let rec draw k =
      if k = max_draws then
        failwith
          (Printf.sprintf "%s: no input draw within RMSE %g in %d draws" b.name
             screen.limit max_draws);
      let c = case k in
      let outputs = screen.run ~seed:(draw_seed k lxor 0x5C2EE) c prog in
      if worst_rmse c outputs <= screen.limit then begin
        Hashtbl.replace draws b.name k;
        c
      end
      else draw (k + 1)
    in
    draw 0

let compile ~traced ~bindings ~strategy src =
  if not traced then Strategy.compile ~bindings ~strategy src
  else
    Span.with_ ~layer:"core" ~name:"compile" (fun () ->
        (* A pass spans the interval between successive observer calls. *)
        let last = ref (Span.now_ns ()) in
        let observer ~pass ~before:_ ~after:_ =
          Span.add ~layer:"core" ~name:("pass." ^ pass.Strategy.pass_name) !last
            (Span.now_ns ());
          last := Span.now_ns ()
        in
        Strategy.compile ~bindings ~strategy ~observer src)

let no_check _ = Ok None

let compile_job case src strategy =
  {
    name = Printf.sprintf "compile/%s/%s" case.label (Strategy.to_string strategy);
    kind = Compile;
    run =
      (fun ~traced ->
        Compiled (compile ~traced ~bindings:case.bindings ~strategy src));
    check = no_check;
    prepare_trace = ignore;
  }

let tune_job case src =
  {
    name = "tune/" ^ case.label;
    kind = Tune;
    run =
      (fun ~traced:_ ->
        let result, tuned =
          Span.with_ ~layer:"tune" ~name:"tune" (fun () ->
              Tuner.tune ~bindings:case.bindings ~name:case.label src)
        in
        Tuned { result; tuned; source = src; bindings = case.bindings });
    check = no_check;
    prepare_trace = ignore;
  }

(* The host profile's prediction for one execution, keygen excluded: the
   keys exist before any job runs. *)
let predict_exec_us ~bindings prog =
  host (fun () ->
      let b =
        Predict.program ~pool:(Halo_ckks.Domain_pool.size ()) ~bindings prog
      in
      b.Predict.b_total_us -. b.Predict.b_keygen_us)

let exec_job ~name case ~program ~run =
  let pred_us = lazy (predict_exec_us ~bindings:case.bindings (program ())) in
  {
    name;
    kind = Exec;
    run = (fun ~traced -> run ~traced ~pred_us (program ()));
    check =
      (function
        | Ran (outputs, _) ->
          let r = worst_rmse case outputs in
          if Float.is_nan r || r > rmse_limit then Error (Accuracy r) else Ok (Some r)
        | _ -> Error (Crash "exec job produced no outputs"));
    prepare_trace = (fun () -> ignore (Lazy.force pred_us));
  }

let lattice_exec keys case ~label ~program =
  let rng0 = Keys.rng_state keys in
  exec_job ~name:("exec/" ^ label) case ~program
    ~run:(fun ~traced ~pred_us prog ->
      (* Same encryption randomness every round: outputs must repeat. *)
      Keys.set_rng_state keys rng0;
      let outs, stats =
        Lat_exec.run ~traced ~pred_us keys ~bindings:case.bindings
          ~inputs:case.inputs prog
      in
      Ran (outs, stats))

let ref_exec st case ~label ~program =
  let rng0 = Ref.rng_state st in
  exec_job ~name:("exec/" ^ label) case ~program
    ~run:(fun ~traced ~pred_us prog ->
      Ref.set_rng_state st rng0;
      let outs, stats =
        Ref_exec.run ~traced ~pred_us st ~bindings:case.bindings
          ~inputs:case.inputs prog
      in
      Ran (outs, stats))

let digest = function
  | Compiled p -> Digest.string (Printer.program_to_string p)
  | Tuned { result; tuned; _ } ->
    Digest.string
      (Tuner.candidate_to_string result.Tuner.r_best
      ^ Printer.program_to_string tuned)
  | Ran (outputs, s) ->
    let b = Buffer.create 4096 in
    List.iter
      (Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)))
      outputs;
    Printf.bprintf b "|%d|%d|%d" (Stats.total_ops s) s.Stats.bootstrap
      s.Stats.key_switches;
    Digest.string (Buffer.contents b)

let classify = function
  | Halo_error.Backend_error { site; _ } ->
    Backend_error (Halo_error.site_to_string site)
  | e -> Crash (Halo_error.to_string e)

(* ------------------------------------------------------------------ *)
(* Workloads.                                                           *)
(* ------------------------------------------------------------------ *)

(* What one set-up produces: the jobs of the closed loop, the known-failure
   probes, and the key material (lattice workloads). *)
type instance = {
  jobs : job list;
  probes : job list;
  keys : Keys.t option;
  rotation_keys : int;
}

type workload = {
  setup : unit -> instance;  (** timed: what a user pays once per key set *)
  ledger : (string * failure) list;
      (** known failures: probe name and failure class *)
}

(* The run seed alone decides the key set; the rotation-key budget is
   unbounded whatever HALO_KEY_BUDGET says. *)
let keygen ~seed =
  let keys = Keys.keygen ~seed:(0x5EED + seed) (Params.test_deep ()) in
  Keys.set_key_budget keys 0;
  keys

(* Linear's own error on the lattice backend is up to 1.6e-3.  The cases
   share one key set of their own, so a screening run is not the same
   computation as a timed one. *)
let lattice_screen ~seed =
  let keys = lazy (keygen ~seed:(seed lxor 0x5C2EE)) in
  {
    limit = rmse_limit /. 4.0;
    run =
      (fun ~seed:_ c prog ->
        fst
          (Lat_exec.Plain.run (Lazy.force keys) ~bindings:c.bindings ~inputs:c.inputs
             prog));
  }

let compile_and_tune_jobs cases sources =
  List.concat
    (List.map2
       (fun c src ->
         List.map (compile_job c src) [ Strategy.Dacapo; Strategy.Halo ])
       cases sources)
  @ List.map2 tune_job cases sources

(* Lattice workloads: keygen, HALO compile, every rotation key the compiled
   programs need; then compile, tune and encrypted execution of each case. *)
let lattice_workload ~seed ?(probes = []) ?(ledger = []) cases =
  let setup () =
    let sources = List.map (fun c -> c.build ()) cases in
    let keys = keygen ~seed in
    let compiled =
      List.map2
        (fun c src -> Strategy.compile ~bindings:c.bindings ~strategy:Strategy.Halo src)
        cases sources
    in
    let offsets = List.sort_uniq compare (List.concat_map Rotations.required compiled) in
    List.iter (fun offset -> ignore (Keys.rotation_key keys ~offset)) offsets;
    let exec =
      List.map2
        (fun c prog ->
          lattice_exec keys c ~label:(c.label ^ "/halo") ~program:(fun () -> prog))
        cases compiled
    in
    (* Probes compile on first use: that is not set-up a user pays. *)
    let probes =
      List.map
        (fun c ->
          let prog =
            lazy (Strategy.compile ~bindings:c.bindings ~strategy:Strategy.Halo (c.build ()))
          in
          lattice_exec keys c ~label:(c.label ^ "/halo") ~program:(fun () ->
              Lazy.force prog))
        probes
    in
    {
      jobs = compile_and_tune_jobs cases sources @ exec;
      probes;
      keys = Some keys;
      rotation_keys = List.length offsets;
    }
  in
  { setup; ledger }

(* Two training iterations (PCA: 2 outer x 8 inner) keep the longest
   encrypted run, PCA's, near five seconds, so a run holds several samples
   of every job. *)
let lattice_train ~seed ~tiny =
  let iters = if tiny then 1 else 2 in
  let case ?screen name = screened_case ?screen (Workloads.find name) ~iters ~seed in
  let timed = if tiny then [ "Linear" ] else [ "Linear"; "Multivariate"; "PCA" ] in
  (* Today these abort on the lattice backend's 1 % scale-drift check; they
     are attempted once per run so a fix shows up as a notice and in
     ok_share.  PCA under dacapo is left out: at four iterations its RMSE
     was 0.18 on seed 0 but under the limit on seeds 6 and 8, so it is not
     a stable verdict. *)
  let known = if tiny then [] else [ "Polynomial"; "Logistic"; "K-means"; "SVM" ] in
  (* The probes fail on the lattice backend whatever their data, so they
     are screened on the reference backend. *)
  let screen = lattice_screen ~seed in
  lattice_workload ~seed ~probes:(List.map case known)
    ~ledger:(List.map (fun n -> ("exec/" ^ n ^ "/halo", Backend_error "")) known)
    (List.map (case ~screen) timed)

(* v <- A v + c for [iters] steps: A is a damped row-stochastic matrix with
   [diags] nonzero generalized diagonals, given as plaintext inputs so the
   compiled program does not depend on the seed. *)
let matvec_dim = 64
let matvec_damping = 0.85

let matvec_case ~seed ~diags ~iters =
  let dim = matvec_dim in
  let rng = Random.State.make [| 0x3a7; seed; diags |] in
  let weights =
    Array.init dim (fun _ ->
        let w = Array.init diags (fun _ -> 0.1 +. Random.State.float rng 1.0) in
        let total = Array.fold_left ( +. ) 0.0 w in
        Array.map (fun x -> matvec_damping *. x /. total) w)
  in
  let diag g = Array.init dim (fun i -> weights.(i).(g)) in
  let v0 = Array.init dim (fun _ -> Random.State.float rng 1.0) in
  let c = Array.init dim (fun _ -> (1.0 -. matvec_damping) *. Random.State.float rng 1.0) in
  let reference () =
    let v = ref v0 in
    for _ = 1 to iters do
      let cur = !v in
      v :=
        Array.init dim (fun i ->
            let acc = ref c.(i) in
            for g = 0 to diags - 1 do
              acc := !acc +. (weights.(i).(g) *. cur.((i + g) mod dim))
            done;
            !acc)
    done;
    !v
  in
  let build () =
    Dsl.build ~name:(Printf.sprintf "matvec%d" diags) ~slots:lattice_slots
      ~max_level:16 (fun b ->
        let v = Dsl.input b "v" ~size:dim in
        let ds =
          List.init diags (fun g ->
              Dsl.input b ~status:Ir.Plain (Printf.sprintf "d%d" g) ~size:dim)
        in
        let c = Dsl.input b ~status:Ir.Plain "c" ~size:dim in
        match
          Dsl.for_ b ~count:(Bench_def.dyn "iters") ~init:[ v ] (fun b -> function
            | [ v ] -> [ Dsl.add b (Linalg.matvec_diag b ~diags:ds v) c ]
            | _ -> assert false)
        with
        | [ v ] -> Dsl.output b v
        | _ -> assert false)
  in
  {
    label = Printf.sprintf "matvec%d" diags;
    build;
    bindings = [ ("iters", iters) ];
    inputs =
      (("v", v0) :: ("c", c) :: List.init diags (fun g -> (Printf.sprintf "d%d" g, diag g)));
    expected = [ reference () ];
    lens = [ dim ];
  }

let lattice_matvec ~seed ~tiny =
  let diags = if tiny then [ 2 ] else [ 2; 4; 8; 16 ] in
  lattice_workload ~seed
    (List.map (fun d -> matvec_case ~seed ~diags:d ~iters:16) diags)

let pick ~tiny = if tiny then [ Workloads.find "Linear" ] else Workloads.all

(* Four iterations: at ten, SVM's sign approximation exceeds the RMSE limit
   on some seeds, and at six its RMSE already spans two orders of magnitude
   across seeds. *)
let ref_sim ~seed ~tiny =
  let cases = List.map (fun b -> screened_case b ~iters:4 ~seed) (pick ~tiny) in
  let setup () =
    let sources = List.map (fun c -> c.build ()) cases in
    let st = ref_state ~seed in
    let compiled =
      List.concat
        (List.map2
           (fun c src ->
             List.map
               (fun strategy ->
                 (c, src, strategy, Strategy.compile ~bindings:c.bindings ~strategy src))
               Strategy.all)
           cases sources)
    in
    let compiles = List.map (fun (c, src, s, _) -> compile_job c src s) compiled in
    let tunes = List.map2 tune_job cases sources in
    let exec =
      List.map
        (fun (c, _, s, prog) ->
          ref_exec st c
            ~label:(c.label ^ "/" ^ Strategy.to_string s)
            ~program:(fun () -> prog))
        compiled
    in
    { jobs = compiles @ tunes @ exec; probes = []; keys = None; rotation_keys = 0 }
  in
  { setup; ledger = [] }

let find_workload name ~seed ~tiny =
  match name with
  | "lattice_train" -> lattice_train ~seed ~tiny
  | "lattice_matvec" -> lattice_matvec ~seed ~tiny
  | "ref_sim" -> ref_sim ~seed ~tiny
  | _ -> invalid_arg ("unknown workload " ^ name)

(* ------------------------------------------------------------------ *)
(* Sampling.                                                            *)
(* ------------------------------------------------------------------ *)

(* Jobs shorter than this are repeated within one sample, so that timer
   resolution and one-off scheduler noise do not dominate. *)
let min_batch_s = 0.025

type record = {
  job : job;
  mutable times : float list;  (** untraced per-run seconds, one per sample *)
  mutable traced_s : float option;
  mutable attempts : int;
  mutable failures : failure list;
  mutable first_digest : string option;
  mutable rmse : float option;
  mutable last : outcome option;
  mutable cost : float;  (** wall seconds of the last sample, checks included *)
}

let new_record job =
  {
    job;
    times = [];
    traced_s = None;
    attempts = 0;
    failures = [];
    first_digest = None;
    rmse = None;
    last = None;
    cost = 0.0;
  }

(* Host-speed correction.  On a shared 2-vCPU host the same code ran up to
   2x slower for stretches of 20-60 s, so a run's fastest sample still
   moved by 0.2-0.47 (quartile distance over median) from run to run.  A
   fixed loop, sharing no code with the repository, is timed right before
   and right after each sample, and the sample is scaled by the loop's
   nominal time over the mean of the two: it reads in seconds of a quiet
   host.  Three jobs timed back to back, each about every 0.2 s, had a
   median corrected sample that spread by 0.02-0.06 between 30 s windows.
   The loop mixes an
   L1-resident integer butterfly, like the lattice kernels, with
   short-lived allocation, like the compiler and the reference backend. *)
let calibration_loop () =
  let n = 4096 and p = 0x3FFFFFFF in
  let a = Array.init n (fun i -> i * 7919 land p) in
  for _ = 1 to 24 do
    let h = ref 1 in
    while !h < n do
      let i = ref 0 in
      while !i < n do
        for j = !i to !i + !h - 1 do
          let x = a.(j) and y = a.(j + !h) in
          a.(j) <- (x + y) land p;
          a.(j + !h) <- (x - y + p) * 3 land p
        done;
        i := !i + (2 * !h)
      done;
      h := 2 * !h
    done
  done;
  let l = ref [] in
  for i = 1 to 60_000 do
    l := (i, float_of_int i) :: !l
  done;
  List.length !l + a.(0)

(* The loop's fastest time on the Intel Xeon 2-vCPU host this benchmark
   was built on.  On another host every timing is off by one constant
   factor, which a comparison of two commits on that host does not see. *)
let calibration_nominal_s = 2.85e-3

let calibration_s () =
  let t0 = Span.now_ns () in
  ignore (Sys.opaque_identity (calibration_loop ()));
  secs_since t0

(* Runs [f] after a [Gc.compact], once or (with [batch]) repeatedly until
   [min_batch_s] has passed; returns the last result and the host-corrected
   mean seconds per call. *)
let timed ~batch f =
  Gc.compact ();
  let before = calibration_s () in
  let t0 = Span.now_ns () in
  let rec go reps =
    let r = f () in
    if batch && secs_since t0 < min_batch_s then go (reps + 1)
    else (r, secs_since t0 /. float_of_int (reps + 1))
  in
  let r, dt = go 0 in
  let after = calibration_s () in
  (r, dt *. calibration_nominal_s /. ((before +. after) /. 2.0))

let sample ?(batch = true) ~traced r =
  let w0 = Span.now_ns () in
  r.attempts <- r.attempts + 1;
  let fail f = r.failures <- f :: r.failures in
  let run () =
    if traced then
      Span.with_ ~layer:"bench" ~name:(kind_name r.job.kind) (fun () ->
          r.job.run ~traced)
    else r.job.run ~traced
  in
  (match timed ~batch:(batch && not traced) run with
   | exception e -> fail (classify e)
   | o, dt -> (
     match r.job.check o with
     | Error f -> fail f
     | Ok rmse ->
       let d = digest o in
       (match r.first_digest with
        | None -> r.first_digest <- Some d
        | Some d0 -> if d0 <> d then fail Nondeterministic);
       r.rmse <- rmse;
       r.last <- Some o;
       if traced then r.traced_s <- Some dt else r.times <- dt :: r.times));
  r.cost <- secs_since w0

let of_kind kind records = List.filter (fun r -> r.job.kind = kind) records

let fastest r = List.fold_left Float.min infinity r.times

(* Geomean over the jobs of one kind of each job's median corrected
   sample: over 30 s windows the median of corrected samples spread by
   0.02-0.06, their fastest by 0.10-0.20. *)
let timing_metric kind records =
  geomean
    (List.filter_map
       (fun r -> if r.times = [] then None else Some (median r.times))
       (of_kind kind records))

(* ------------------------------------------------------------------ *)
(* The traced round and its per-layer metrics.                          *)
(* ------------------------------------------------------------------ *)

let standalone_kernels ~seed =
  let params = Params.test_deep () in
  let ckks name f = Span.with_ ~layer:"ckks" ~name f in
  let keys = ckks "keys.keygen" (fun () -> keygen ~seed:(seed + 1)) in
  let keygen_pred = host (fun () -> Cost.keygen_us ~level:params.Params.max_level) in
  List.iter
    (fun offset ->
      Span.with_ ~layer:"ckks" ~name:"keys.rotation_keygen" ~pred_us:keygen_pred
        (fun () -> ignore (Keys.rotation_key keys ~offset)))
    [ 1; 2; 3 ];
  let rng = Random.State.make [| seed; 0x6e7 |] in
  let ct =
    Eval.encrypt keys ~level:params.max_level
      (Array.init params.slots (fun _ -> Random.State.float rng 1.0))
  in
  let limb = Array.copy ct.Eval.c0.Halo_ckks.Rns_poly.res.(0) in
  let ntt = Params.ntt_at params ~idx:0 in
  let dec = Keys.decompose keys ct.Eval.c1 in
  let run name f =
    let reps = List.assoc name kernels in
    Gc.compact ();
    for _ = 1 to reps do
      ckks name (fun () -> ignore (Sys.opaque_identity (f ())))
    done
  in
  run "ntt.forward" (fun () -> Halo_ckks.Ntt.forward_in_place ntt limb);
  run "ntt.inverse" (fun () -> Halo_ckks.Ntt.inverse_in_place ntt limb);
  run "rns_poly.mul" (fun () -> Halo_ckks.Rns_poly.mul params ct.Eval.c0 ct.Eval.c1);
  run "keys.decompose" (fun () -> Keys.decompose keys ct.Eval.c1);
  run "keys.apply" (fun () -> Keys.apply keys (Keys.relin_key keys) dec);
  run "eval.rescale" (fun () -> Eval.rescale keys ct)

let per_layer_metrics ~inst ~records ~gc0 ~gc1 =
  let aggs = Span.aggregate !Span.recorded in
  let find = Span.find aggs in
  let ms ns = ns /. 1e6 in
  let mean_ms a = if a.Span.calls = 0 then 0.0 else ms a.Span.self_ns /. float_of_int a.calls in
  let stats = Stats.create () in
  List.iter
    (fun r -> match r.last with Some (Ran (_, s)) -> Stats.merge ~into:stats s | _ -> ())
    (of_kind Exec records);
  Option.iter (fun keys -> Lattice.fold_cache_stats keys stats) inst.keys;
  let tunes =
    List.filter_map
      (fun r -> match r.last with Some (Tuned t) -> Some t.result | _ -> None)
      records
  in
  let sum_tune f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 tunes) in
  let ir_ops =
    List.fold_left
      (fun acc r ->
        match r.last with Some (Compiled p) -> acc + Ir.count_ops p.Ir.body | _ -> acc)
      0 records
  in
  let backend op = find "backend" op in
  let overhead =
    geomean
      (List.filter_map
         (fun r ->
           match r.traced_s with
           | Some t when r.times <> [] -> Some (t /. median r.times)
           | _ -> None)
         (of_kind Exec records))
  in
  let count n = float_of_int n in
  let values =
    List.map (fun op -> ("backend." ^ op ^ ".calls", count (backend op).calls)) backend_ops
    @ List.map
        (fun (c, ops) ->
          ( "backend." ^ c ^ ".self_ms",
            List.fold_left (fun acc op -> acc +. ms (backend op).self_ns) 0.0 ops ))
        backend_classes
    @ [
        ("runtime.interp.self_ms", ms (find "runtime" "interp.run").self_ns);
        ("runtime.interp.ops", count (Stats.total_ops stats));
      ]
    @ List.map (fun (c, f) -> ("runtime.stats." ^ c, count (f stats))) stat_counters
    @ [
        ("ckks.keys.keygen_ms", mean_ms (find "ckks" "keys.keygen"));
        ("ckks.keys.rotation_keygen_ms", mean_ms (find "ckks" "keys.rotation_keygen"));
        ("ckks.keys.rotation_keys", count inst.rotation_keys);
      ]
    @ List.map (fun (c, f) -> ("ckks.keys." ^ c, count (f stats))) cache_counters
    @ List.map
        (fun (k, _) -> ("ckks." ^ k ^ "_us", 1e3 *. mean_ms (find "ckks" k)))
        kernels
    @ [
        ("costmodel.exec_ratio", Span.ratio [ find "runtime" "interp.run" ]);
        ( "costmodel.rotate_ratio",
          Span.ratio (List.map backend [ "rotate"; "rotate_many"; "rot_sum" ]) );
        ("costmodel.multcc_ratio", Span.ratio [ backend "multcc" ]);
        ("costmodel.rescale_ratio", Span.ratio [ backend "rescale" ]);
        ("costmodel.bootstrap_ratio", Span.ratio [ backend "bootstrap" ]);
        ("costmodel.keygen_ratio", Span.ratio [ find "ckks" "keys.rotation_keygen" ]);
      ]
    @ List.map
        (fun p -> ("core.pass." ^ p ^ ".ms", ms (find "core" ("pass." ^ p)).total_ns))
        pass_names
    @ [
        ("core.ir_ops", count ir_ops);
        ("tune.compiles", sum_tune (fun r -> r.Tuner.r_compiles));
        ("tune.priced", sum_tune (fun r -> r.Tuner.r_evaluated));
        ("tune.pruned", sum_tune (fun r -> r.Tuner.r_pruned));
        ("tune.predict_ms", mean_ms (find "tune" "predict"));
        ("verify.pipeline_ms", mean_ms (find "verify" "pipeline"));
        ("ocaml.gc.minor_words", gc1.Gc.minor_words -. gc0.Gc.minor_words);
        ( "ocaml.gc.major_collections",
          count (gc1.Gc.major_collections - gc0.Gc.major_collections) );
        ("bench.trace_overhead", overhead);
      ]
  in
  let coverage =
    let exec_jobs = (find "bench" "exec").total_ns in
    if exec_jobs > 0.0 then (find "runtime" "interp.run").total_ns /. exec_jobs else 0.0
  in
  (List.map (fun (name, _) -> (name, List.assoc name values)) per_layer, coverage)

let traced_round ~workload ~seed inst records =
  Span.reset ();
  Span.enabled := true;
  List.iter (fun r -> r.job.prepare_trace ()) records;
  Option.iter Keys.reset_cache_stats inst.keys;
  let label job = Printf.sprintf "%s/%s/traced-seed%d" workload job seed in
  let gc0 = Gc.quick_stat () in
  List.iter
    (fun r ->
      Span.current_trace := label r.job.name;
      sample ~traced:true r)
    records;
  let gc1 = Gc.quick_stat () in
  List.iter
    (fun r ->
      match r.last with
      | Some (Tuned t) ->
        Span.current_trace := label r.job.name;
        Gc.compact ();
        Span.with_ ~layer:"tune" ~name:"predict" (fun () ->
            ignore (Predict.program ~bindings:t.bindings t.tuned));
        Span.with_ ~layer:"verify" ~name:"pipeline" (fun () ->
            ignore
              (Tuner.compile_plan ~verify:true ~bindings:t.bindings
                 t.result.Tuner.r_plan t.source))
      | _ -> ())
    records;
  Span.current_trace := label "kernels";
  standalone_kernels ~seed;
  Span.enabled := false;
  per_layer_metrics ~inst ~records ~gc0 ~gc1

(* ------------------------------------------------------------------ *)
(* One workload in this process.                                        *)
(* ------------------------------------------------------------------ *)

(* Set-up runs at least three times and until two seconds are spent (at
   most ten times); [once] when tracing or in smoke mode.  Returns the
   set-up times and the last instance. *)
let run_setups ~once w =
  let times = ref [] and inst = ref None in
  let s0 = Span.now_ns () in
  let another () =
    let n = List.length !times in
    if once then n < 1 else n < 3 || (n < 10 && secs_since s0 < 2.0)
  in
  while another () do
    (* Drop the previous key set before building the next one. *)
    inst := None;
    let i, dt = timed ~batch:true w.setup in
    times := dt :: !times;
    inst := Some i
  done;
  (!times, Option.get !inst)

(* The first round samples every job.  Each later round visits the jobs
   cheapest first and samples those whose last sample would still end
   within the time budget, so cheap jobs collect more samples; the loop
   ends with a round that samples nothing.  Smoke mode runs exactly two
   full rounds.  Returns the round count and the peak RSS after the first
   round. *)
let run_rounds ~seconds ~tiny records =
  let t0 = Span.now_ns () in
  let rounds = ref 0 and rss_first_round = ref 0.0 in
  let rec loop () =
    let sampled =
      if tiny || !rounds = 0 then begin
        List.iter (sample ~traced:false) records;
        true
      end
      else
        List.fold_left
          (fun any r ->
            if secs_since t0 +. r.cost > seconds then any
            else begin
              sample ~traced:false r;
              true
            end)
          false
          (List.stable_sort (fun a b -> compare a.cost b.cost) records)
    in
    if sampled then begin
      incr rounds;
      if !rounds = 1 then rss_first_round := peak_rss_mb ();
      if not (tiny && !rounds = 2) then loop ()
    end
  in
  loop ();
  (!rounds, !rss_first_round)

(* Prints one row per job and the ledger verdicts; returns the number of
   failures that make the run incorrect. *)
let report_verdicts ~ledger records probes =
  Printf.printf "  %-36s %-8s %11s %11s %11s %4s  %s\n" "job" "kind" "fastest_s"
    "median_s" "max_s" "n" "verdict";
  let failed = ref 0 in
  let describe fs = String.concat "; " (List.map failure_to_string fs) in
  List.iter
    (fun r ->
      let verdict =
        match (r.failures, r.rmse) with
        | [], Some rmse -> Printf.sprintf "ok (rmse %.3g)" rmse
        | [], None -> "ok"
        | fs, _ ->
          failed := !failed + List.length fs;
          "FAILED: " ^ describe fs
      in
      Printf.printf "  %-36s %-8s %11.6f %11.6f %11.6f %4d  %s\n" r.job.name
        (kind_name r.job.kind) (fastest r) (median r.times)
        (List.fold_left Float.max 0.0 r.times)
        (List.length r.times) verdict)
    records;
  List.iter
    (fun r ->
      match (r.failures, List.assoc_opt r.job.name ledger) with
      | [], _ ->
        Printf.printf "  NOTICE %s is in the known-failure ledger but now passes\n"
          r.job.name
      | f :: _, Some k when same_class f k ->
        Printf.printf "  known failure %s: %s\n" r.job.name (failure_to_string f)
      | fs, _ ->
        failed := !failed + List.length fs;
        Printf.printf "  UNKNOWN FAILURE %s: %s\n" r.job.name (describe fs))
    probes;
  !failed

let end_to_end_metrics ~setup_times ~rss records probes =
  let exec = of_kind Exec records @ probes in
  let ok_exec = List.filter (fun r -> r.failures = [] && Option.is_some r.last) exec in
  let code_kb =
    geomean
      (List.filter_map
         (fun r ->
           match r.last with
           | Some (Compiled p) -> Some (float_of_int (Printer.code_size_bytes p) /. 1024.0)
           | _ -> None)
         records)
  in
  (* Accuracy as bits of precision of the worst job: the worst RMSE itself
     varied 2x across seeds (the error of a few replicated scalars), its
     logarithm by a few percent. *)
  let worst_rmse =
    List.fold_left
      (fun acc r -> Float.max acc (Option.value r.rmse ~default:0.0))
      0.0 (of_kind Exec records)
  in
  [
    ("setup_s", median setup_times);
    ("exec_s", timing_metric Exec records);
    ("precision_bits", if worst_rmse > 0.0 then -.Float.log2 worst_rmse else 0.0);
    ( "ok_share",
      float_of_int (List.length ok_exec) /. float_of_int (max 1 (List.length exec)) );
    ("peak_rss_mb", rss);
    ("compile_s", timing_metric Compile records);
    ("code_kb", code_kb);
    ("tune_s", timing_metric Tune records);
  ]

let print_metrics catalogue values =
  List.iter
    (fun (name, unit_) ->
      Printf.printf "metric %s %.6g %s\n" name (List.assoc name values) unit_)
    catalogue

let result_json ~correct ~attempted ~failed catalogue values =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit_) ->
                  ( name,
                    Json.Obj
                      [
                        ("value", Json.Num (List.assoc name values));
                        ("unit", Json.Str unit_);
                      ] ))
                catalogue) );
       ])

let run_child ~workload ~seed ~seconds ~trace ~trace_out ~tiny =
  let w = find_workload workload ~seed ~tiny in
  let setup_times, inst = run_setups ~once:(tiny || trace) w in
  let records = List.map new_record inst.jobs in
  let t0 = Span.now_ns () in
  let rounds, rss = run_rounds ~seconds ~tiny records in
  let measured_s = secs_since t0 in
  let probes = List.map new_record inst.probes in
  List.iter (sample ~batch:false ~traced:false) probes;
  (* The traced round comes last; the end-to-end rows still come from the
     untraced rounds. *)
  let layer =
    if trace then begin
      let m = traced_round ~workload ~seed inst records in
      if trace_out <> "" then Span.append trace_out (List.rev !Span.recorded);
      Some m
    end
    else None
  in
  Printf.printf "== %s  seed=%d  rounds=%d  measured=%.1fs  setups=%d ==\n" workload
    seed rounds measured_s (List.length setup_times);
  let failed = report_verdicts ~ledger:w.ledger records probes in
  let e2e = end_to_end_metrics ~setup_times ~rss records probes in
  print_metrics end_to_end e2e;
  Option.iter
    (fun (metrics, coverage) ->
      print_metrics per_layer metrics;
      Printf.printf "  trace: interpreter spans cover %.1f%% of exec job wall time\n"
        (100.0 *. coverage))
    layer;
  let attempted = List.fold_left (fun acc r -> acc + r.attempts) 0 (records @ probes) in
  let catalogue, values =
    match layer with
    | Some (metrics, _) -> (per_layer, metrics)
    | None -> (end_to_end, e2e)
  in
  print_endline
    (result_json ~correct:(failed = 0) ~attempted ~failed catalogue values);
  if failed = 0 then 0 else 1

(* Builds the workload's cases, screening their inputs; the last line is
   "draws NAME=K,...". *)
let run_screen ~workload ~seed ~tiny =
  ignore (find_workload workload ~seed ~tiny);
  print_endline
    ("draws "
    ^ String.concat ","
        (Hashtbl.fold (fun name k acc -> Printf.sprintf "%s=%d" name k :: acc) draws []));
  0

let parse_draws s =
  List.iter
    (fun entry ->
      match String.split_on_char '=' entry with
      | [ name; k ] when int_of_string_opt k <> None ->
        Hashtbl.replace draws name (int_of_string k)
      | _ -> raise (Arg.Bad ("bad --draws entry " ^ entry)))
    (List.filter (( <> ) "") (String.split_on_char ',' s))

(* ------------------------------------------------------------------ *)
(* Parent: a screening process, then a workload process, per workload.  *)
(* ------------------------------------------------------------------ *)

let domains () = max 1 (min 2 (Domain.recommended_domain_count ()))

let child_env () =
  Array.of_list
    (Printf.sprintf "HALO_DOMAINS=%d" (domains ())
    :: List.filter
         (fun kv -> not (String.length kv >= 5 && String.sub kv 0 5 = "HALO_"))
         (Array.to_list (Unix.environment ())))

let spawn args =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (Sys.executable_name :: args) in
  let pid =
    Unix.create_process_env Sys.executable_name argv (child_env ()) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let lines = ref [] in
  (try
     while true do
       let line = input_line ic in
       print_endline line;
       lines := line :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, List.rev !lines)

(* Metric rows a child printed: name -> (value, unit). *)
let metric_rows lines =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "metric"; name; value; unit_ ] -> Some (name, (float_of_string value, unit_))
      | _ -> None)
    lines

(* Names and units of one metric list of BENCHMARK.json. *)
let benchmark_metrics path key =
  List.map
    (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
    (Json.to_list (Json.member key (Json.of_string (Json.read_file path))))

let validate ~trace ~check lines =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (match List.rev lines with
   | [] -> err "no output"
   | last :: _ -> (
     match Json.of_string last with
     | Json.Obj kvs as j ->
       let keys = List.sort compare (List.map fst kvs) in
       if keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
         err "result keys are %s" (String.concat "," keys);
       if not (Json.to_bool (Json.member "correct" j)) then err "correct is false";
       let expected = if trace then per_layer else end_to_end in
       let got = List.map fst (Json.to_assoc (Json.member "metrics" j)) in
       if got <> List.map fst expected then err "metric set differs from the catalogue"
     | _ -> err "last line is not a JSON object"
     | exception Json.Parse_error e -> err "last line: %s" e));
  if check <> "" then begin
    let rows = metric_rows lines in
    let lists = "end_to_end" :: (if trace then [ "per_layer" ] else []) in
    List.iter
      (fun key ->
        List.iter
          (fun (name, unit_) ->
            match List.assoc_opt name rows with
            | Some (_, u) when u = unit_ -> ()
            | Some (_, u) -> err "%s printed with unit %s, BENCHMARK.json says %s" name u unit_
            | None -> err "%s (%s) not printed" name key)
          (benchmark_metrics check key))
      lists
  end;
  List.rev !errors

let append_record path ~workload ~seed ~trace last_line =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Printf.fprintf oc "{\"workload\": %s, \"seed\": %d, \"trace\": %d, \"result\": %s}\n"
    (Json.escape workload) seed (if trace then 1 else 0) last_line;
  close_out oc

let run_parent ~workloads ~seed ~seconds ~trace ~trace_out ~out ~tiny ~check =
  let ok = ref true in
  let summary = ref [] in
  List.iter
    (fun workload ->
      let common =
        [ "--workload"; workload; "--seed"; string_of_int seed ]
        @ if tiny then [ "--tiny" ] else []
      in
      let args =
        ("--child" :: common)
        @ [ "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
        @ if trace_out <> "" then [ "--trace-out"; trace_out ] else []
      in
      (* A failed screening is reported like a failed workload process. *)
      let status, lines =
        match spawn ("--screen" :: common) with
        | Unix.WEXITED 0, lines -> (
          match List.rev lines with
          | last :: _ when String.starts_with ~prefix:"draws " last ->
            spawn (args @ [ "--draws"; String.sub last 6 (String.length last - 6) ])
          | _ -> (Unix.WEXITED 2, lines))
        | failed -> failed
      in
      let errors = validate ~trace ~check lines in
      let errors =
        match status with
        | Unix.WEXITED 0 -> errors
        | Unix.WEXITED c -> Printf.sprintf "child exited with code %d" c :: errors
        | _ -> "child killed by a signal" :: errors
      in
      List.iter (fun e -> Printf.eprintf "bench_e2e: %s: %s\n%!" workload e) errors;
      if errors <> [] then ok := false;
      (match List.rev lines with
       | last :: _ when out <> "" && errors = [] ->
         append_record out ~workload ~seed ~trace last
       | _ -> ());
      summary := (workload, metric_rows lines) :: !summary)
    workloads;
  if List.length !summary > 1 then begin
    Printf.printf "\n%-16s" "workload";
    List.iter (fun (n, u) -> Printf.printf " %14s" (Printf.sprintf "%s[%s]" n u)) end_to_end;
    print_newline ();
    List.iter
      (fun (w, rows) ->
        Printf.printf "%-16s" w;
        List.iter
          (fun (n, _) ->
            match List.assoc_opt n rows with
            | Some (v, _) -> Printf.printf " %14.6g" v
            | None -> Printf.printf " %14s" "-")
          end_to_end;
        print_newline ())
      (List.rev !summary)
  end;
  if !ok then 0 else 1

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 30.0 and trace = ref 0 in
  let trace_out = ref "" and out = ref "" and tiny = ref false in
  let check = ref "" and child = ref false and screen = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " workload_names ^ " (default: all)");
      ("--seed", Arg.Set_int seed, "N seed for keys and inputs (default 0; 1 is the held-out seed)");
      ("--seconds", Arg.Set_float seconds, "S time spent in measured rounds per run (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 1: add a traced round and report the per-layer metrics");
      ("--trace-out", Arg.Set_string trace_out, "FILE append the traced round's spans as JSON lines");
      ("--out", Arg.Set_string out, "FILE append one result record per run as a JSON line");
      ("--tiny", Arg.Set tiny, " smoke mode: two rounds of the smallest program of each workload");
      ("--check", Arg.Set_string check, "FILE require every metric of this BENCHMARK.json in the output");
      ("--child", Arg.Set child, " (internal) run one workload in this process");
      ("--screen", Arg.Set screen, " (internal) screen one workload's inputs and print the draws");
      ("--draws", Arg.String parse_draws, "NAME=K,... (internal) input draws found by --screen");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench_e2e [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--tiny]";
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
  if !seconds <= 0.0 then (prerr_endline "--seconds must be positive"; exit 2);
  let workloads = if !workload = "" then workload_names else [ !workload ] in
  List.iter
    (fun w ->
      if not (List.mem w workload_names) then begin
        Printf.eprintf "unknown workload %s\n" w;
        exit 2
      end)
    workloads;
  exit
    (if !screen then run_screen ~workload:!workload ~seed:!seed ~tiny:!tiny
     else if !child then
       run_child ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
         ~trace_out:!trace_out ~tiny:!tiny
     else
       run_parent ~workloads ~seed:!seed ~seconds:!seconds
         ~trace:(!trace = 1) ~trace_out:!trace_out ~out:!out ~tiny:!tiny ~check:!check)

(* End-to-end checks of the [halo_cli] binary: the paths where the command
   line, not a library function, decides what is compiled, recorded or
   printed.

   - A tuned plan's strategy reaches the run manifest, so a forced guard
     breach replans (or not) from the plan's strategy rather than from the
     [--strategy] default.
   - [serve --strategy-manifest] refuses a plan whose knobs the serve
     manifest cannot carry, naming them, and applies one it can.
   - A persistence failure prints its "persist error" prefix once.
   - [run --guard] exits 4 on a breach the run could not replan away, and
     0 on a healthy verdict. *)

open Halo
module Plan = Halo_tune.Plan
module Store = Halo_persist.Store

let here = Filename.dirname Sys.executable_name
let exe = Filename.concat here "../bin/halo_cli.exe"
let example name = Filename.concat here ("../examples/" ^ name)
let read path = In_channel.with_open_bin path In_channel.input_all

(* Run the CLI; returns (exit code, stdout, stderr). *)
let cli args =
  let out = Filename.temp_file "halo-cli" ".out"
  and err = Filename.temp_file "halo-cli" ".err" in
  let code =
    Sys.command (Filename.quote_command exe ~stdout:out ~stderr:err args)
  in
  let o = read out and e = read err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

let occurrences s sub =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let plan ?(strategy = Strategy.Dacapo) ?(knobs = Strategy.default_knobs) ~prog
    ~fingerprint () =
  {
    Plan.p_prog = prog;
    p_fingerprint = fingerprint;
    p_strategy = strategy;
    p_knobs = knobs;
    p_key_budget = 0;
    p_pool = 1;
    p_profile = "paper-gpu";
    p_predicted_us = 0.0;
    p_breakdown = [];
  }

let save_plan p =
  let path = Filename.temp_file "halo-cli" ".tune.ckpt" in
  ignore (Store.save Plan.artifact ~path p);
  path

let matvec_plan () =
  let file = example "matvec_diag.halo" in
  let prog = Parser.parse_program (read file) in
  let fingerprint = Plan.fingerprint ~bindings:[] prog in
  (file, save_plan (plan ~prog:"matvec_diag" ~fingerprint ()))

(* A guard margin of 0.01 puts the reference backend's ordinary noise over
   the bound.  [dacapo] is the bottom of the replan ladder, so the breach
   must stand, and the journal's manifest must say [dacapo]: before the
   manifest took the plan's strategy, the [-s] default [halo] was recorded
   and the run replanned under packing+unrolling. *)
let test_run_records_plan_strategy () =
  let file, path = matvec_plan () in
  let dir = Fixture.fresh_dir "cli-plan" in
  let code, out, _ =
    cli
      [ "run"; file; "--strategy-manifest"; path; "--guard"; "--rescue";
        "--guard-margin"; "0.01"; "--checkpoint-dir"; dir ]
  in
  Alcotest.(check int) "the standing breach exits 4" 4 code;
  Alcotest.(check bool) "the guard breached" true
    (Fixture.contains out ~sub:"BREACH");
  Alcotest.(check bool) "no replan below dacapo" false
    (Fixture.contains out ~sub:"replanning under");
  let code, out, _ = cli [ "resume"; dir ] in
  Alcotest.(check int) "resume exits 0" 0 code;
  Alcotest.(check bool) "manifest records the plan's strategy" true
    (Fixture.contains out ~sub:"strategy dacapo");
  Fixture.rm_rf dir;
  Sys.remove path

(* A plan stamped for another program is a persistence failure; its
   message already begins "persist error in <path>". *)
let test_persist_error_prefix_once () =
  let _, path = matvec_plan () in
  let code, _, err =
    cli
      [ "run"; example "markov.halo"; "-b"; "K=5"; "--strategy-manifest"; path ]
  in
  Alcotest.(check int) "exits 1" 1 code;
  Alcotest.(check int) "one prefix" 1 (occurrences err "persist error");
  Alcotest.(check bool) "names the manifest" true
    (Fixture.contains err ~sub:("persist error in " ^ path));
  Sys.remove path

(* A guard margin of 1e-4 puts the reference backend's ordinary noise over
   the bound; the verdict decides the exit status, as in [serve]. *)
let test_run_guard_exit_code () =
  let run extra =
    cli ([ "run"; example "markov.halo"; "-b"; "K=6"; "--guard" ] @ extra)
  in
  let code, out, _ = run [ "--guard-margin"; "0.0001" ] in
  Alcotest.(check bool) "the guard breached" true
    (Fixture.contains out ~sub:"noise guard: BREACH");
  Alcotest.(check int) "a breach exits 4" 4 code;
  let code, out, _ = run [] in
  Alcotest.(check bool) "the guard passed" false
    (Fixture.contains out ~sub:"BREACH");
  Alcotest.(check int) "a healthy run exits 0" 0 code

let affine_fingerprint () =
  let pd =
    List.find
      (fun (pd : Halo_serve.Serve_codec.prog_def) -> pd.pd_name = "affine")
      (Fixture.programs ())
  in
  Plan.fingerprint ~bindings:[] pd.pd_traced

let serve_args path =
  [ "serve"; "--clients"; "2"; "--requests"; "1"; "--slots";
    string_of_int Fixture.slots; "--iters"; "3"; "--strategy-manifest"; path ]

let test_serve_refuses_uncarried_knobs () =
  let fingerprint = affine_fingerprint () in
  List.iter
    (fun (knobs, extra, named) ->
      let path = save_plan (plan ~knobs ~prog:"affine" ~fingerprint ()) in
      let code, out, err = cli (serve_args path @ extra) in
      Alcotest.(check int) (named ^ ": exits 1") 1 code;
      Alcotest.(check bool) (named ^ ": named") true
        (Fixture.contains err ~sub:named);
      Alcotest.(check bool) (named ^ ": nothing served") false
        (Fixture.contains out ~sub:"submitted");
      Sys.remove path)
    [
      ({ Strategy.default_knobs with unroll = 2 }, [], "unroll=2");
      ({ Strategy.default_knobs with boot_slack = 1 }, [], "slack=1");
      ({ Strategy.default_knobs with lazy_switch = false }, [], "lazy=false");
      (Strategy.default_knobs, [ "--no-rotate-fuse" ], "fuse=true");
    ]

let test_serve_applies_carried_plan () =
  let path =
    save_plan (plan ~prog:"affine" ~fingerprint:(affine_fingerprint ()) ())
  in
  let code, out, _ = cli (serve_args path) in
  Alcotest.(check int) "exits 0" 0 code;
  Alcotest.(check bool) "retargets affine" true
    (Fixture.contains out
       ~sub:"applying tuned strategy dacapo to program \"affine\"");
  Sys.remove path

let () =
  Alcotest.run "cli"
    [
      ( "plan",
        [
          Alcotest.test_case "run manifest records plan strategy" `Quick
            test_run_records_plan_strategy;
          Alcotest.test_case "serve refuses uncarried knobs" `Quick
            test_serve_refuses_uncarried_knobs;
          Alcotest.test_case "serve applies carried plan" `Quick
            test_serve_applies_carried_plan;
        ] );
      ( "errors",
        [
          Alcotest.test_case "persist error prefix once" `Quick
            test_persist_error_prefix_once;
          Alcotest.test_case "run --guard breach exits 4" `Quick
            test_run_guard_exit_code;
        ] );
    ]

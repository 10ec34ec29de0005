open Halo

exception Verification_failure of {
  strategy : string;
  pass_name : string;
  detail : string;
}

let fail ~strategy ~pass_name fmt =
  Printf.ksprintf
    (fun detail -> raise (Verification_failure { strategy; pass_name; detail }))
    fmt

(* ------------------------------------------------------------------ *)
(* The semantic fingerprint                                            *)
(* ------------------------------------------------------------------ *)

(* Deterministic pseudo-random inputs in [-0.9, 0.9]: the magnitude bound
   keeps generated programs (whose combinators are contraction maps, see
   [Gen]) numerically stable across any iteration count. *)
let fixed_inputs (p : Ir.program) =
  List.mapi
    (fun idx (inp : Ir.input) ->
      ( inp.in_name,
        Array.init inp.in_size (fun j ->
            let h =
              (1103515245 * (((idx + 1) * 7919) + j) + 12345) land 0x3FFFFFFF
            in
            (float_of_int h /. float_of_int 0x3FFFFFFF *. 1.8) -. 0.9) ))
    p.inputs

(* The program's outputs under the exact cleartext semantics
   ({!Halo_runtime.Interp.reference}): insensitive to everything a pass is
   allowed to change (scale management, bootstrap placement, loop structure,
   pack lowering), so any drift between two pipeline stages is a genuine
   semantic bug in the pass between them. *)
let fingerprint ?bindings ?inputs (p : Ir.program) =
  let inputs = match inputs with Some i -> i | None -> fixed_inputs p in
  Halo_runtime.Interp.reference ?bindings ~inputs p

(* ------------------------------------------------------------------ *)
(* Checked pass running                                                *)
(* ------------------------------------------------------------------ *)

type pass_report = {
  pass_name : string;
  milestone : Strategy.milestone;
  ops : int;
  drift : float option;
}

type state = {
  strategy : string;
  bindings : (string * int) list;
  inputs : (string * float array) list;
  tol : float;
  mutable milestone : Strategy.milestone;
  mutable last_fp : float array list option;
      (* the last evaluable stage's fingerprint: what drift is measured to *)
  mutable prev : Ir.program;
  mutable prev_fp : float array list option;
      (* the previous stage and its fingerprint, [None] if unevaluable *)
  mutable reports : pass_report list;
}

let try_fingerprint st p =
  match fingerprint ~bindings:st.bindings ~inputs:st.inputs p with
  | fp -> Some fp
  | exception _ ->
    (* Unevaluable stages (missing bindings, mid-transform shapes) simply
       leave no fingerprint; comparison resumes at the next evaluable one. *)
    None

let max_deviation a b =
  List.fold_left2
    (fun acc xs ys ->
      let n = min (Array.length xs) (Array.length ys) in
      let worst = ref acc in
      for i = 0 to n - 1 do
        let d = Float.abs (xs.(i) -. ys.(i)) in
        if d > !worst then worst := d
      done;
      !worst)
    0.0 a b

let init_state ?(bindings = []) ?inputs ?(tol = 1e-6) ~strategy p =
  (match Ir_check.structural p with
   | [] -> ()
   | vs ->
     fail ~strategy ~pass_name:"input" "%s" (Ir_check.violations_to_string vs));
  let inputs = match inputs with Some i -> i | None -> fixed_inputs p in
  let st =
    {
      strategy;
      bindings;
      inputs;
      tol;
      milestone = Strategy.Structure;
      last_fp = None;
      prev = p;
      prev_fp = None;
      reports = [];
    }
  in
  st.prev_fp <- try_fingerprint st p;
  st.last_fp <- st.prev_fp;
  st

let observe st ~(pass : Strategy.pass) ~after =
  (match pass.milestone with
   | Some m when Strategy.milestone_rank m > Strategy.milestone_rank st.milestone
     ->
     st.milestone <- m
   | _ -> ());
  (match Ir_check.at st.milestone after with
   | [] -> ()
   | vs ->
     fail ~strategy:st.strategy ~pass_name:pass.pass_name "%s"
       (Ir_check.violations_to_string vs));
  (* The reference interpreter is deterministic, so a pass that returns its
     input bit for bit has the input's fingerprint (or is as unevaluable):
     reuse it rather than interpret the same program again. *)
  let fp =
    if Ir.equal_program after st.prev then st.prev_fp else try_fingerprint st after
  in
  st.prev <- after;
  st.prev_fp <- fp;
  let drift =
    match (st.last_fp, fp) with
    | Some a, Some b ->
      if List.length a <> List.length b then
        fail ~strategy:st.strategy ~pass_name:pass.pass_name
          "output arity changed: %d before, %d after" (List.length a)
          (List.length b);
      let d = max_deviation a b in
      if d > st.tol then
        fail ~strategy:st.strategy ~pass_name:pass.pass_name
          "semantic fingerprint drifted by %.3e (tolerance %.1e)" d st.tol;
      Some d
    | _ -> None
  in
  (match fp with Some _ -> st.last_fp <- fp | None -> ());
  st.reports <-
    {
      pass_name = pass.pass_name;
      milestone = st.milestone;
      ops = Ir.count_ops after.Ir.body;
      drift;
    }
    :: st.reports

let run_passes st ~(passes : Strategy.pass list) p =
  List.fold_left
    (fun p (pass : Strategy.pass) ->
      let after =
        (* A pass crashing mid-transform is attributed just like a pass
           emitting invalid IR would be. *)
        match pass.run p with
        | after -> after
        | exception (Verification_failure _ as e) -> raise e
        | exception Typecheck.Type_error m ->
          fail ~strategy:st.strategy ~pass_name:pass.pass_name
            "pass raised: %s" m
        | exception e ->
          fail ~strategy:st.strategy ~pass_name:pass.pass_name
            "pass raised: %s" (Printexc.to_string e)
      in
      observe st ~pass ~after;
      after)
    p passes

let check_passes ?bindings ?inputs ?tol ?(strategy = "custom")
    ~(passes : Strategy.pass list) p =
  let st = init_state ?bindings ?inputs ?tol ~strategy p in
  let q = run_passes st ~passes p in
  (q, List.rev st.reports)

type compiled = {
  program : Ir.program;
  reports : pass_report list;
  source_fp : float array list option;
  final_fp : float array list option;
}

let compile_checked ?(bindings = []) ?dacapo_config ?lower ?knobs ?tol ~strategy p =
  let name = Strategy.to_string strategy in
  let st = init_state ~bindings ?tol ~strategy:name p in
  let source_fp = st.prev_fp in
  let passes = Strategy.passes ~bindings ?dacapo_config ?lower ?knobs ~strategy () in
  let q = run_passes st ~passes p in
  match Strategy.verified ~strategy q with
  | program -> { program; reports = List.rev st.reports; source_fp; final_fp = st.prev_fp }
  | exception Typecheck.Type_error msg ->
    fail ~strategy:name ~pass_name:"final-verify" "%s" msg

let compile ?(bindings = []) ?dacapo_config ?lower ?knobs ?(verify = true) ?tol
    ~strategy p =
  if not verify then
    (Strategy.compile ~bindings ?dacapo_config ?lower ?knobs ~strategy p, [])
  else begin
    let c = compile_checked ~bindings ?dacapo_config ?lower ?knobs ?tol ~strategy p in
    (c.program, c.reports)
  end

let report_to_string r =
  Printf.sprintf "%-14s %4d ops%s" r.pass_name r.ops
    (match r.drift with
     | None -> ""
     | Some d -> Printf.sprintf "  drift %.1e" d)

open Halo

type violation = { path : string; rule : string; msg : string }

let to_string v = Printf.sprintf "%s: [%s] %s" v.path v.rule v.msg

let violations_to_string vs = String.concat "; " (List.map to_string vs)

module VS = Set.Make (Int)

let structural (p : Ir.program) =
  let out = ref [] in
  let add path rule fmt =
    Printf.ksprintf (fun msg -> out := { path; rule; msg } :: !out) fmt
  in
  (* Single assignment across the whole program: inputs, block parameters
     and instruction results all bind distinct variables. *)
  let bound : (Ir.var, unit) Hashtbl.t = Hashtbl.create 256 in
  let define path v =
    if Hashtbl.mem bound v then
      add path "ssa" "variable %%%d bound more than once" v
    else Hashtbl.replace bound v ()
  in
  List.iter (fun (i : Ir.input) -> define "inputs" i.in_var) p.inputs;
  if List.map (fun (i : Ir.input) -> i.in_var) p.inputs <> p.body.params then
    add "body" "inputs" "body parameters do not match declared inputs";
  if p.slots < 1 then add "program" "slots" "slot count %d below 1" p.slots;
  if p.max_level < 1 then
    add "program" "max-level" "maximum level %d below 1" p.max_level;
  (* Scoped references: an operand must be bound earlier in the same block,
     in an enclosing block, or as a program input. *)
  let rec walk path scope (b : Ir.block) =
    let scope = ref (List.fold_left (fun s v -> VS.add v s) scope b.params) in
    List.iteri
      (fun idx (i : Ir.instr) ->
        let ipath = Printf.sprintf "%s.%d" path idx in
        List.iter
          (fun v ->
            if not (VS.mem v !scope) then
              add ipath "scope" "use of %%%d before its definition" v)
          (Ir.op_operands i.op);
        (match i.op with
         | Ir.For fo ->
           let n = List.length fo.inits in
           if List.length fo.body.params <> n then
             add ipath "for-arity" "%d inits but %d body parameters" n
               (List.length fo.body.params);
           if List.length fo.body.yields <> n then
             add ipath "for-arity" "%d inits but %d yields" n
               (List.length fo.body.yields);
           if List.length i.results <> n then
             add ipath "for-arity" "%d inits but %d results" n
               (List.length i.results);
           (match fo.count with
            | Ir.Static k when k < 0 -> add ipath "count" "negative count %d" k
            | Ir.Dyn { div; _ } when div < 1 ->
              add ipath "count" "count divisor %d below 1" div
            | _ -> ());
           (match fo.boundary with
            | Some m when m < 1 || m > p.max_level ->
              add ipath "boundary" "boundary %d outside [1, %d]" m p.max_level
            | _ -> ());
           (* The loop body sees the enclosing scope (free variables are
              live-in values). *)
           walk (ipath ^ ".for") !scope fo.body
         | Ir.Const { value = Ir.Vector xs; size } ->
           if Array.length xs <> size then
             add ipath "const-size" "vector of %d elements declared size=%d"
               (Array.length xs) size
         | Ir.Const { size; _ } ->
           if size < 1 then add ipath "const-size" "size %d below 1" size
         | Ir.Pack { srcs; num_e } ->
           if List.length srcs < 2 then
             add ipath "pack-shape" "pack of %d sources (needs at least 2)"
               (List.length srcs);
           if num_e < 1 then add ipath "pack-shape" "num_e %d below 1" num_e
           else if Sizes.round_pow2 (List.length srcs) * num_e > p.slots then
             add ipath "pack-shape"
               "%d sources of %d elements exceed %d slots (power-of-two padded)"
               (List.length srcs) num_e p.slots
         | Ir.RotateMany { offsets; _ } ->
           if List.length offsets < 1 then
             add ipath "rotate-arity" "rotate_many with no offsets";
           if List.length i.results <> List.length offsets then
             add ipath "rotate-arity" "%d offsets but %d results"
               (List.length offsets) (List.length i.results)
         | Ir.RotSum { terms; _ } ->
           if List.length terms < 1 then
             add ipath "rotsum-shape" "rot_sum with no terms";
           let weighted = List.exists (fun (_, c) -> c <> None) terms in
           if weighted && List.exists (fun (_, c) -> c = None) terms then
             add ipath "rotsum-shape" "rot_sum mixes weighted and pure terms"
         | Ir.Unpack { index; num_e; count; _ } ->
           if num_e < 1 then add ipath "pack-shape" "num_e %d below 1" num_e;
           if count < 2 then
             add ipath "pack-shape" "unpack count %d below 2" count
           else if index < 0 || index >= count then
             add ipath "pack-shape" "unpack index %d outside [0, %d)" index count
           else if num_e >= 1 && Sizes.round_pow2 count * num_e > p.slots then
             add ipath "pack-shape"
               "%d segments of %d elements exceed %d slots" count num_e p.slots
         | _ -> ());
        (match i.op with
         | Ir.For fo -> List.iter (define (ipath ^ ".for")) fo.body.params
         | Ir.RotateMany _ -> (* multi-result; arity checked above *) ()
         | _ ->
           if List.length i.results <> 1 then
             add ipath "arity" "non-loop operation with %d results"
               (List.length i.results));
        List.iter (define ipath) i.results;
        scope := List.fold_left (fun s v -> VS.add v s) !scope i.results)
      b.instrs;
    List.iter
      (fun v ->
        if not (VS.mem v !scope) then
          add (path ^ ".yield") "scope" "yield of unbound %%%d" v)
      b.yields
  in
  walk "body" VS.empty p.body;
  List.rev !out

let leveled (p : Ir.program) =
  match structural p with
  | _ :: _ as vs -> vs (* the level walk assumes well-formed IR *)
  | [] ->
    (match Pass_util.type_env p with
     | _ -> []
     | exception Levels.Underflow { index; msg } ->
       [ { path = Printf.sprintf "instr %d" index; rule = "levels"; msg } ]
     | exception Typecheck.Type_error msg ->
       [ { path = "program"; rule = "levels"; msg } ])

let level_waste (p : Ir.program) =
  (* Per read variable: whether some reader is not a modswitch. *)
  let direct = Hashtbl.create 256 in
  let read ~via_modswitch v =
    if not via_modswitch then Hashtbl.replace direct v true
    else if not (Hashtbl.mem direct v) then Hashtbl.replace direct v false
  in
  Ir.iter_blocks
    (fun b ->
      List.iter
        (fun (i : Ir.instr) ->
          let via_modswitch = match i.op with Ir.Modswitch _ -> true | _ -> false in
          List.iter (read ~via_modswitch) (Ir.op_operands i.op))
        b.instrs;
      List.iter (read ~via_modswitch:false) b.yields)
    p.body;
  let out = ref [] in
  let rec walk path (b : Ir.block) =
    let units = ref [] and groups = Hashtbl.create 8 in
    List.iteri
      (fun idx (i : Ir.instr) ->
        let ipath = Printf.sprintf "%s.%d" path idx in
        match i.op with
        | Ir.For fo -> walk (ipath ^ ".for") fo.body
        | Ir.Rotate { src; offset } when offset <> 0 ->
          (match Hashtbl.find_opt groups src with
           | Some vs -> vs := Ir.result i :: !vs
           | None ->
             let vs = ref [ Ir.result i ] in
             Hashtbl.replace groups src vs;
             units := (ipath, vs) :: !units)
        | Ir.Rotate _ | Ir.RotateMany _ | Ir.RotSum _ | Ir.Binary _ | Ir.Rescale _ ->
          units := (ipath, ref i.results) :: !units
        | _ -> ())
      b.instrs;
    List.iter
      (fun (path, vs) ->
        let vs = List.rev !vs in
        let readers = List.filter_map (Hashtbl.find_opt direct) vs in
        if readers <> [] && not (List.mem true readers) then
          out :=
            {
              path;
              rule = "level-waste";
              msg =
                Printf.sprintf "%s read only through modswitch"
                  (String.concat ", " (List.map (Printf.sprintf "%%%d") vs));
            }
            :: !out)
      (List.rev !units)
  in
  walk "body" p.body;
  List.rev !out

let typed (p : Ir.program) =
  match structural p with
  | _ :: _ as vs -> vs
  | [] ->
    (match Typecheck.verify p with
     | Ok () -> level_waste p
     | Error msg -> [ { path = "program"; rule = "typecheck"; msg } ])

let at (m : Strategy.milestone) p =
  match m with
  | Strategy.Structure -> structural p
  | Strategy.Leveled -> leveled p
  | Strategy.Typed -> typed p

open Typecheck

exception Underflow of { index : int; msg : string }

let underflow index fmt =
  Printf.ksprintf (fun msg -> raise (Underflow { index; msg })) fmt

let terr fmt = Printf.ksprintf (fun s -> raise (Typecheck.Type_error s)) fmt

let op_result ~max_level ~index op ~operand_tys =
  match (op, operand_tys) with
  | Ir.Const _, [] -> Tplain
  | Ir.Binary { kind; _ }, [ a; b ] ->
    (match (kind, a, b) with
     | _, Tplain, Tplain -> Tplain
     | (Ir.Add | Ir.Sub), Tcipher c, Tplain | (Ir.Add | Ir.Sub), Tplain, Tcipher c ->
       Tcipher c
     | (Ir.Add | Ir.Sub), Tcipher c1, Tcipher c2 ->
       Tcipher { level = min c1.level c2.level; scale = 1 }
     | Ir.Mul, Tcipher c, Tplain | Ir.Mul, Tplain, Tcipher c ->
       if c.level < 2 then underflow index "multcp at level %d" c.level;
       Tcipher { level = c.level - 1; scale = 1 }
     | Ir.Mul, Tcipher c1, Tcipher c2 ->
       let m = min c1.level c2.level in
       if m < 2 then underflow index "multcc at level %d" m;
       Tcipher { level = m - 1; scale = 1 })
  | Ir.Rotate _, [ t ] -> t
  | Ir.RotSum { terms; _ }, src_ty :: coeff_tys ->
    List.iter
      (function
        | Tplain -> ()
        | Tcipher _ -> terr "rot_sum coefficient must be plain")
      coeff_tys;
    let weighted = List.exists (fun (_, c) -> c <> None) terms in
    (match src_ty with
     | Tplain -> Tplain
     | Tcipher { level; _ } ->
       if weighted then begin
         (* The embedded multiplies and single rescale cost one level. *)
         if level < 2 then underflow index "rot_sum at level %d" level;
         Tcipher { level = level - 1; scale = 1 }
       end
       else Tcipher { level; scale = 1 })
  | Ir.Rescale _, [ t ] | Ir.Modswitch _, [ t ] ->
    (* Stripped and regenerated by Normalize; level-neutral here. *)
    t
  | Ir.Bootstrap { target; _ }, [ Tcipher _ ] ->
    if target < 1 || target > max_level then
      terr "bootstrap target %d out of range" target;
    Tcipher { level = target; scale = 1 }
  | Ir.Bootstrap _, [ Tplain ] -> terr "bootstrap of plaintext"
  | Ir.Pack _, tys ->
    let m =
      List.fold_left
        (fun acc -> function
          | Tcipher { level; _ } -> min acc level
          | Tplain -> terr "pack of plaintext")
        max_int tys
    in
    if m < 2 then underflow index "pack at level %d" m;
    Tcipher { level = m - 1; scale = 1 }
  | Ir.Unpack _, [ Tcipher { level; _ } ] ->
    if level < 2 then underflow index "unpack at level %d" level;
    Tcipher { level = level - 1; scale = 1 }
  | Ir.Unpack _, [ Tplain ] -> terr "unpack of plaintext"
  | Ir.For _, _ -> terr "Levels.op_result: For handled by walk_block"
  | _, _ -> terr "Levels.op_result: arity mismatch"

let rec walk_block ~max_level ~env ~param_tys ~boundary (b : Ir.block) =
  List.iter2 (fun v t -> Hashtbl.replace env v t) b.params param_tys;
  walk_suffix ~max_level ~env ~boundary ~start:0 b.instrs ~yields:b.yields

and walk_suffix ~max_level ~env ~boundary ~start instrs ~yields =
  let ty_of v =
    match Hashtbl.find_opt env v with
    | Some t -> t
    | None -> terr "Levels: use of undefined %%%d" v
  in
  List.iteri
    (fun k (i : Ir.instr) ->
      let index = start + k in
      match i.op with
      | Ir.For fo ->
        let init_tys = List.map ty_of fo.inits in
        let carries_cipher = List.exists (fun t -> t <> Tplain) init_tys in
        let m =
          match (fo.boundary, carries_cipher) with
          | Some m, _ -> m
          | None, false -> 1
          | None, true -> terr "Levels: cipher-carrying loop without boundary"
        in
        let result_tys =
          List.map
            (fun t ->
              match t with
              | Tplain -> Tplain
              | Tcipher { level; _ } ->
                if level < m then
                  underflow index "loop init at level %d, boundary %d" level m;
                Tcipher { level = m; scale = 1 })
            init_tys
        in
        List.iter2 (fun r t -> Hashtbl.replace env r t) i.results result_tys;
        (* Verify the body in its own right (params at the boundary). *)
        let param_tys =
          List.map
            (function Tplain -> Tplain | Tcipher _ -> Tcipher { level = m; scale = 1 })
            init_tys
        in
        ignore (walk_block ~max_level ~env ~param_tys ~boundary:(Some m) fo.body)
      | Ir.RotateMany { src; offsets } ->
        if List.length i.results <> List.length offsets then
          terr "Levels: rotate_many with %d results but %d offsets"
            (List.length i.results) (List.length offsets);
        let t = ty_of src in
        List.iter (fun r -> Hashtbl.replace env r t) i.results
      | op ->
        let t = op_result ~max_level ~index op ~operand_tys:(List.map ty_of (Ir.op_operands op)) in
        (match i.results with
         | [ r ] -> Hashtbl.replace env r t
         | _ -> terr "Levels: non-loop op with several results"))
    instrs;
  let yield_tys = List.map ty_of yields in
  (match boundary with
   | None -> ()
   | Some m ->
     List.iteri
       (fun k -> function
         | Tcipher { level; _ } when level < m ->
           underflow (start + List.length instrs) "yield %d at level %d, boundary %d" k
             level m
         | _ -> ())
       yield_tys);
  yield_tys

exception Underflow of string

let underflow fmt = Printf.ksprintf (fun s -> raise (Underflow s)) fmt
let terr fmt = Printf.ksprintf (fun s -> raise (Typecheck.Type_error s)) fmt

open Typecheck

let program (p : Ir.program) =
  let fresh = Ir.fresh_of_program p in
  let max_level = p.max_level and slots = p.slots in
  (* Per-variable tables over the input's variables, all below [next_var];
     the fresh variables made below are never looked up in them. *)
  let n = p.next_var in
  (* One forward walk.  Stripped rescale/modswitch results stand for their
     (resolved) sources, and [old.(v)] is [v]'s level under plain alignment
     (0: plaintext), the model {!Levels} walks: operands meet at their
     minimum level, a multiplication, weighted rot_sum, pack or unpack
     consumes one, a loop carries its boundary.  These levels only cap the
     demands below; the emission raises every underflow and type error. *)
  let rename = Array.init n Fun.id and old = Array.make n 0 in
  let resolve v = rename.(v) in
  List.iter
    (fun (i : Ir.input) -> if i.in_status = Ir.Cipher then old.(i.in_var) <- max_level)
    p.inputs;
  let meet a b = if a = 0 then b else if b = 0 then a else min a b in
  let down l = max 0 (l - 1) in
  Ir.iter_blocks
    (fun b ->
      List.iter
        (fun (i : Ir.instr) ->
          let set l = List.iter (fun r -> old.(r) <- l) i.results in
          match i.op with
          | Ir.Const _ -> ()
          | Ir.Rescale { src } | Ir.Modswitch { src; _ } ->
            rename.(Ir.result i) <- resolve src;
            set old.(src)
          | Ir.Binary { kind; lhs; rhs } ->
            let l = meet old.(lhs) old.(rhs) in
            set (if kind = Ir.Mul then down l else l)
          | Ir.Rotate { src; _ } | Ir.RotateMany { src; _ } -> set old.(src)
          | Ir.RotSum { src; terms } ->
            set (if List.exists (fun (_, c) -> c <> None) terms then down old.(src) else old.(src))
          | Ir.Bootstrap { target; _ } -> set target
          | Ir.Pack { srcs; _ } -> set (down (List.fold_left (fun l v -> meet l old.(v)) 0 srcs))
          | Ir.Unpack { src; _ } -> set (down old.(src))
          | Ir.For fo ->
            let m = Option.value fo.boundary ~default:0 in
            let carry v init = if old.(init) > 0 then old.(v) <- m in
            List.iter2 carry fo.body.params fo.inits;
            List.iter2 carry i.results fo.inits)
        b.instrs)
    p.body;
  (* Demand walk: [need.(v)] is the highest level any use of [v] reads it
     at (0: no use).  Each use is charged the level it actually consumes,
     never above the operand's level under plain alignment, so every value
     is produced exactly where its most demanding reader wants it and no op
     runs at a level that is thrown away right after. *)
  let need = Array.make n 0 in
  let demand d v =
    let v = resolve v in
    if d > need.(v) then need.(v) <- d
  in
  let keep v = demand old.(v) v in
  (* The level a result is produced at; nobody reading it means level 1. *)
  let want r = max 1 need.(r) in
  let rec back ~boundary (b : Ir.block) =
    let sink v = match boundary with Some m -> demand m v | None -> keep v in
    List.iter sink b.yields;
    List.iter
      (fun (i : Ir.instr) ->
        match i.op with
        | Ir.Const _ | Ir.Rescale _ | Ir.Modswitch _ -> ()
        | Ir.Binary { kind = Ir.Mul; lhs; rhs } ->
          let d = want (Ir.result i) + 1 in
          demand d lhs;
          demand d rhs
        | Ir.Binary { lhs; rhs; _ } ->
          let d = want (Ir.result i) in
          demand d lhs;
          demand d rhs
        | Ir.Rotate { src; _ } -> demand (want (Ir.result i)) src
        | Ir.RotateMany { src; _ } ->
          demand (List.fold_left (fun d r -> max d (want r)) 1 i.results) src
        | Ir.RotSum { src; terms } ->
          let weighted = List.exists (fun (_, c) -> c <> None) terms in
          demand (want (Ir.result i) + if weighted then 1 else 0) src
        | Ir.Bootstrap { src; _ } | Ir.Unpack { src; _ } -> keep src
        | Ir.Pack { srcs; _ } ->
          let d = List.fold_left (fun d v -> min d old.(v)) max_int srcs in
          List.iter (demand d) srcs
        | Ir.For fo ->
          back ~boundary:fo.boundary fo.body;
          List.iter (match fo.boundary with Some m -> demand m | None -> keep) fo.inits)
      (List.rev b.instrs)
  in
  back ~boundary:None p.body;
  (* Types of emitted values, by variable; grows with the fresh ones. *)
  let env = ref (Array.make (2 * n) None) in
  let set_ty v t =
    let a = !env in
    if v >= Array.length a then begin
      let a' = Array.make (2 * v + 1) None in
      Array.blit a 0 a' 0 (Array.length a);
      env := a'
    end;
    !env.(v) <- Some t
  in
  (* Modswitch copies per (variable, level), scoped to the block that made
     them: a copy made inside a loop body never leaks out. *)
  let copies = Hashtbl.create 64 in
  let rec block ~param_tys ~boundary (b : Ir.block) =
    List.iter2 set_ty b.params param_tys;
    let out = ref [] and made = ref [] in
    let emit ?result op ty =
      let r = match result with Some r -> r | None -> Ir.fresh_var fresh in
      out := { Ir.results = [ r ]; op } :: !out;
      set_ty r ty;
      r
    in
    let ty_of v =
      match if v < Array.length !env then !env.(v) else None with
      | Some t -> t
      | None -> terr "normalize: use of undefined %%%d" v
    in
    (* Lower a ciphertext to [target] level, emitting a modswitch if needed. *)
    let lower v target ~what =
      match ty_of v with
      | Tplain -> terr "normalize: cannot modswitch plaintext (%s)" what
      | Tcipher { level; scale } ->
        if level < target then
          underflow "%s: ciphertext at level %d, need %d" what level target
        else if level = target then v
        else
          let key = (v * (max_level + 1)) + target in
          match Hashtbl.find_opt copies key with
          | Some c -> c
          | None ->
            let c =
              emit
                (Ir.Modswitch { src = v; down = level - target })
                (Tcipher { level = target; scale })
            in
            Hashtbl.replace copies key c;
            made := key :: !made;
            c
    in
    (* Lower a ciphertext towards a demanded level it may already be below;
       plaintexts pass through. *)
    let toward d v =
      match ty_of v with
      | Tplain -> v
      | Tcipher { level; _ } -> lower v (min level d) ~what:"demand"
    in
    (* Same-source rotations run at one level, the highest any of them is
       wanted at, so rotate-fuse still sees one group per source. *)
    let group = Hashtbl.create 8 in
    List.iter
      (fun (i : Ir.instr) ->
        match i.op with
        | Ir.Rotate { src; offset } when offset <> 0 ->
          let src = resolve src in
          let d = want (Ir.result i) in
          (match Hashtbl.find_opt group src with
           | Some d' when d' >= d -> ()
           | _ -> Hashtbl.replace group src d)
        | _ -> ())
      b.instrs;
    let process (i : Ir.instr) =
      match i.op with
      | Ir.Rescale _ | Ir.Modswitch _ -> () (* stripped: regenerated below *)
      | Ir.Const _ as op -> ignore (emit ~result:(Ir.result i) op Tplain)
      | Ir.Binary { kind; lhs; rhs } ->
        let r = Ir.result i in
        let lhs = resolve lhs and rhs = resolve rhs in
        let tl = ty_of lhs and tr = ty_of rhs in
        (match (tl, tr) with
         | Tplain, Tplain ->
           ignore (emit ~result:r (Ir.Binary { kind; lhs; rhs }) Tplain)
         | Tcipher c, Tplain | Tplain, Tcipher c ->
           (match kind with
            | Ir.Add | Ir.Sub ->
              let target = min c.level (want r) in
              let lhs = toward target lhs and rhs = toward target rhs in
              ignore
                (emit ~result:r (Ir.Binary { kind; lhs; rhs })
                   (Tcipher { c with level = target }))
            | Ir.Mul ->
              (* multcp then rescale: consumes one level. *)
              if c.level < 2 then underflow "multcp: operand at level %d" c.level;
              let target = min c.level (want r + 1) in
              let lhs = toward target lhs and rhs = toward target rhs in
              let prod =
                emit (Ir.Binary { kind; lhs; rhs })
                  (Tcipher { level = target; scale = c.scale + 1 })
              in
              ignore
                (emit ~result:r (Ir.Rescale { src = prod })
                   (Tcipher { level = target - 1; scale = c.scale })))
         | Tcipher cl, Tcipher cr ->
           if cl.scale <> 1 || cr.scale <> 1 then
             terr "normalize: non-canonical scale on binary operand";
           let level = min cl.level cr.level in
           (match kind with
            | Ir.Add | Ir.Sub ->
              let target = min level (want r) in
              let lhs = toward target lhs and rhs = toward target rhs in
              ignore
                (emit ~result:r (Ir.Binary { kind; lhs; rhs })
                   (Tcipher { level = target; scale = 1 }))
            | Ir.Mul ->
              if level < 2 then underflow "multcc: operands at level %d" level;
              let target = min level (want r + 1) in
              let lhs = toward target lhs and rhs = toward target rhs in
              let prod =
                emit (Ir.Binary { kind; lhs; rhs }) (Tcipher { level = target; scale = 2 })
              in
              ignore
                (emit ~result:r (Ir.Rescale { src = prod })
                   (Tcipher { level = target - 1; scale = 1 }))))
      | Ir.Rotate { src; offset } ->
        let src = resolve src in
        let d = if offset <> 0 then Hashtbl.find group src else want (Ir.result i) in
        let src = toward d src in
        ignore (emit ~result:(Ir.result i) (Ir.Rotate { src; offset }) (ty_of src))
      | Ir.RotateMany { src; offsets } ->
        (* Rotation is level/scale-preserving, so every result takes the
           (lowered) source's type. *)
        let d = List.fold_left (fun d r -> max d (want r)) 1 i.results in
        let src = toward d (resolve src) in
        let ty = ty_of src in
        out := { Ir.results = i.results; op = Ir.RotateMany { src; offsets } } :: !out;
        List.iter (fun r -> set_ty r ty) i.results
      | Ir.RotSum { src; terms } ->
        (* Already-fused rotate-and-sum (hand-written or pre-lowered).  A
           weighted group embeds its members' multiplies and one final
           rescale, so it consumes one level and keeps canonical scale; a
           pure group is level/scale-preserving like RotateMany. *)
        let src = resolve src in
        let terms = List.map (fun (o, c) -> (o, Option.map resolve c)) terms in
        if terms = [] then terr "normalize: empty rot_sum";
        let weighted = List.exists (fun (_, c) -> c <> None) terms in
        if weighted && List.exists (fun (_, c) -> c = None) terms then
          terr "normalize: rot_sum mixes weighted and pure terms";
        List.iter
          (fun (_, c) ->
            match c with
            | Some v when ty_of v <> Tplain ->
              terr "normalize: rot_sum coefficient must be plain"
            | _ -> ())
          terms;
        (match ty_of src with
         | Tplain ->
           ignore (emit ~result:(Ir.result i) (Ir.RotSum { src; terms }) Tplain)
         | Tcipher { level; scale } ->
           if scale <> 1 then terr "normalize: rot_sum of non-canonical scale";
           if weighted && level < 2 then underflow "rot_sum: operand at level %d" level;
           let used = if weighted then 1 else 0 in
           let target = min level (want (Ir.result i) + used) in
           let src = lower src target ~what:"rot_sum" in
           ignore
             (emit ~result:(Ir.result i) (Ir.RotSum { src; terms })
                (Tcipher { level = target - used; scale = 1 })))
      | Ir.Bootstrap { src; target } ->
        let src = resolve src in
        (match ty_of src with
         | Tplain -> terr "normalize: bootstrap of plaintext"
         | Tcipher { scale; _ } ->
           if scale <> 1 then terr "normalize: bootstrap of non-canonical scale";
           if target < 1 || target > max_level then
             terr "normalize: bootstrap target %d out of range" target;
           ignore
             (emit ~result:(Ir.result i) (Ir.Bootstrap { src; target })
                (Tcipher { level = target; scale = 1 })))
      | Ir.Pack { srcs; num_e } ->
        let srcs = List.map resolve srcs in
        if Sizes.round_pow2 (List.length srcs) * num_e > slots then
          terr "normalize: pack exceeds slot capacity";
        let levels =
          List.map
            (fun v ->
              match ty_of v with
              | Tcipher { level; scale = 1 } -> level
              | Tcipher _ -> terr "normalize: pack operand with non-canonical scale"
              | Tplain -> terr "normalize: pack of plaintext")
            srcs
        in
        let target = List.fold_left min max_int levels in
        if target < 2 then underflow "pack: operands at level %d" target;
        let srcs = List.map (fun v -> lower v target ~what:"pack align") srcs in
        ignore
          (emit ~result:(Ir.result i) (Ir.Pack { srcs; num_e })
             (Tcipher { level = target - 1; scale = 1 }))
      | Ir.Unpack { src; index; num_e; count } ->
        let src = resolve src in
        (match ty_of src with
         | Tplain -> terr "normalize: unpack of plaintext"
         | Tcipher { level; scale } ->
           if scale <> 1 then terr "normalize: unpack of non-canonical scale";
           if level < 2 then underflow "unpack: operand at level %d" level;
           ignore
             (emit ~result:(Ir.result i) (Ir.Unpack { src; index; num_e; count })
                (Tcipher { level = level - 1; scale = 1 })))
      | Ir.For fo ->
        let inits = List.map resolve fo.inits in
        let init_tys = List.map ty_of inits in
        let carries_cipher = List.exists (fun t -> t <> Tplain) init_tys in
        let m =
          match (fo.boundary, carries_cipher) with
          | Some m, _ -> Some m
          | None, false -> None
          | None, true -> terr "normalize: cipher-carrying loop without boundary"
        in
        let inits =
          List.map2
            (fun v t ->
              match (t, m) with
              | Tplain, _ -> v
              | Tcipher _, Some m -> lower v m ~what:"loop init align"
              | Tcipher _, None -> assert false)
            inits init_tys
        in
        let param_tys =
          List.map
            (fun t ->
              match (t, m) with
              | Tplain, _ -> Tplain
              | Tcipher _, Some m -> Tcipher { level = m; scale = 1 }
              | Tcipher _, None -> assert false)
            init_tys
        in
        let body, yield_tys = block ~param_tys ~boundary:m fo.body in
        (* The boundary alignment inside [block] guarantees cipher yields sit
           at level m; plain yields must still be plain (peeling has run). *)
        List.iter2
          (fun pt yt ->
            if pt = Tplain && yt <> Tplain then
              terr "normalize: loop needs peeling (plain init, cipher yield)")
          param_tys yield_tys;
        List.iter2 set_ty i.results param_tys;
        out := { Ir.results = i.results; op = Ir.For { fo with inits; body } } :: !out
    in
    List.iter process b.instrs;
    let yields =
      List.map
        (fun v ->
          let v = resolve v in
          match (boundary, ty_of v) with
          | Some m, Tcipher _ -> lower v m ~what:"loop yield align"
          | _ -> v)
        b.yields
    in
    List.iter (Hashtbl.remove copies) !made;
    let yield_tys = List.map ty_of yields in
    ({ Ir.params = b.params; instrs = List.rev !out; yields }, yield_tys)
  in
  let param_tys =
    List.map
      (fun (i : Ir.input) ->
        match i.in_status with
        | Ir.Plain -> Tplain
        | Ir.Cipher -> Tcipher { level = max_level; scale = 1 })
      p.inputs
  in
  let body, _ = block ~param_tys ~boundary:None p.body in
  { p with body; next_var = fresh.Ir.next }

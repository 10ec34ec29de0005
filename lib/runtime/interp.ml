open Halo
module Cost = Halo_cost.Cost_model
module Slots = Halo_ckks.Slots

module Make (B : Backend.S) = struct
  type value = Plain of float array | Cipher of B.ct

  type protect = {
    instr : Halo_error.site -> (unit -> unit) -> unit;
    iteration :
      loop:Halo_error.site -> index:int -> (unit -> value list) -> value list;
    loop_enter :
      loop:Halo_error.site -> count:int -> value list -> int * value list;
    at_bootstrap : site:Halo_error.site -> target:int -> B.ct -> unit;
  }

  let unprotected =
    {
      instr = (fun _ f -> f ());
      iteration = (fun ~loop:_ ~index:_ f -> f ());
      loop_enter = (fun ~loop:_ ~count:_ args -> (0, args));
      at_bootstrap = (fun ~site:_ ~target:_ _ -> ());
    }

  let err ?site fmt =
    Printf.ksprintf
      (fun reason -> raise (Halo_error.Interp_error { site; reason }))
      fmt

  let replicate ~slots values =
    let len = Array.length values in
    if len = 0 then err "empty input vector";
    if len >= slots then Array.sub values 0 slots
    else begin
      let period = Sizes.round_pow2 len in
      if slots mod period <> 0 then
        err "input period %d does not divide slot count %d" period slots;
      Slots.replicate values ~period slots
    end

  let site_of (i : Ir.instr) =
    Halo_error.site
      ?var:(match i.results with v :: _ -> Some v | [] -> None)
      ~backend:B.name (Printer.op_name i.op)

  let run ?(protect = unprotected) ?stats st ?(bindings = []) ~inputs
      (p : Ir.program) =
    let slots = B.slots st in
    if slots <> p.slots then
      err "backend %s has %d slots but program expects %d" B.name slots p.slots;
    let stats = match stats with Some s -> s | None -> Stats.create () in
    let env : (Ir.var, value) Hashtbl.t = Hashtbl.create 256 in
    let value_of ?site v =
      match Hashtbl.find_opt env v with
      | Some x -> x
      | None -> err ?site "use of undefined variable %%%d" v
    in
    (* Plaintext rotations and rotate-sums are the cleartext semantics. *)
    let clear = Clear_backend.create ~slots in
    let level_of ct = B.level st ct in
    let record op ct = Stats.record stats op ~level:(level_of ct) in
    (* Inputs: replicate across the slots, encrypt the cipher ones. *)
    List.iter
      (fun (inp : Ir.input) ->
        let raw =
          match List.assoc_opt inp.in_name inputs with
          | Some r -> r
          | None -> err "missing input %S" inp.in_name
        in
        let data = replicate ~slots raw in
        let v =
          match inp.in_status with
          | Ir.Plain -> Plain data
          | Ir.Cipher -> Cipher (B.encrypt st ~level:p.max_level data)
        in
        Hashtbl.replace env inp.in_var v)
      p.inputs;
    let binary kind lhs rhs =
      match (kind, lhs, rhs) with
      | Ir.Add, Plain a, Plain b -> Plain (Slots.add a b)
      | Ir.Sub, Plain a, Plain b -> Plain (Slots.sub a b)
      | Ir.Mul, Plain a, Plain b -> Plain (Slots.mul a b)
      | Ir.Add, Cipher a, Cipher b ->
        record Cost.Addcc a;
        Cipher (B.addcc st a b)
      | Ir.Sub, Cipher a, Cipher b ->
        record Cost.Subcc a;
        Cipher (B.subcc st a b)
      | Ir.Mul, Cipher a, Cipher b ->
        record Cost.Multcc a;
        Stats.record_key_switch stats;
        Cipher (B.multcc st a b)
      | Ir.Add, Cipher a, Plain b | Ir.Add, Plain b, Cipher a ->
        record Cost.Addcp a;
        Cipher (B.addcp st a b)
      | Ir.Sub, Cipher a, Plain b ->
        record Cost.Addcp a;
        Cipher (B.addcp st a (Slots.neg b))
      | Ir.Sub, Plain a, Cipher b ->
        record Cost.Addcp b;
        Cipher (B.addcp st (B.negate st b) a)
      | Ir.Mul, Cipher a, Plain b | Ir.Mul, Plain b, Cipher a ->
        record Cost.Multcp a;
        Cipher (B.multcp st a b)
    in
    let rotate v offset =
      match v with
      | Plain a -> Plain (Clear_backend.rotate clear a ~offset)
      | Cipher _ when offset = 0 -> v
      | Cipher c ->
        record Cost.Rotate c;
        Stats.record_key_switch stats;
        Cipher (B.rotate st c ~offset)
    in
    (* Composite pack/unpack run the exact recipe [Lower_pack] emits, through
       the same [binary] and [rotate] paths: a zero/one mask selecting
       segment [index] of each [period]-slot block. *)
    let mask ~period ~num_e index =
      let block = Array.make period 0.0 in
      for j = 0 to period - 1 do
        if j / num_e = index then block.(j) <- 1.0
      done;
      Plain (Slots.replicate block ~period slots)
    in
    let pack srcs ~num_e =
      let period = Sizes.round_pow2 (List.length srcs) * num_e in
      let masked idx src = binary Ir.Mul src (mask ~period ~num_e idx) in
      match List.mapi masked srcs with
      | [] -> err "pack: no sources"
      | m :: ms -> List.fold_left (binary Ir.Add) m ms
    in
    let unpack src ~index ~num_e ~count =
      let period = Sizes.round_pow2 count * num_e in
      (* Rotate segment [index] to the front, mask it, then replicate it
         across the slots by rotate-and-add doubling. *)
      let rec spread v step =
        if step >= period then v
        else spread (binary Ir.Add v (rotate v (-step))) (step * 2)
      in
      spread
        (binary Ir.Mul (rotate src (index * num_e)) (mask ~period ~num_e 0))
        num_e
    in
    let rec exec_block (b : Ir.block) args =
      List.iter2 (fun prm v -> Hashtbl.replace env prm v) b.params args;
      List.iter (fun (i : Ir.instr) -> exec_instr i) b.instrs
    and exec_instr (i : Ir.instr) =
      let site = site_of i in
      let ierr fmt = err ~site fmt in
      let value_of v = value_of ~site v in
      let const_data value size =
        match value with
        | Ir.Splat x -> Array.make slots x
        | Ir.Vector xs ->
          if Array.length xs <> size then
            ierr "vector constant has %d elements but declares size %d"
              (Array.length xs) size;
          replicate ~slots xs
      in
      match i.op with
      | Ir.For fo ->
        (* The loop itself is not an [instr] protection site: faults inside
           the body surface at the innermost enclosing iteration, whose
           checkpoint (the loop-carried values at the iteration head) lets
           the resilient runtime re-execute just that iteration. *)
        let n =
          try Ir.eval_count ~bindings fo.count
          with Not_found ->
            ierr "missing binding for iteration count %s"
              (Ir.count_to_string fo.count)
        in
        let rec iterate k args =
          if k = 0 then args
          else begin
            (* [args] are the checkpointed loop-carried values: the thunk
               re-executes the whole iteration from them, and every body
               variable is recomputed before use (SSA order), so re-entry
               is safe after a mid-iteration fault. *)
            let next =
              protect.iteration ~loop:site ~index:(n - k) (fun () ->
                  exec_block fo.body args;
                  List.map value_of fo.body.yields)
            in
            iterate (k - 1) next
          end
        in
        (* [loop_enter] lets a recovery driver fast-forward the loop: it
           returns the number of iterations already completed (restored from
           a durable checkpoint) and the carried values to resume from. *)
        let start, entry_args =
          protect.loop_enter ~loop:site ~count:n (List.map value_of fo.inits)
        in
        if start < 0 || start > n then
          ierr "loop_enter fast-forward %d outside [0, %d]" start n;
        let final = iterate (n - start) entry_args in
        List.iter2 (fun r v -> Hashtbl.replace env r v) i.results final
      | op ->
        protect.instr site (fun () ->
            match op with
            | Ir.Const { value; size } ->
              Hashtbl.replace env (Ir.result i) (Plain (const_data value size))
            | Ir.Binary { kind; lhs; rhs } ->
              Hashtbl.replace env (Ir.result i)
                (binary kind (value_of lhs) (value_of rhs))
            | Ir.Rotate { src; offset } ->
              Hashtbl.replace env (Ir.result i) (rotate (value_of src) offset)
            | Ir.RotateMany { src; offsets } ->
              (match value_of src with
               | Plain a ->
                 List.iter2
                   (fun r offset ->
                     Hashtbl.replace env r
                       (Plain (Clear_backend.rotate clear a ~offset)))
                   i.results offsets
               | Cipher c ->
                 (* Zero offsets short-circuit exactly as single rotates do;
                    only the nonzero members reach the backend, as one
                    hoisted group sharing a digit decomposition. *)
                 let nonzero = List.filter (fun o -> o <> 0) offsets in
                 List.iter
                   (fun _ ->
                     record Cost.Rotate c;
                     Stats.record_key_switch stats)
                   nonzero;
                 let m = List.length nonzero in
                 if m >= 2 then Stats.record_hoisted_group stats ~size:m;
                 let rotated =
                   if m = 0 then [] else B.rotate_many st c ~offsets:nonzero
                 in
                 let rec bind results offsets rotated =
                   match (results, offsets, rotated) with
                   | [], [], [] -> ()
                   | r :: rs, 0 :: os, cts ->
                     Hashtbl.replace env r (Cipher c);
                     bind rs os cts
                   | r :: rs, _ :: os, ct :: cts ->
                     Hashtbl.replace env r (Cipher ct);
                     bind rs os cts
                   | _ -> ierr "rotate_many result/offset arity mismatch"
                 in
                 bind i.results offsets rotated)
            | Ir.RotSum { src; terms } ->
              let resolved =
                List.map
                  (fun (o, cv) ->
                    match cv with
                    | None -> (o, None)
                    | Some v ->
                      (match value_of v with
                       | Plain m -> (o, Some m)
                       | Cipher _ -> ierr "rot_sum: cipher coefficient"))
                  terms
              in
              (match value_of src with
               | Plain a ->
                 Hashtbl.replace env (Ir.result i)
                   (Plain (Clear_backend.rot_sum clear a ~terms:resolved))
               | Cipher c ->
                 (* Accounting mirrors the unfused sequence so fused and
                    unfused runs report the same op counts: a rotate and key
                    switch per nonzero offset, a multcp+rescale per weighted
                    member, an add per extra member, and one hoisted group
                    when the decomposition is shared. *)
                 let nonzero = List.filter (fun (o, _) -> o <> 0) resolved in
                 List.iter
                   (fun _ ->
                     record Cost.Rotate c;
                     Stats.record_key_switch stats)
                   nonzero;
                 List.iter
                   (fun (_, cv) ->
                     match cv with
                     | None -> ()
                     | Some _ ->
                       record Cost.Multcp c;
                       record Cost.Rescale c)
                   resolved;
                 let m = List.length nonzero in
                 if m >= 2 then Stats.record_hoisted_group stats ~size:m;
                 Stats.record_lazy_rotsum stats;
                 let out = B.rot_sum st c ~terms:resolved in
                 List.iteri
                   (fun idx _ -> if idx > 0 then record Cost.Addcc out)
                   resolved;
                 Hashtbl.replace env (Ir.result i) (Cipher out))
            | Ir.Rescale { src } ->
              (match value_of src with
               | Plain _ -> ierr "rescale of plaintext"
               | Cipher c ->
                 record Cost.Rescale c;
                 Hashtbl.replace env (Ir.result i) (Cipher (B.rescale st c)))
            | Ir.Modswitch { src; down } ->
              (match value_of src with
               | Plain _ -> ierr "modswitch of plaintext"
               | Cipher c ->
                 record Cost.Modswitch c;
                 Hashtbl.replace env (Ir.result i)
                   (Cipher (B.modswitch st c ~down)))
            | Ir.Bootstrap { src; target } ->
              (match value_of src with
               | Plain _ -> ierr "bootstrap of plaintext"
               | Cipher c ->
                 protect.at_bootstrap ~site ~target c;
                 Stats.record_bootstrap stats ~target;
                 Hashtbl.replace env (Ir.result i)
                   (Cipher (B.bootstrap st c ~target)))
            | Ir.Pack { srcs; num_e } ->
              Hashtbl.replace env (Ir.result i)
                (pack (List.map value_of srcs) ~num_e)
            | Ir.Unpack { src; index; num_e; count } ->
              Hashtbl.replace env (Ir.result i)
                (unpack (value_of src) ~index ~num_e ~count)
            | Ir.For _ -> assert false)
    in
    let input_values =
      List.map (fun (inp : Ir.input) -> value_of inp.in_var) p.inputs
    in
    exec_block p.body input_values;
    let outputs =
      List.map
        (fun v ->
          match value_of v with
          | Plain a -> a
          | Cipher c -> B.decrypt st c)
        p.body.yields
    in
    (outputs, stats)
end

module Clear = Make (Clear_backend)

let reference ?bindings ~inputs (p : Ir.program) =
  fst (Clear.run (Clear_backend.create ~slots:p.slots) ?bindings ~inputs p)

open Typecheck

type config = { filter_width : int }

let default_config = { filter_width = 4 }

let terr fmt = Printf.ksprintf (fun s -> raise (Typecheck.Type_error s)) fmt

(* The one forward level walk over [instrs] from [start]: operand types are
   read through [ty_of], result types recorded through [set].  Returns
   [Some index] of the first instruction that underflows, [None] if the
   suffix completes, including the boundary check on yields.  With
   [~saturate] nothing stops the walk: a loop whose inits sit below its
   boundary still returns at it, an underflowing result is recorded at
   [max_level], and the result is [None]. *)
let walk ~max_level ~boundary ~saturate ~ty_of ~set ~instrs ~yields ~start =
  let n = Array.length instrs in
  let rec go index =
    if index >= n then begin
      let bad =
        (not saturate)
        && List.exists
             (fun v ->
               match (boundary, ty_of v) with
               | Some m, Tcipher { level; _ } -> level < m
               | _ -> false)
             yields
      in
      if bad then Some n else None
    end
    else begin
      let i : Ir.instr = instrs.(index) in
      match i.op with
      | Ir.For fo ->
        let init_tys = List.map ty_of fo.inits in
        let m = match fo.boundary with Some m -> m | None -> 1 in
        let ok =
          saturate
          || List.for_all
               (function Tcipher { level; _ } -> level >= m | Tplain -> true)
               init_tys
        in
        if not ok then Some index
        else begin
          List.iter2
            (fun r t ->
              set r
                (match t with
                 | Tplain -> Tplain
                 | Tcipher _ -> Tcipher { level = m; scale = 1 }))
            i.results init_tys;
          go (index + 1)
        end
      | Ir.RotateMany { src; _ } ->
        (* Level-preserving; never underflows. *)
        let t = ty_of src in
        List.iter (fun r -> set r t) i.results;
        go (index + 1)
      | op ->
        (match
           Levels.op_result ~max_level ~index op
             ~operand_tys:(List.map ty_of (Ir.op_operands op))
         with
         | t ->
           set (Ir.result i) t;
           go (index + 1)
         | exception Levels.Underflow _ ->
           if saturate then begin
             set (Ir.result i) (Tcipher { level = max_level; scale = 1 });
             go (index + 1)
           end
           else Some index)
    end
  in
  go start

let place_in_block ?(config = default_config) ~fresh ~max_level ~env ~param_tys
    ~boundary (b : Ir.block) =
  let instrs = Array.of_list b.instrs in
  let n = Array.length instrs in
  let nvars = fresh.Ir.next in
  let params = Hashtbl.create 8 in
  List.iter2 (Hashtbl.replace params) b.params param_tys;
  (* Types of the variables the block does not define: its parameters,
     then [env]. *)
  let outer_ty v =
    match Hashtbl.find_opt params v with
    | Some t -> Some t
    | None -> Hashtbl.find_opt env v
  in
  (* Types with every instruction executed optimistically (bootstrapping
     whenever needed) — used only to classify variables as cipher/plain for
     liveness, which is level-independent. *)
  let full = Array.make nvars Tplain and in_full = Array.make nvars false in
  let full_ty v = if in_full.(v) then Some full.(v) else outer_ty v in
  ignore
    (walk ~max_level ~boundary ~saturate:true
       ~ty_of:(fun v -> Option.value (full_ty v) ~default:Tplain)
       ~set:(fun v t ->
         full.(v) <- t;
         in_full.(v) <- true)
       ~instrs ~yields:b.yields ~start:0);
  (* A simulation from [start] keeps the types it computes here, stamped
     with [start]; an unstamped read is of a value defined before [start]
     or outside the block. *)
  let cur = Array.make nvars Tplain and stamp = Array.make nvars (-1) in
  let sim ~start ~before =
    let ty_of v =
      if stamp.(v) = start then cur.(v)
      else
        match before v with
        | Some t -> t
        | None -> terr "Dacapo: use of undefined %%%d" v
    in
    let set v t =
      cur.(v) <- t;
      stamp.(v) <- start
    in
    walk ~max_level ~boundary ~saturate:false ~ty_of ~set ~instrs ~yields:b.yields
      ~start
  in
  (* No placement needed? *)
  match sim ~start:0 ~before:outer_ty with
  | None -> b
  | Some entry_reach ->
    let is_cipher v = match full_ty v with Some (Tcipher _) -> true | _ -> false in
    let live_sets = Liveness.live_at_points b ~is_cipher in
    (* From candidate [j], every value defined earlier (or outside the
       block) that is read at [j] or later is live at [j], and a bootstrap
       at [j] raises every live ciphertext to the maximum level: so such a
       value reads as a maximum-level ciphertext if it is one, and keeps
       its type otherwise. *)
    let at_max v =
      match full_ty v with
      | Some (Tcipher _) -> Some (Tcipher { level = max_level; scale = 1 })
      | t -> t
    in
    let reach_of = Array.make (n + 1) (-1) in
    let reach j =
      if reach_of.(j) >= 0 then reach_of.(j)
      else begin
        let r =
          match sim ~start:j ~before:at_max with
          | None -> n + 1 (* covers the whole block *)
          | Some idx -> idx
        in
        reach_of.(j) <- r;
        r
      end
    in
    let live_count = Array.map Liveness.VarSet.cardinal live_sets in
    let boot_cost = Halo_cost.Cost_model.bootstrap_latency_us ~target:max_level in
    let cost_at = Array.map (fun c -> float_of_int c *. boot_cost) live_count in
    (* DP over candidate points filtered by live count. *)
    let try_plan width =
      let candidate = Array.map (fun c -> c <= width && c > 0) live_count in
      let dp = Array.make (n + 1) infinity in
      let prev = Array.make (n + 1) (-1) in
      for j = 0 to n do
        if candidate.(j) then begin
          (* Reachable directly from entry? *)
          if j <= entry_reach then begin
            let c = cost_at.(j) in
            if c < dp.(j) then begin
              dp.(j) <- c;
              prev.(j) <- -1
            end
          end;
          for i = 0 to j - 1 do
            if candidate.(i) && dp.(i) < infinity && reach i >= j then begin
              let c = dp.(i) +. cost_at.(j) in
              if c < dp.(j) then begin
                dp.(j) <- c;
                prev.(j) <- i
              end
            end
          done
        end
      done;
      (* Best finishing point: covers through the end. *)
      let best = ref (-1) in
      for j = 0 to n do
        if candidate.(j) && dp.(j) < infinity && reach j > n then
          if !best < 0 || dp.(j) < dp.(!best) then best := j
      done;
      if !best < 0 then None
      else begin
        let chosen = Array.make (n + 1) false in
        let rec mark j = if j >= 0 then (chosen.(j) <- true; mark prev.(j)) in
        mark !best;
        Some chosen
      end
    in
    let rec widen width =
      match try_plan width with
      | Some chosen -> chosen
      | None ->
        if width > n + 2 then terr "Dacapo: no feasible bootstrap plan"
        else widen (width * 2)
    in
    let chosen = widen config.filter_width in
    (* Materialize: walk forward, inserting bootstraps at chosen points and
       renaming subsequent uses. *)
    let rename : (Ir.var, Ir.var) Hashtbl.t = Hashtbl.create 32 in
    let resolve v = match Hashtbl.find_opt rename v with Some v' -> v' | None -> v in
    let out = ref [] in
    let insert_point j =
      Liveness.VarSet.iter
        (fun v ->
          let fresh_v = Ir.fresh_var fresh in
          out :=
            { Ir.results = [ fresh_v ];
              op = Ir.Bootstrap { src = resolve v; target = max_level } }
            :: !out;
          Hashtbl.replace rename v fresh_v)
        live_sets.(j)
    in
    Array.iteri
      (fun j (i : Ir.instr) ->
        if chosen.(j) then insert_point j;
        let op =
          match i.op with
          | Ir.For fo ->
            Ir.For
              { fo with
                inits = List.map resolve fo.inits;
                body = Ir.substitute_block resolve fo.body }
          | op -> Ir.map_op_operands resolve op
        in
        out := { i with op } :: !out)
      instrs;
    if chosen.(n) then insert_point n;
    { b with instrs = List.rev !out; yields = List.map resolve b.yields }

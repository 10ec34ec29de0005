(* Bootstrap instructions are identified by their (unique) result variable. *)

let rec rewrite_block target_of (b : Ir.block) =
  let instrs =
    List.map
      (fun (i : Ir.instr) ->
        match i.op with
        | Ir.Bootstrap { src; target } ->
          let target =
            match target_of (Ir.result i) with Some t -> t | None -> target
          in
          { i with op = Ir.Bootstrap { src; target } }
        | Ir.For fo -> { i with op = Ir.For { fo with body = rewrite_block target_of fo.body } }
        | _ -> i)
      b.instrs
  in
  { b with instrs }

(* A bootstrap and the part of its block its target can change: the
   instructions after it, the block's yields and the boundary they meet. *)
type site = {
  instr : Ir.instr;
  src : Ir.var;
  current : int;
  index : int;
  rest : Ir.instr list;
  yields : Ir.var list;
  boundary : int option;
}

(* Every bootstrap, block by block in [Ir.iter_blocks] order (a block's
   own instructions before its loops' bodies), each block in instruction
   order. *)
let collect_sites (p : Ir.program) =
  let acc = ref [] in
  let rec block ~boundary (b : Ir.block) =
    let rec scan index = function
      | [] -> ()
      | (i : Ir.instr) :: rest ->
        (match i.op with
         | Ir.Bootstrap { src; target } ->
           acc :=
             { instr = i; src; current = target; index; rest; yields = b.yields; boundary }
             :: !acc
         | _ -> ());
        scan (index + 1) rest
    in
    scan 0 b.instrs;
    List.iter
      (fun (i : Ir.instr) ->
        match i.op with
        | Ir.For fo ->
          (* The body boundary [Levels.walk_block] checks the yields at. *)
          let m = match fo.boundary with Some m -> m | None -> 1 in
          block ~boundary:(Some m) fo.body
        | _ -> ())
      b.instrs
  in
  block ~boundary:None p.body;
  List.rev !acc

let program ?(slack = 0) (p : Ir.program) =
  match collect_sites p with
  | [] -> p
  | sites ->
    let max_level = p.max_level in
    let env = Hashtbl.create 256 in
    (match
       Levels.walk_block ~max_level ~env ~param_tys:(Pass_util.input_tys p)
         ~boundary:None p.body
     with
     | exception Levels.Underflow _ -> p
     | _ ->
       let overrides : (Ir.var, int) Hashtbl.t = Hashtbl.create 16 in
       List.iter
         (fun s ->
           (* With every other bootstrap's target fixed, the program walks
              iff this suffix does, and a walk leaves [env] typed as the
              whole program with [target] would. *)
           let walks target =
             let instr = { s.instr with op = Ir.Bootstrap { src = s.src; target } } in
             match
               Levels.walk_suffix ~max_level ~env ~boundary:s.boundary ~start:s.index
                 (instr :: s.rest) ~yields:s.yields
             with
             | _ -> true
             | exception Levels.Underflow _ -> false
           in
           (* Lowest feasible target in [1, current]: feasibility is
              monotone in the target, binary search on the smallest
              feasible value. *)
           let rec search lo hi =
             if lo >= hi then lo
             else begin
               let mid = (lo + hi) / 2 in
               if walks mid then search lo mid else search (mid + 1) hi
             end
           in
           let best = search 1 s.current in
           (* [slack] extra levels above the minimum (clamped to the
              original target, which is feasible by construction): a knob
              for trading bootstrap latency against noise headroom that the
              autotuner sweeps. *)
           let best = min s.current (best + max 0 slack) in
           (* Keep the override only if it survives a final check (it
              should, by monotonicity); otherwise re-walk with the original
              target so [env] is right for the next bootstrap. *)
           if walks best then Hashtbl.replace overrides (Ir.result s.instr) best
           else ignore (walks s.current))
         sites;
       { p with body = rewrite_block (Hashtbl.find_opt overrides) p.body })

(* The shared unit table, so the runtime estimators (which live in
   [halo_ckks] and cannot see this module) agree with the static model term
   for term. *)
let units = Halo_cost.Noise_units.default

type report = { per_output : float list; worst : float; bounded : bool }

let threshold ~margin (r : report) =
  if r.bounded && Float.is_finite r.worst then margin *. r.worst
  else
    (* Unbounded programs have no finite whole-run bound; fall back to the
       steady state of a healthy bootstrapped loop, whose carried noise
       sits at the bootstrap unit. *)
    margin *. units.bootstrap

let analyze (p : Ir.program) =
  let bounded = ref true in
  let noise : (Ir.var, float) Hashtbl.t = Hashtbl.create 256 in
  let n_of v = try Hashtbl.find noise v with Not_found -> 0.0 in
  let rec block (b : Ir.block) ~param_noise =
    List.iter2 (fun v n -> Hashtbl.replace noise v n) b.params param_noise;
    List.iter
      (fun (i : Ir.instr) ->
        match i.op with
        | Ir.Const _ -> Hashtbl.replace noise (Ir.result i) 0.0
        | Ir.Binary { kind; lhs; rhs } ->
          (* Relative errors add through multiplication; for addition we
             assume no catastrophic cancellation (operand magnitudes
             comparable to the result's), the standard affine-arithmetic
             simplification, so the bound is the larger operand's. *)
          let n =
            match kind with
            | Ir.Mul -> n_of lhs +. n_of rhs +. units.keyswitch
            | Ir.Add | Ir.Sub -> Float.max (n_of lhs) (n_of rhs)
          in
          Hashtbl.replace noise (Ir.result i) n
        | Ir.Rotate { src; offset } ->
          let ks = if offset = 0 then 0.0 else units.keyswitch in
          Hashtbl.replace noise (Ir.result i) (n_of src +. ks)
        | Ir.RotateMany { src; offsets } ->
          (* Hoisting shares the decomposition, not the key switch itself:
             each nonzero member pays the same key-switch noise as a single
             rotate (the applied digits are bit-identical). *)
          List.iter2
            (fun r offset ->
              let ks = if offset = 0 then 0.0 else units.keyswitch in
              Hashtbl.replace noise r (n_of src +. ks))
            i.results offsets
        | Ir.RotSum { src; terms } ->
          (* One key switch per nonzero member (the mod-down is shared, not
             the switch noise); weighted groups add one plaintext multiply's
             key-switch term and the single absorbed rescale. *)
          let base =
            List.fold_left
              (fun a (_, c) ->
                match c with None -> a | Some v -> Float.max a (n_of v))
              (n_of src) terms
          in
          let ks = if List.exists (fun (o, _) -> o <> 0) terms then units.keyswitch else 0.0 in
          let weighted = List.exists (fun (_, c) -> c <> None) terms in
          let extra = if weighted then units.keyswitch +. units.rescale else 0.0 in
          Hashtbl.replace noise (Ir.result i) (base +. ks +. extra)
        | Ir.Rescale { src } ->
          Hashtbl.replace noise (Ir.result i) (n_of src +. units.rescale)
        | Ir.Modswitch { src; _ } -> Hashtbl.replace noise (Ir.result i) (n_of src)
        | Ir.Bootstrap _ -> Hashtbl.replace noise (Ir.result i) units.bootstrap
        | Ir.Pack { srcs; _ } ->
          Hashtbl.replace noise (Ir.result i)
            (List.fold_left (fun a v -> Float.max a (n_of v)) 0.0 srcs
            +. units.keyswitch)
        | Ir.Unpack { src; num_e; count; _ } ->
          (* mask mult + positioning/replication rotations *)
          let segs = Sizes.round_pow2 count in
          let rec doublings s acc =
            if s >= segs * num_e then acc else doublings (s * 2) (acc + 1)
          in
          let rots = 1 + doublings num_e 0 in
          Hashtbl.replace noise (Ir.result i)
            (n_of src +. (float_of_int rots *. units.keyswitch))
        | Ir.For fo ->
          let entry = List.map n_of fo.inits in
          let after_one = run_body fo entry in
          (* Iteration-independent bound?  Check stability from the joined
             state; if a second iteration still grows, report unbounded. *)
          let joined = List.map2 Float.max entry after_one in
          let after_two = run_body fo joined in
          let stable = List.for_all2 (fun a b -> b <= a +. 1e-15) joined after_two in
          if not stable then bounded := false;
          let final =
            if stable then List.map2 Float.max joined after_two
            else List.map (fun _ -> infinity) entry
          in
          List.iter2 (fun r n -> Hashtbl.replace noise r n) i.results final)
      b.instrs;
    List.map n_of b.yields
  and run_body (fo : Ir.for_op) entry =
    block fo.body ~param_noise:entry
  in
  let param_noise =
    List.map
      (fun (i : Ir.input) ->
        match i.in_status with Ir.Plain -> 0.0 | Ir.Cipher -> units.enc)
      p.inputs
  in
  let per_output = block p.body ~param_noise in
  {
    per_output;
    worst = List.fold_left Float.max 0.0 per_output;
    bounded = !bounded;
  }

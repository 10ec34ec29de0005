type ctx = {
  params : Params.t;
  range : int; (* bound on |I| *)
  sine_coeffs : float array; (* Chebyshev coefficients of sin(2 pi R s)/(2 pi) *)
  c2s_diags : Complex.t array array array; (* per half: diag per rotation *)
  c2s_conj_diags : Complex.t array array array;
  s2c_diags : Complex.t array array array;
}

(* --- small local Chebyshev fit (the approx library lives above this one in
   the dependency order, so we keep a self-contained copy). --- *)
let cheb_fit ~f ~degree =
  let n = degree + 1 in
  let node k = cos (Float.pi *. (float_of_int k +. 0.5) /. float_of_int n) in
  let values = Array.init n (fun k -> f (node k)) in
  Array.init n (fun j ->
      let sum = ref 0.0 in
      for k = 0 to n - 1 do
        sum :=
          !sum
          +. (values.(k)
             *. cos (Float.pi *. float_of_int j *. (float_of_int k +. 0.5)
                     /. float_of_int n))
      done;
      (if j = 0 then 1.0 else 2.0) *. !sum /. float_of_int n)

(* E_{jk} = zeta^{r_j * k}: the evaluation matrix of the canonical
   embedding (slot j holds the polynomial's value at zeta^{r_j}). *)
let embedding_entry (params : Params.t) j k =
  let group = Encoding.rot_group params in
  let two_n = 2 * params.n in
  let e = group.(j) * k mod two_n in
  let ang = Float.pi *. float_of_int e /. float_of_int params.n in
  { Complex.re = cos ang; im = sin ang }

let diagonals ~slots entry =
  (* diag_g[k] = M[k][(k + g) mod slots] for the Halevi-Shoup product. *)
  Array.init slots (fun g ->
      Array.init slots (fun k -> entry k ((k + g) mod slots)))

let default_range (params : Params.t) =
  (* 4-sigma bound on the coefficients of I = (c0 + c1 s - m) / q0 for a
     dense ternary secret: sigma ~ sqrt(n / 18). *)
  int_of_float (Float.round (4.0 *. sqrt (float_of_int params.n /. 18.0))) + 1

let make_ctx ?sine_degree ?range (params : Params.t) =
  let range = match range with Some r -> r | None -> default_range params in
  let degree =
    match sine_degree with
    | Some d -> d
    | None ->
      (* Rule of thumb: a Chebyshev series needs ~(argument swing) + slack
         terms; the argument of the sine spans 2 pi R. *)
      int_of_float (2.0 *. Float.pi *. float_of_int range) + 24
  in
  let r = float_of_int range in
  let sine_coeffs =
    cheb_fit ~degree ~f:(fun s -> sin (2.0 *. Float.pi *. r *. s) /. (2.0 *. Float.pi))
  in
  let slots = params.slots in
  let q0 = float_of_int params.moduli.(0) in
  let delta = params.scale in
  (* CoeffToSlot, half h: t_k = sum_j M_h[k][j] v_j + conj(M_h[k][j]) conj(v_j)
     with M_h[k][j] = Delta * conj(E_{j, k + h*slots}) / (n * q0). *)
  let c2s_entry h k j =
    let e = embedding_entry params j (k + (h * slots)) in
    let f = delta /. (float_of_int params.n *. q0) in
    { Complex.re = f *. e.re; im = -.f *. e.im }
  in
  let c2s_diags = Array.init 2 (fun h -> diagonals ~slots (c2s_entry h)) in
  let c2s_conj_diags =
    Array.map (Array.map (Array.map Complex.conj)) c2s_diags
  in
  (* SlotToCoeff, half h: out_j += P_h[j][k] u_h[k] with
     P_h[j][k] = E_{j, k + h*slots} * q0 / Delta. *)
  let s2c_entry h j k =
    let e = embedding_entry params j (k + (h * slots)) in
    let f = q0 /. delta in
    { Complex.re = f *. e.re; im = f *. e.im }
  in
  let s2c_diags = Array.init 2 (fun h -> diagonals ~slots (s2c_entry h)) in
  { params; range; sine_coeffs; c2s_diags; c2s_conj_diags; s2c_diags }

let sine_degree ctx = Array.length ctx.sine_coeffs - 1

let cheb_depth degree =
  let rec log2_ceil n acc = if n <= 1 then acc else log2_ceil ((n + 1) / 2) (acc + 1) in
  log2_ceil degree 0

let consumed ctx =
  (* C2S (1) + EvalMod: argument scaling (1) + product tree + coefficient
     multiplication (1) + S2C (1). *)
  1 + 1 + cheb_depth (sine_degree ctx) + 1 + 1

(* --- ciphertext-level helpers --- *)

let align keys a b =
  let la = Eval.level a and lb = Eval.level b in
  if la = lb then (a, b)
  else if la > lb then (Eval.modswitch keys a ~down:(la - lb), b)
  else (a, Eval.modswitch keys b ~down:(lb - la))

let add_aligned keys a b =
  let a, b = align keys a b in
  Eval.addcc keys a b

let sub_aligned keys a b =
  let a, b = align keys a b in
  Eval.subcc keys a b

(* Halevi-Shoup product: sum_g diag_g . rot(ct, g), one rescale at the end
   (every masked term shares the same scale). *)
let matmul keys diags ct =
  let acc = ref None in
  Array.iteri
    (fun g diag ->
      let rotated = Eval.rotate keys ct ~offset:g in
      let term = Eval.multcp_complex keys rotated diag in
      acc := Some (match !acc with None -> term | Some a -> Eval.addcc keys a term))
    diags;
  Eval.rescale keys (Option.get !acc)

(* Chebyshev evaluation on a ciphertext holding s in [-1, 1].

   Scales: rescale primes only approximate the encoding scale, and the
   squaring recurrences compound that drift multiplicatively (T_j's scale is
   off by drift^j), so cross-path ciphertext additions go through
   Eval.adjust_scale / Eval.multcp_exact, which hit exact target scales. *)
let cheb_eval (keys : Keys.t) coeffs t =
  let slots = keys.params.slots in
  let delta = keys.params.scale in
  let memo : (int, Eval.ct) Hashtbl.t = Hashtbl.create 32 in
  Hashtbl.replace memo 1 t;
  let rec cheb j =
    match Hashtbl.find_opt memo j with
    | Some v -> v
    | None ->
      let v =
        if j mod 2 = 0 then begin
          (* T_2m = 2 T_m^2 - 1 *)
          let h = cheb (j / 2) in
          let sq = Eval.rescale keys (Eval.multcc keys h h) in
          let doubled = Eval.addcc keys sq sq in
          Eval.addcp keys doubled (Array.make slots (-1.0))
        end
        else begin
          (* T_{2m+1} = 2 T_{m+1} T_m - T_1 *)
          let m = j / 2 in
          let a, b = align keys (cheb (m + 1)) (cheb m) in
          let prod = Eval.rescale keys (Eval.multcc keys a b) in
          let doubled = Eval.addcc keys prod prod in
          let t_matched = Eval.adjust_scale keys t ~target:(Eval.scale doubled) in
          sub_aligned keys doubled t_matched
        end
      in
      Hashtbl.replace memo j v;
      v
  in
  let acc = ref None in
  Array.iteri
    (fun j c ->
      if j > 0 && Float.abs c > 1e-12 then begin
        let term =
          Eval.multcp_exact keys (cheb j) (Array.make slots c) ~target:delta
        in
        acc := Some (match !acc with None -> term | Some a -> add_aligned keys a term)
      end)
    coeffs;
  let base = Option.get !acc in
  if Float.abs coeffs.(0) > 1e-12 then
    Eval.addcp keys base (Array.make slots coeffs.(0))
  else base

let modraise (keys : Keys.t) (ct : Eval.ct) =
  let params = keys.params in
  (* to_level drops limbs in whatever domain the ciphertext is resident in
     (cheap), and centered_coeffs then inverse-transforms only the surviving
     base limb -- ModRaise is a decrypt-shaped coefficient boundary. *)
  let raise_poly p =
    Rns_poly.of_centered_coeffs params ~level:params.max_level
      (Rns_poly.centered_coeffs params (Rns_poly.to_level params ~level:1 p))
  in
  (* Private constructors are not exported by Eval; rebuild through an
     encryption-free path: c0' and c1' reinterpret the same transcript over
     the larger modulus. *)
  Eval.of_parts ~c0:(raise_poly ct.c0) ~c1:(raise_poly ct.c1) ~scale:ct.scale

let bootstrap ctx (keys : Keys.t) ct =
  let params = keys.params in
  if params != ctx.params then invalid_arg "Bootstrap_real: parameter mismatch";
  let raised = modraise keys ct in
  (* CoeffToSlot: one ciphertext per coefficient half. *)
  let conj_ct = Eval.conjugate keys raised in
  let halves =
    List.init 2 (fun h ->
        let direct = matmul keys ctx.c2s_diags.(h) raised in
        let mirrored = matmul keys ctx.c2s_conj_diags.(h) conj_ct in
        Eval.addcc keys direct mirrored)
  in
  (* EvalMod: s = t / R, then q0-periodic reduction via the sine series. *)
  let reduced =
    List.map
      (fun t ->
        let s =
          Eval.multcp_exact keys t
            (Array.make params.slots (1.0 /. float_of_int ctx.range))
            ~target:params.scale
        in
        cheb_eval keys ctx.sine_coeffs s)
      halves
  in
  (* SlotToCoeff. *)
  match reduced with
  | [ u0; u1 ] ->
    let a = matmul keys ctx.s2c_diags.(0) u0 in
    let b = matmul keys ctx.s2c_diags.(1) u1 in
    add_aligned keys a b
  | _ -> assert false

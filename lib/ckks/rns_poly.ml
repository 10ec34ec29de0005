type domain = Coeff | Eval

type t = { level : int; domain : domain; res : int array array }

let level p = p.level
let domain p = p.domain

(* Per-limb loops fan out across the domain pool; tiny rings (the real
   bootstrap tests run n = 64) stay sequential because dispatch would cost
   more than the arithmetic.  Limbs are independent, so results are
   bit-identical either way. *)
let par (params : Params.t) n f =
  if params.n >= 512 then Domain_pool.parallel_for ~n f
  else
    for i = 0 to n - 1 do
      f i
    done

let zero (params : Params.t) ~level =
  { level; domain = Coeff; res = Array.init level (fun _ -> Array.make params.n 0) }

let of_centered_coeffs (params : Params.t) ~level coeffs =
  let res = Array.make level [||] in
  par params level (fun i ->
      let m = params.moduli.(i) in
      let dst = Array.make (Array.length coeffs) 0 in
      for j = 0 to Array.length coeffs - 1 do
        Array.unsafe_set dst j (Modarith.reduce ~m (Array.unsafe_get coeffs j))
      done;
      res.(i) <- dst);
  { level; domain = Coeff; res }

let of_residues ?(domain = Coeff) res = { level = Array.length res; domain; res }

(* --- domain conversions ------------------------------------------------ *)

let to_eval (params : Params.t) p =
  match p.domain with
  | Eval -> p
  | Coeff ->
    let out = Array.make p.level [||] in
    par params p.level (fun i ->
        let r = Array.copy p.res.(i) in
        Ntt.forward_in_place (Params.ntt_at params ~idx:i) r;
        out.(i) <- r);
    { p with domain = Eval; res = out }

let to_coeff (params : Params.t) p =
  match p.domain with
  | Coeff -> p
  | Eval ->
    let out = Array.make p.level [||] in
    par params p.level (fun i ->
        let r = Array.copy p.res.(i) in
        Ntt.inverse_in_place (Params.ntt_at params ~idx:i) r;
        out.(i) <- r);
    { p with domain = Coeff; res = out }

let centered_coeffs (params : Params.t) p =
  let q0 = params.moduli.(0) in
  (* Only the base residue is needed: convert that single limb rather than
     the whole polynomial when it is NTT-resident. *)
  let r0 =
    match p.domain with
    | Coeff -> p.res.(0)
    | Eval ->
      let r = Array.copy p.res.(0) in
      Ntt.inverse_in_place (Params.ntt_at params ~idx:0) r;
      r
  in
  Array.map (fun r -> Modarith.center ~m:q0 r) r0

(* Pointwise ops are domain-agnostic (the NTT is linear), but both operands
   must live in the same domain; mixed pairs are lifted to Eval, the
   resident domain of homomorphic pipelines. *)
let align params a b =
  if a.domain = b.domain then (a, b) else (to_eval params a, to_eval params b)

(* Specialized limb loops: branchless reductions ([t + (q land (t asr 62))]
   re-adds q exactly when [t] went negative) and unsafe accesses guarded by
   one length check per limb, as in the NTT butterflies. *)
let map2 (params : Params.t) combine_limb a b =
  if a.level <> b.level then invalid_arg "Rns_poly: level mismatch";
  let a, b = align params a b in
  let out = Array.make a.level [||] in
  par params a.level (fun i ->
      let x = a.res.(i) and y = b.res.(i) in
      if Array.length x <> Array.length y then
        invalid_arg "Rns_poly: length mismatch";
      out.(i) <- combine_limb params.moduli.(i) x y);
  { level = a.level; domain = a.domain; res = out }

let add params a b =
  map2 params
    (fun q x y ->
      let n = Array.length x in
      let dst = Array.make n 0 in
      for j = 0 to n - 1 do
        let s = Array.unsafe_get x j + Array.unsafe_get y j - q in
        Array.unsafe_set dst j (s + (q land (s asr 62)))
      done;
      dst)
    a b

let sub params a b =
  map2 params
    (fun q x y ->
      let n = Array.length x in
      let dst = Array.make n 0 in
      for j = 0 to n - 1 do
        let d = Array.unsafe_get x j - Array.unsafe_get y j in
        Array.unsafe_set dst j (d + (q land (d asr 62)))
      done;
      dst)
    a b

let neg (params : Params.t) a =
  let res = Array.make a.level [||] in
  par params a.level (fun i ->
      let q = params.moduli.(i) and x = a.res.(i) in
      let dst = Array.make (Array.length x) 0 in
      for j = 0 to Array.length x - 1 do
        let d = -Array.unsafe_get x j in
        Array.unsafe_set dst j (d + (q land (d asr 62)))
      done;
      res.(i) <- dst);
  { a with res }

let mul (params : Params.t) a b =
  if a.level <> b.level then invalid_arg "Rns_poly.mul: level mismatch";
  let a = to_eval params a and b = to_eval params b in
  let out = Array.make a.level [||] in
  par params a.level (fun i ->
      out.(i) <-
        Ntt.pointwise_mul (Params.ntt_at params ~idx:i) a.res.(i) b.res.(i));
  { level = a.level; domain = Eval; res = out }

let automorphism (params : Params.t) ~k a =
  let n = params.n in
  let two_n = 2 * n in
  (* Normalize once so j * k cannot overflow and the inner loop adds a
     bounded step instead of multiplying. *)
  let k = ((k mod two_n) + two_n) mod two_n in
  match a.domain with
  | Eval ->
    (* NTT-resident automorphism: a pure slot permutation. *)
    let perm = Ntt.eval_perm (Params.ntt_at params ~idx:0) ~k in
    let out = Array.make a.level [||] in
    par params a.level (fun i ->
        let r = a.res.(i) in
        if Array.length r <> n then invalid_arg "Rns_poly: length mismatch";
        let dst = Array.make n 0 in
        for j = 0 to n - 1 do
          Array.unsafe_set dst j
            (Array.unsafe_get r (Array.unsafe_get perm j))
        done;
        out.(i) <- dst);
    { a with res = out }
  | Coeff ->
    let out = Array.make a.level [||] in
    par params a.level (fun i ->
        let q = params.moduli.(i) in
        let r = a.res.(i) in
        let dst = Array.make n 0 in
        let pos = ref 0 in
        for j = 0 to n - 1 do
          let p = !pos in
          if p < n then dst.(p) <- Modarith.add ~m:q dst.(p) r.(j)
          else dst.(p - n) <- Modarith.sub ~m:q dst.(p - n) r.(j);
          let next = p + k in
          pos := (if next >= two_n then next - two_n else next)
        done;
        out.(i) <- dst);
    { a with res = out }

(* into <- into + automorphism k a, in place, one pass per limb: the sum
   [add (automorphism ~k a) into] returns, with no rotated or result limbs.
   Both operands in the Eval domain. *)
let automorphism_add_into (params : Params.t) ~k a ~into =
  if a.domain <> Eval || into.domain <> Eval then
    invalid_arg "Rns_poly.automorphism_add_into: operands must be Eval-domain";
  if a.level <> into.level then invalid_arg "Rns_poly.automorphism_add_into: level mismatch";
  let n = params.n in
  let perm = Ntt.eval_perm (Params.ntt_at params ~idx:0) ~k in
  par params into.level (fun i ->
      let q = params.moduli.(i) and r = a.res.(i) and acc = into.res.(i) in
      if Array.length r <> n || Array.length acc <> n then
        invalid_arg "Rns_poly: length mismatch";
      for j = 0 to n - 1 do
        let s = Array.unsafe_get acc j + Array.unsafe_get r (Array.unsafe_get perm j) - q in
        Array.unsafe_set acc j (s + (q land (s asr 62)))
      done)

(* Exact RNS rescale, (c - [c]_{q_l}) * q_l^-1 mod q_i with a centered
   representative of the dropped residue (to halve the rounding error).  A
   [Coeff] operand is rescaled coefficient by coefficient.  An [Eval]
   operand stays resident: only the dropped limb is inverse-transformed,
   its centered representative is forward-transformed at each remaining
   prime, and the subtraction and the multiplication by q_l^-1 run
   slotwise.  The transform is linear and exact mod q_i, so the result is
   the NTT image of the [Coeff] path's, bit for bit. *)
let rescale_last (params : Params.t) a =
  if a.level < 2 then invalid_arg "Rns_poly.rescale_last: level < 2";
  let last_idx = a.level - 1 in
  let ql = params.moduli.(last_idx) in
  let last =
    match a.domain with
    | Coeff -> a.res.(last_idx)
    | Eval -> Ntt.inverse (Params.ntt_at params ~idx:last_idx) a.res.(last_idx)
  in
  let n = params.n in
  let out = Array.make (a.level - 1) [||] in
  let half_ql = ql lsr 1 in
  par params (a.level - 1) (fun i ->
      let q = params.moduli.(i) in
      let ql_inv = params.rescale_inv.(last_idx).(i) in
      let ql_inv_shoup = params.rescale_inv_shoup.(last_idx).(i) in
      let src = a.res.(i) in
      if Array.length src <> n || Array.length last <> n then
        invalid_arg "Rns_poly: length mismatch";
      (* The representative mod q, in [0, q).  The branchless fast path
         needs |rep| <= ql/2 < q; the chain's primes always satisfy that
         (scale primes share a narrow band below the base prime), but fall
         back to the generic reductions if a hand-built chain does not. *)
      let rep = Array.make n 0 in
      if half_ql < q then
        for j = 0 to n - 1 do
          let lj = Array.unsafe_get last j in
          let r = lj - (ql land ((half_ql - lj) asr 62)) in
          Array.unsafe_set rep j (r + (q land (r asr 62)))
        done
      else
        for j = 0 to n - 1 do
          rep.(j) <- Modarith.reduce ~m:q (Modarith.center ~m:ql last.(j))
        done;
      if a.domain = Eval then Ntt.forward_in_place (Params.ntt_at params ~idx:i) rep;
      (* (src - rep) * q_l^-1 over rep's own limb: the difference lies in
         (-q, q), one masked add brings it into [0, q). *)
      for j = 0 to n - 1 do
        let d = Array.unsafe_get src j - Array.unsafe_get rep j in
        let d = d + (q land (d asr 62)) in
        let r = (d * ql_inv) - (((d * ql_inv_shoup) lsr 31) * q) - q in
        Array.unsafe_set rep j (r + (q land (r asr 62)))
      done;
      out.(i) <- rep);
  { level = a.level - 1; domain = a.domain; res = out }

(* Dropping limbs is valid in either domain: each limb is an independent
   residue vector whatever its representation. *)
let to_level _params ~level a =
  if a.level < level then invalid_arg "Rns_poly.to_level: cannot raise level"
  else if a.level = level then a
  else begin
    if level < 1 then invalid_arg "Rns_poly.to_level: level < 1";
    { a with level; res = Array.sub a.res 0 level }
  end

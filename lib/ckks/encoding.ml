(* Slot j holds the polynomial's value at zeta^{r_j} with r_j = 5^j mod 2n.
   Evaluating a real polynomial p at ALL odd 2n-th roots can be done with one
   size-n FFT after twisting: p(zeta^{2t+1}) = sum_k (a_k zeta^k) omega^{tk}
   with omega = zeta^2 the primitive n-th root.  The slot with root index
   r_j sits at FFT bin t_j = (r_j - 1) / 2, and its complex conjugate (needed
   to make the coefficients real) at bin n - 1 - t_j. *)

(* Per ring degree, computed once: the rotation group, each slot's FFT bin,
   the FFT plan, and the twist factors zeta^k and zeta^-k. *)
type tables = {
  group : int array;
  bin : int array;
  fft : Fft.plan;
  z_re : float array;
  z_im : float array;
  zinv_re : float array;
  zinv_im : float array;
}

let make_tables n =
  let group = Array.make (n / 2) 1 in
  for j = 1 to (n / 2) - 1 do
    group.(j) <- group.(j - 1) * 5 mod (2 * n)
  done;
  let cis f sign =
    Array.init n (fun k -> f (Float.pi *. float_of_int (sign * k) /. float_of_int n))
  in
  {
    group;
    bin = Array.map (fun r -> (r - 1) / 2) group;
    fft = Fft.plan n;
    z_re = cis cos 1;
    z_im = cis sin 1;
    zinv_re = cis cos (-1);
    zinv_im = cis sin (-1);
  }

(* Immutable entries behind one atomic: a racing domain may lose its
   insert and recompute the same tables later, never read a torn one. *)
let cache : (int * tables) list Atomic.t = Atomic.make []

let tables (params : Params.t) =
  match List.assoc_opt params.n (Atomic.get cache) with
  | Some t -> t
  | None ->
    let t = make_tables params.n in
    Atomic.set cache ((params.n, t) :: Atomic.get cache);
    t

let rot_group params = (tables params).group

(* [vre]/[vim]: real and imaginary parts of at most [slots] values; missing
   slots are zero.  Rounded coefficients must lie in |c| < 2^62, where
   [int_of_float] is exact. *)
let encode_parts (params : Params.t) ~scale vre vim =
  let n = params.n and len = Array.length vre in
  if len > params.slots then invalid_arg "Encoding.encode: too many values";
  let tb = tables params in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  for j = 0 to params.slots - 1 do
    if j < len && not (Float.is_finite vre.(j) && Float.is_finite vim.(j)) then
      invalid_arg (Printf.sprintf "Encoding.encode: slot %d is not finite" j);
    let sr = (if j < len then vre.(j) else 0.0) *. scale
    and si = (if j < len then vim.(j) else 0.0) *. scale in
    let t = tb.bin.(j) in
    re.(t) <- sr;
    im.(t) <- si;
    re.(n - 1 - t) <- sr;
    im.(n - 1 - t) <- -.si
  done;
  (* b_k = (1/n) * FFT(evals)[k]; coefficients a_k = Re(b_k * zeta^{-k}). *)
  Fft.fft tb.fft re im;
  let fn = float_of_int n in
  Array.init n (fun k ->
      let c =
        Float.round ((re.(k) /. fn *. tb.zinv_re.(k)) -. (im.(k) /. fn *. tb.zinv_im.(k)))
      in
      if not (Float.abs c < 0x1p62) then
        invalid_arg (Printf.sprintf "Encoding.encode: coefficient %g out of range" c);
      int_of_float c)

let encode_centered params ~scale (values : Complex.t array) =
  encode_parts params ~scale
    (Array.map (fun (c : Complex.t) -> c.re) values)
    (Array.map (fun (c : Complex.t) -> c.im) values)

let encode_real_centered params ~scale values =
  encode_parts params ~scale values (Array.make (Array.length values) 0.0)

let encode params ~level ~scale values =
  Rns_poly.of_centered_coeffs params ~level (encode_centered params ~scale values)

let encode_real params ~level ~scale values =
  Rns_poly.of_centered_coeffs params ~level (encode_real_centered params ~scale values)

let decode (params : Params.t) ~scale poly =
  let n = params.n in
  let coeffs = Rns_poly.centered_coeffs params poly in
  let tb = tables params in
  let re = Array.create_float n and im = Array.create_float n in
  for k = 0 to n - 1 do
    let c = float_of_int coeffs.(k) in
    re.(k) <- (c *. tb.z_re.(k)) -. (0.0 *. tb.z_im.(k));
    im.(k) <- (c *. tb.z_im.(k)) +. (0.0 *. tb.z_re.(k))
  done;
  Fft.ifft tb.fft re im;
  let fn = float_of_int n in
  Array.map (fun t -> { Complex.re = re.(t) *. fn /. scale; im = im.(t) *. fn /. scale }) tb.bin

let decode_real params ~scale poly =
  Array.map (fun (c : Complex.t) -> c.re) (decode params ~scale poly)

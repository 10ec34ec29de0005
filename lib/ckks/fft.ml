(* One direction's twiddles, every stage flattened as [w.(half - 1 + k)] for
   [k < half].  Each stage runs the recurrence [w <- w * wlen] from 1 in the
   IEEE operations of [Complex.mul], so the butterflies below compute
   exactly what a boxed [Complex.t] transform with that recurrence does:
   encoded polynomials and decoded floats depend on every bit. *)
type twiddles = { wr : float array; wi : float array }
type plan = { fwd : twiddles; inv : twiddles }

let twiddles ~sign n =
  let wr = Array.make (max 1 (n - 1)) 1.0 and wi = Array.make (max 1 (n - 1)) 0.0 in
  let half = ref 1 in
  while !half < n do
    let h = !half in
    let ang = sign *. 2.0 *. Float.pi /. float_of_int (2 * h) in
    let lr = cos ang and li = sin ang in
    for k = h to (2 * h) - 2 do
      wr.(k) <- (wr.(k - 1) *. lr) -. (wi.(k - 1) *. li);
      wi.(k) <- (wr.(k - 1) *. li) +. (wi.(k - 1) *. lr)
    done;
    half := 2 * h
  done;
  { wr; wi }

let plan n =
  if n < 1 || n land (n - 1) <> 0 then invalid_arg "Fft: size must be a power of two";
  { fwd = twiddles ~sign:(-1.0) n; inv = twiddles ~sign:1.0 n }

let swap (a : float array) i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

let transform { wr; wi } (re : float array) (im : float array) =
  let n = Array.length re in
  if Array.length im <> n || Array.length wr <> max 1 (n - 1) then
    invalid_arg "Fft: length mismatch";
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      swap re i !j;
      swap im i !j
    end;
    let bit = ref (n lsr 1) in
    while !j land !bit <> 0 do
      j := !j lxor !bit;
      bit := !bit lsr 1
    done;
    j := !j lor !bit
  done;
  let h = ref 1 in
  while !h < n do
    let h' = !h in
    for k = 0 to h' - 1 do
      let w_re = Array.unsafe_get wr (h' - 1 + k) and w_im = Array.unsafe_get wi (h' - 1 + k) in
      let a = ref k in
      while !a < n do
        let b = !a + h' in
        let xr = Array.unsafe_get re b and xi = Array.unsafe_get im b in
        let vr = (xr *. w_re) -. (xi *. w_im) and vi = (xr *. w_im) +. (xi *. w_re) in
        let ur = Array.unsafe_get re !a and ui = Array.unsafe_get im !a in
        Array.unsafe_set re !a (ur +. vr);
        Array.unsafe_set im !a (ui +. vi);
        Array.unsafe_set re b (ur -. vr);
        Array.unsafe_set im b (ui -. vi);
        a := b + h'
      done
    done;
    h := 2 * h'
  done

let fft p re im = transform p.fwd re im

let ifft p re im =
  transform p.inv re im;
  let inv_n = 1.0 /. float_of_int (Array.length re) in
  for i = 0 to Array.length re - 1 do
    re.(i) <- re.(i) *. inv_n;
    im.(i) <- im.(i) *. inv_n
  done

(* Kernel microbenchmark: seed kernels vs the Shoup / NTT-resident layer.

   [Ref] below is a frozen copy of the pre-optimization kernels (division
   per butterfly, psi-twist + bit-reversal cyclic NTT, Fermat-inverse
   rescale, multiply-per-index automorphism, per-element-division key
   switch) so the comparison survives further changes to the library.
   Every op asserts bit-identity between the two implementations on the
   same inputs before timing; the process exits nonzero if any assertion
   fails.  Results go to stdout and, with [--json PATH], to a
   halo-bench-kernels/v1 JSON report. *)

open Halo_ckks

(* ---------------------------------------------------------------- *)
(* Frozen seed kernels.                                              *)
(* ---------------------------------------------------------------- *)

module Ref = struct
  type ctx = {
    q : int;
    n : int;
    psi_pows : int array;
    psi_inv_pows : int array;
    omega_pows : int array;
    omega_inv_pows : int array;
    n_inv : int;
  }

  let powers ~m base count =
    let a = Array.make count 1 in
    for i = 1 to count - 1 do
      a.(i) <- Modarith.mul ~m a.(i - 1) base
    done;
    a

  let make_ctx ~q ~n =
    let psi = Primes.primitive_root_2n ~q ~n in
    let psi_inv = Modarith.inv ~m:q psi in
    let omega = Modarith.mul ~m:q psi psi in
    let omega_inv = Modarith.inv ~m:q omega in
    {
      q;
      n;
      psi_pows = powers ~m:q psi n;
      psi_inv_pows = powers ~m:q psi_inv n;
      omega_pows = powers ~m:q omega n;
      omega_inv_pows = powers ~m:q omega_inv n;
      n_inv = Modarith.inv ~m:q n;
    }

  let bit_reverse_permute a =
    let n = Array.length a in
    let j = ref 0 in
    for i = 0 to n - 2 do
      if i < !j then begin
        let t = a.(i) in
        a.(i) <- a.(!j);
        a.(!j) <- t
      end;
      let bit = ref (n lsr 1) in
      while !j land !bit <> 0 do
        j := !j lxor !bit;
        bit := !bit lsr 1
      done;
      j := !j lor !bit
    done

  let cyclic ctx pows a =
    let m = ctx.q and n = ctx.n in
    bit_reverse_permute a;
    let len = ref 2 in
    while !len <= n do
      let half = !len / 2 in
      let stride = n / !len in
      let i = ref 0 in
      while !i < n do
        for k = 0 to half - 1 do
          let w = pows.(k * stride) in
          let u = a.(!i + k) in
          let v = Modarith.mul ~m a.(!i + k + half) w in
          a.(!i + k) <- Modarith.add ~m u v;
          a.(!i + k + half) <- Modarith.sub ~m u v
        done;
        i := !i + !len
      done;
      len := !len * 2
    done

  let forward ctx coeffs =
    let m = ctx.q in
    let a = Array.mapi (fun i c -> Modarith.mul ~m c ctx.psi_pows.(i)) coeffs in
    cyclic ctx ctx.omega_pows a;
    a

  let inverse ctx values =
    let m = ctx.q in
    let a = Array.copy values in
    cyclic ctx ctx.omega_inv_pows a;
    Array.mapi
      (fun i c ->
        Modarith.mul ~m (Modarith.mul ~m c ctx.psi_inv_pows.(i)) ctx.n_inv)
      a

  let negacyclic_mul ctx a b =
    let m = ctx.q in
    let fa = forward ctx a and fb = forward ctx b in
    let prod = Array.init ctx.n (fun i -> Modarith.mul ~m fa.(i) fb.(i)) in
    inverse ctx prod

  (* Seed rescale: Fermat inverse recomputed on every call. *)
  let rescale_last ~moduli ~n res =
    let lvl = Array.length res in
    let last_idx = lvl - 1 in
    let ql = moduli.(last_idx) in
    let last = res.(last_idx) in
    Array.init (lvl - 1) (fun i ->
        let q = moduli.(i) in
        let ql_inv = Modarith.inv ~m:q (ql mod q) in
        Array.init n (fun j ->
            let rep = Modarith.center ~m:ql last.(j) in
            let diff = Modarith.sub ~m:q res.(i).(j) (Modarith.reduce ~m:q rep) in
            Modarith.mul ~m:q diff ql_inv))

  (* Seed automorphism: j * k mod 2n per coefficient. *)
  let automorphism ~moduli ~n ~k res =
    let two_n = 2 * n in
    let apply q r =
      let out = Array.make n 0 in
      for j = 0 to n - 1 do
        let pos = j * k mod two_n in
        if pos < n then out.(pos) <- Modarith.add ~m:q out.(pos) r.(j)
        else out.(pos - n) <- Modarith.sub ~m:q out.(pos - n) r.(j)
      done;
      out
    in
    Array.mapi (fun i r -> apply moduli.(i) r) res

  (* Seed key switch (decompose + apply): a hardware [mod] per element in
     the digit embed and in the division by P, and a MAC that fully reduces
     after every multiply-add.  [k0s]/[k1s] are the Shoup companions of the
     key residues, as the seed stored them. *)
  let key_switch (params : Params.t) ~k0 ~k1 ~k0s ~k1s (d : Rns_poly.t) =
    let n = params.n and lq = params.max_level in
    let chain_q t = if t < lq then params.moduli.(t) else params.special in
    let chain_ntt t = if t < lq then Params.ntt_at params ~idx:t else params.ntt_special in
    let res = (Rns_poly.to_coeff params d).res in
    let l = Array.length res in
    let positions = Array.append (Array.init l (fun t -> t)) [| lq |] in
    let np = Array.length positions in
    (* The seed's fan-out rule: tiny rings stay sequential. *)
    let par k f =
      if n >= 512 then Domain_pool.parallel_for ~n:k f
      else
        for i = 0 to k - 1 do
          f i
        done
    in
    let digits = Array.make np [||] in
    par np (fun pos ->
        let t = positions.(pos) in
        let q = chain_q t in
        digits.(pos) <-
          Array.init l (fun i ->
              let qi = params.moduli.(i) in
              let dst = Array.make n 0 in
              for j = 0 to n - 1 do
                dst.(j) <- Modarith.reduce ~m:q (Modarith.center ~m:qi res.(i).(j))
              done;
              Ntt.forward_in_place (chain_ntt t) dst;
              dst));
    let u0 = Array.make np [||] and u1 = Array.make np [||] in
    par np (fun pos ->
        let t = positions.(pos) in
        let q = chain_q t in
        let a0 = Array.make n 0 and a1 = Array.make n 0 in
        for i = 0 to l - 1 do
          let d_ntt = digits.(pos).(i) in
          for j = 0 to n - 1 do
            let dj = d_ntt.(j) in
            a0.(j) <-
              Modarith.add ~m:q a0.(j)
                (Modarith.mul_shoup ~m:q dj k0.(i).(t).(j) k0s.(i).(t).(j));
            a1.(j) <-
              Modarith.add ~m:q a1.(j)
                (Modarith.mul_shoup ~m:q dj k1.(i).(t).(j) k1s.(i).(t).(j))
          done
        done;
        Ntt.inverse_in_place (chain_ntt t) a0;
        Ntt.inverse_in_place (chain_ntt t) a1;
        u0.(pos) <- a0;
        u1.(pos) <- a1);
    let divide_by_p u =
      let p = params.special in
      let out = Array.make l [||] in
      par l (fun t ->
          let q = params.moduli.(t) in
          out.(t) <-
            Array.init n (fun j ->
                let rep = Modarith.center ~m:p u.(l).(j) in
                let diff = Modarith.sub ~m:q u.(t).(j) (Modarith.reduce ~m:q rep) in
                Modarith.mul_shoup ~m:q diff params.special_inv.(t)
                  params.special_inv_shoup.(t)));
      out
    in
    (divide_by_p u0, divide_by_p u1)
end

(* ---------------------------------------------------------------- *)
(* Harness.                                                          *)
(* ---------------------------------------------------------------- *)

type result = {
  op : string;
  rn : int;
  limbs : int;
  ns : float;
  ref_ns : float;
  identical : bool;
}

let time_ns ~min_time f =
  ignore (Sys.opaque_identity (f ()));
  let rec go iters =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= min_time || iters >= 1 lsl 22 then dt *. 1e9 /. float_of_int iters
    else go (iters * 4)
  in
  go 1

let rand_vec st ~n ~q = Array.init n (fun _ -> Random.State.full_int st q)

let arrays_equal a b =
  Array.length a = Array.length b && Array.for_all2 ( = ) a b

let residues_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> arrays_equal x y) a b

(* The optimized transform emits the evaluations in another order than the
   seed's (bit-reversed, twist merged in).  Transforming the monomial X
   under both reads the order off: each slot holds a distinct odd power of
   psi.  [slot_map.(i)] is the seed index of the optimized slot i. *)
let slot_map ref_ctx new_ctx =
  let n = Ntt.n new_ctx in
  let x = Array.init n (fun i -> if i = 1 then 1 else 0) in
  let seed_index = Hashtbl.create n in
  Array.iteri (fun k v -> Hashtbl.replace seed_index v k) (Ref.forward ref_ctx x);
  Array.map (Hashtbl.find seed_index) (Ntt.forward new_ctx x)

(* Both roundtrips are exact, and -- forward -- the seed and optimized
   transforms of [v] agree slot for slot under the map, or -- inverse --
   [v] read as an evaluation vector through the map comes back to the same
   coefficients from both. *)
let ntt_identical ~inverse ref_ctx new_ctx v =
  let map = slot_map ref_ctx new_ctx in
  arrays_equal (Ref.inverse ref_ctx (Ref.forward ref_ctx v)) v
  && arrays_equal (Ntt.inverse new_ctx (Ntt.forward new_ctx v)) v
  &&
  if inverse then begin
    let seed_order = Array.make (Array.length v) 0 in
    Array.iteri (fun i k -> seed_order.(k) <- v.(i)) map;
    arrays_equal (Ntt.inverse new_ctx v) (Ref.inverse ref_ctx seed_order)
  end
  else
    let f = Ref.forward ref_ctx v in
    arrays_equal (Ntt.forward new_ctx v) (Array.map (fun k -> f.(k)) map)

let bench_size ~min_time ~limbs log_n =
  let params = Params.make ~log_n ~max_level:limbs ~base_bits:31 ~scale_bits:27 () in
  let n = params.n in
  let q = params.moduli.(0) in
  let st = Random.State.make [| 0xbe2c4; log_n |] in
  let new_ctx = Params.ntt_at params ~idx:0 in
  let ref_ctx = Ref.make_ctx ~q ~n in
  let ref_ctxs = Array.init limbs (fun i -> Ref.make_ctx ~q:params.moduli.(i) ~n) in
  let a1 = rand_vec st ~n ~q and b1 = rand_vec st ~n ~q in
  let res () = Array.init limbs (fun i -> rand_vec st ~n ~q:params.moduli.(i)) in
  let pa = Rns_poly.of_residues (res ()) and pb = Rns_poly.of_residues (res ()) in
  let pa_eval = Rns_poly.to_eval params pa and pb_eval = Rns_poly.to_eval params pb in
  let k = 5 mod (2 * n) in
  let out = ref [] in
  let record op ~limbs ~identical ~ref_f ~new_f =
    let r =
      {
        op;
        rn = n;
        limbs;
        ns = time_ns ~min_time new_f;
        ref_ns = time_ns ~min_time ref_f;
        identical;
      }
    in
    Printf.printf "%-18s n=%-5d limbs=%-2d  ref %10.0f ns/op  new %10.0f ns/op  %5.2fx  %s\n%!"
      r.op r.rn r.limbs r.ref_ns r.ns (r.ref_ns /. r.ns)
      (if r.identical then "bit-identical" else "MISMATCH");
    out := r :: !out
  in
  let ntt_row op ~inverse ref_ctx new_ctx v =
    let scratch = Array.copy v in
    record op ~limbs:1
      ~identical:(ntt_identical ~inverse ref_ctx new_ctx v)
      ~ref_f:(fun () -> (if inverse then Ref.inverse else Ref.forward) ref_ctx v)
      ~new_f:(fun () ->
        (if inverse then Ntt.inverse_in_place else Ntt.forward_in_place) new_ctx scratch)
  in
  (* NTT on the 31-bit base prime: the fully reduced kernels. *)
  ntt_row "ntt_forward" ~inverse:false ref_ctx new_ctx a1;
  (* NTT on a 27-bit scale prime: the lazy radix-4 kernels, which run most
     transforms of a key switch. *)
  if limbs > 1 then begin
    let q1 = params.moduli.(1) in
    let ctx1 = Params.ntt_at params ~idx:1 and ref1 = Ref.make_ctx ~q:q1 ~n in
    let v = rand_vec st ~n ~q:q1 in
    ntt_row "ntt_forward_scale" ~inverse:false ref1 ctx1 v;
    ntt_row "ntt_inverse_scale" ~inverse:true ref1 ctx1 v
  end;
  (* Negacyclic multiply, coefficients in / coefficients out: the
     acceptance-criterion kernel. *)
  record "negacyclic_mul" ~limbs:1
    ~identical:
      (arrays_equal (Ref.negacyclic_mul ref_ctx a1 b1) (Ntt.negacyclic_mul new_ctx a1 b1))
    ~ref_f:(fun () -> Ref.negacyclic_mul ref_ctx a1 b1)
    ~new_f:(fun () -> Ntt.negacyclic_mul new_ctx a1 b1);
  (* Full-chain RNS multiply with NTT-resident operands, as in a chained
     homomorphic pipeline, vs the seed's per-limb transform-multiply. *)
  let ref_mul () =
    Array.init limbs (fun i ->
        Ref.negacyclic_mul ref_ctxs.(i) (pa : Rns_poly.t).res.(i) (pb : Rns_poly.t).res.(i))
  in
  record "rns_mul_resident" ~limbs
    ~identical:
      (residues_equal
         (Rns_poly.to_coeff params (Rns_poly.mul params pa_eval pb_eval)).res
         (ref_mul ()))
    ~ref_f:ref_mul
    ~new_f:(fun () -> Rns_poly.mul params pa_eval pb_eval);
  (* Rescale: precomputed-inverse Shoup path vs per-call Fermat inverse. *)
  record "rescale" ~limbs
    ~identical:
      (residues_equal
         (Rns_poly.rescale_last params pa).res
         (Ref.rescale_last ~moduli:params.moduli ~n (pa : Rns_poly.t).res))
    ~ref_f:(fun () -> Ref.rescale_last ~moduli:params.moduli ~n (pa : Rns_poly.t).res)
    ~new_f:(fun () -> Rns_poly.rescale_last params pa);
  (* Automorphism on an NTT-resident operand (cached slot permutation) vs
     the seed coefficient shuffle. *)
  record "automorphism" ~limbs
    ~identical:
      (residues_equal
         (Rns_poly.to_coeff params (Rns_poly.automorphism params ~k pa_eval)).res
         (Ref.automorphism ~moduli:params.moduli ~n ~k (pa : Rns_poly.t).res)
      && residues_equal
           (Rns_poly.automorphism params ~k pa).res
           (Ref.automorphism ~moduli:params.moduli ~n ~k (pa : Rns_poly.t).res))
    ~ref_f:(fun () -> Ref.automorphism ~moduli:params.moduli ~n ~k (pa : Rns_poly.t).res)
    ~new_f:(fun () -> Rns_poly.automorphism params ~k pa_eval);
  (* Key switch at full level L on an NTT-resident operand (as the
     pipeline hands c1 over): division-free, lazily reduced decompose +
     apply vs the seed loops, same relinearization key. *)
  let keys = Keys.keygen params in
  let sk = Keys.relin_key keys in
  let k0, k1 = Keys.switch_key_raw sk in
  let companions h =
    Array.map
      (Array.mapi (fun t limb ->
           let q = if t < limbs then params.moduli.(t) else params.special in
           Array.map (fun w -> Modarith.shoup ~m:q w) limb))
      h
  in
  let k0s = companions k0 and k1s = companions k1 in
  let ref_ks () = Ref.key_switch params ~k0 ~k1 ~k0s ~k1s pa_eval in
  let new_ks () = Keys.apply keys sk (Keys.decompose keys pa_eval) in
  record "keyswitch" ~limbs
    ~identical:
      (let (r0, r1), (n0, n1) = (ref_ks (), new_ks ()) in
       residues_equal r0 n0.res && residues_equal r1 n1.res)
    ~ref_f:ref_ks ~new_f:new_ks;
  List.rev !out

let json_of_results ~min_time results =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"halo-bench-kernels/v1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"pool\": %d,\n" (Domain_pool.size ()));
  Buffer.add_string b (Printf.sprintf "  \"min_time_s\": %g,\n" min_time);
  Buffer.add_string b "  \"results\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"op\": %S, \"n\": %d, \"limbs\": %d, \"ns_per_op\": %.1f, \
            \"ref_ns_per_op\": %.1f, \"speedup\": %.2f, \"bit_identical\": %b }%s\n"
           r.op r.rn r.limbs r.ns r.ref_ns (r.ref_ns /. r.ns) r.identical
           (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let () =
  let log_sizes = ref [ 10; 11; 12 ] in
  let limbs = ref 8 in
  let min_time = ref 0.2 in
  let json_path = ref "" in
  let set_sizes s =
    log_sizes := List.map int_of_string (String.split_on_char ',' s)
  in
  let spec =
    [
      ("--log-sizes", Arg.String set_sizes, "CSV of log2 ring sizes (default 10,11,12)");
      ("--limbs", Arg.Set_int limbs, "modulus-chain length (default 8)");
      ("--min-time", Arg.Set_float min_time, "seconds per measurement (default 0.2)");
      ("--json", Arg.Set_string json_path, "write a JSON report to PATH");
      ( "--tiny",
        Arg.Unit
          (fun () ->
            log_sizes := [ 6; 7 ];
            limbs := 3;
            min_time := 0.01),
        "CI smoke mode: two tiny rings, even and odd log n" );
    ]
  in
  Arg.parse spec (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "bench_kernels: seed-vs-optimized CKKS kernel timings";
  Printf.printf "kernel bench: pool=%d sizes=%s limbs=%d\n%!" (Domain_pool.size ())
    (String.concat "," (List.map string_of_int !log_sizes))
    !limbs;
  let results =
    List.concat_map (bench_size ~min_time:!min_time ~limbs:!limbs) !log_sizes
  in
  if !json_path <> "" then begin
    let oc = open_out !json_path in
    output_string oc (json_of_results ~min_time:!min_time results);
    close_out oc;
    Printf.printf "wrote %s\n%!" !json_path
  end;
  if List.exists (fun r -> not r.identical) results then begin
    prerr_endline "bench_kernels: bit-identity FAILED";
    exit 1
  end

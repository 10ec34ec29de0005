type secret = { coeffs : int array }

(* k0.(j).(t) / k1.(j).(t): NTT-domain residues of the j-th digit key over
   extended-chain position t, where t < max_level indexes ciphertext moduli
   and t >= max_level the special primes.  The key is nothing else: the
   switch MAC sums raw products (see [raw_mac]), so no Shoup companions are
   stored, and a key is 2 * dnum * (L + K) limbs.  Every limb is written
   once, at generation, and only read after. *)
type switch_key = { k0 : int array array array; k1 : int array array array }

(* One resident rotation key.  [bytes] is the exact heap footprint measured
   at generation ([Obj.reachable_words]); [last_use] is the LRU clock tick
   of the most recent fetch. *)
type cached_key = { sk : switch_key; bytes : int; mutable last_use : int }

type cache_stats = {
  mutable hits : int;
  mutable misses : int;  (* first-ever generations *)
  mutable evictions : int;
  mutable regenerations : int;  (* re-generation after eviction *)
  mutable digit_hits : int;  (* cross-op digit decompositions reused *)
}

type cache_snapshot = {
  snap_hits : int;
  snap_misses : int;
  snap_evictions : int;
  snap_regenerations : int;
  snap_digit_hits : int;
  snap_resident_bytes : int;
  snap_budget : int;
}

(* One memoized plaintext.  [pe_values] (the padded slot vector) and
   [pe_scale] are the key, compared bit for bit on a hit; [pe_centered] is
   the encoder's output, [pe_rows.(t)] its NTT image at extended-chain
   position t and [pe_comp.(t)] that row's companion for weighted
   rotate-and-sum groups ([Keys.weighted_terms]), each [||] until a caller
   first needs it.  The level is not part of the key: row t is the same
   array at every level.  A published row is never written again;
   [pe_resident] is false once evicted, so a late row fill is not charged
   to the memo. *)
type plain_entry = {
  pe_scale : float;
  pe_values : float array;
  pe_centered : int array;
  pe_rows : int array array;
  pe_comp : int array array;
  mutable pe_bytes : int;
  mutable pe_last_use : int;
  mutable pe_resident : bool;
}

(* Content-keyed plaintext memo: buckets by content hash, LRU by
   [pm_clock], bounded by [plain_memo_cap] bytes.  All reads and writes of
   the table and of entry rows run under [pm_mutex]. *)
type plain_memo = {
  pm_table : (int, plain_entry list) Hashtbl.t;
  pm_mutex : Mutex.t;
  mutable pm_clock : int;
  mutable pm_bytes : int;
  mutable pm_entries : int;
}

type t = {
  params : Params.t;
  secret : secret;
  pk0 : Rns_poly.t;
  pk1 : Rns_poly.t;
  s_chain : int array array;
      (* the secret's NTT image at every extended-chain position; [s_ntt]'s
         limbs are its first max_level rows *)
  s_ntt : Rns_poly.t;
  pk0_ntt : Rns_poly.t;
  pk1_ntt : Rns_poly.t;
      (* full-level NTT images, derived at keygen / restore, never persisted *)
  relin : switch_key;
  rotations : (int, cached_key) Hashtbl.t;
  generated : (int, unit) Hashtbl.t;
      (* Galois elements generated at least once, so a re-miss after
         eviction counts as a regeneration, not a first miss *)
  rotations_mutex : Mutex.t;
      (* serializes on-demand rotation-key generation, LRU bookkeeping and
         eviction: lookups may come from several domains at once, and a bare
         Hashtbl race on first use could generate the same key twice or
         evict an entry mid-insert *)
  mutable rng : Random.State.t;
      (* mutable so a restored key set resumes its key-generation stream *)
  mutable key_budget : int;  (* bytes; 0 = unbounded *)
  mutable clock : int;  (* LRU clock, strictly increasing under the mutex *)
  mutable resident_bytes : int;  (* rotation keys only; relin/pk exempt *)
  cache : cache_stats;
  seed_base : int;
      (* derived from the secret: seeds the per-key generation streams, so
         an evicted key regenerates bit-identically in any fetch order *)
  plain : plain_memo;  (* never persisted; starts empty *)
}

(* Per-position loops fan out across the domain pool; tiny rings stay
   sequential because dispatch would cost more than the arithmetic. *)
let par (params : Params.t) n f =
  if params.n >= 512 then Domain_pool.parallel_for ~n f
  else
    for i = 0 to n - 1 do
      f i
    done

(* Extended-chain accessors: position t is a ciphertext modulus for t < L,
   special prime t - L for t >= L. *)
let chain_ntt (params : Params.t) t = Params.ntt_at params ~idx:t
let chain_modulus params t = Ntt.q (chain_ntt params t)

(* Exact negacyclic product of two small integer polynomials, used only at
   key generation for s^2 (coefficients stay below n, far from overflow). *)
let small_negacyclic_mul a b =
  let n = Array.length a in
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    if a.(i) <> 0 then
      for j = 0 to n - 1 do
        let k = i + j in
        if k < n then out.(k) <- out.(k) + (a.(i) * b.(j))
        else out.(k - n) <- out.(k - n) - (a.(i) * b.(j))
      done
  done;
  out

let ntt_of_centered params t coeffs =
  let m = chain_modulus params t in
  let a = Array.map (Modarith.reduce ~m) coeffs in
  Ntt.forward_in_place (chain_ntt params t) a;
  a

(* NTT image of a small polynomial at every extended-chain position. *)
let chain_image params coeffs =
  let len = Params.chain_len params in
  let rows = Array.make len [||] in
  par params len (fun t -> rows.(t) <- ntt_of_centered params t coeffs);
  rows

(* Switching key from s' (given by centered integer coefficients) to the main
   secret s (given by its extended-chain image [s_chain]): for each digit j,
   (k0_j, k1_j) with
   k0_j = -k1_j * s + e_j + P * D_j * s'  over Q*P,
   where D_j is the CRT idempotent of the digit's primes I_j = {t : t / alpha
   = j} (so P*D_j*s' has residue [P]_{q_t} * s' at every t in I_j and zero
   elsewhere, including at every special prime).

   Every random value is drawn first, in the order of a digit-by-digit
   construction: e_j, then a_{j,t} for t = 0 .. L+K-1.  The key is then a
   function of [rng]'s state alone, and its dnum * (L+K) residue pairs are
   built independently across the domain pool: the same bits for any pool
   size, and on regeneration after eviction. *)
let make_switch_key params rng ~s_chain ~source_coeffs =
  let n = (params : Params.t).n in
  let len = Params.chain_len params in
  let dnum = Params.digits params ~level:params.max_level in
  let e = Array.make dnum [||] in
  let k1 = Array.init dnum (fun _ -> Array.make len [||]) in
  for j = 0 to dnum - 1 do
    e.(j) <- Sampler.gaussian rng ~n ~sigma:params.sigma;
    for t = 0 to len - 1 do
      let q = chain_modulus params t in
      k1.(j).(t) <- Array.init n (fun _ -> Random.State.full_int rng q)
    done
  done;
  let k0 = Array.init dnum (fun _ -> Array.make len [||]) in
  par params (dnum * len) (fun idx ->
      let j = idx / len and t = idx mod len in
      let ctx = chain_ntt params t in
      let q = Ntt.q ctx in
      let a = k1.(j).(t) and s = s_chain.(t) in
      Ntt.forward_in_place ctx a;
      (* b = e - a * s, then + [P]_{q_t} * s' on the digit's own primes (P
         mod q_t is minus the ModDown table's -P mod q_t). *)
      let b = ntt_of_centered params t e.(j) in
      for i = 0 to n - 1 do
        let d = b.(i) - (a.(i) * s.(i) mod q) in
        b.(i) <- d + (q land (d asr 62))
      done;
      if t < params.max_level && t / params.alpha = j then begin
        let p_mod = Modarith.neg ~m:q params.mod_down.neg_prod.(t) in
        let src = ntt_of_centered params t source_coeffs in
        for i = 0 to n - 1 do
          b.(i) <- (b.(i) + (src.(i) * p_mod)) mod q
        done
      end;
      k0.(j).(t) <- b);
  { k0; k1 }

let galois_element (params : Params.t) ~offset =
  let two_n = 2 * params.n in
  (* 5 has order n/2 in (Z/2nZ)*, so reduce the offset modulo n/2 first. *)
  let order = params.n / 2 in
  let r = ((offset mod order) + order) mod order in
  let rec pow acc i = if i = 0 then acc else pow (acc * 5 mod two_n) (i - 1) in
  pow 1 r

(* --- memory budget ------------------------------------------------------ *)

let parse_budget s =
  let s = String.trim s in
  let len = String.length s in
  if len = 0 then 0
  else begin
    let mult, digits =
      match Char.uppercase_ascii s.[len - 1] with
      | 'K' -> (1024, String.sub s 0 (len - 1))
      | 'M' -> (1024 * 1024, String.sub s 0 (len - 1))
      | 'G' -> (1024 * 1024 * 1024, String.sub s 0 (len - 1))
      | _ -> (1, s)
    in
    match int_of_string_opt (String.trim digits) with
    | Some v when v >= 0 -> v * mult
    | _ -> invalid_arg (Printf.sprintf "Keys: bad key budget %S" s)
  end

let budget_from_env () =
  match Sys.getenv_opt "HALO_KEY_BUDGET" with
  | None | Some "" -> 0
  | Some s -> parse_budget s

(* Exact resident footprint of one switching key: every word reachable from
   it (limbs and array headers), measured once at generation.  Word size is
   8 on every supported platform. *)
let key_bytes (sk : switch_key) = 8 * Obj.reachable_words (Obj.repr sk)

let seed_base_of_secret coeffs =
  Array.fold_left
    (fun acc c -> ((acc * 31) + c + 0x1003F) land 0x3FFFFFFF)
    0x632BE5A coeffs

let fresh_cache () =
  { hits = 0; misses = 0; evictions = 0; regenerations = 0; digit_hits = 0 }

let fresh_plain_memo () =
  {
    pm_table = Hashtbl.create 64;
    pm_mutex = Mutex.create ();
    pm_clock = 0;
    pm_bytes = 0;
    pm_entries = 0;
  }

(* [s_ntt] shares the ciphertext rows of [s_chain]: the same embedding and
   transform at each position. *)
let s_ntt_of_chain (params : Params.t) s_chain =
  Rns_poly.of_residues ~domain:Rns_poly.Eval (Array.sub s_chain 0 params.max_level)

let keygen ?(seed = 0x51CC5) params =
  let rng = Random.State.make [| seed |] in
  let n = (params : Params.t).n in
  let s = Sampler.ternary rng ~n in
  let l = params.max_level in
  (* Public key at full level: pk0 = -a*s + e, pk1 = a. *)
  let a = Rns_poly.of_residues (Sampler.uniform_residues rng ~n ~moduli:params.moduli) in
  let e =
    Rns_poly.of_centered_coeffs params ~level:l (Sampler.gaussian rng ~n ~sigma:params.sigma)
  in
  let s_chain = chain_image params s in
  let s_ntt = s_ntt_of_chain params s_chain and pk1_ntt = Rns_poly.to_eval params a in
  let pk0 = Rns_poly.sub params e (Rns_poly.mul params pk1_ntt s_ntt) in
  let s2 = small_negacyclic_mul s s in
  let relin = make_switch_key params rng ~s_chain ~source_coeffs:s2 in
  {
    params;
    secret = { coeffs = s };
    pk0;
    pk1 = a;
    s_chain;
    s_ntt;
    pk0_ntt = Rns_poly.to_eval params pk0;
    pk1_ntt;
    relin;
    rotations = Hashtbl.create 8;
    generated = Hashtbl.create 8;
    rotations_mutex = Mutex.create ();
    rng;
    key_budget = budget_from_env ();
    clock = 0;
    resident_bytes = 0;
    cache = fresh_cache ();
    seed_base = seed_base_of_secret s;
    plain = fresh_plain_memo ();
  }

let apply_automorphism_small ~n ~k coeffs =
  let two_n = 2 * n in
  let out = Array.make n 0 in
  for j = 0 to n - 1 do
    let pos = j * k mod two_n in
    if pos < n then out.(pos) <- out.(pos) + coeffs.(j)
    else out.(pos - n) <- out.(pos - n) - coeffs.(j)
  done;
  out

(* Per-key generation stream: a deterministic function of the secret and the
   Galois element only.  Generation order, eviction history and pool size
   cannot perturb it, so a key evicted under memory pressure regenerates
   bit-identically on re-miss — eviction is invisible in every ciphertext
   bit — and a restored key set regenerates missing keys identically too. *)
let rotation_rng keys k = Random.State.make [| 0x6A105; keys.seed_base; k |]

(* Evict least-recently-used rotation keys until the resident set fits the
   budget.  Caller holds the mutex.  The newest entry (highest clock) always
   survives, so the key just fetched stays resident; fetched references a
   caller already holds remain valid after eviction (the GC keeps them
   alive), eviction only drops the cache's pointer. *)
let evict_over_budget keys =
  if keys.key_budget > 0 then
    while
      keys.resident_bytes > keys.key_budget && Hashtbl.length keys.rotations > 1
    do
      let victim =
        Hashtbl.fold
          (fun k (e : cached_key) acc ->
            match acc with
            | Some (_, (e' : cached_key)) when e'.last_use <= e.last_use -> acc
            | _ -> Some (k, e))
          keys.rotations None
      in
      match victim with
      | None -> ()
      | Some (k, e) ->
        Hashtbl.remove keys.rotations k;
        keys.resident_bytes <- keys.resident_bytes - e.bytes;
        keys.cache.evictions <- keys.cache.evictions + 1
    done

(* The whole lookup-or-generate runs under the mutex: concurrent first-use
   lookups of the same Galois element must observe exactly one generation,
   and eviction bookkeeping must never interleave with an insert. *)
let galois_key keys k =
  let params = keys.params in
  Mutex.lock keys.rotations_mutex;
  let sk =
    match Hashtbl.find_opt keys.rotations k with
    | Some entry ->
      keys.clock <- keys.clock + 1;
      entry.last_use <- keys.clock;
      keys.cache.hits <- keys.cache.hits + 1;
      entry.sk
    | None ->
      let sk =
        try
          let rotated =
            apply_automorphism_small ~n:params.n ~k keys.secret.coeffs
          in
          make_switch_key params (rotation_rng keys k) ~s_chain:keys.s_chain
            ~source_coeffs:rotated
        with e ->
          Mutex.unlock keys.rotations_mutex;
          raise e
      in
      let bytes = key_bytes sk in
      keys.clock <- keys.clock + 1;
      Hashtbl.replace keys.rotations k { sk; bytes; last_use = keys.clock };
      keys.resident_bytes <- keys.resident_bytes + bytes;
      if Hashtbl.mem keys.generated k then
        keys.cache.regenerations <- keys.cache.regenerations + 1
      else begin
        keys.cache.misses <- keys.cache.misses + 1;
        Hashtbl.replace keys.generated k ()
      end;
      evict_over_budget keys;
      sk
  in
  Mutex.unlock keys.rotations_mutex;
  sk

let rotation_key keys ~offset = galois_key keys (galois_element keys.params ~offset)

let conjugation_key keys = galois_key keys ((2 * keys.params.n) - 1)

let relin_key keys = keys.relin

let set_key_budget keys budget =
  if budget < 0 then invalid_arg "Keys.set_key_budget: negative budget";
  Mutex.lock keys.rotations_mutex;
  keys.key_budget <- budget;
  evict_over_budget keys;
  Mutex.unlock keys.rotations_mutex

let record_digit_hit keys =
  Mutex.lock keys.rotations_mutex;
  keys.cache.digit_hits <- keys.cache.digit_hits + 1;
  Mutex.unlock keys.rotations_mutex

let cache_stats keys =
  Mutex.lock keys.rotations_mutex;
  let s =
    {
      snap_hits = keys.cache.hits;
      snap_misses = keys.cache.misses;
      snap_evictions = keys.cache.evictions;
      snap_regenerations = keys.cache.regenerations;
      snap_digit_hits = keys.cache.digit_hits;
      snap_resident_bytes = keys.resident_bytes;
      snap_budget = keys.key_budget;
    }
  in
  Mutex.unlock keys.rotations_mutex;
  s

let reset_cache_stats keys =
  Mutex.lock keys.rotations_mutex;
  keys.cache.hits <- 0;
  keys.cache.misses <- 0;
  keys.cache.evictions <- 0;
  keys.cache.regenerations <- 0;
  keys.cache.digit_hits <- 0;
  Mutex.unlock keys.rotations_mutex

(* --- codec hooks for Halo_persist -------------------------------------- *)

let rng_state keys = Random.State.copy keys.rng
let set_rng_state keys rng = keys.rng <- Random.State.copy rng
let switch_key_raw sk = (sk.k0, sk.k1)

let switch_key_of_raw (params : Params.t) ~k0 ~k1 =
  let dnum = Params.digits params ~level:params.max_level in
  let len = Params.chain_len params and n = params.n in
  let check_half name h =
    if Array.length h <> dnum then
      invalid_arg (Printf.sprintf "Keys.switch_key_of_raw: %s has %d digits, expected %d" name (Array.length h) dnum);
    Array.iter
      (fun digit ->
        if Array.length digit <> len then
          invalid_arg (Printf.sprintf "Keys.switch_key_of_raw: %s digit spans %d chain positions, expected %d" name (Array.length digit) len);
        Array.iter
          (fun limb ->
            if Array.length limb <> n then
              invalid_arg (Printf.sprintf "Keys.switch_key_of_raw: %s limb length %d, expected %d" name (Array.length limb) n))
          digit)
      h
  in
  check_half "k0" k0;
  check_half "k1" k1;
  { k0; k1 }

let rotation_entries keys =
  Mutex.lock keys.rotations_mutex;
  let entries =
    Hashtbl.fold (fun k (e : cached_key) acc -> (k, e.sk) :: acc) keys.rotations []
  in
  Mutex.unlock keys.rotations_mutex;
  List.sort compare entries

let of_parts params ~secret ~pk0 ~pk1 ~relin ~rotations ~rng =
  if Array.length secret <> (params : Params.t).n then
    invalid_arg "Keys.of_parts: secret length mismatch";
  let s_chain = chain_image params secret in
  let keys =
    {
      params;
      secret = { coeffs = secret };
      pk0;
      pk1;
      s_chain;
      s_ntt = s_ntt_of_chain params s_chain;
      pk0_ntt = Rns_poly.to_eval params pk0;
      pk1_ntt = Rns_poly.to_eval params pk1;
      relin;
      rotations = Hashtbl.create (max 8 (List.length rotations));
      generated = Hashtbl.create (max 8 (List.length rotations));
      rotations_mutex = Mutex.create ();
      rng = Random.State.copy rng;
      key_budget = budget_from_env ();
      clock = 0;
      resident_bytes = 0;
      cache = fresh_cache ();
      seed_base = seed_base_of_secret secret;
      plain = fresh_plain_memo ();
    }
  in
  List.iter
    (fun (k, sk) ->
      let bytes = key_bytes sk in
      keys.clock <- keys.clock + 1;
      Hashtbl.replace keys.rotations k { sk; bytes; last_use = keys.clock };
      keys.resident_bytes <- keys.resident_bytes + bytes;
      Hashtbl.replace keys.generated k ())
    rotations;
  (* A restored set honors the budget immediately; deterministic
     regeneration makes any eviction here bit-invisible downstream. *)
  evict_over_budget keys;
  keys

(* --- key switching: decompose once, apply per key ----------------------- *)

(* The ModUp product of [key_switch], reusable across several [apply] calls
   (hoisted rotations): [digits.(pos).(j)] is the NTT-domain image of the
   j-th lifted digit at extended-chain position [positions.(pos)].
   Decomposition is the expensive half of a key switch (a base conversion
   and a forward transform per digit and foreign position); everything
   downstream of it is a pointwise inner product with the switching key. *)
type decomposed = {
  d_level : int;  (* ciphertext level l *)
  positions : int array;  (* chain positions: 0..l-1 then the K specials *)
  digits : int array array array;
}

let check_len n a = if Array.length a <> n then invalid_arg "Keys: limb length mismatch"

(* The l ciphertext positions of a level-l polynomial, then the specials. *)
let positions (params : Params.t) l =
  Array.init (l + Array.length params.specials) (fun pos ->
      if pos < l then pos else params.max_level + pos - l)

(* Unchecked reads for the kernels below, typed so that the compiler reads
   an int array directly: a local [let get = Array.unsafe_get] is
   polymorphic, and every read through it first tests for a float array. *)
let[@inline] get (a : int array) i = Array.unsafe_get a i
let[@inline] row (a : int array array) i = Array.unsafe_get a i

(* y.(j) <- y.(j) * (B / b_i)^-1 mod b_i, in place: the first step of a fast
   base conversion from source prime i of [basis]. *)
let scale_in_place (basis : Params.basis) ~q i y =
  let w = basis.hat_inv.(i) and ws = basis.hat_inv_shoup.(i) in
  for j = 0 to Array.length y - 1 do
    Array.unsafe_set y j (Modarith.mul_shoup ~m:q (Array.unsafe_get y j) w ws)
  done

(* Centered fast base conversion of the scaled source limbs [ys] (ys.(i) in
   [0, b_i), one per source prime of [basis]) to chain position [t], written
   over [dst]: dst.(j) = sum_i center(ys.(i).(j)) * (B / b_i) mod m_t, in one
   pass.  At each slot every source is read once, centred without a branch
   (center(y) = y - b_i exactly when y > b_i / 2: the mask
   [(half_i - y) asr 62] is all ones then), multiplied raw by
   hat_i = (B / b_i) mod m_t and summed as a signed int; one [mod] closes
   the sum.  Where the worst case of the sum would reach 2^62 the sum also
   closes after each chunk of [basis.chunks.(t)] (params.ml), so every
   partial sum is a native int.  Centering makes the conversion an odd
   function, so it commutes with the Galois automorphisms (signed
   coefficient permutations). *)
let convert params (basis : Params.basis) ys t dst =
  let m = chain_modulus params t in
  let n = Array.length dst in
  Array.iter (check_len n) ys;
  let b = basis.src_q and half = basis.half and hat = basis.hat.(t) in
  let ends = basis.chunks.(t) in
  let[@inline] center b h y = y - (b land ((h - y) asr 62)) in
  for j = 0 to n - 1 do
    let s = ref 0 and i = ref 0 in
    for c = 0 to Array.length ends - 1 do
      let e = get ends c in
      for k = !i to e - 1 do
        s := !s + (center (get b k) (get half k) (get (row ys k) j) * get hat k)
      done;
      i := e;
      s := !s mod m
    done;
    let r = !s in
    Array.unsafe_set dst j (r + (m land (r asr 62)))
  done

(* One scratch limb per domain.  A pool index runs start to finish on one
   domain, and no kernel body that uses the limb reaches another, so a body
   may hold it for its whole run. *)
let scratch_key = Domain.DLS.new_key (fun () -> ref [||])

let scratch_limb n =
  let r = Domain.DLS.get scratch_key in
  if Array.length !r <> n then r := Array.make n 0;
  !r

(* ModUp: digit j of a level-l polynomial is d mod Q_I over its primes I_j.
   Scale each limb by (Q_I / q_t)^-1 mod q_t, convert each digit centered to
   every foreign position (the other ciphertext primes and the specials),
   and transform.  A digit's own limbs need no conversion: the lifted digit
   is d mod q_t there, so they are the Eval-domain input's own limbs, shared
   with it (or transforms of its coefficient limbs).  Published limbs are
   never written, so the sharing is safe. *)
let decompose keys d =
  let params = keys.params in
  let alpha = params.alpha in
  let l = Rns_poly.level d in
  let res = (d : Rns_poly.t).res in
  let eval = Rns_poly.domain d = Rns_poly.Eval in
  let beta = Params.digits params ~level:l in
  let basis j = params.mod_up.(j).(min alpha (l - (j * alpha)) - 1) in
  (* The conversion reads scaled coefficient-domain residues, so this is one
     of the two coefficient boundaries of the NTT-resident pipeline (the
     other is rescale): one array per limb, inverse-transformed and scaled
     in place. *)
  let ys = Array.make l [||] in
  par params l (fun t ->
      check_len params.n res.(t);
      let y = Array.copy res.(t) in
      if eval then Ntt.inverse_in_place (chain_ntt params t) y;
      scale_in_place (basis (t / alpha)) ~q:params.moduli.(t) (t mod alpha) y;
      ys.(t) <- y);
  let positions = positions params l in
  let np = Array.length positions in
  let digits = Array.init np (fun _ -> Array.make beta [||]) in
  (* Each position's digit images are independent of the others: fan them
     out over the domain pool. *)
  par params np (fun pos ->
      let t = positions.(pos) in
      let ctx = chain_ntt params t in
      for j = 0 to beta - 1 do
        if pos < l && pos / alpha = j then
          digits.(pos).(j) <- (if eval then res.(pos) else Ntt.forward ctx res.(pos))
        else begin
          let b = basis j in
          let dst = Array.make params.n 0 in
          convert params b (Array.sub ys (j * alpha) (Array.length b.src)) t dst;
          Ntt.forward_in_place ctx dst;
          digits.(pos).(j) <- dst
        end
      done);
  { d_level = l; positions; digits }

(* ModDown of both halves of an extended-basis pair, Eval domain in and out,
   in place: inverse-transform and scale the K special limbs, convert them
   centered to every ciphertext prime through the domain's scratch limb,
   forward-transform that correction and write (u_t - correction) * P^-1
   over u_t, plus [add0.(t)] on the first half when given (a residue below
   q_t, added modularly in the same pass).  The result is the first l limbs
   of [u0] and [u1]; the special limbs are left as garbage.  The centered
   conversion returns the special part up to v * P with |v| < K/2, so the
   result is the exact division by P up to that rounding (params.ml). *)
let mod_down (params : Params.t) ~level:l ?add0 u0 u1 =
  let k = Array.length params.specials in
  let basis = params.mod_down in
  par params k (fun i ->
      let t = params.max_level + i in
      let ctx = chain_ntt params t and q = chain_modulus params t in
      List.iter
        (fun u ->
          Ntt.inverse_in_place ctx u.(l + i);
          scale_in_place basis ~q i u.(l + i))
        [ u0; u1 ]);
  let ys0 = Array.sub u0 l k and ys1 = Array.sub u1 l k in
  par params l (fun t ->
      let q = params.moduli.(t) in
      let p_inv = params.p_inv.(t) and p_inv_shoup = params.p_inv_shoup.(t) in
      let corr = scratch_limb params.n in
      List.iter
        (fun (u, ys, add) ->
          let ut = u.(t) in
          check_len params.n ut;
          convert params basis ys t corr;
          Ntt.forward_in_place (chain_ntt params t) corr;
          let add = match add with Some a -> a.(t) | None -> [||] in
          if Array.length add = 0 then
            for j = 0 to params.n - 1 do
              let diff = Array.unsafe_get ut j - Array.unsafe_get corr j in
              let diff = diff + (q land (diff asr 62)) in
              Array.unsafe_set ut j (Modarith.mul_shoup ~m:q diff p_inv p_inv_shoup)
            done
          else begin
            check_len params.n add;
            for j = 0 to params.n - 1 do
              let diff = Array.unsafe_get ut j - Array.unsafe_get corr j in
              let diff = diff + (q land (diff asr 62)) in
              let r = Modarith.mul_shoup ~m:q diff p_inv p_inv_shoup + Array.unsafe_get add j - q in
              Array.unsafe_set ut j (r + (q land (r asr 62)))
            done
          end)
        [ (u0, ys0, add0); (u1, ys1, None) ]);
  ( Rns_poly.of_residues ~domain:Rns_poly.Eval (Array.sub u0 0 l),
    Rns_poly.of_residues ~domain:Rns_poly.Eval (Array.sub u1 0 l) )

(* How many terms, each at most [per_term] * (q - 1)^2, can be summed onto
   a residue below q and stay a non-negative native int:
   the largest B with B * per_term * (q - 1)^2 + q < 2^62.  (Dividing twice
   is the floor of one division and cannot overflow.) *)
let lazy_terms ~q ~per_term = (max_int - q) / per_term / ((q - 1) * (q - 1))

(* Whether [digits] raw digit/key products mod q, summed onto a residue
   below q, stay a native int: digits * (q - 1)^2 + q < 2^62.  With
   dnum <= 4 that holds for every prime below 2^30, so at every chain
   position but a 31-bit base prime. *)
let raw_mac ~q ~digits = lazy_terms ~q ~per_term:digits >= 1

let low31 = Modarith.max_modulus - 1

(* A weighted member's term with a companion row: its raw digit/key sum
   x < digits * (q - 1)^2 splits as x = hi * 2^31 + lo, and with the
   plaintext row c and its companion c' = c * 2^31 mod q the term
   hi * c' + lo * c is congruent to c * x, with no reduction of x.  Each
   such term is at most ((x_max lsr 31) + min x_max (2^31 - 1)) * (q - 1);
   the result is the largest B with B * that + q < 2^62, 0 where no term
   fits or the raw sum itself does not ([raw_mac]): there a member reduces
   each product as it adds it ([mac_member]). *)
let weighted_terms ~q ~digits =
  if not (raw_mac ~q ~digits) then 0
  else begin
    let x = digits * (q - 1) * (q - 1) in
    let hi = (x lsr 31) * (q - 1) and lo = min x low31 * (q - 1) in
    let room = max_int - q in
    if hi > room - lo then 0 else room / (hi + lo)
  end

(* --- the group MAC: one visit per chain position ------------------------ *)

type weight = { rows : int array array; comp : int array array }

type member = {
  galois : int;
  switch : (switch_key * decomposed) option;
  coeff : weight option;
}

(* The companion of a plaintext row at modulus q: c' = c * 2^31 mod q
   (c < 2^31, so c * 2^31 < 2^62). *)
let companion_row ~q row = Array.map (fun c -> (c lsl 31) mod q) row

(* Companion rows at the positions of a level-[level] group whose weighted
   bound admits them, [||] elsewhere. *)
let needs_companion (params : Params.t) ~level t =
  weighted_terms ~q:(chain_modulus params t) ~digits:(Params.digits params ~level) >= 1

let weight_of_rows params ~level rows =
  let positions = positions params level in
  {
    rows;
    comp =
      Array.mapi
        (fun pos row ->
          let t = positions.(pos) in
          if needs_companion params ~level t then companion_row ~q:(chain_modulus params t) row
          else [||])
        rows;
  }

(* Adds one member's term into the running sums at slot j and reduces the
   sums when [close].  Pure ([cv] empty): the raw digit/key sums [x0], [x1]
   themselves.  Weighted: hi * c' + lo * c with the companion row [cc]
   ([weighted_terms]). *)
let[@inline] put ~q ~close cv cc acc0 acc1 j x0 x1 =
  let v0 = get acc0 j and v1 = get acc1 j in
  let v0, v1 =
    if Array.length cv = 0 then (v0 + x0, v1 + x1)
    else
      let c = get cv j and c' = get cc j in
      (v0 + ((x0 lsr 31) * c') + ((x0 land low31) * c), v1 + ((x1 lsr 31) * c') + ((x1 land low31) * c))
  in
  Array.unsafe_set acc0 j (if close then v0 mod q else v0);
  Array.unsafe_set acc1 j (if close then v1 mod q else v1)

(* One member's digit/key inner products at one position, read through its
   slot permutation [perm] (the Galois automorphism applied on the fly, no
   permuted copies), for both key halves and every slot:
     x = sum_i d_i.(perm.(j)) * k_i.(j),
   added into [acc0]/[acc1] by [put].  [cv] is the member's plaintext row
   ([||] for a pure member) and [cc] its companion row.  Where [raw] (the
   raw sum of the digits' products is a native int and, for a weighted
   member, its companion term fits: [weighted_terms]) the digit loop is
   unrolled (dnum <= 4, params.ml) and the products are summed raw;
   elsewhere (a 31-bit base prime) each product is reduced as it is added,
   onto the running sum for a pure member, and the sums are closed after
   every member. *)
let mac_member ~q ~raw ~close ~perm cv cc ds k0 k1 acc0 acc1 =
  let n = Array.length perm in
  match (raw, ds, k0, k1) with
  | true, [| d0 |], [| a0 |], [| b0 |] ->
    for j = 0 to n - 1 do
      let e0 = get d0 (get perm j) in
      put ~q ~close cv cc acc0 acc1 j (e0 * get a0 j) (e0 * get b0 j)
    done
  | true, [| d0; d1 |], [| a0; a1 |], [| b0; b1 |] ->
    for j = 0 to n - 1 do
      let pj = get perm j in
      let e0 = get d0 pj and e1 = get d1 pj in
      put ~q ~close cv cc acc0 acc1 j
        ((e0 * get a0 j) + (e1 * get a1 j))
        ((e0 * get b0 j) + (e1 * get b1 j))
    done
  | true, [| d0; d1; d2 |], [| a0; a1; a2 |], [| b0; b1; b2 |] ->
    for j = 0 to n - 1 do
      let pj = get perm j in
      let e0 = get d0 pj and e1 = get d1 pj and e2 = get d2 pj in
      put ~q ~close cv cc acc0 acc1 j
        ((e0 * get a0 j) + (e1 * get a1 j) + (e2 * get a2 j))
        ((e0 * get b0 j) + (e1 * get b1 j) + (e2 * get b2 j))
    done
  | true, [| d0; d1; d2; d3 |], [| a0; a1; a2; a3 |], [| b0; b1; b2; b3 |] ->
    for j = 0 to n - 1 do
      let pj = get perm j in
      let e0 = get d0 pj and e1 = get d1 pj and e2 = get d2 pj and e3 = get d3 pj in
      put ~q ~close cv cc acc0 acc1 j
        ((e0 * get a0 j) + (e1 * get a1 j) + (e2 * get a2 j) + (e3 * get a3 j))
        ((e0 * get b0 j) + (e1 * get b1 j) + (e2 * get b2 j) + (e3 * get b3 j))
    done
  | _ ->
    let weighted = Array.length cv > 0 in
    for j = 0 to n - 1 do
      let pj = get perm j in
      let s0 = ref (if weighted then 0 else get acc0 j)
      and s1 = ref (if weighted then 0 else get acc1 j) in
      for i = 0 to Array.length ds - 1 do
        let dj = get (row ds i) pj in
        s0 := (!s0 + (dj * get (row k0 i) j)) mod q;
        s1 := (!s1 + (dj * get (row k1 i) j)) mod q
      done;
      if weighted then begin
        let c = get cv j in
        Array.unsafe_set acc0 j ((get acc0 j + (c * !s0)) mod q);
        Array.unsafe_set acc1 j ((get acc1 j + (c * !s1)) mod q)
      end
      else begin
        Array.unsafe_set acc0 j !s0;
        Array.unsafe_set acc1 j !s1
      end
    done

(* One member's Q-side term at one ciphertext position: c0 read through
   [perm], times the plaintext row [m] when weighted, added into [acc] and
   reduced when [close]. *)
let q_member ~q ~close ~perm c0 m acc =
  if Array.length m = 0 then
    for j = 0 to Array.length perm - 1 do
      let v = get acc j + get c0 (get perm j) in
      Array.unsafe_set acc j (if close then v mod q else v)
    done
  else
    for j = 0 to Array.length perm - 1 do
      let v = get acc j + (get c0 (get perm j) * get m j) in
      Array.unsafe_set acc j (if close then v mod q else v)
    done

(* Whether the member ending at index [i] of [count] closes the sums: the
   last one does, and so does every [b]-th, so at most [b] unreduced terms
   ever sit on a reduced residue. *)
let closes ~b ~count i = i = count - 1 || (i + 1) mod b = 0

(* The whole group in one pool dispatch: each task owns one extended-chain
   position and visits every member there, accumulating the MAC of the
   switching members into fresh limbs and, at the l ciphertext positions,
   the Q-side terms sigma_g(c0), times m_g when weighted, of every member
   into a third.  The sums stay unreduced while the bounds allow: a pure
   term is dnum raw products ([lazy_terms]), a weighted one hi * c' + lo * c
   ([weighted_terms]; where that bound admits no term, the member reduces
   per product), and a Q-side one below q (pure) or (q - 1)^2 (weighted).  Then one
   ModDown for the group adds the Q-side sum into the first half.  Every
   sum is the exact residue whatever the reduction schedule, the pool size
   or the member order, so a group is bit-identical to a chain of single
   key switches and adds. *)
let switch_group keys ?c0 members =
  let params = keys.params in
  let n = params.n in
  let switching =
    Array.of_list
      (List.filter_map (fun m -> Option.map (fun (sk, dec) -> (m, sk, dec)) m.switch) members)
  in
  let members = Array.of_list members in
  if Array.length switching = 0 then invalid_arg "Keys.switch_group: no switching member";
  let _, _, dec0 = switching.(0) in
  let l = dec0.d_level and positions = dec0.positions in
  Array.iter
    (fun (_, _, dec) ->
      if dec.d_level <> l then invalid_arg "Keys.switch_group: level mismatch")
    switching;
  let weighted = Option.is_some members.(0).coeff in
  Array.iter
    (fun m ->
      if Option.is_some m.coeff <> weighted then
        invalid_arg "Keys.switch_group: mixed plain and pure members")
    members;
  let c0 =
    Option.map
      (fun (c : Rns_poly.t) ->
        if Rns_poly.domain c <> Rns_poly.Eval || Rns_poly.level c <> l then
          invalid_arg "Keys.switch_group: c0 must be Eval-domain at the group's level";
        c.res)
      c0
  in
  (* Slot orderings depend only on n: every chain position shares them. *)
  let perm_of m = Ntt.eval_perm (Params.ntt_at params ~idx:0) ~k:m.galois in
  let mac_perms = Array.map (fun (m, _, _) -> perm_of m) switching in
  let q_perms = Array.map perm_of members in
  let row m pos = match m.coeff with Some w -> w.rows.(pos) | None -> [||] in
  let np = Array.length positions in
  let mac0 = Array.make np [||] and mac1 = Array.make np [||] in
  let qsum = Array.make l [||] in
  par params np (fun pos ->
      let t = positions.(pos) in
      let q = chain_modulus params t in
      let nd = Array.length dec0.digits.(pos) in
      let wb = weighted_terms ~q ~digits:nd in
      let raw = if weighted then wb >= 1 else raw_mac ~q ~digits:nd in
      let comp m =
        match m.coeff with
        | Some w when raw ->
          let cc = w.comp.(pos) in
          if Array.length cc = 0 then invalid_arg "Keys.switch_group: missing companion row";
          cc
        | _ -> [||]
      in
      let b = if not raw then 1 else if weighted then wb else lazy_terms ~q ~per_term:nd in
      let acc0 = Array.make n 0 and acc1 = Array.make n 0 in
      let count = Array.length switching in
      Array.iteri
        (fun i (m, sk, dec) ->
          let ds = dec.digits.(pos) in
          let k0 = Array.init nd (fun d -> sk.k0.(d).(t)) and k1 = Array.init nd (fun d -> sk.k1.(d).(t)) in
          let cv = row m pos and cc = comp m in
          Array.iter (check_len n) (Array.concat [ ds; k0; k1 ]);
          if weighted then check_len n cv;
          if raw && weighted then check_len n cc;
          mac_member ~q ~raw ~close:(closes ~b ~count i) ~perm:mac_perms.(i) cv cc ds k0 k1 acc0 acc1)
        switching;
      mac0.(pos) <- acc0;
      mac1.(pos) <- acc1;
      match c0 with
      | Some c0 when pos < l ->
        let src = c0.(pos) in
        check_len n src;
        let acc = Array.make n 0 in
        let count = Array.length members in
        let b = if weighted then lazy_terms ~q ~per_term:1 else (max_int - q) / q in
        Array.iteri
          (fun i m ->
            q_member ~q ~close:(closes ~b ~count i) ~perm:q_perms.(i) src (row m pos) acc)
          members;
        qsum.(pos) <- acc
      | _ -> ());
  mod_down params ~level:l ?add0:(Option.map (fun _ -> qsum) c0) mac0 mac1

(* A single key switch is a one-member group: the same kernel and ModDown
   as a rotate-and-sum, with no Q side. *)
let apply_rotated keys sk ~k dec =
  switch_group keys [ { galois = k; switch = Some (sk, dec); coeff = None } ]

let apply keys sk dec = apply_rotated keys sk ~k:1 dec
let key_switch keys sk d = apply keys sk (decompose keys d)

(* --- plaintext memo ------------------------------------------------------ *)

(* Loop-invariant plaintexts (weights, constants, matrix diagonals) come back
   every iteration: encode each (scale, slot values) content once per key set
   and keep its centred coefficients and NTT rows.  Encoding is a
   deterministic function of the key, so a hit, a miss and a re-encode after
   eviction hand the caller the same integers: the memo changes timing
   only. *)
let plain_memo_cap = 64 * 1024 * 1024

(* The slot vector as the encoder sees it: at most [slots] values, then
   zeros ([Encoding] pads missing slots with exactly 0.0). *)
let padded values j = if j < Array.length values then Array.unsafe_get values j else 0.0

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let mix h x =
  let b = Int64.bits_of_float x in
  ((h * 0x100000001B3) lxor Int64.to_int b lxor Int64.to_int (Int64.shift_right_logical b 32))
  land max_int

let plain_hash ~slots ~scale values =
  let h = ref (mix 0xCBF29CE4 scale) in
  for j = 0 to slots - 1 do
    h := mix !h (padded values j)
  done;
  !h

let plain_matches ~slots ~scale values e =
  same_bits scale e.pe_scale
  &&
  let rec go j = j >= slots || (same_bits (padded values j) e.pe_values.(j) && go (j + 1)) in
  go 0

(* Heap words of an entry with [rows] filled rows, NTT and companion rows
   alike: the key vector, the coefficients, the two row tables, the record
   and its bucket cell. *)
let plain_entry_bytes (params : Params.t) ~rows =
  8 * (params.slots + params.n + (2 * Params.chain_len params) + 15 + (rows * (params.n + 1)))

(* Caller holds the mutex. *)
let plain_bucket memo h = Option.value ~default:[] (Hashtbl.find_opt memo.pm_table h)

let plain_touch memo e =
  memo.pm_clock <- memo.pm_clock + 1;
  e.pe_last_use <- memo.pm_clock

(* Evict least-recently-used entries until the memo fits its cap; the newest
   entry always survives.  Caller holds the mutex. *)
let rec plain_evict memo =
  if memo.pm_bytes > plain_memo_cap && memo.pm_entries > 1 then begin
    let victim =
      Hashtbl.fold
        (fun h es acc ->
          List.fold_left
            (fun acc e ->
              match acc with
              | Some (_, e') when e'.pe_last_use <= e.pe_last_use -> acc
              | _ -> Some (h, e))
            acc es)
        memo.pm_table None
    in
    match victim with
    | None -> ()
    | Some (h, e) ->
      (match List.filter (fun e' -> e' != e) (plain_bucket memo h) with
      | [] -> Hashtbl.remove memo.pm_table h
      | es -> Hashtbl.replace memo.pm_table h es);
      e.pe_resident <- false;
      memo.pm_bytes <- memo.pm_bytes - e.pe_bytes;
      memo.pm_entries <- memo.pm_entries - 1;
      plain_evict memo
  end

(* Find or encode the entry of [values] at [scale].  The FFT runs outside the
   mutex; when two callers miss on the same content at once, the first
   insert wins and the other adopts it (both encodings are identical). *)
let plain_entry keys ~scale values =
  let params = keys.params and memo = keys.plain in
  let slots = params.slots in
  let h = plain_hash ~slots ~scale values in
  let find () =
    let e = List.find_opt (plain_matches ~slots ~scale values) (plain_bucket memo h) in
    Option.iter (plain_touch memo) e;
    e
  in
  Mutex.lock memo.pm_mutex;
  let hit = find () in
  Mutex.unlock memo.pm_mutex;
  match hit with
  | Some e -> e
  | None ->
    let padded_values = Array.init slots (padded values) in
    let centered = Encoding.encode_real_centered params ~scale padded_values in
    let fresh =
      {
        pe_scale = scale;
        pe_values = padded_values;
        pe_centered = centered;
        pe_rows = Array.make (Params.chain_len params) [||];
        pe_comp = Array.make (Params.chain_len params) [||];
        pe_bytes = plain_entry_bytes params ~rows:0;
        pe_last_use = 0;
        pe_resident = true;
      }
    in
    Mutex.lock memo.pm_mutex;
    let e =
      match find () with
      | Some e -> e
      | None ->
        plain_touch memo fresh;
        Hashtbl.replace memo.pm_table h (fresh :: plain_bucket memo h);
        memo.pm_bytes <- memo.pm_bytes + fresh.pe_bytes;
        memo.pm_entries <- memo.pm_entries + 1;
        plain_evict memo;
        fresh
    in
    Mutex.unlock memo.pm_mutex;
    e

let plain_centered keys ~scale values = (plain_entry keys ~scale values).pe_centered

(* The NTT rows at [positions] and, where [companion] holds, their
   companion rows.  Missing rows are built outside the mutex, one position
   per pool task, then published and charged to the memo; a row another
   caller published first wins. *)
let plain_rows keys e ~positions ~companion =
  let params = keys.params and memo = keys.plain in
  let np = Array.length positions in
  let need = Array.init np (fun i -> companion positions.(i)) in
  Mutex.lock memo.pm_mutex;
  let rows = Array.map (fun t -> e.pe_rows.(t)) positions in
  let comp = Array.mapi (fun i t -> if need.(i) then e.pe_comp.(t) else [||]) positions in
  Mutex.unlock memo.pm_mutex;
  let missing =
    List.filter
      (fun i -> Array.length rows.(i) = 0 || (need.(i) && Array.length comp.(i) = 0))
      (List.init np Fun.id)
    |> Array.of_list
  in
  if Array.length missing > 0 then begin
    par params (Array.length missing) (fun k ->
        let i = missing.(k) in
        let t = positions.(i) in
        if Array.length rows.(i) = 0 then rows.(i) <- ntt_of_centered params t e.pe_centered;
        if need.(i) then comp.(i) <- companion_row ~q:(chain_modulus params t) rows.(i));
    Mutex.lock memo.pm_mutex;
    let publish table i fresh =
      let t = positions.(i) in
      if Array.length table.(t) = 0 then begin
        table.(t) <- fresh;
        if e.pe_resident then begin
          let grown = 8 * (params.n + 1) in
          e.pe_bytes <- e.pe_bytes + grown;
          memo.pm_bytes <- memo.pm_bytes + grown
        end;
        fresh
      end
      else table.(t)
    in
    Array.iter
      (fun i ->
        rows.(i) <- publish e.pe_rows i rows.(i);
        if need.(i) then comp.(i) <- publish e.pe_comp i comp.(i))
      missing;
    plain_evict memo;
    Mutex.unlock memo.pm_mutex
  end;
  (rows, comp)

let plain_eval keys ~scale ~level values =
  fst
    (plain_rows keys (plain_entry keys ~scale values) ~positions:(Array.init level Fun.id)
       ~companion:(fun _ -> false))

let plain_weight keys ~scale ~level values =
  let params = keys.params in
  let rows, comp =
    plain_rows keys (plain_entry keys ~scale values) ~positions:(positions params level)
      ~companion:(needs_companion params ~level)
  in
  { rows; comp }

let plain_memo_usage keys =
  let memo = keys.plain in
  Mutex.lock memo.pm_mutex;
  let r = (memo.pm_entries, memo.pm_bytes) in
  Mutex.unlock memo.pm_mutex;
  r

(* Tests for inter-operation key and digit reuse: the memory-bounded LRU
   rotation-key cache (budget parsing, eviction order, deterministic
   bit-identical regeneration, domain-safety under budget pressure), the
   cross-op digit memo (reuse counting, invalidation on rewrite), lazy vs
   eager key switching, warm-cache persistence round-trips, and the serving
   layer's planning accounting (Key_budget).  The whole key-switching path
   is exact modular integer arithmetic and every key regenerates from a
   per-key derived RNG stream, so the tests assert bit identity — cache
   state may only ever change timing. *)

open Halo
open Halo_ckks
module Stats = Halo_runtime.Stats

let sample_values seed slots =
  let rng = Random.State.make [| seed |] in
  Array.init slots (fun _ -> Random.State.float rng 2.0 -. 1.0)

let exact_poly msg (a : Rns_poly.t) (b : Rns_poly.t) =
  if a.level <> b.level then Alcotest.failf "%s: levels %d vs %d" msg a.level b.level;
  if a.domain <> b.domain then Alcotest.failf "%s: domains differ" msg;
  Array.iteri
    (fun i ra ->
      if ra <> b.res.(i) then Alcotest.failf "%s: residue row %d differs" msg i)
    a.res

let exact_ct msg (a : Eval.ct) (b : Eval.ct) =
  exact_poly (msg ^ " c0") a.c0 b.c0;
  exact_poly (msg ^ " c1") a.c1 b.c1;
  if Int64.bits_of_float a.scale <> Int64.bits_of_float b.scale then
    Alcotest.failf "%s: scales differ" msg

let resident keys = (Keys.cache_stats keys).Keys.snap_resident_bytes

(* ------------------------------------------------------------------ *)
(* Budget parsing                                                      *)
(* ------------------------------------------------------------------ *)

let test_parse_budget () =
  Alcotest.(check int) "plain bytes" 123 (Keys.parse_budget "123");
  Alcotest.(check int) "kilo" 65536 (Keys.parse_budget "64K");
  Alcotest.(check int) "mega" (2 * 1024 * 1024) (Keys.parse_budget "2M");
  Alcotest.(check int) "giga" (1024 * 1024 * 1024) (Keys.parse_budget "1G");
  Alcotest.(check int) "empty means unbounded" 0 (Keys.parse_budget "");
  List.iter
    (fun s ->
      try
        ignore (Keys.parse_budget s);
        Alcotest.failf "malformed budget %S accepted" s
      with Invalid_argument _ -> ())
    [ "12Q"; "K"; "-3"; "1.5M" ]

(* ------------------------------------------------------------------ *)
(* LRU eviction order and deterministic regeneration                   *)
(* ------------------------------------------------------------------ *)

(* Generate three keys, shrink the budget to two: the least recently used
   key (offset 1) must be the one evicted, and refetching it must evict
   the then-LRU entry (offset 3) — observable through the hit/regeneration
   counters because regeneration is counted separately from first misses. *)
let test_lru_eviction_order () =
  let params = Params.test_small () in
  let keys = Keys.keygen ~seed:42 params in
  ignore (Keys.rotation_key keys ~offset:1);
  ignore (Keys.rotation_key keys ~offset:2);
  let two = resident keys in
  ignore (Keys.rotation_key keys ~offset:3);
  Keys.set_key_budget keys two;
  let s = Keys.cache_stats keys in
  Alcotest.(check int) "one eviction" 1 s.Keys.snap_evictions;
  Alcotest.(check bool) "resident set fits" true (resident keys <= two);
  Keys.reset_cache_stats keys;
  ignore (Keys.rotation_key keys ~offset:3);
  ignore (Keys.rotation_key keys ~offset:2);
  let s = Keys.cache_stats keys in
  Alcotest.(check int) "survivors are hits" 2 s.Keys.snap_hits;
  Alcotest.(check int) "no regeneration yet" 0 s.Keys.snap_regenerations;
  ignore (Keys.rotation_key keys ~offset:1);
  let s = Keys.cache_stats keys in
  Alcotest.(check int) "offset 1 was the evicted key" 1 s.Keys.snap_regenerations;
  Alcotest.(check int) "its return evicts the LRU" 1 s.Keys.snap_evictions;
  (* resident is now {2, 1}; the evicted LRU must have been offset 3 *)
  Keys.reset_cache_stats keys;
  ignore (Keys.rotation_key keys ~offset:3);
  let s = Keys.cache_stats keys in
  Alcotest.(check int) "offset 3 paid the second eviction" 1
    s.Keys.snap_regenerations

let raw_equal a b = Keys.switch_key_raw a = Keys.switch_key_raw b

let test_regeneration_bit_identity () =
  let params = Params.test_small () in
  let keys = Keys.keygen ~seed:7 params in
  let before = Keys.rotation_key keys ~offset:4 in
  (* a one-byte budget evicts everything except the newest entry (which the
     cache always keeps resident), so fetch a second key to push offset 4
     out *)
  ignore (Keys.rotation_key keys ~offset:6);
  Keys.set_key_budget keys 1;
  Alcotest.(check bool) "budget evicted the key" true
    ((Keys.cache_stats keys).Keys.snap_evictions >= 1);
  Keys.set_key_budget keys 0;
  Alcotest.(check bool) "regenerated bit-identically" true
    (raw_equal before (Keys.rotation_key keys ~offset:4));
  (* per-key derived streams: a sibling key set that generates other keys
     first (different global generation order) produces the same key *)
  let sib = Keys.keygen ~seed:7 params in
  ignore (Keys.rotation_key sib ~offset:9);
  ignore (Keys.rotation_key sib ~offset:2);
  Alcotest.(check bool) "generation order is irrelevant" true
    (raw_equal before (Keys.rotation_key sib ~offset:4))

(* ------------------------------------------------------------------ *)
(* Key generation                                                      *)
(* ------------------------------------------------------------------ *)

(* Key generation draws every random value first, in one fixed order, then
   builds the residues across the pool.  The key frame of a fresh set (its
   relinearization key) and of the set after one rotation key, as digests:
   the same whether generated sequentially or on the pool, and pinned to
   the digests of a construction that drew and built each residue in turn,
   so any draw moved in the stream shows. *)
let keygen_frames () =
  let params = Params.test_small () in
  let keys = Keys.keygen ~seed:0x4E1 params in
  let frame () =
    Digest.to_hex
      (Digest.string (Halo_persist.Codec.to_frame (Halo_persist.Codec.keys params) keys))
  in
  let relin = frame () in
  ignore (Keys.rotation_key keys ~offset:3);
  [ ("relin key", relin); ("rotation key 3", frame ()) ]

let test_keygen_pool_invariance () =
  Alcotest.(check (list (pair string string)))
    "sequential = pooled"
    (Domain_pool.sequentially keygen_frames)
    (keygen_frames ())

let test_keygen_golden () =
  Alcotest.(check (list (pair string string)))
    "key frame digests"
    [
      ("relin key", "049af2483e5ece4e2615d0b9999614d0");
      ("rotation key 3", "905fa73654edbebdf68715d0cc0e09aa");
    ]
    (keygen_frames ())

(* Four domains hammer five offsets under a budget that holds only two
   keys: constant eviction and regeneration must never surface a key that
   differs from the unbounded reference, and the counters must account for
   every lookup exactly (the mutex admits no lost updates). *)
let test_concurrent_eviction_race () =
  let params = Params.test_small () in
  let reference = Keys.keygen ~seed:11 params in
  let expected =
    List.map
      (fun o -> (o, Keys.switch_key_raw (Keys.rotation_key reference ~offset:o)))
      [ 1; 2; 3; 4; 5 ]
  in
  let keys = Keys.keygen ~seed:11 params in
  ignore (Keys.rotation_key keys ~offset:1);
  Keys.set_key_budget keys (2 * resident keys);
  Keys.reset_cache_stats keys;
  let worker d =
    Domain.spawn (fun () ->
        let ok = ref true in
        for i = 0 to 49 do
          let o = ((i + d) mod 5) + 1 in
          let sk = Keys.rotation_key keys ~offset:o in
          if Keys.switch_key_raw sk <> List.assoc o expected then ok := false
        done;
        !ok)
  in
  let ds = List.init 4 worker in
  List.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d saw only bit-identical keys" i)
        true (Domain.join d))
    ds;
  let s = Keys.cache_stats keys in
  Alcotest.(check int) "every lookup accounted" 200
    (s.Keys.snap_hits + s.Keys.snap_misses + s.Keys.snap_regenerations);
  Alcotest.(check bool) "the budget forced evictions" true
    (s.Keys.snap_evictions > 0);
  Alcotest.(check bool) "the resident set respects the budget" true
    (s.Keys.snap_resident_bytes <= s.Keys.snap_budget)

(* ------------------------------------------------------------------ *)
(* Cross-op digit memo                                                 *)
(* ------------------------------------------------------------------ *)

let test_digit_memo_reuse_and_invalidation () =
  let params = Params.test_small () in
  let keys = Keys.keygen ~seed:21 params in
  let ct = Eval.encrypt keys ~level:3 (sample_values 1 params.Params.slots) in
  Keys.reset_cache_stats keys;
  let a1 = Eval.rotate keys ct ~offset:1 in
  let a2 = Eval.rotate keys ct ~offset:2 in
  Alcotest.(check int) "second rotation reuses the digits" 1
    (Keys.cache_stats keys).Keys.snap_digit_hits;
  (* a rewrite yields a fresh c1; the memo must not leak across *)
  let sum = Eval.addcc keys a1 a2 in
  ignore (Eval.rotate keys sum ~offset:1);
  Alcotest.(check int) "a fresh ciphertext misses the memo" 1
    (Keys.cache_stats keys).Keys.snap_digit_hits;
  ignore (Eval.rotate keys sum ~offset:2);
  Alcotest.(check int) "but its second rotation hits" 2
    (Keys.cache_stats keys).Keys.snap_digit_hits;
  (* rescale rewrites both components: its output must decompose afresh *)
  let dropped = Eval.rescale keys (Eval.multcp keys ct (sample_values 2 params.Params.slots)) in
  ignore (Eval.rotate keys dropped ~offset:1);
  Alcotest.(check int) "rescaled ciphertext misses the memo" 2
    (Keys.cache_stats keys).Keys.snap_digit_hits;
  (* the memo may only change timing, never bits *)
  Eval.set_digit_cache false;
  let b1 = Eval.rotate keys ct ~offset:1 in
  let b2 = Eval.rotate keys ct ~offset:2 in
  Eval.set_digit_cache true;
  exact_ct "memo on/off, offset 1" a1 b1;
  exact_ct "memo on/off, offset 2" a2 b2

(* ------------------------------------------------------------------ *)
(* Lazy vs eager key switching                                         *)
(* ------------------------------------------------------------------ *)

let test_lazy_equals_eager () =
  let params = Params.test_small () in
  let keys = Keys.keygen ~seed:31 params in
  let ct = Eval.encrypt keys ~level:3 (sample_values 2 params.Params.slots) in
  let diag i =
    Array.init params.Params.slots (fun j ->
        (0.1 *. float_of_int (i + 1)) +. (0.01 *. float_of_int j))
  in
  let weighted = List.init 4 (fun i -> (i, Some (diag i))) in
  let l = Eval.rot_sum keys ~mode:`Lazy ct ~terms:weighted in
  let e = Eval.rot_sum keys ~mode:`Eager ct ~terms:weighted in
  exact_ct "weighted reduction, lazy = eager" l e;
  Alcotest.(check int) "weighted reduction consumes one level"
    (Eval.level ct - 1) (Eval.level l);
  let pure = List.init 3 (fun i -> (i + 1, None)) in
  exact_ct "pure reduction, lazy = eager"
    (Eval.rot_sum keys ~mode:`Lazy ct ~terms:pure)
    (Eval.rot_sum keys ~mode:`Eager ct ~terms:pure);
  (* evictions mid-group are bit-invisible *)
  Keys.set_key_budget keys (max 1 (resident keys / 2));
  exact_ct "evicting lazy = unbounded lazy" l
    (Eval.rot_sum keys ~mode:`Lazy ct ~terms:weighted);
  Keys.set_key_budget keys 0

(* ------------------------------------------------------------------ *)
(* Plaintext memo                                                      *)
(* ------------------------------------------------------------------ *)

let memo_entries keys = fst (Keys.plain_memo_usage keys)

(* Every memoized op on both c0 domains: addcp on an Eval-domain c0 (fresh
   encryption) and on a Coeff-domain c0 (a rescaled ciphertext forced to
   coefficients), multcp, and a weighted rot_sum that reads the special
   rows too. *)
let plain_ops keys ~v ~diags =
  let params = keys.Keys.params in
  let fresh = Eval.encrypt keys ~level:4 (sample_values 61 params.Params.slots) in
  let rescaled = Eval.rescale keys (Eval.multcp keys fresh (sample_values 62 params.Params.slots)) in
  Alcotest.(check bool) "fresh c0 is Eval" true (Rns_poly.domain fresh.c0 = Rns_poly.Eval);
  Alcotest.(check bool) "rescaled c0 is Eval" true (Rns_poly.domain rescaled.c0 = Rns_poly.Eval);
  (* Rescale keeps the NTT domain, so the Coeff-c0 branch of addcp gets the
     rescaled ciphertext forced to coefficients, as a loaded frame may be. *)
  let coeff_ct =
    Eval.of_parts
      ~c0:(Rns_poly.to_coeff params rescaled.c0)
      ~c1:(Rns_poly.to_coeff params rescaled.c1)
      ~scale:(Eval.scale rescaled)
  in
  Alcotest.(check bool) "forced c0 is Coeff" true (Rns_poly.domain coeff_ct.c0 = Rns_poly.Coeff);
  let terms = List.mapi (fun i d -> ((2 * i) - 1, Some d)) diags in
  fun () ->
    [
      ("addcp, Eval c0", Eval.addcp keys fresh v);
      ("addcp, Coeff c0", Eval.addcp keys coeff_ct v);
      ("multcp", Eval.multcp keys fresh v);
      ("weighted rot_sum", Eval.rot_sum keys fresh ~terms);
    ]

let check_same msg expected got =
  List.iter2 (fun (name, a) (_, b) -> exact_ct (msg ^ ", " ^ name) a b) expected got

(* Cold, warm and re-encoded-after-eviction plaintexts give the same
   ciphertext bits; the domain tags stay those of the unmemoized encoders. *)
let test_plain_memo_cold_warm_evicted () =
  let params = Params.test_small () in
  let keys = Keys.keygen ~seed:51 params in
  let v = sample_values 63 params.Params.slots in
  let diags = List.init 3 (fun i -> sample_values (64 + i) params.Params.slots) in
  let run = plain_ops keys ~v ~diags in
  let before = memo_entries keys in
  let cold = run () in
  (* v at two scales (the rescaled operand's differs) and three diagonals *)
  Alcotest.(check int) "cold run encodes five contents" (before + 5) (memo_entries keys);
  List.iter
    (fun (name, (ct : Eval.ct)) ->
      let want = if name = "addcp, Coeff c0" then Rns_poly.Coeff else Rns_poly.Eval in
      Alcotest.(check bool) (name ^ ": c0 domain kept") true (Rns_poly.domain ct.c0 = want))
    (List.filteri (fun i _ -> i < 3) cold);
  let scale = params.Params.scale in
  let held = Keys.plain_centered keys ~scale v in
  let warm = run () in
  Alcotest.(check int) "warm run adds no entry" (before + 5) (memo_entries keys);
  Alcotest.(check bool) "warm lookup is the memoized array" true
    (Keys.plain_centered keys ~scale v == held);
  check_same "cold = warm" cold warm;
  (* Fill past the cap with distinct vectors: v's entry, the least recently
     used, must go.  (Looking v up meanwhile would keep it fresh.) *)
  let fill i =
    ignore
      (Keys.plain_weight keys ~scale ~level:params.Params.max_level
         (sample_values (1000 + i) params.Params.slots))
  in
  let _, b0 = Keys.plain_memo_usage keys in
  fill 0;
  let per_entry = snd (Keys.plain_memo_usage keys) - b0 in
  let inserted = 1 + (Keys.plain_memo_cap / per_entry) + 1 in
  for i = 1 to inserted - 1 do
    fill i
  done;
  Alcotest.(check bool) "v's entry was evicted" true
    (Keys.plain_centered keys ~scale v != held);
  let entries, bytes = Keys.plain_memo_usage keys in
  Alcotest.(check bool) "the memo stays under its cap" true (bytes <= Keys.plain_memo_cap);
  Alcotest.(check bool) "evictions dropped entries" true (entries < before + 5 + inserted);
  Alcotest.(check bool) "the re-encoded coefficients are equal" true
    (Keys.plain_centered keys ~scale v = held);
  check_same "cold = after eviction" cold (run ())

(* A weighted group's plaintext: its companion rows c * 2^31 mod q sit
   exactly at the positions whose weighted bound admits them, cost one row
   each in the memo's accounting, and come back bit-identical after the
   entry is evicted and refilled. *)
let test_plain_memo_companions () =
  let params = Params.test_small () in
  let keys = Keys.keygen ~seed:55 params in
  let scale = params.Params.scale and slots = params.Params.slots in
  let level = params.Params.max_level and specials = Array.length params.Params.specials in
  let v = sample_values 95 slots in
  let bytes () = snd (Keys.plain_memo_usage keys) in
  let row_bytes = 8 * (params.Params.n + 1) in
  let rows = Keys.plain_eval keys ~scale ~level v in
  let b_rows = bytes () in
  let w = Keys.plain_weight keys ~scale ~level v in
  let digits = Params.digits params ~level in
  let used = ref 0 in
  Array.iteri
    (fun pos row ->
      let t = if pos < level then pos else params.Params.max_level + pos - level in
      let q = Ntt.q (Params.ntt_at params ~idx:t) in
      if pos < level then
        Alcotest.(check bool) (Printf.sprintf "position %d: the memoized row" t) true (row == rows.(pos));
      if Keys.weighted_terms ~q ~digits >= 1 then begin
        incr used;
        Alcotest.(check (array int)) (Printf.sprintf "position %d: companion" t)
          (Array.map (fun c -> Modarith.mul ~m:q c ((1 lsl 31) mod q)) row)
          w.comp.(pos)
      end
      else Alcotest.(check int) (Printf.sprintf "position %d: no companion" t) 0 (Array.length w.comp.(pos)))
    w.rows;
  (* test_small's base prime takes no companion; its other positions do. *)
  Alcotest.(check int) "companion rows" (level + specials - 1) !used;
  let grown = (specials + !used) * row_bytes in
  Alcotest.(check int) "special and companion rows counted" grown (bytes () - b_rows);
  let again = Keys.plain_weight keys ~scale ~level v in
  Alcotest.(check int) "warm lookup adds nothing" grown (bytes () - b_rows);
  Alcotest.(check bool) "warm companions are the memoized rows" true
    (Array.for_all2 ( == ) again.comp w.comp);
  (* Fill past the cap without touching v: its entry, the least recently
     used, is evicted, and a refill rebuilds both kinds of row with the
     same bits. *)
  let fill i = ignore (Keys.plain_weight keys ~scale ~level (sample_values (2000 + i) slots)) in
  let b0 = bytes () in
  fill 0;
  let per_entry = bytes () - b0 in
  for i = 1 to (Keys.plain_memo_cap / per_entry) + 1 do
    fill i
  done;
  let refilled = Keys.plain_weight keys ~scale ~level v in
  Alcotest.(check bool) "refilled rows are new arrays" true (refilled.rows.(0) != rows.(0));
  Alcotest.(check bool) "refilled rows, same bits" true (refilled.rows = w.rows);
  Alcotest.(check bool) "refilled companions, same bits" true (refilled.comp = w.comp)

(* Keys are the exact bits: -0.0 and 0.0 are different entries, while a
   short vector and its zero-padded form are the same content. *)
let test_plain_memo_signed_zero () =
  let params = Params.test_small () in
  let keys = Keys.keygen ~seed:52 params in
  let scale = params.Params.scale and slots = params.Params.slots in
  let before = memo_entries keys in
  let pos = Keys.plain_centered keys ~scale (Array.make slots 0.0) in
  let neg = Keys.plain_centered keys ~scale (Array.make slots (-0.0)) in
  Alcotest.(check int) "two entries" (before + 2) (memo_entries keys);
  Alcotest.(check bool) "distinct entries" true (pos != neg);
  Alcotest.(check bool) "the same encoding" true (pos = neg);
  Alcotest.(check bool) "short vector hits its padded form" true
    (Keys.plain_centered keys ~scale [| 0.5 |]
    == Keys.plain_centered keys ~scale (Array.init slots (fun j -> if j = 0 then 0.5 else 0.0)));
  Alcotest.(check bool) "another scale is another entry" true
    (Keys.plain_centered keys ~scale:(scale *. 2.0) [| 0.5 |]
    != Keys.plain_centered keys ~scale [| 0.5 |])

(* Four domains look the same six plaintexts up at once through every
   memoized op: each result must equal a sequential run on a twin key set,
   and concurrent misses on one content must leave exactly one entry. *)
let test_plain_memo_concurrent_race () =
  let params = Params.test_small () in
  let slots = params.Params.slots in
  let vectors = Array.init 6 (fun i -> sample_values (70 + i) slots) in
  let ops keys =
    let ct = Eval.encrypt keys ~level:3 (sample_values 69 slots) in
    fun i ->
      let v = vectors.(i) and w = vectors.((i + 1) mod 6) in
      [
        ("addcp", Eval.addcp keys ct v);
        ("multcp", Eval.multcp keys ct v);
        ("rot_sum", Eval.rot_sum keys ct ~terms:[ (0, Some v); (1, Some w) ]);
      ]
  in
  let reference = ops (Keys.keygen ~seed:53 params) in
  let expected = Array.init 6 reference in
  let keys = Keys.keygen ~seed:53 params in
  let run = ops keys in
  let before = memo_entries keys in
  (* All four start together on the same order, so they miss on the same
     content at once; the second half runs in per-domain orders. *)
  let ready = Atomic.make 0 in
  let worker d =
    Domain.spawn (fun () ->
        Atomic.incr ready;
        while Atomic.get ready < 4 do
          Domain.cpu_relax ()
        done;
        let ok = ref true in
        for r = 0 to 11 do
          let i = if r < 6 then r else ((r * (d + 1)) + d) mod 6 in
          List.iter2
            (fun (_, (a : Eval.ct)) (_, (b : Eval.ct)) ->
              if a.c0.res <> b.c0.res || a.c1.res <> b.c1.res
                 || a.c0.domain <> b.c0.domain
              then ok := false)
            expected.(i) (run i)
        done;
        !ok)
  in
  List.iteri
    (fun d h ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d matched the sequential run" d)
        true (Domain.join h))
    (List.init 4 worker);
  Alcotest.(check int) "one entry per content" (before + 6) (memo_entries keys)

(* The memo is never persisted: filling it leaves the key frame unchanged,
   and a restored key set starts empty and encodes identically. *)
let test_plain_memo_restore () =
  let params = Params.test_small () in
  let keys = Keys.keygen ~seed:54 params in
  let codec = Halo_persist.Codec.keys params in
  let frame k =
    let buf = Buffer.create 4096 in
    codec.encode buf k;
    Buffer.contents buf
  in
  let cold_frame = frame keys in
  let scale = params.Params.scale in
  for i = 0 to 3 do
    let v = sample_values (90 + i) params.Params.slots in
    ignore (Keys.plain_centered keys ~scale v);
    ignore (Keys.plain_weight keys ~scale ~level:3 v)
  done;
  Alcotest.(check bool) "memo entries are resident" true (memo_entries keys >= 4);
  Alcotest.(check bool) "the key frame ignores the memo" true (String.equal cold_frame (frame keys));
  let v = sample_values 80 params.Params.slots in
  let diags = List.init 2 (fun i -> sample_values (81 + i) params.Params.slots) in
  let warm = plain_ops keys ~v ~diags () in
  let restored = codec.decode (Halo_persist.Wire.reader cold_frame) in
  Alcotest.(check int) "a restored memo starts empty" 0 (memo_entries restored);
  check_same "restored = original" warm (plain_ops restored ~v ~diags ())

(* ------------------------------------------------------------------ *)
(* Warm-cache persistence                                              *)
(* ------------------------------------------------------------------ *)

(* Snapshot a key set whose cache is warm but partial (one key evicted),
   restore it, and check that surviving keys round-trip bitwise, the
   evicted key regenerates bitwise on demand, and the encryption RNG
   stream continues identically — a resume is independent of how much of
   the cache happened to be resident at the kill. *)
let test_persist_warm_cache_round_trip () =
  let params = Params.test_small () in
  let keys = Keys.keygen ~seed:5 params in
  ignore (Keys.rotation_key keys ~offset:1);
  ignore (Keys.rotation_key keys ~offset:2);
  ignore (Keys.rotation_key keys ~offset:3);
  Keys.set_key_budget keys (resident keys - 1);
  Alcotest.(check bool) "one key evicted before the snapshot" true
    ((Keys.cache_stats keys).Keys.snap_evictions >= 1);
  Keys.set_key_budget keys 0;
  let codec = Halo_persist.Codec.keys params in
  let buf = Buffer.create 4096 in
  codec.encode buf keys;
  let restored = codec.decode (Halo_persist.Wire.reader (Buffer.contents buf)) in
  List.iter2
    (fun (ga, a) (gb, b) ->
      Alcotest.(check int) "galois element round-trips" ga gb;
      Alcotest.(check bool) "warm key round-trips bitwise" true (raw_equal a b))
    (Keys.rotation_entries keys)
    (Keys.rotation_entries restored);
  let fresh = Keys.keygen ~seed:5 params in
  List.iter
    (fun offset ->
      Alcotest.(check bool)
        (Printf.sprintf "offset %d identical after restore" offset)
        true
        (raw_equal
           (Keys.rotation_key restored ~offset)
           (Keys.rotation_key fresh ~offset)))
    [ 1; 2; 3 ];
  let v = sample_values 4 params.Params.slots in
  exact_ct "encryption stream continues identically"
    (Eval.encrypt keys ~level:2 v)
    (Eval.encrypt restored ~level:2 v)

(* ------------------------------------------------------------------ *)
(* Stats folding and serve-side planning accounting                    *)
(* ------------------------------------------------------------------ *)

let test_fold_cache_stats () =
  let params = Params.test_small () in
  let keys = Keys.keygen ~seed:9 params in
  let ct = Eval.encrypt keys ~level:2 (sample_values 3 params.Params.slots) in
  Keys.reset_cache_stats keys;
  ignore (Eval.rotate keys ct ~offset:1);
  ignore (Eval.rotate keys ct ~offset:1);
  let st = Stats.create () in
  Halo_runtime.Lattice_backend.fold_cache_stats keys st;
  let s = Keys.cache_stats keys in
  Alcotest.(check int) "hits" s.Keys.snap_hits st.Stats.key_cache_hits;
  Alcotest.(check int) "misses" s.Keys.snap_misses st.Stats.key_cache_misses;
  Alcotest.(check int) "digit reuses" s.Keys.snap_digit_hits st.Stats.digit_reuses;
  Alcotest.(check int) "digit reuses count as saved decompositions"
    s.Keys.snap_digit_hits st.Stats.decompositions_saved;
  Alcotest.(check bool) "the second rotation was a key hit" true
    (st.Stats.key_cache_hits >= 1)

let rotation_program () =
  Dsl.build ~name:"rots" ~slots:64 ~max_level:16 (fun b ->
      let x = Dsl.input b "x" ~size:8 in
      match Dsl.rotate_many b x [ 1; 0; -2; 4 ] with
      | [ r1; r0; r2; r4 ] ->
        Dsl.output b (Dsl.add b (Dsl.add b r1 r0) (Dsl.add b r2 r4))
      | _ -> assert false)

let test_key_budget_accounting () =
  let p = rotation_program () in
  let per_key = Halo_cost.Cost_model.switch_key_bytes ~n:4096 ~level:8 in
  let r =
    Halo_serve.Key_budget.assess ~n:4096 ~level:8 ~budget:0 [ ("rots", p) ]
  in
  Alcotest.(check bool) "unbounded always fits" true
    (Halo_serve.Key_budget.fits r);
  Alcotest.(check int) "three distinct nonzero offsets" 3 r.r_union_offsets;
  Alcotest.(check int) "union priced per key" (3 * per_key) r.r_union_bytes;
  (match r.r_entries with
  | [ e ] ->
    Alcotest.(check string) "entry name" "rots" e.e_name;
    Alcotest.(check int) "entry offsets" 3 e.e_offsets;
    Alcotest.(check int) "entry bytes" (3 * per_key) e.e_bytes
  | es -> Alcotest.failf "expected one entry, got %d" (List.length es));
  (* two tenants of the same program share its keys: the union is flat *)
  let shared =
    Halo_serve.Key_budget.assess ~n:4096 ~level:8 ~budget:(2 * per_key)
      [ ("a", p); ("b", p) ]
  in
  Alcotest.(check int) "shared working set" 3 shared.r_union_offsets;
  Alcotest.(check bool) "two-key budget cannot hold three" false
    (Halo_serve.Key_budget.fits shared);
  Alcotest.(check int) "two keys stay warm" 2
    (Halo_serve.Key_budget.resident_offsets shared)

let () =
  Alcotest.run "keycache"
    [
      ("budget", [ Alcotest.test_case "parse" `Quick test_parse_budget ]);
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "regeneration bit-identity" `Quick
            test_regeneration_bit_identity;
          Alcotest.test_case "concurrent eviction race" `Quick
            test_concurrent_eviction_race;
        ] );
      ( "keygen",
        [
          Alcotest.test_case "sequential = pooled" `Quick test_keygen_pool_invariance;
          Alcotest.test_case "golden key frames" `Quick test_keygen_golden;
        ] );
      ( "digits",
        [
          Alcotest.test_case "reuse and invalidation" `Quick
            test_digit_memo_reuse_and_invalidation;
        ] );
      ( "lazy",
        [ Alcotest.test_case "lazy = eager" `Quick test_lazy_equals_eager ] );
      ( "plain memo",
        [
          Alcotest.test_case "cold = warm = evicted" `Quick
            test_plain_memo_cold_warm_evicted;
          Alcotest.test_case "signed zeros" `Quick test_plain_memo_signed_zero;
          Alcotest.test_case "companion rows" `Quick test_plain_memo_companions;
          Alcotest.test_case "concurrent lookup race" `Quick
            test_plain_memo_concurrent_race;
          Alcotest.test_case "restore starts empty" `Quick test_plain_memo_restore;
        ] );
      ( "persist",
        [
          Alcotest.test_case "warm-cache round trip" `Quick
            test_persist_warm_cache_round_trip;
        ] );
      ( "stats",
        [
          Alcotest.test_case "fold into run stats" `Quick test_fold_cache_stats;
          Alcotest.test_case "serve budget accounting" `Quick
            test_key_budget_accounting;
        ] );
    ]

(* Hoisted-rotation and lazy-key-switching microbenchmarks.

   Section 1 (rotation groups): [Eval.rotate_many] (one digit decomposition
   shared by the whole group) vs the same group executed as independent
   [Eval.rotate] calls (one decomposition per member).

   Section 2 (matvec): a [matvec_diag]-shaped weighted rotate-and-sum,
   comparing the PR 5 hoisted path (rotate_many + per-member multcp /
   rescale / add) against the fused [Eval.rot_sum] in lazy and eager modes,
   with rotation-key cache hit rates and cross-op digit reuses reported,
   and the lazy form timed once more with every diagonal missing the key
   set's plaintext memo (cold) against the usual memo hits (warm).
   Before timing, every matvec group asserts that the fused op is
   bit-identical across configurations: lazy vs eager (per-member
   decomposition), digit cache off, a tight key budget that forces
   evictions mid-group, and a cold plaintext memo (a key set restored from
   the same key material) vs a warm one — the process exits nonzero on any
   mismatch, as it does if a hoisted rotation group mismatches its
   sequential expansion.

   Results go to stdout and, with [--json PATH], to a
   halo-bench-rotations/v3 JSON report (v2 rows plus [cold_memo_ns] and
   [memo_speedup] on the matvec rows). *)

open Halo_ckks

type result = {
  group : int;
  rn : int;
  limbs : int;
  hoisted_ns : float;
  sequential_ns : float;
  identical : bool;
}

type matvec_result = {
  m_group : int;
  m_rn : int;
  m_limbs : int;
  m_hoisted_ns : float;  (* PR 5: rotate_many + multcp/rescale per member *)
  m_lazy_ns : float;  (* fused rot_sum, shared digits, one mod-down *)
  m_eager_ns : float;  (* fused rot_sum, per-member decomposition *)
  m_cold_ns : float;  (* lazy rot_sum, every diagonal a plaintext-memo miss *)
  m_hit_rate : float;  (* rotation-key cache hit rate over a lazy burst *)
  m_digit_reuses : int;  (* cross-op digit-memo hits over the same burst *)
  m_identical : bool;  (* lazy = eager = uncached = evicted = cold memo, bitwise *)
}

(* A single rotation group runs for tens of milliseconds, so unlike the
   kernel bench this harness insists on at least four iterations per
   measurement (a lone iteration is at the mercy of one GC slice or
   scheduler hiccup) and drains pending major-heap garbage first so
   collection pauses are charged evenly to both paths. *)
let time_ns ~min_time f =
  ignore (Sys.opaque_identity (f ()));
  Gc.major ();
  let rec go iters =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if (dt >= min_time && iters >= 4) || iters >= 1 lsl 22 then
      dt *. 1e9 /. float_of_int iters
    else go (iters * 4)
  in
  go 1

let polys_equal (a : Rns_poly.t) (b : Rns_poly.t) =
  a.level = b.level && a.domain = b.domain
  && Array.for_all2 (fun x y -> x = y) a.res b.res

let cts_equal (a : Eval.ct) (b : Eval.ct) =
  polys_equal a.Eval.c0 b.Eval.c0
  && polys_equal a.Eval.c1 b.Eval.c1
  && Int64.bits_of_float a.Eval.scale = Int64.bits_of_float b.Eval.scale

(* Set from the command line; benches restore these after toggling the
   digit memo or the key budget for their baselines. *)
let digit_cache_default = ref true
let key_budget_default = ref 0

let bench_group ~min_time keys ct ~group =
  let offsets = List.init group (fun i -> i + 1) in
  (* Key generation is not part of the measurement. *)
  List.iter (fun o -> ignore (Keys.rotation_key keys ~offset:o)) offsets;
  (* These rows measure hoisting in isolation: with the cross-op digit memo
     on, the sequential path would reuse the ciphertext's decomposition
     across its separate rotate calls and the comparison would collapse to
     noise.  The matvec rows below measure the memo itself. *)
  Eval.set_digit_cache false;
  let sequential () = List.map (fun o -> Eval.rotate keys ct ~offset:o) offsets in
  let hoisted () = Eval.rotate_many keys ct ~offsets in
  let identical = List.for_all2 cts_equal (sequential ()) (hoisted ()) in
  let params = keys.Keys.params in
  let r =
    {
      group;
      rn = params.Params.n;
      limbs = Eval.level ct;
      hoisted_ns = time_ns ~min_time hoisted;
      sequential_ns = time_ns ~min_time sequential;
      identical;
    }
  in
  Eval.set_digit_cache !digit_cache_default;
  Printf.printf
    "group=%-2d n=%-5d limbs=%-2d  sequential %11.0f ns  hoisted %11.0f ns  %5.2fx  %s\n%!"
    r.group r.rn r.limbs r.sequential_ns r.hoisted_ns
    (r.sequential_ns /. r.hoisted_ns)
    (if r.identical then "bit-identical" else "MISMATCH");
  r

let bench_matvec ~min_time keys ct ~group =
  let params = keys.Keys.params in
  let offsets = List.init group (fun i -> i) in
  let st = Random.State.make [| 0xd1a6; group |] in
  let diags =
    List.map
      (fun _ ->
        Array.init params.Params.slots (fun _ -> Random.State.float st 2.0 -. 1.0))
      offsets
  in
  let terms = List.map2 (fun o d -> (o, Some d)) offsets diags in
  List.iter
    (fun o -> if o <> 0 then ignore (Keys.rotation_key keys ~offset:o))
    offsets;
  (* PR 5 hoisted path: shared digits within the rotate_many group, then a
     multcp + rescale per member and an add chain. *)
  let hoisted () =
    let rs = Eval.rotate_many keys ct ~offsets in
    let members =
      List.map2 (fun r d -> Eval.rescale keys (Eval.multcp keys r d)) rs diags
    in
    match members with
    | m :: ms -> List.fold_left (Eval.addcc keys) m ms
    | [] -> assert false
  in
  let lazy_run () = Eval.rot_sum keys ~mode:`Lazy ct ~terms in
  let eager_run () = Eval.rot_sum keys ~mode:`Eager ct ~terms in
  (* Bit-identity of the fused op across every cache configuration.  The
     baseline is the uncached eager form: per-member decomposition with the
     digit memo disabled. *)
  Eval.set_digit_cache false;
  let base = eager_run () in
  Eval.set_digit_cache !digit_cache_default;
  let ok_lazy = cts_equal base (lazy_run ()) in
  let ok_eager = cts_equal base (eager_run ()) in
  (* A budget of half the resident set forces evictions; regeneration must
     be bit-invisible. *)
  let snap = Keys.cache_stats keys in
  Keys.set_key_budget keys (max 1 (snap.Keys.snap_resident_bytes / 2));
  let ok_evicted = cts_equal base (lazy_run ()) in
  Keys.set_key_budget keys !key_budget_default;
  (* The same key material with an empty plaintext memo: every diagonal is
     encoded afresh, and must give the warm memo's bits. *)
  let cold_keys =
    Keys.of_parts params ~secret:keys.Keys.secret.Keys.coeffs ~pk0:keys.Keys.pk0
      ~pk1:keys.Keys.pk1 ~relin:(Keys.relin_key keys)
      ~rotations:(Keys.rotation_entries keys) ~rng:(Keys.rng_state keys)
  in
  let ok_cold_memo = cts_equal base (Eval.rot_sum cold_keys ~mode:`Lazy ct ~terms) in
  (* The PR 5 path rescales per member, so it is numerically close but not
     bitwise comparable; bound the drift against the fused result. *)
  let close =
    let a = Eval.decrypt keys (hoisted ()) in
    let b = Eval.decrypt keys base in
    let m = ref 0.0 in
    Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.(i)))) a;
    !m < 1e-3
  in
  if not close then prerr_endline "bench_rotations: matvec hoisted/fused drift";
  let identical = ok_lazy && ok_eager && ok_evicted && ok_cold_memo && close in
  (* Hit rate and digit reuse over a warm lazy burst (the first call may
     regenerate keys evicted by the tight-budget check above). *)
  Keys.reset_cache_stats keys;
  for _ = 1 to 8 do
    ignore (Sys.opaque_identity (lazy_run ()))
  done;
  let s = Keys.cache_stats keys in
  let lookups = s.Keys.snap_hits + s.Keys.snap_misses + s.Keys.snap_regenerations in
  let hit_rate =
    if lookups = 0 then 1.0
    else float_of_int s.Keys.snap_hits /. float_of_int lookups
  in
  let digit_reuses = s.Keys.snap_digit_hits in
  Keys.reset_cache_stats keys;
  (* Cold memo: a fresh last bit in each diagonal's first slot makes every
     call a memo miss at the cost of an unmemoized encode. *)
  let calls = ref 0 in
  let cold_run () =
    incr calls;
    let fresh d =
      let d = Array.copy d in
      d.(0) <- Int64.float_of_bits (Int64.logxor (Int64.bits_of_float d.(0)) (Int64.of_int !calls));
      d
    in
    Eval.rot_sum keys ~mode:`Lazy ct
      ~terms:(List.map2 (fun o d -> (o, Some (fresh d))) offsets diags)
  in
  let r =
    {
      m_group = group;
      m_rn = params.Params.n;
      m_limbs = Eval.level ct;
      m_hoisted_ns = time_ns ~min_time hoisted;
      m_lazy_ns = time_ns ~min_time lazy_run;
      m_eager_ns = time_ns ~min_time eager_run;
      m_cold_ns = time_ns ~min_time cold_run;
      m_hit_rate = hit_rate;
      m_digit_reuses = digit_reuses;
      m_identical = identical;
    }
  in
  Printf.printf
    "matvec=%-2d n=%-5d limbs=%-2d  hoisted %11.0f ns  lazy %11.0f ns  eager \
     %11.0f ns  cold memo %11.0f ns  %5.2fx  hit_rate %.2f  digit_reuses %d  %s\n%!"
    r.m_group r.m_rn r.m_limbs r.m_hoisted_ns r.m_lazy_ns r.m_eager_ns r.m_cold_ns
    (r.m_hoisted_ns /. r.m_lazy_ns)
    r.m_hit_rate r.m_digit_reuses
    (if r.m_identical then "bit-identical" else "MISMATCH");
  r

let json_of_results ~min_time results matvecs =
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"halo-bench-rotations/v3\",\n";
  Buffer.add_string b (Printf.sprintf "  \"pool\": %d,\n" (Domain_pool.size ()));
  Buffer.add_string b (Printf.sprintf "  \"min_time_s\": %g,\n" min_time);
  Buffer.add_string b "  \"results\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"group\": %d, \"n\": %d, \"limbs\": %d, \
            \"hoisted_ns\": %.1f, \"sequential_ns\": %.1f, \"speedup\": %.2f, \
            \"bit_identical\": %b }%s\n"
           r.group r.rn r.limbs r.hoisted_ns r.sequential_ns
           (r.sequential_ns /. r.hoisted_ns)
           r.identical
           (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string b "  ],\n";
  Buffer.add_string b "  \"matvec\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"matvec_group\": %d, \"n\": %d, \"limbs\": %d, \
            \"hoisted_ns\": %.1f, \"lazy_ns\": %.1f, \"eager_ns\": %.1f, \
            \"lazy_speedup\": %.2f, \"eager_speedup\": %.2f, \
            \"cold_memo_ns\": %.1f, \"memo_speedup\": %.2f, \
            \"hit_rate\": %.2f, \"digit_reuses\": %d, \"bit_identical\": %b \
            }%s\n"
           r.m_group r.m_rn r.m_limbs r.m_hoisted_ns r.m_lazy_ns r.m_eager_ns
           (r.m_hoisted_ns /. r.m_lazy_ns)
           (r.m_eager_ns /. r.m_lazy_ns)
           r.m_cold_ns (r.m_cold_ns /. r.m_lazy_ns)
           r.m_hit_rate r.m_digit_reuses r.m_identical
           (if i = List.length matvecs - 1 then "" else ",")))
    matvecs;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let () =
  let log_n = ref 12 in
  let limbs = ref 8 in
  let groups = ref [ 2; 4; 8 ] in
  let min_time = ref 0.2 in
  let json_path = ref "" in
  let key_budget = ref "" in
  let no_digit_cache = ref false in
  let set_groups s =
    groups := List.map int_of_string (String.split_on_char ',' s)
  in
  let spec =
    [
      ("--log-n", Arg.Set_int log_n, "log2 ring size (default 12)");
      ("--limbs", Arg.Set_int limbs, "ciphertext level / limb count (default 8)");
      ("--groups", Arg.String set_groups, "CSV of group sizes (default 2,4,8)");
      ("--min-time", Arg.Set_float min_time, "seconds per measurement (default 0.2)");
      ("--json", Arg.Set_string json_path, "write a JSON report to PATH");
      ( "--key-budget",
        Arg.Set_string key_budget,
        "rotation-key byte budget with K/M/G suffix (0/empty = unbounded)" );
      ( "--no-digit-cache",
        Arg.Set no_digit_cache,
        "disable the cross-op digit memo for the timed runs" );
      ( "--tiny",
        Arg.Unit
          (fun () ->
            log_n := 8;
            limbs := 4;
            groups := [ 2; 4 ];
            min_time := 0.01),
        "CI smoke mode: small ring, short measurements" );
    ]
  in
  Arg.parse spec (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "bench_rotations: hoisted vs sequential rotation and lazy key-switch timings";
  let params =
    Params.make ~log_n:!log_n ~max_level:!limbs ~base_bits:31 ~scale_bits:27 ()
  in
  Printf.printf "rotation bench: pool=%d n=%d limbs=%d groups=%s\n%!"
    (Domain_pool.size ()) params.Params.n !limbs
    (String.concat "," (List.map string_of_int !groups));
  let keys = Keys.keygen ~seed:0xa11ce params in
  if !key_budget <> "" then begin
    key_budget_default := Keys.parse_budget !key_budget;
    Keys.set_key_budget keys !key_budget_default
  end;
  digit_cache_default := not !no_digit_cache;
  Eval.set_digit_cache !digit_cache_default;
  let st = Random.State.make [| 0x207a7e; !log_n |] in
  let values =
    Array.init params.Params.slots (fun _ -> Random.State.float st 2.0 -. 1.0)
  in
  let ct = Eval.encrypt keys ~level:!limbs values in
  let results =
    List.map (fun group -> bench_group ~min_time:!min_time keys ct ~group) !groups
  in
  let matvecs =
    List.map
      (fun group -> bench_matvec ~min_time:!min_time keys ct ~group)
      (List.filter (fun g -> g >= 2) !groups)
  in
  if !json_path <> "" then begin
    let oc = open_out !json_path in
    output_string oc (json_of_results ~min_time:!min_time results matvecs);
    close_out oc;
    Printf.printf "wrote %s\n%!" !json_path
  end;
  if
    List.exists (fun r -> not r.identical) results
    || List.exists (fun r -> not r.m_identical) matvecs
  then begin
    prerr_endline "bench_rotations: bit-identity FAILED";
    exit 1
  end

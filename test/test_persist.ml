(* Tests for the durable checkpointing layer: framed codec round-trips,
   adversarial corruption (every failure mode must surface as
   [Halo_error.Persist_error], never [Failure] or a silent garbage decode),
   journal retention and corrupt-tail discard, and the headline property —
   a run killed after any checkpoint write resumes bit-identically, outputs
   and statistics both. *)

open Halo
open Halo_ckks
module Codec = Halo_persist.Codec
module Store = Halo_persist.Store
module Journal = Halo_persist.Journal
module Wire = Halo_persist.Wire
module Crc32 = Halo_persist.Crc32
module Ref_run = Halo_persist.Ref_run
module Stats = Halo_runtime.Stats

(* Exact stats comparison, printed as the stats line on failure. *)
let stats_t =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (Stats.to_string s))
    Stats.equal

let params () = Params.test_small ()

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                 *)
(* ------------------------------------------------------------------ *)

let rm_rf = Fixture.rm_rf
let fresh_dir = Fixture.fresh_dir

let write_raw path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let read_raw path = In_channel.with_open_bin path In_channel.input_all

let save ?fingerprint a ~path v = ignore (Store.save ?fingerprint a ~path v)

(* ------------------------------------------------------------------ *)
(* Codec round-trips                                                   *)
(* ------------------------------------------------------------------ *)

let random_poly p ~level seed =
  let st = Random.State.make [| seed |] in
  Rns_poly.of_centered_coeffs p ~level
    (Array.init p.Params.n (fun _ -> Random.State.int st 4096 - 2048))

let test_rns_roundtrip_coeff () =
  let p = params () in
  let dir = fresh_dir "rns-coeff" in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "poly.halo" in
  let r = random_poly p ~level:3 42 in
  save (Codec.rns p) ~path r;
  let r' = Store.load (Codec.rns p) ~path in
  Alcotest.(check bool) "bit-identical round-trip" true (r = r');
  rm_rf dir

let test_rns_roundtrip_eval_resident () =
  (* An Eval-domain polynomial must round-trip NTT-resident: the decoded
     residues are structurally equal to the originals, with no inverse
     transform on either side. *)
  let p = params () in
  let dir = fresh_dir "rns-eval" in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "poly.halo" in
  let e = Rns_poly.to_eval p (random_poly p ~level:4 43) in
  save (Codec.rns p) ~path e;
  let e' = Store.load (Codec.rns p) ~path in
  Alcotest.(check bool) "decoded in Eval domain" true
    (Rns_poly.domain e' = Rns_poly.Eval);
  Alcotest.(check bool) "NTT-resident residues identical" true (e = e');
  Alcotest.(check bool) "coefficients agree after inverse" true
    (Rns_poly.centered_coeffs p e = Rns_poly.centered_coeffs p e');
  rm_rf dir

let test_lattice_ct_roundtrip () =
  let p = params () in
  let keys = Keys.keygen ~seed:5 p in
  let dir = fresh_dir "lattice-ct" in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "ct.halo" in
  let v = Array.init p.Params.slots (fun i -> sin (float_of_int i)) in
  let ct = Eval.encrypt keys ~level:4 v in
  save (Codec.lattice_ct p) ~path ct;
  let ct' = Store.load (Codec.lattice_ct p) ~path in
  Alcotest.(check int) "level" (Eval.level ct) (Eval.level ct');
  Alcotest.(check (float 0.0)) "scale" (Eval.scale ct) (Eval.scale ct');
  Alcotest.(check bool) "decrypts bit-identically" true
    (Eval.decrypt keys ct = Eval.decrypt keys ct');
  rm_rf dir

let test_keys_roundtrip () =
  let p = params () in
  let keys = Keys.keygen ~seed:5 p in
  (* Rotation keys are generated on demand; materialize one so the store
     carries it and both sides key-switch with identical material. *)
  ignore (Keys.rotation_key keys ~offset:1);
  let dir = fresh_dir "keys" in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "keys.halo" in
  save (Codec.keys p) ~path keys;
  let keys' = Store.load (Codec.keys p) ~path in
  let v = Array.init p.Params.slots (fun i -> cos (float_of_int i)) in
  let ct = Eval.encrypt keys ~level:p.Params.max_level v in
  Alcotest.(check bool) "loaded secret decrypts bit-identically" true
    (Eval.decrypt keys ct = Eval.decrypt keys' ct);
  (* Rotation keys survive: key switching with the loaded material is the
     same deterministic computation. *)
  let a = Eval.decrypt keys (Eval.rotate keys ct ~offset:1) in
  let b = Eval.decrypt keys (Eval.rotate keys' ct ~offset:1) in
  Alcotest.(check bool) "rotation keys round-trip" true (a = b);
  rm_rf dir

let dyn name = Ir.Dyn { name; add = 0; div = 1; rem = false }

let training_program ?(name = "persist") () =
  Dsl.build ~name ~slots:64 ~max_level:16 (fun b ->
      let x = Dsl.input b "x" ~size:8 in
      let outs =
        Dsl.for_ b ~count:(dyn "K")
          ~init:[ Dsl.const b 1.0; x ]
          (fun b -> function
            | [ acc; v ] ->
              [ Dsl.mul b acc (Dsl.const b 0.5); Dsl.add b v (Dsl.mul b v acc) ]
            | _ -> assert false)
      in
      List.iter (Dsl.output b) outs)
  |> Strategy.compile ~strategy:Strategy.Halo

let test_program_roundtrip () =
  let dir = fresh_dir "program" in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "prog.halo" in
  let p = training_program () in
  save Codec.program ~path p;
  Alcotest.(check bool) "compiled program round-trips" true
    (Store.load Codec.program ~path = p);
  rm_rf dir

let test_rng_roundtrip () =
  let st = Random.State.make [| 0xC0FFEE |] in
  ignore (Random.State.float st 1.0);
  let b = Buffer.create 64 in
  Codec.encode_rng b st;
  let st' = Codec.decode_rng (Wire.reader (Buffer.contents b)) in
  for i = 1 to 200 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "draw %d replays" i)
      (Random.State.float st 1.0)
      (Random.State.float st' 1.0)
  done

let test_stats_roundtrip () =
  let s = Stats.create () in
  s.Stats.addcc <- 3;
  s.Stats.multcc <- 7;
  s.Stats.bootstrap <- 2;
  s.Stats.total_latency_us <- 123.5;
  s.Stats.retries <- 4;
  s.Stats.checkpoint_writes <- 9;
  s.Stats.checkpoint_bytes <- 4096;
  s.Stats.guard_trips <- 1;
  let b = Buffer.create 64 in
  Codec.encode_stats b s;
  let s' = Codec.decode_stats (Wire.reader (Buffer.contents b)) in
  Alcotest.check stats_t "all counters round-trip" s s'

(* Counter k (in declaration order) holds k, or k + 0.25 for a latency. *)
let numbered_stats () =
  {
    Stats.addcc = 1;
    addcp = 2;
    subcc = 3;
    multcc = 4;
    multcp = 5;
    rotate = 6;
    rescale = 7;
    modswitch = 8;
    bootstrap = 9;
    total_latency_us = 10.25;
    bootstrap_latency_us = 11.25;
    injected_faults = 12;
    retries = 13;
    checkpoint_restores = 14;
    backoff_us = 15.25;
    checkpoint_writes = 16;
    checkpoint_bytes = 17;
    guard_trips = 18;
    key_switches = 19;
    hoisted_groups = 20;
    decompositions_saved = 21;
    deadline_aborts = 22;
    key_cache_hits = 23;
    key_cache_misses = 24;
    key_cache_evictions = 25;
    key_cache_regens = 26;
    digit_reuses = 27;
    lazy_rotsums = 28;
    rescues = 29;
    rescue_aborts = 30;
    replans = 31;
  }

(* The stats frame is positional and fixed-width: pin its bytes, and check
   that a version-3 (22 counters) or version-4 (28 counters) prefix decodes
   with the later counters left at zero. *)
let test_stats_wire_format () =
  let s = numbered_stats () in
  let b = Buffer.create 256 in
  Codec.encode_stats b s;
  let bytes = Buffer.contents b in
  Alcotest.(check int) "frame length" 248 (String.length bytes);
  Alcotest.(check string) "frame digest" "c688dae6479e5b89e318bab3fe7658af"
    (Digest.to_hex (Digest.string bytes));
  Alcotest.(check bool) "full frame round-trips" true
    (s = Codec.decode_stats (Wire.reader bytes));
  let prefix ~version ~counters =
    let r = Wire.reader ~version (String.sub bytes 0 (8 * counters)) in
    let s' = Codec.decode_stats r in
    Alcotest.(check int)
      (Printf.sprintf "v%d prefix consumed" version)
      (8 * counters) r.Wire.pos;
    s'
  in
  let v3 = prefix ~version:3 ~counters:22 in
  Alcotest.(check bool) "v3 restores counters 1-22, zeroes the rest" true
    ({
       s with
       key_cache_hits = 0;
       key_cache_misses = 0;
       key_cache_evictions = 0;
       key_cache_regens = 0;
       digit_reuses = 0;
       lazy_rotsums = 0;
       rescues = 0;
       rescue_aborts = 0;
       replans = 0;
     }
     = v3);
  let v4 = prefix ~version:4 ~counters:28 in
  Alcotest.(check bool) "v4 restores counters 1-28, zeroes the rest" true
    ({ s with rescues = 0; rescue_aborts = 0; replans = 0 } = v4)

let backend_cfg ?(seed = 7) (p : Ir.program) =
  {
    Codec.slots = p.slots;
    max_level = p.max_level;
    scale_bits = 51;
    seed;
    enc_noise = 1e-7;
    mult_noise = 1e-8;
    boot_noise = 1e-5;
    rescale_noise = 3e-8;
  }

let manifest ?(guard_every = 0) ?(every_n = 1) ?(retain = 4) ?(seed = 7)
    ~bindings ~inputs prog =
  {
    Codec.prog;
    strategy = "halo";
    bindings;
    inputs;
    backend = backend_cfg ~seed prog;
    every_n;
    retain;
    guard_every;
    guard_margin = Halo_runtime.Guard.default_margin;
    rescue = false;
    rescue_margin = Halo_runtime.Noise_monitor.default_rescue_margin;
    max_rescues = Halo_runtime.Noise_monitor.default_max_rescues;
  }

let x_input () = Array.init 8 (fun i -> 0.05 +. (float_of_int i /. 10.0))

let test_manifest_roundtrip () =
  let dir = fresh_dir "manifest" in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "manifest.halo" in
  let m =
    manifest ~guard_every:2 ~every_n:3 ~retain:5
      ~bindings:[ ("K", 6) ]
      ~inputs:[ ("x", x_input ()) ]
      (training_program ())
  in
  save Codec.manifest ~path m;
  let m' = Store.load Codec.manifest ~path in
  Alcotest.(check bool) "manifest round-trips" true (m = m');
  Alcotest.(check int64) "fingerprint is stable"
    (Codec.manifest_fingerprint m)
    (Codec.manifest_fingerprint m');
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Adversarial corruption: always Persist_error, never Failure          *)
(* ------------------------------------------------------------------ *)

let expect_persist name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Persist_error, decode succeeded" name
  | exception Halo_error.Persist_error _ -> ()
  | exception e ->
    Alcotest.failf "%s: expected Persist_error, got %s" name
      (Printexc.to_string e)

(* A fresh valid artifact to corrupt, plus its loader. *)
let with_artifact f =
  let p = params () in
  let dir = fresh_dir "adversarial" in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "victim.halo" in
  save (Codec.rns p) ~path (random_poly p ~level:3 7);
  f ~p ~path ~bytes:(read_raw path);
  rm_rf dir

let refix_crc b =
  let len = Bytes.length b in
  Bytes.set_int32_le b (len - 4)
    (Crc32.string ~pos:0 ~len:(len - 4) (Bytes.to_string b))

let test_reject_zero_length () =
  with_artifact (fun ~p ~path ~bytes:_ ->
      write_raw path "";
      expect_persist "zero-length file" (fun () -> Store.load (Codec.rns p) ~path))

let test_reject_truncation () =
  with_artifact (fun ~p ~path ~bytes ->
      let total = String.length bytes in
      List.iter
        (fun keep ->
          write_raw path (String.sub bytes 0 keep);
          expect_persist
            (Printf.sprintf "truncated to %d/%d bytes" keep total)
            (fun () -> Store.load (Codec.rns p) ~path))
        [ 1; 4; 21; 22; 26; total / 2; total - 1 ])

let test_reject_bit_flips () =
  (* Flip a byte at every header offset and at a stride through the payload
     and trailer; each single flip must be detected.  A flip inside the
     stored CRC makes the checksum disagree with the (intact) frame, so the
     trailer positions are covered too. *)
  with_artifact (fun ~p ~path ~bytes ->
      let total = String.length bytes in
      let positions = ref [] in
      for i = 0 to 25 do
        positions := i :: !positions
      done;
      let i = ref 26 in
      while !i < total do
        positions := !i :: !positions;
        i := !i + 97
      done;
      positions := (total - 1) :: !positions;
      List.iter
        (fun pos ->
          let b = Bytes.of_string bytes in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
          write_raw path (Bytes.to_string b);
          expect_persist
            (Printf.sprintf "bit flip at byte %d" pos)
            (fun () -> Store.load (Codec.rns p) ~path))
        !positions)

let test_reject_version_mismatch () =
  (* Patch the version byte AND recompute the CRC, so the only thing wrong
     with the frame is that a future format wrote it. *)
  with_artifact (fun ~p ~path ~bytes ->
      let b = Bytes.of_string bytes in
      Bytes.set b 4 (Char.chr 9);
      refix_crc b;
      write_raw path (Bytes.to_string b);
      expect_persist "future format version" (fun () -> Store.load (Codec.rns p) ~path))

let test_reject_fingerprint_mismatch () =
  (* Patch the parameter fingerprint (CRC corrected): a store written under
     different parameters must be rejected, not decoded into nonsense. *)
  with_artifact (fun ~p ~path ~bytes ->
      let b = Bytes.of_string bytes in
      for i = 6 to 13 do
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF))
      done;
      refix_crc b;
      write_raw path (Bytes.to_string b);
      expect_persist "foreign parameter fingerprint" (fun () ->
          Store.load (Codec.rns p) ~path))

(* The reason a frame was refused: the stamp check and the key-shape check
   must be told apart. *)
let persist_reason name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Persist_error, decode succeeded" name
  | exception Halo_error.Persist_error { reason; _ } -> reason
  | exception e ->
    Alcotest.failf "%s: expected Persist_error, got %s" name (Printexc.to_string e)

(* FNV-1a as [Params.fingerprint] computes it, over the fields of the
   earlier one-special-prime layout: n, max_level, the ciphertext moduli,
   one 31-bit special prime, the scale and the error width. *)
let one_special_fingerprint (p : Params.t) ~special =
  let fnv h v =
    let rec go h v i =
      if i = 8 then h
      else
        go (Int64.mul (Int64.logxor h (Int64.of_int (v land 0xff))) 0x100000001b3L) (v lsr 8) (i + 1)
    in
    go h v 0
  in
  let bits f = Int64.to_int (Int64.bits_of_float f) land max_int in
  List.fold_left fnv 0xcbf29ce484222325L
    ((p.n :: p.max_level :: Array.to_list p.moduli)
    @ [ special; bits p.scale; bits p.sigma ])

let test_reject_old_special_set () =
  (* A key frame of the one-special-prime layout -- one digit per ciphertext
     prime, each spanning L + 1 chain positions -- stamped with that
     layout's fingerprint.  The store must refuse it on the stamp, before
     the key-shape check ever sees the digits. *)
  let p = params () in
  let keys = Keys.keygen ~seed:5 p in
  let special = Primes.ntt_prime_below ~n:p.n (p.moduli.(0) - 1) in
  let old_fp = one_special_fingerprint p ~special in
  Alcotest.(check bool) "special set enters the fingerprint" false
    (Int64.equal old_fp (Params.fingerprint p));
  let payload b =
    Wire.int_array b keys.secret.coeffs;
    (Codec.rns p).encode b keys.pk0;
    (Codec.rns p).encode b keys.pk1;
    let half () =
      Wire.i64 b p.max_level;
      for _ = 1 to p.max_level do
        Wire.i64 b (p.max_level + 1);
        for _ = 0 to p.max_level do
          Wire.int_array b (Array.make p.n 0)
        done
      done
    in
    half ();
    half ();
    Wire.list b (fun _ () -> ()) [];
    Codec.encode_rng b (Keys.rng_state keys)
  in
  let dir = fresh_dir "old-special" in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "keys.halo" in
  let load_stamped fingerprint =
    write_raw path (Codec.frame ~kind:Codec.Keys_frame ~fingerprint payload);
    persist_reason "old-layout key frame" (fun () -> Store.load (Codec.keys p) ~path)
  in
  Alcotest.(check string) "refused by the fingerprint check"
    "artifact was written under different parameters" (load_stamped old_fp);
  (* Control: the same bytes under the current stamp get as far as the
     shape check, so the refusal above is the stamp's. *)
  Alcotest.(check string) "same payload, current stamp: shape check"
    "malformed switching key" (load_stamped (Params.fingerprint p));
  rm_rf dir

let test_reject_wrong_kind () =
  with_artifact (fun ~p ~path ~bytes:_ ->
      expect_persist "rns frame read as a ciphertext" (fun () ->
          Store.load (Codec.lattice_ct p) ~path);
      expect_persist "rns frame read as key material" (fun () ->
          Store.load (Codec.keys p) ~path))

let test_reject_trailing_garbage () =
  with_artifact (fun ~p ~path ~bytes ->
      write_raw path (bytes ^ "\x00");
      expect_persist "one appended byte" (fun () -> Store.load (Codec.rns p) ~path))

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let fp = 0x5EED_FACEL

let entry ~loop_var ~iter =
  {
    Codec.seq = 0;
    loop_var;
    iter;
    carried = [ Codec.Plain (Array.init 4 (fun s -> float_of_int (iter + s))) ];
    rng = Random.State.make [| iter |];
    stats = Stats.create ();
  }

let ct = Codec.ref_ct ~slots:4 ~max_level:16
let scan dir = Journal.scan ~dir ~fingerprint:fp ~ct

let test_journal_retention_and_seq () =
  let dir = fresh_dir "journal" in
  let j = Journal.open_ ~dir ~fingerprint:fp ~retain:3 in
  for i = 0 to 4 do
    ignore (Journal.append j ~ct (entry ~loop_var:7 ~iter:i))
  done;
  ignore (Journal.append j ~ct (entry ~loop_var:9 ~iter:0));
  let s = scan dir in
  Alcotest.(check (list (pair string string))) "no damage" [] s.Journal.damaged;
  let iters_of var =
    List.filter_map
      (fun (e : _ Codec.entry) ->
        if e.Codec.loop_var = var then Some e.Codec.iter else None)
      s.Journal.entries
    |> List.sort compare
  in
  (* retention is per loop: var 7 keeps its newest three, var 9 keeps its
     only entry *)
  Alcotest.(check (list int)) "var 7 pruned to newest 3" [ 2; 3; 4 ]
    (iters_of 7);
  Alcotest.(check (list int)) "var 9 untouched" [ 0 ] (iters_of 9);
  (match Journal.newest_for s ~loop_var:7 with
   | Some e ->
     Alcotest.(check int) "newest iteration" 4 e.Codec.iter;
     Alcotest.(check bool) "carried values intact" true
       (e.Codec.carried = (entry ~loop_var:7 ~iter:4).Codec.carried)
   | None -> Alcotest.fail "no entry for loop 7");
  Alcotest.(check bool) "no entry for an unknown loop" true
    (Journal.newest_for s ~loop_var:1 = None);
  (* Sequence numbers continue across a re-open, so retention order is
     global and monotone even after a resume. *)
  let j2 = Journal.open_ ~dir ~fingerprint:fp ~retain:3 in
  let seq, bytes = Journal.append j2 ~ct (entry ~loop_var:7 ~iter:5) in
  Alcotest.(check int) "sequence continues after re-open" 6 seq;
  Alcotest.(check bool) "append reports the on-disk size" true (bytes > 0);
  rm_rf dir

let newest_ckpt dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
  |> List.sort compare |> List.rev
  |> function
  | f :: _ -> f
  | [] -> Alcotest.fail "journal is empty"

let test_journal_corrupt_tail () =
  let dir = fresh_dir "journal-corrupt" in
  let j = Journal.open_ ~dir ~fingerprint:fp ~retain:8 in
  for i = 0 to 2 do
    ignore (Journal.append j ~ct (entry ~loop_var:7 ~iter:i))
  done;
  (* A stray temporary (crash mid-append) is ignored entirely. *)
  write_raw (Filename.concat dir "entry-00.ckpt.tmp.123") "partial";
  let victim = newest_ckpt dir in
  let path = Filename.concat dir victim in
  let b = Bytes.of_string (read_raw path) in
  Bytes.set b 30 (Char.chr (Char.code (Bytes.get b 30) lxor 0x01));
  write_raw path (Bytes.to_string b);
  let s = scan dir in
  (match s.Journal.damaged with
   | [ (f, reason) ] ->
     Alcotest.(check string) "the flipped file is reported" victim f;
     Alcotest.(check bool) "reason is rendered" true (String.length reason > 0)
   | d -> Alcotest.failf "expected exactly one damaged file, got %d" (List.length d));
  (match Journal.newest_for s ~loop_var:7 with
   | Some e ->
     Alcotest.(check int) "recovery falls back to the previous entry" 1
       e.Codec.iter
   | None -> Alcotest.fail "intact entries were dropped with the corrupt one");
  (* The wrong fingerprint damages everything — entries from another run's
     manifest are never restored. *)
  let foreign = Journal.scan ~dir ~fingerprint:1L ~ct in
  Alcotest.(check bool) "foreign fingerprint restores nothing" true
    (foreign.Journal.entries = []);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Kill-and-resume bit-identity                                        *)
(* ------------------------------------------------------------------ *)

(* IEEE-bit-pattern equality: unlike [=] it treats equal NaNs as equal (the
   overflow workload below produces them) and distinguishes -0. from 0. *)
let bits_identical a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         Array.length x = Array.length y
         && Array.for_all2
              (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v)
              x y)
       a b

let complete = function
  | Ref_run.Rec.R.Complete { outputs; stats } -> (outputs, stats)
  | Ref_run.Rec.R.Degraded d ->
    Alcotest.failf "unexpected degradation: %s"
      (Ref_run.Rec.R.degraded_to_string d)

let baseline m =
  let dir = fresh_dir "baseline" in
  Ref_run.start ~dir m;
  let outcome, damaged = Ref_run.exec ~dir ~resume:false m in
  Alcotest.(check (list (pair string string))) "clean run, clean journal" []
    damaged;
  let outs, stats = complete outcome in
  rm_rf dir;
  (outs, stats)

let check_resumed ~name ~outs ~stats (outcome, damaged) =
  Alcotest.(check (list (pair string string)))
    (name ^ ": no damage") [] damaged;
  let outs', stats' = complete outcome in
  Alcotest.(check bool)
    (name ^ ": outputs bit-identical")
    true
    (bits_identical outs' outs);
  Alcotest.check stats_t (name ^ ": statistics identical") stats stats'

let test_kill_anywhere_resume_bit_identical () =
  let m =
    manifest ~every_n:1 ~retain:4
      ~bindings:[ ("K", 6) ]
      ~inputs:[ ("x", x_input ()) ]
      (training_program ())
  in
  let outs, stats = baseline m in
  let writes = stats.Stats.checkpoint_writes in
  Alcotest.(check bool) "baseline writes several checkpoints" true (writes >= 3);
  let crashes = ref 0 in
  for k = 1 to writes - 1 do
    let dir = fresh_dir (Printf.sprintf "kill%d" k) in
    Ref_run.start ~dir m;
    (match Ref_run.exec ~kill_after:k ~dir ~resume:false m with
     | _ -> ()
     | exception Ref_run.Simulated_crash _ -> incr crashes);
    check_resumed
      ~name:(Printf.sprintf "kill after %d writes" k)
      ~outs ~stats
      (Ref_run.exec ~dir ~resume:true m);
    rm_rf dir
  done;
  Alcotest.(check int) "every kill point actually crashed" (writes - 1)
    !crashes

let test_resume_after_corrupt_tail () =
  (* Crash, then rot the newest journal entry: resume must warn about the
     damaged file, fall back to the previous intact checkpoint, and still
     finish bit-identically. *)
  let m =
    manifest ~every_n:1 ~retain:4
      ~bindings:[ ("K", 6) ]
      ~inputs:[ ("x", x_input ()) ]
      (training_program ())
  in
  let outs, stats = baseline m in
  let dir = fresh_dir "rot" in
  Ref_run.start ~dir m;
  (match Ref_run.exec ~kill_after:3 ~dir ~resume:false m with
   | _ -> Alcotest.fail "expected the simulated crash"
   | exception Ref_run.Simulated_crash _ -> ());
  let jdir = Ref_run.journal_dir dir in
  let victim = newest_ckpt jdir in
  let path = Filename.concat jdir victim in
  let b = Bytes.of_string (read_raw path) in
  Bytes.set b 40 (Char.chr (Char.code (Bytes.get b 40) lxor 0x08));
  write_raw path (Bytes.to_string b);
  let outcome, damaged = Ref_run.exec ~dir ~resume:true m in
  Alcotest.(check bool) "the rotted file is warned about" true
    (List.exists (fun (f, _) -> String.equal f victim) damaged);
  let outs', stats' = complete outcome in
  Alcotest.(check bool) "outputs bit-identical" true (bits_identical outs' outs);
  Alcotest.check stats_t "statistics identical" stats stats';
  rm_rf dir

let test_manifest_reload_round () =
  (* The CLI path: start writes the manifest, load re-reads it, and the
     loaded manifest drives a resume that matches the original run. *)
  let m =
    manifest ~every_n:2 ~retain:3
      ~bindings:[ ("K", 6) ]
      ~inputs:[ ("x", x_input ()) ]
      (training_program ())
  in
  let outs, stats = baseline m in
  let dir = fresh_dir "reload" in
  Ref_run.start ~dir m;
  (match Ref_run.exec ~kill_after:2 ~dir ~resume:false m with
   | _ -> ()
   | exception Ref_run.Simulated_crash _ -> ());
  let m' = Ref_run.load ~dir in
  Alcotest.(check bool) "manifest survives the crash" true (m = m');
  check_resumed ~name:"resume from reloaded manifest" ~outs ~stats
    (Ref_run.exec ~dir ~resume:true m');
  rm_rf dir

let overflow_program () =
  Dsl.build ~name:"blowup" ~slots:64 ~max_level:16 (fun b ->
      let x = Dsl.input b "x" ~size:8 in
      let outs =
        Dsl.for_ b ~count:(dyn "K") ~init:[ x ] (fun b -> function
          | [ v ] -> [ Dsl.mul b v v ]
          | _ -> assert false)
      in
      List.iter (Dsl.output b) outs)
  |> Strategy.compile ~strategy:Strategy.Halo

let test_guard_trips_survive_resume () =
  (* Repeated squaring of 10 overflows to infinity after a few iterations;
     the periodic in-loop guard sees the non-finite carried value and
     counts trips.  A resumed run must report the same trip count. *)
  let m =
    manifest ~every_n:1 ~retain:4 ~guard_every:1
      ~bindings:[ ("K", 12) ]
      ~inputs:[ ("x", Array.make 8 10.0) ]
      (overflow_program ())
  in
  let outs, stats = baseline m in
  Alcotest.(check bool) "the guard tripped" true (stats.Stats.guard_trips > 0);
  let dir = fresh_dir "guard" in
  Ref_run.start ~dir m;
  (match Ref_run.exec ~kill_after:2 ~dir ~resume:false m with
   | _ -> Alcotest.fail "expected the simulated crash"
   | exception Ref_run.Simulated_crash _ -> ());
  check_resumed ~name:"guard trips after resume" ~outs ~stats
    (Ref_run.exec ~dir ~resume:true m);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* The driver without a journal                                        *)
(* ------------------------------------------------------------------ *)

let markov_program () =
  Parser.parse_program
    {|program "markov" slots=64 level=16 {
  input %0 "distribution" cipher size=4
  %1 = const [0.9, 0.8, 0.7, 0.6] size=4
  %2 = const [0.1, 0.2, 0.3, 0.4] size=4
  %4 = for K init(%0) {
    ^(%3):
    %5 = mul %3, %1
    %6 = rotate %3, 1
    %7 = mul %6, %2
    %8 = add %5, %7
    yield %8
  }
  output %4
}|}

let markov_inputs = [ ("distribution", [| 0.4; 0.3; 0.2; 0.1 |]) ]

module Ref_interp = Halo_runtime.Interp.Make (Ref_backend)

let test_exec_in_memory_is_interp () =
  (* Without a directory the driver is the interpreter behind an idle
     resilient runtime and, with or without an empty fault config, a
     fault injector that draws nothing: outputs and every counter must
     match a bare interpreter run bit for bit. *)
  let lin = Halo_ml.Linear_reg.benchmark in
  let cases =
    [
      ( lin.Halo_ml.Bench_def.build ~slots:64 ~size:16,
        Halo_ml.Workloads.default_bindings lin ~iters:4,
        lin.Halo_ml.Bench_def.gen_inputs ~seed:3 ~size:16 );
      (markov_program (), [ ("K", 25) ], markov_inputs);
    ]
  in
  List.iter
    (fun (traced, bindings, inputs) ->
      List.iter
        (fun strategy ->
          let prog = Strategy.compile ~bindings ~strategy traced in
          let name =
            Printf.sprintf "%s/%s" prog.Ir.prog_name
              (Strategy.to_string strategy)
          in
          let outs, stats =
            Ref_interp.run
              (Ref_backend.create ~slots:prog.slots ~max_level:prog.max_level
                 ~scale_bits:51 ())
              ~bindings ~inputs prog
          in
          let m = Ref_run.manifest ~strategy ~bindings ~inputs prog in
          List.iter
            (fun (how, faults) ->
              let outcome, damaged = Ref_run.exec ?faults m in
              Alcotest.(check int) (name ^ how ^ ": no journal") 0
                (List.length damaged);
              let outs', stats' = complete outcome in
              Alcotest.(check bool)
                (name ^ how ^ ": outputs bit-identical")
                true (bits_identical outs outs');
              Alcotest.check stats_t (name ^ how ^ ": statistics identical")
                stats stats')
            [
              ("", None);
              ( " with empty faults",
                Some (Halo_runtime.Faults.config ~seed:0 ()) );
            ])
        Strategy.all)
    cases

let test_guard_after_checkpointed_run () =
  (* [run --guard --checkpoint-dir]: the decrypt-time verdict, and the
     replan a breach triggers under rescue, must not depend on whether the
     run was journaled.  A margin of 0.01 forces the breach. *)
  let traced = markov_program () and bindings = [ ("K", 25) ] in
  let recompile strategy = Strategy.compile ~bindings ~strategy traced in
  List.iter
    (fun guard_margin ->
      let m =
        Ref_run.manifest ~guard_margin ~rescue:true ~strategy:Strategy.Halo
          ~bindings ~inputs:markov_inputs
          (recompile Strategy.Halo)
      in
      let dir = fresh_dir "guarded" in
      Ref_run.start ~dir m;
      let journaled = Ref_run.guard ~recompile m (fst (Ref_run.exec ~dir m)) in
      let in_memory = Ref_run.guard ~recompile m (fst (Ref_run.exec m)) in
      let name = Printf.sprintf "margin %g" guard_margin in
      let show (g : Ref_run.guarded) =
        ( Option.map Halo_runtime.Guard.verdict_to_string g.verdict,
          Option.map
            (fun (v, s) ->
              Halo_runtime.Guard.verdict_to_string v ^ " -> "
              ^ Strategy.to_string s)
            g.replan )
      in
      Alcotest.(check bool) (name ^ ": replans iff the margin is tight")
        (guard_margin < 1.0) (in_memory.replan <> None);
      Alcotest.(check (pair (option string) (option string)))
        (name ^ ": same verdict and replan") (show in_memory) (show journaled);
      let outs, _ = complete in_memory.outcome in
      let outs', _ = complete journaled.outcome in
      Alcotest.(check bool) (name ^ ": same outputs") true
        (bits_identical outs outs');
      rm_rf dir)
    [ Halo_runtime.Guard.default_margin; 0.01 ]

let test_exec_without_dir () =
  (* The in-loop guard needs no journal: [run --guard-every] without a
     directory counts the trips the journaled run counts.  A kill needs a
     journal to count writes in, and the injector's RNG is not journaled,
     so both are refused. *)
  let m =
    manifest ~guard_every:1
      ~bindings:[ ("K", 12) ]
      ~inputs:[ ("x", Array.make 8 10.0) ]
      (overflow_program ())
  in
  let _, journaled = baseline m in
  let _, stats = complete (fst (Ref_run.exec m)) in
  Alcotest.(check bool) "the guard tripped" true (stats.Stats.guard_trips > 0);
  Alcotest.(check int) "same trips as the journaled run"
    journaled.Stats.guard_trips stats.Stats.guard_trips;
  let refused name f =
    match f () with
    | _ -> Alcotest.failf "%s was accepted" name
    | exception Invalid_argument _ -> ()
  in
  refused "kill_after without a directory" (fun () ->
      Ref_run.exec ~kill_after:1 m);
  refused "resume without a directory" (fun () -> Ref_run.exec ~resume:true m);
  refused "faults with a directory" (fun () ->
      Ref_run.exec ~faults:(Halo_runtime.Faults.config ~seed:0 ())
        ~dir:(fresh_dir "faulty") m)

(* A run manifest the decoder refuses must already be refused by
   [Ref_run.manifest], for the same reason: otherwise [run --checkpoint-dir]
   writes a directory that [resume] cannot open. *)
let test_manifest_refused_at_creation ~reason ?guard_every ?max_rescues () =
  let build ?guard_every ?max_rescues () =
    Ref_run.manifest ?guard_every ?max_rescues ~strategy:Strategy.Halo
      ~bindings:[ ("K", 5) ] ~inputs:markov_inputs (markov_program ())
  in
  (match build ?guard_every ?max_rescues () with
   | _ -> Alcotest.fail "Ref_run.manifest accepted a manifest it cannot reload"
   | exception Invalid_argument msg ->
     Alcotest.(check bool) ("creation names: " ^ reason) true
       (Fixture.contains msg ~sub:reason));
  let m = build () in
  let m =
    {
      m with
      guard_every = Option.value guard_every ~default:m.guard_every;
      max_rescues = Option.value max_rescues ~default:m.max_rescues;
    }
  in
  match Codec.of_frame Codec.manifest (Codec.to_frame Codec.manifest m) with
  | _ -> Alcotest.fail "the decoder accepted the manifest"
  | exception (Halo_error.Persist_error _ as e) ->
    Alcotest.(check bool) ("decoder names: " ^ reason) true
      (Fixture.contains (Halo_error.to_string e) ~sub:reason)

(* ------------------------------------------------------------------ *)
(* Golden frame bytes                                                  *)
(* ------------------------------------------------------------------ *)

module Serve_codec = Halo_serve.Serve_codec
module Plan = Halo_tune.Plan

(* Every IR op, count and constant shape the program codec knows. *)
let every_op_program () =
  let i results op = { Ir.results; op } in
  let loop count boundary =
    Ir.For
      {
        count;
        inits = [ 1 ];
        body = { params = [ 20 ]; instrs = [ i [ 21 ] (Ir.Rescale { src = 20 }) ]; yields = [ 21 ] };
        boundary;
      }
  in
  {
    Ir.prog_name = "golden";
    slots = 16;
    max_level = 9;
    inputs =
      [
        { in_name = "x"; in_var = 0; in_status = Ir.Cipher; in_size = 16 };
        { in_name = "w"; in_var = 1; in_status = Ir.Plain; in_size = 4 };
      ];
    body =
      {
        params = [ 0; 1 ];
        instrs =
          [
            i [ 2 ] (Ir.Const { value = Ir.Splat (-0.0); size = 16 });
            i [ 3 ] (Ir.Const { value = Ir.Vector [| 0.5; -1.25; 3e-300 |]; size = 3 });
            i [ 4 ] (Ir.Binary { kind = Ir.Add; lhs = 0; rhs = 2 });
            i [ 5 ] (Ir.Binary { kind = Ir.Sub; lhs = 4; rhs = 3 });
            i [ 6 ] (Ir.Binary { kind = Ir.Mul; lhs = 5; rhs = 1 });
            i [ 7 ] (Ir.Rotate { src = 6; offset = -3 });
            i [ 8; 9 ] (Ir.RotateMany { src = 7; offsets = [ 1; 2 ] });
            i [ 10 ] (Ir.RotSum { src = 8; terms = [ (0, Some 1); (4, Some 3) ] });
            i [ 11 ] (Ir.RotSum { src = 9; terms = [ (1, None); (2, None) ] });
            i [ 12 ] (Ir.Modswitch { src = 11; down = 2 });
            i [ 13 ] (Ir.Bootstrap { src = 12; target = 7 });
            i [ 14 ] (Ir.Pack { srcs = [ 10; 13 ]; num_e = 2 });
            i [ 15 ] (Ir.Unpack { src = 14; index = 1; num_e = 2; count = 8 });
            i [ 16 ] (loop (Ir.Static 5) None);
            i [ 17 ] (loop (Ir.Dyn { name = "K"; add = -1; div = 3; rem = false }) (Some 4));
            i [ 18 ] (loop (Ir.Dyn { name = "K"; add = 2; div = 3; rem = true }) (Some 6));
          ];
        yields = [ 15; 16; 17; 18 ];
      };
    next_var = 22;
  }

let golden_keys p =
  let keys = Keys.keygen ~seed:5 p in
  let saved = Keys.rng_state keys in
  Keys.set_rng_state keys (Random.State.make [| 0x601d |]);
  ignore (Keys.rotation_key keys ~offset:1);
  let ct =
    Eval.encrypt keys ~level:4
      (Array.init p.Params.slots (fun i -> sin (float_of_int i)))
  in
  (keys, saved, ct)

let golden_ref_ct () =
  Ref_backend.make_ct ~noise_est:0x1p-30
    ~data:[| 0.25; -0.0; 1e-9; 3.5 |]
    ~level:5 ~scale_bits:51.0 ()

let golden_run_manifest () =
  {
    (manifest ~guard_every:2 ~every_n:3 ~retain:5
       ~bindings:[ ("K", 6) ]
       ~inputs:[ ("x", x_input ()) ]
       (training_program ()))
    with
    guard_margin = 4.5;
    rescue = true;
    rescue_margin = 1.5;
    max_rescues = 7;
  }

let golden_serve_manifest () =
  {
    Serve_codec.config =
      Fixture.mk_cfg
        ~faults:
          {
            Serve_codec.f_seed = 0xFA17;
            f_transient = 0.01;
            f_bootstrap = 0.02;
            f_spike = 0.0;
            f_magnitude = 1e-3;
            f_poison = [ 3; 5 ];
          }
        ~sup:
          {
            Serve_codec.default_sup with
            s_deadline_us = 1_000;
            s_fallback = true;
            s_rescue = true;
            s_rescue_margin = 1.5;
            s_max_rescues = 3;
          }
        ();
    progs = Fixture.programs ();
  }

let golden_plan () =
  {
    Plan.p_prog = "golden";
    p_fingerprint = 0x0123_4567_89AB_CDEFL;
    p_strategy = Strategy.Halo;
    p_knobs =
      { Strategy.unroll = 4; boot_slack = 1; rotate_fuse = true; lazy_switch = false };
    p_key_budget = 65536;
    p_pool = 2;
    p_profile = "host";
    p_predicted_us = 1234.5;
    p_breakdown = [ ("compute", 1000.0); ("total", 1234.5) ];
  }

(* One frame of each of the 16 artifact kinds, as the store writes it. *)
let golden_frames () =
  let p = params () in
  let keys, saved, lattice_ct = golden_keys p in
  let dir = fresh_dir "golden" in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "frame.halo" in
  let bytes ?fingerprint a v =
    save ?fingerprint a ~path v;
    read_raw path
  in
  let fp = 0x5EED_FACEL in
  let ref_ct = golden_ref_ct () in
  let run_m = golden_run_manifest () in
  let serve_m = golden_serve_manifest () in
  let entry_frame =
    let jdir = Filename.concat dir "journal" in
    let j = Journal.open_ ~dir:jdir ~fingerprint:fp ~retain:1 in
    ignore
      (Journal.append j ~ct
         {
           Codec.seq = 0;
           loop_var = 7;
           iter = 2;
           carried = [ Codec.Plain [| 1.0; -0.0 |]; Codec.Cipher ref_ct ];
           rng = Random.State.make [| 0x601e |];
           stats = numbered_stats ();
         });
    read_raw (Filename.concat jdir (newest_ckpt jdir))
  in
  let frames =
    [
      ("rns_poly", bytes (Codec.rns p) (random_poly p ~level:3 42));
      ("ref ciphertext", bytes (Codec.ref_ct ~slots:4 ~max_level:9) ref_ct);
      ("lattice ciphertext", bytes (Codec.lattice_ct p) lattice_ct);
      ("key material", bytes (Codec.keys p) keys);
      ("compiled program", bytes Codec.program (every_op_program ()));
      ("run manifest", bytes Codec.manifest run_m);
      ("checkpoint entry", entry_frame);
      ("serve manifest", bytes Serve_codec.manifest serve_m);
      ( "serve request",
        bytes ~fingerprint:fp Serve_codec.request
              {
                Serve_codec.req_id = 4;
                tenant_id = 2;
                tenant_key = 77;
                pname = "affine";
                tol = 1e-3;
                admit_us = 500;
                payload = [ ("x", [| 0.5; -0.25 |]) ];
              } );
      ( "serve batch entry",
        bytes ~fingerprint:fp Serve_codec.entry
                 {
                   Serve_codec.e_key = 4;
                   e_seq = 1;
                   e_reqs = [ 4; 6 ];
                   e_status =
                     Serve_codec.Degraded
                       {
                         d_op = "mul";
                         d_reason = "retry budget";
                         d_attempts = 5;
                         d_iteration = Some 3;
                       };
                   e_stats = numbered_stats ();
                 } );
      ( "serve plan record",
        bytes ~fingerprint:fp Serve_codec.plan
          { Serve_codec.pl_seq = 2; pl_clock_us = 900; pl_watermark = 8; pl_expired = [ 5; 8 ] } );
      ( "serve quarantine snapshot",
        bytes ~fingerprint:fp Serve_codec.quarantine
          { Serve_codec.qr_tenants = [ (1, 4); (3, 9) ] } );
      ( "serve drain handoff",
        bytes ~fingerprint:fp Serve_codec.drain
              {
                Serve_codec.dr_accepted = 10;
                dr_served = 8;
                dr_failed = 2;
                dr_clock_us = 12345;
                dr_seq = 9;
                dr_quarantined = [ 3 ];
              } );
      ("chaos soak state", bytes ~fingerprint:fp Serve_codec.chaos 3);
      ( "rescue record",
        bytes ~fingerprint:fp Codec.rescue
          { r_seq = 2; r_target = 9; r_before = 0x1p-20; r_after = 0x1p-40 } );
      ("tuned strategy manifest", bytes Plan.artifact (golden_plan ()));
    ]
  in
  Keys.set_rng_state keys saved;
  rm_rf dir;
  let prog = every_op_program () in
  List.map (fun (name, f) -> (name, Digest.to_hex (Digest.string f))) frames
  @ [
      ("run manifest fingerprint", Printf.sprintf "%016Lx" (Codec.manifest_fingerprint run_m));
      ( "serve manifest fingerprint",
        Printf.sprintf "%016Lx" (Serve_codec.manifest_fingerprint serve_m) );
      ( "plan fingerprint",
        Printf.sprintf "%016Lx" (Plan.fingerprint ~bindings:[ ("K", 6); ("A", 2) ] prog) );
    ]

(* Frame bytes are the on-disk format: a digest that moves is a format
   change, and needs a [Codec.format_version] bump and a decoder for the
   old layout.  The fingerprints are the stamps resume checks against the
   ones already on disk. *)
let golden_digests =
  [
    ("rns_poly", "fda42fe060aad02f252fc25a3876f105");
    ("ref ciphertext", "2e818d792b898724810d3775c1926975");
    ("lattice ciphertext", "5308ac4397d3904755635781a2602d59");
    ("key material", "30ff62f6225c3faa5818eaac578b9aa9");
    ("compiled program", "e1af719d1f432ae894ccbd7f04a52746");
    ("run manifest", "b29648d73ffce674d3d0eea1cc95a9bb");
    ("checkpoint entry", "687a0036f206db0ad8510129464ce4a2");
    ("serve manifest", "781566df2424b8e64abaa1974dcef356");
    ("serve request", "d77eca010842dda4c2acee18a88fcf28");
    ("serve batch entry", "1e36b3ed9fcc7531c55f5c276c355454");
    ("serve plan record", "5712d3eedc6c605477a861859f180f81");
    ("serve quarantine snapshot", "6c74a3df5b939f441800a99513f05a91");
    ("serve drain handoff", "f9efb1936df7d9bfba5fa30b67d5f651");
    ("chaos soak state", "2129465a9a9385892f3396540e1bd59f");
    ("rescue record", "33c8a4dd5c66ceea321b560f2c6407aa");
    ("tuned strategy manifest", "0e6d9f4f37d1767dd3dcf9bd9e78056f");
    ("run manifest fingerprint", "00000d31f3e086eb");
    ("serve manifest fingerprint", "0000079723569917");
    ("plan fingerprint", "f48a980a1f428a71");
  ]

let test_golden_frames () =
  Alcotest.(check (list (pair string string)))
    "frame digests and fingerprints" golden_digests (golden_frames ())

(* ------------------------------------------------------------------ *)
(* Strict fields and older formats                                     *)
(* ------------------------------------------------------------------ *)

let index_of s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then Alcotest.failf "%S not in the frame" sub
    else if String.sub s i n = sub then i
    else go (i + 1)
  in
  go 0

(* Write [bytes] patched by [f] with the CRC recomputed, so only the
   patched field is wrong, and load it with [a]. *)
let load_patched ?fingerprint a ~path bytes f =
  let b = Bytes.of_string bytes in
  f b;
  refix_crc b;
  write_raw path (Bytes.to_string b);
  Store.load ?fingerprint a ~path

let with_dir name f =
  let dir = fresh_dir name in
  Sys.mkdir dir 0o755;
  f (Filename.concat dir "frame.halo");
  rm_rf dir

let test_program_count_fields () =
  (* A loop count [KDIV / 7]: the count's name, then add, div and the
     remainder flag, 8 + 8 + 1 bytes. *)
  let prog =
    {
      (every_op_program ()) with
      Ir.inputs = [];
      body =
        {
          params = [];
          instrs =
            [
              {
                results = [ 1 ];
                op =
                  Ir.For
                    {
                      count = Ir.Dyn { name = "KDIV"; add = 0; div = 7; rem = false };
                      inits = [];
                      body = { params = []; instrs = []; yields = [] };
                      boundary = None;
                    };
              };
            ];
          yields = [];
        };
    }
  in
  with_dir "count-fields" (fun path ->
      save Codec.program ~path prog;
      let bytes = read_raw path in
      Alcotest.(check bool) "intact frame loads" true
        (Store.load Codec.program ~path = prog);
      let div = index_of bytes "KDIV" + 4 + 8 in
      Alcotest.(check int) "divisor located" 7 (Int64.to_int (String.get_int64_le bytes div));
      List.iter
        (fun (name, field, v) ->
          Alcotest.(check string) name "loop-count divisor below 1"
            (persist_reason name (fun () ->
                 load_patched Codec.program ~path bytes (fun b ->
                     Bytes.set_int64_le b field v))))
        [ ("divisor 0", div, 0L); ("divisor -3", div, -3L) ];
      Alcotest.(check string) "remainder flag 2" "bad remainder flag"
        (persist_reason "remainder flag 2" (fun () ->
             load_patched Codec.program ~path bytes (fun b -> Bytes.set b (div + 8) '\002'))))

let test_loose_flag_bytes () =
  with_dir "flags" (fun path ->
      (* Plan payload: name and strategy strings, unroll and slack, then the
         fuse and lazy flags. *)
      let plan = golden_plan () in
      save Plan.artifact ~path plan;
      let bytes = read_raw path in
      let fuse =
        22 + 8 + String.length plan.p_prog + 8
        + String.length (Strategy.to_string plan.p_strategy)
        + 16
      in
      List.iter
        (fun (name, at, reason) ->
          Alcotest.(check string) name reason
            (persist_reason name (fun () ->
                 load_patched Plan.artifact ~path bytes (fun b -> Bytes.set b at '\002'))))
        [ ("plan fuse flag 2", fuse, "bad rotate-fuse flag");
          ("plan lazy flag 2", fuse + 1, "bad lazy-switch flag") ];
      (* A run manifest refuses an empty backend, as a serve manifest does. *)
      let m = golden_run_manifest () in
      List.iter
        (fun (name, backend, reason) ->
          save Codec.manifest ~path { m with backend };
          Alcotest.(check string) name reason
            (persist_reason name (fun () -> Store.load Codec.manifest ~path)))
        [ ("zero slots", { m.backend with slots = 0 }, "slot count below 1");
          ("zero max level", { m.backend with max_level = 0 }, "max level below 1") ])

(* A frame of [a]'s kind under format version 4 around [payload]. *)
let v4_frame a payload =
  let b =
    Bytes.of_string
      (Codec.frame ~kind:a.Codec.kind ~fingerprint:0L (fun b ->
           Buffer.add_string b payload))
  in
  Bytes.set b 4 '\004';
  refix_crc b;
  Bytes.to_string b

let encoded a v =
  let b = Buffer.create 1024 in
  a.Codec.encode b v;
  Buffer.contents b

let test_v4_manifests () =
  let defaults (rescue, margin, budget) =
    Alcotest.(check bool) "monitor off" false rescue;
    Alcotest.(check (float 0.0)) "default margin"
      Halo_runtime.Noise_monitor.default_rescue_margin margin;
    Alcotest.(check int) "default budget"
      Halo_runtime.Noise_monitor.default_max_rescues budget
  in
  let tail = 1 + 8 + 8 in
  with_dir "v4" (fun path ->
      (* Version 4 ended the run manifest before the guard margin and the
         rescue tail. *)
      let m = golden_run_manifest () in
      let v5 = encoded Codec.manifest m in
      write_raw path
        (v4_frame Codec.manifest (String.sub v5 0 (String.length v5 - 8 - tail)));
      let m4 = Store.load Codec.manifest ~path in
      defaults (m4.rescue, m4.rescue_margin, m4.max_rescues);
      Alcotest.(check (float 0.0)) "default guard margin"
        Halo_runtime.Guard.default_margin m4.guard_margin;
      Alcotest.(check bool) "every older field kept" true
        ({ m with
           guard_margin = m4.guard_margin;
           rescue = m4.rescue;
           rescue_margin = m4.rescue_margin;
           max_rescues = m4.max_rescues }
         = m4);
      (* Version 4 ended the serve supervision knobs at the guard flag:
         backend (64), queue, window, lane (24), margin (8), fuse (1),
         policy (40), deadline, TTL (16), fallback (1), breaker and
         quarantine knobs (48), guard (1). *)
      let sm = golden_serve_manifest () in
      let v5 = encoded Serve_codec.manifest sm in
      let at = 64 + 24 + 8 + 1 + 40 + 16 + 1 + 48 + 1 in
      let sup = sm.config.sup in
      let b = Buffer.create tail in
      Codec.encode_rescue_tail b (sup.s_rescue, sup.s_rescue_margin, sup.s_max_rescues);
      Alcotest.(check string) "rescue tail located" (Buffer.contents b)
        (String.sub v5 at tail);
      write_raw path
        (v4_frame Serve_codec.manifest
           (String.sub v5 0 at
           ^ String.sub v5 (at + tail) (String.length v5 - at - tail)));
      let sm4 = Store.load Serve_codec.manifest ~path in
      let sup4 = sm4.config.sup in
      defaults (sup4.s_rescue, sup4.s_rescue_margin, sup4.s_max_rescues);
      Alcotest.(check bool) "every older field kept" true
        ({ sm with
           config =
             { sm.config with
               sup =
                 { sup with
                   s_rescue = sup4.s_rescue;
                   s_rescue_margin = sup4.s_rescue_margin;
                   s_max_rescues = sup4.s_max_rescues } } }
         = sm4))

let () =
  Alcotest.run "halo_persist"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "rns poly, coefficient domain" `Quick
            test_rns_roundtrip_coeff;
          Alcotest.test_case "rns poly, NTT-resident" `Quick
            test_rns_roundtrip_eval_resident;
          Alcotest.test_case "lattice ciphertext" `Quick
            test_lattice_ct_roundtrip;
          Alcotest.test_case "key material" `Quick test_keys_roundtrip;
          Alcotest.test_case "compiled program" `Quick test_program_roundtrip;
          Alcotest.test_case "rng state replays" `Quick test_rng_roundtrip;
          Alcotest.test_case "statistics" `Quick test_stats_roundtrip;
          Alcotest.test_case "statistics wire format" `Quick
            test_stats_wire_format;
          Alcotest.test_case "manifest" `Quick test_manifest_roundtrip;
          Alcotest.test_case "golden frame bytes" `Quick test_golden_frames;
          Alcotest.test_case "version-4 manifests" `Quick test_v4_manifests;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "zero-length file" `Quick test_reject_zero_length;
          Alcotest.test_case "truncation" `Quick test_reject_truncation;
          Alcotest.test_case "single bit flips" `Quick test_reject_bit_flips;
          Alcotest.test_case "format version" `Quick
            test_reject_version_mismatch;
          Alcotest.test_case "parameter fingerprint" `Quick
            test_reject_fingerprint_mismatch;
          Alcotest.test_case "key frame of another special set" `Quick
            test_reject_old_special_set;
          Alcotest.test_case "wrong artifact kind" `Quick test_reject_wrong_kind;
          Alcotest.test_case "trailing garbage" `Quick
            test_reject_trailing_garbage;
          Alcotest.test_case "loop-count divisor and remainder flag" `Quick
            test_program_count_fields;
          Alcotest.test_case "loose flag bytes" `Quick test_loose_flag_bytes;
        ] );
      ( "journal",
        [
          Alcotest.test_case "retention and sequence" `Quick
            test_journal_retention_and_seq;
          Alcotest.test_case "corrupt tail discarded with warning" `Quick
            test_journal_corrupt_tail;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill anywhere, resume bit-identically" `Quick
            test_kill_anywhere_resume_bit_identical;
          Alcotest.test_case "corrupt tail falls back one checkpoint" `Quick
            test_resume_after_corrupt_tail;
          Alcotest.test_case "manifest reload drives the resume" `Quick
            test_manifest_reload_round;
          Alcotest.test_case "guard trips survive resume" `Quick
            test_guard_trips_survive_resume;
        ] );
      ( "driver",
        [
          Alcotest.test_case "in-memory exec is the interpreter" `Quick
            test_exec_in_memory_is_interp;
          Alcotest.test_case "guard after a checkpointed run" `Quick
            test_guard_after_checkpointed_run;
          Alcotest.test_case "in-loop guard without a journal" `Quick
            test_exec_without_dir;
          Alcotest.test_case "negative guard cadence refused at creation"
            `Quick
            (test_manifest_refused_at_creation ~guard_every:(-1)
               ~reason:"negative guard cadence (got -1)");
          Alcotest.test_case "negative rescue budget refused at creation"
            `Quick
            (test_manifest_refused_at_creation ~max_rescues:(-1)
               ~reason:"negative rescue budget (got -1)");
        ] );
    ]

(* Shared test fixtures: scratch directories, substring search, and a zero-noise serving
   configuration with the submit/drain helpers the serving and supervision
   suites build on. *)

module Server = Halo_serve.Server
module Tenant = Halo_serve.Tenant
module Workload = Halo_serve.Workload
module Serve_codec = Halo_serve.Serve_codec
module Resilient = Halo_runtime.Resilient

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                 *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* A path under the temp dir, unique per process and call, that does not
   exist yet. *)
let fresh_dir =
  let counter = ref 0 in
  fun name ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "halo-test-%d-%s-%d" (Unix.getpid ()) name !counter)
    in
    rm_rf d;
    d

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)
(* ------------------------------------------------------------------ *)

let slots = 64
let max_level = 16
let lane = 8

(* Zero noise on every knob: the backend is exactly deterministic, so
   batched, solo, killed-and-resumed and pool-resized runs can all be
   compared down to the last bit. *)
let mk_cfg ?(queue_depth = 64) ?(batch_window = 8) ?(lane = lane)
    ?(rotate_fuse = true) ?(policy = Resilient.default_policy) ?faults
    ?(sup = Serve_codec.default_sup) () =
  {
    Serve_codec.backend =
      {
        Halo_persist.Codec.slots;
        max_level;
        scale_bits = 51;
        seed = 0xB00;
        enc_noise = 0.0;
        mult_noise = 0.0;
        boot_noise = 0.0;
        rescale_noise = 0.0;
      };
    queue_depth;
    batch_window;
    lane;
    margin = 10.0;
    rotate_fuse;
    policy;
    faults;
    sup;
  }

let programs () = Workload.programs ~slots ~max_level ~iters:3

let mk_server ?dir ?queue_depth ?batch_window ?lane ?rotate_fuse ?policy
    ?faults ?sup () =
  Server.create ?dir
    (mk_cfg ?queue_depth ?batch_window ?lane ?rotate_fuse ?policy ?faults
       ?sup ())
    ~programs:(programs ())

let tenant i = Tenant.create ~id:i ~key_seed:(Tenant.default_key_seed ~id:i)

let submit server (w : Workload.req) =
  Server.submit server ~tenant:w.w_tenant ~tol:w.w_tol ~program:w.w_program
    ~payload:w.w_payload

let submit_ok server w =
  match submit server w with
  | Ok id -> id
  | Error r ->
    Alcotest.failf "unexpected rejection: %s" (Server.reject_to_string r)

let drain server = Server.run_until_drained server

let arrays_bit_equal (a : float array) (b : float array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

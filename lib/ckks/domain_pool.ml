(* A small persistent pool of OCaml 5 domains for the embarrassingly
   parallel per-limb loops of the RNS kernel layer.

   Design constraints, in order:
   - pool size 1 (or HALO_DOMAINS=1) must mean "no domains, run in the
     caller" so the sequential semantics of the seed are reproduced exactly;
   - every index writes disjoint state, so results are bit-deterministic
     for ANY pool size and schedule -- parallelism never changes outputs;
   - dispatch must be cheap (one mutex round-trip and a broadcast) because
     jobs are microseconds-to-milliseconds of kernel work.

   Workers block on a condition variable between jobs; a job is a shared
   next-index counter that the workers AND the caller drain with
   fetch-and-add, so the caller always participates and a 1-core machine
   still completes every job even if the workers never get scheduled. *)

type job = {
  run : int -> unit;
  total : int;
  next : int Atomic.t;
  completed : int Atomic.t;
  error : exn option Atomic.t;
}

type pool = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable current : job option;
  mutable seq : int;
  mutable stop : bool;
  mutable handles : unit Domain.t list;
}

let parse_size s =
  match int_of_string_opt (String.trim s) with
  | Some v when v >= 1 -> v
  | _ -> invalid_arg "HALO_DOMAINS must be a positive integer"

let default_size () =
  match Sys.getenv_opt "HALO_DOMAINS" with
  | Some s -> parse_size s
  | None -> max 1 (min 8 (Domain.recommended_domain_count ()))

(* Workers set this flag so a parallel_for reached from inside a job falls
   back to a plain loop instead of deadlocking on its own pool.  The calling
   domain does not: a job it posts while draining another replaces
   [current], and since it drains that nested job itself, neither job
   depends on a worker picking it up. *)
let in_worker = Domain.DLS.new_key (fun () -> false)

let drain job =
  let rec go () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.total then begin
      (* Once a task has failed the job is doomed: claim-and-skip the
         remaining indices so every drainer quiesces quickly instead of
         burning cores on work whose result will be discarded.  [completed]
         still counts the skipped indices -- the caller's wait is on all
         indices being claimed and finished-or-skipped. *)
      if Atomic.get job.error = None then (
        try job.run i
        with e -> ignore (Atomic.compare_and_set job.error None (Some e)));
      Atomic.incr job.completed;
      go ()
    end
  in
  go ()

let worker pool () =
  Domain.DLS.set in_worker true;
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock pool.mutex;
    while pool.seq = !seen && not pool.stop do
      Condition.wait pool.cond pool.mutex
    done;
    if pool.stop then Mutex.unlock pool.mutex
    else begin
      seen := pool.seq;
      let job = pool.current in
      Mutex.unlock pool.mutex;
      (match job with Some j -> drain j | None -> ());
      loop ()
    end
  in
  loop ()

let size_memo = ref None

let size () =
  match !size_memo with
  | Some s -> s
  | None ->
    let s = default_size () in
    size_memo := Some s;
    s

let pool_memo = ref None

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.handles

let get_pool () =
  match !pool_memo with
  | Some p -> p
  | None ->
    let p =
      {
        mutex = Mutex.create ();
        cond = Condition.create ();
        current = None;
        seq = 0;
        stop = false;
        handles = [];
      }
    in
    p.handles <- List.init (size () - 1) (fun _ -> Domain.spawn (worker p));
    at_exit (fun () -> shutdown p);
    pool_memo := Some p;
    p

(* Borrow the worker flag to force sequential execution of [f]: every
   [parallel_for] reached inside it degrades to a plain loop.  Used by tests
   to compare pool-parallel against strictly sequential execution in one
   process (results must be bit-identical). *)
let sequentially f =
  let saved = Domain.DLS.get in_worker in
  Domain.DLS.set in_worker true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_worker saved) f

let sequential_for n f =
  for i = 0 to n - 1 do
    f i
  done

let parallel_for ~n f =
  if n <= 0 then ()
  else if n = 1 then f 0
  else if size () <= 1 || Domain.DLS.get in_worker then sequential_for n f
  else begin
    let pool = get_pool () in
    let job =
      {
        run = f;
        total = n;
        next = Atomic.make 0;
        completed = Atomic.make 0;
        error = Atomic.make None;
      }
    in
    Mutex.lock pool.mutex;
    pool.current <- Some job;
    pool.seq <- pool.seq + 1;
    Condition.broadcast pool.cond;
    Mutex.unlock pool.mutex;
    drain job;
    while Atomic.get job.completed < n do
      Domain.cpu_relax ()
    done;
    (* All indices are claimed and finished (or skipped after a failure):
       the workers have quiesced on this job.  Drop the pool's reference so
       a failed (or merely large) closure and everything it captured is not
       pinned until the next parallel call -- an exception must not leak the
       job, and the pool stays reusable. *)
    Mutex.lock pool.mutex;
    (match pool.current with
     | Some j when j == job -> pool.current <- None
     | _ -> ());
    Mutex.unlock pool.mutex;
    match Atomic.get job.error with Some e -> raise e | None -> ()
  end

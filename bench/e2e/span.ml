(* In-memory span recorder for the traced round, and the per-layer
   aggregation shared by the benchmark and the trace summarizer.

   A span covers one call into a layer: the job, [Interp.run], each backend
   call, each compile pass, [Tuner.tune], a standalone kernel call, a
   rotation-key generation.  Spans nest on one thread; a span's self time is
   its duration minus the durations of its children.  [pred_us], when
   present, is the host cost-model profile's prediction for the same work:
   a model value carried beside the measurement, never a measurement. *)

type t = {
  trace : string;  (** workload/job/round *)
  id : int;
  parent : int;  (** 0 at the root *)
  layer : string;
  name : string;
  t0_ns : int64;
  t1_ns : int64;
  pred_us : float option;
}

let now_ns = Monotonic_clock.now
let enabled = ref false
let current_trace = ref ""
let recorded : t list ref = ref []
let next_id = ref 1
let stack : int list ref = ref []

let reset () =
  recorded := [];
  next_id := 1;
  stack := []

let parent () = match !stack with p :: _ -> p | [] -> 0

let push ~layer ~name ?pred_us ~id ~parent t0_ns t1_ns =
  recorded :=
    { trace = !current_trace; id; parent; layer; name; t0_ns; t1_ns; pred_us }
    :: !recorded

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(* Records a span that has already ended, as a child of the open span. *)
let add ~layer ~name ?pred_us t0_ns t1_ns =
  if !enabled then
    push ~layer ~name ?pred_us ~id:(fresh_id ()) ~parent:(parent ()) t0_ns t1_ns

let with_ ~layer ~name ?pred_us f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = parent () in
    stack := id :: !stack;
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      stack := List.tl !stack;
      push ~layer ~name ?pred_us ~id ~parent t0 t1
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let duration_ns s = Int64.to_float (Int64.sub s.t1_ns s.t0_ns)

let to_json s =
  Json.Obj
    ([
       ("trace", Json.Str s.trace);
       ("id", Json.Num (float_of_int s.id));
       ("parent", Json.Num (float_of_int s.parent));
       ("layer", Json.Str s.layer);
       ("name", Json.Str s.name);
       ("t0_ns", Json.Num (Int64.to_float s.t0_ns));
       ("t1_ns", Json.Num (Int64.to_float s.t1_ns));
     ]
    @ match s.pred_us with Some p -> [ ("pred_us", Json.Num p) ] | None -> [])

let of_json j =
  let num k = Json.to_num (Json.member k j) in
  {
    trace = Json.to_str (Json.member "trace" j);
    id = int_of_float (num "id");
    parent = int_of_float (num "parent");
    layer = Json.to_str (Json.member "layer" j);
    name = Json.to_str (Json.member "name" j);
    t0_ns = Int64.of_float (num "t0_ns");
    t1_ns = Int64.of_float (num "t1_ns");
    pred_us =
      (match j with
       | Json.Obj kvs -> Option.map Json.to_num (List.assoc_opt "pred_us" kvs)
       | _ -> None);
  }

(* Appends, so the runs of several workloads can share one file. *)
let append path spans =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  List.iter (fun s -> output_string oc (Json.to_string (to_json s) ^ "\n")) spans;
  close_out oc

let read path = List.map of_json (Json.read_lines path)

(** Per (layer, name) totals. *)
type agg = {
  mutable calls : int;
  mutable total_ns : float;
  mutable self_ns : float;
  mutable pred_us : float;
  mutable pred_ns : float;  (** measured time of the calls that carry a prediction *)
}

let aggregate spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let key = (s.trace, s.parent) in
      let prev = Option.value (Hashtbl.find_opt children key) ~default:0.0 in
      Hashtbl.replace children key (prev +. duration_ns s))
    spans;
  let table = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let a =
        match Hashtbl.find_opt table (s.layer, s.name) with
        | Some a -> a
        | None ->
          let a =
            { calls = 0; total_ns = 0.0; self_ns = 0.0; pred_us = 0.0; pred_ns = 0.0 }
          in
          Hashtbl.replace table (s.layer, s.name) a;
          a
      in
      let d = duration_ns s in
      let covered =
        Option.value (Hashtbl.find_opt children (s.trace, s.id)) ~default:0.0
      in
      a.calls <- a.calls + 1;
      a.total_ns <- a.total_ns +. d;
      a.self_ns <- a.self_ns +. (d -. covered);
      match s.pred_us with
      | Some p ->
        a.pred_us <- a.pred_us +. p;
        a.pred_ns <- a.pred_ns +. d
      | None -> ())
    spans;
  table

let find table layer name =
  match Hashtbl.find_opt table (layer, name) with
  | Some a -> a
  | None -> { calls = 0; total_ns = 0.0; self_ns = 0.0; pred_us = 0.0; pred_ns = 0.0 }

(* Measured over predicted, over every call that carries a prediction;
   0 when no such call was made. *)
let ratio aggs =
  let ns = List.fold_left (fun acc a -> acc +. a.pred_ns) 0.0 aggs in
  let us = List.fold_left (fun acc a -> acc +. a.pred_us) 0.0 aggs in
  if us > 0.0 then ns /. 1e3 /. us else 0.0

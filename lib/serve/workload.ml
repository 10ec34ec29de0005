open Halo

let batchable_names = [ "affine"; "poly"; "iterate" ]

let programs ~slots ~max_level ~iters =
  if iters < 1 then invalid_arg "Workload.programs: iters below 1";
  let def name traced =
    { Serve_codec.pd_name = name; pd_strategy = Strategy.Halo;
      pd_traced = traced }
  in
  [
    def "affine"
      (Dsl.build ~name:"affine" ~slots ~max_level (fun b ->
           let x = Dsl.input b "x" ~size:slots in
           Dsl.output b (Dsl.add b (Dsl.scale_by b x 0.75) (Dsl.const b 0.25))));
    def "poly"
      (Dsl.build ~name:"poly" ~slots ~max_level (fun b ->
           let x = Dsl.input b "x" ~size:slots in
           Dsl.output b (Dsl.poly_eval b x [| 0.1; -0.5; 0.25; 0.0; 0.125 |])));
    def "iterate"
      (Dsl.build ~name:"iterate" ~slots ~max_level (fun b ->
           let x = Dsl.input b "x" ~size:slots in
           let y =
             match
               Dsl.for_ b ~count:(Ir.Static iters) ~init:[ x ] (fun b ->
                   function
                   | [ y ] ->
                     [
                       Dsl.add b (Dsl.scale_by b y 0.5) (Dsl.scale_by b x 0.25);
                     ]
                   | _ -> assert false)
             with
             | [ y ] -> y
             | _ -> assert false
           in
           Dsl.output b y));
    def "mean"
      (Dsl.build ~name:"mean" ~slots ~max_level (fun b ->
           let x = Dsl.input b "x" ~size:slots in
           Dsl.output b (Dsl.mean_slots b x ~size:slots)));
  ]

type req = {
  w_tenant : Tenant.t;
  w_program : string;
  w_payload : (string * float array) list;
  w_tol : float;
}

let requests ?(mix = batchable_names) ~seed ~clients ~per_client ~lane () =
  if clients < 1 then invalid_arg "Workload.requests: clients below 1";
  if per_client < 1 then invalid_arg "Workload.requests: per_client below 1";
  if lane < 1 then invalid_arg "Workload.requests: lane below 1";
  if mix = [] then invalid_arg "Workload.requests: empty program mix";
  let st = Random.State.make [| 0x3EED; seed |] in
  let nmix = List.length mix in
  List.concat
    (List.init per_client (fun k ->
         List.init clients (fun c ->
             let idx = (k * clients) + c in
             let size = 1 + Random.State.int st lane in
             let v =
               Array.init size (fun _ -> Random.State.float st 2.0 -. 1.0)
             in
             {
               w_tenant =
                 Tenant.create ~id:c ~key_seed:(Tenant.default_key_seed ~id:c);
               w_program = List.nth mix (idx mod nmix);
               w_payload = [ ("x", v) ];
               w_tol = infinity;
             })))

let opened server =
  let key (s : Tenant.sealed) =
    Tenant.create ~id:s.s_tenant
      ~key_seed:(Tenant.default_key_seed ~id:s.s_tenant)
  in
  List.map
    (fun (id, o) ->
      match o with
      | Server.Served { batch_key; lanes; sealed } ->
        ( id,
          Ok
            ( batch_key,
              lanes,
              List.map (fun s -> Tenant.open_sealed (key s) s) sealed ) )
      | Server.Failed f -> (id, Error f))
    (Server.results server)

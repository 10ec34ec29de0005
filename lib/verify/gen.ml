open Halo

type t = { seed : int; prog : Ir.program; bindings : (string * int) list }

(* Every combinator below is a contraction on the slot-value interval
   [-1, 1]: products of bounded values, averages scaled by at most 0.5 and
   rotations all stay inside the interval.  Inputs are drawn from [-0.9, 0.9]
   ([Pipeline.fixed_inputs]), so generated programs are numerically stable
   for any iteration count — the differential oracle can then use a tight
   CKKS tolerance without false positives from value blow-up. *)
let generate ?(slots = 256) ?(max_level = 16) seed =
  let rng = Random.State.make [| 0x9A10; seed |] in
  let int n = Random.State.int rng n in
  let flt () = Random.State.float rng 1.0 in
  let pick l = List.nth l (int (List.length l)) in
  let bindings = ref [] in
  (* Counts start at 4 so that peeling (at most one peel per carried
     variable) never drives an iteration count negative. *)
  let fresh_count () =
    if int 2 = 0 then Ir.Static (4 + int 5)
    else begin
      let name = Printf.sprintf "K%d" (List.length !bindings) in
      bindings := (name, 4 + int 5) :: !bindings;
      Ir.Dyn { name; add = 0; div = 1; rem = false }
    end
  in
  let prog =
    Dsl.build ~name:(Printf.sprintf "fuzz%d" seed) ~slots ~max_level (fun b ->
        let sizes = [ 8; 16 ] in
        let x = Dsl.input b "x" ~size:(pick sizes) in
        let extra_inputs =
          List.init (int 2) (fun k ->
              let status = if int 3 = 0 then Ir.Plain else Ir.Cipher in
              Dsl.input b ~status (Printf.sprintf "w%d" k) ~size:(pick sizes))
        in
        let base_pool = x :: extra_inputs in
        let const () = Dsl.const b ((Random.State.float rng 1.8) -. 0.9) in
        let half () = Dsl.const b (0.2 +. (0.3 *. flt ())) in
        let combine pool v =
          let w = pick pool in
          match int 9 with
          | 0 -> Dsl.mul b v w
          | 1 -> Dsl.mul b (Dsl.add b v w) (half ())
          | 2 -> Dsl.mul b (Dsl.sub b v w) (half ())
          | 3 -> Dsl.rotate b v (pick [ -2; -1; 1; 2; 4 ])
          | 4 -> Dsl.mul b v (const ())
          | 5 ->
            (* Two rotations of the same source: the scaled sum stays in
               [-1, 1], and Rotate_fuse merges the pair into one hoisted
               group. *)
            let k1 = pick [ -2; -1; 1; 2 ] in
            let k2 = pick [ 4; 8; -4 ] in
            Dsl.add b
              (Dsl.mul b (Dsl.rotate b v k1) (half ()))
              (Dsl.mul b (Dsl.rotate b v k2) (half ()))
          | 6 ->
            (* A direct grouped rotation (exercises RotateMany through every
               pass and backend), averaged back into the interval; one shape
               includes a zero offset to cover the identity member. *)
            let offsets =
              pick [ [ 1; 2 ]; [ -1; 2; 4 ]; [ 0; 1; -2 ]; [ 2; 4; 8; -1 ] ]
            in
            let scale = 0.9 /. float_of_int (List.length offsets) in
            (match Dsl.rotate_many b v offsets with
             | r :: rs ->
               List.fold_left
                 (fun acc r' -> Dsl.add b acc (Dsl.scale_by b r' scale))
                 (Dsl.scale_by b r scale) rs
             | [] -> assert false)
          | 7 ->
            (* A slot sum (pure RotSum stages straight from the DSL, radix 4
               with a radix-2 tail on odd log2 sizes), scaled back into the
               interval. *)
            let size = pick [ 2; 4; 8; 16 ] in
            Dsl.scale_by b (Dsl.sum_slots b v ~size) (0.9 /. float_of_int size)
          | _ -> Dsl.add b (Dsl.mul b v (half ())) (Dsl.mul b w (half ()))
        in
        let rec chain pool v n =
          if n = 0 then v else chain pool (combine pool v) (n - 1)
        in
        (* Loops carry 1-3 variables seeded from the pool (cipher), fresh
           plain constants (exercising peel) or damped pool values; bodies
           mix all binops, rotations and references to live-in outer values,
           with an optional nested loop one level deep. *)
        let rec gen_loop ~depth pool =
          let n_carried = 1 + int 3 in
          let init =
            List.init n_carried (fun _ ->
                match int 3 with
                | 0 -> pick pool
                | 1 -> const ()
                | _ -> Dsl.mul b (pick pool) (half ()))
          in
          Dsl.for_ b ~count:(fresh_count ()) ~init (fun b' params ->
              ignore b';
              let pool = params @ pool in
              let pool =
                if depth < 1 && int 3 = 0 then
                  gen_loop ~depth:(depth + 1) pool @ pool
                else pool
              in
              List.map (fun v -> chain pool v (1 + int 2)) params)
        in
        let prologue =
          List.init (1 + int 2) (fun _ -> ()) |> List.map (fun () ->
              combine base_pool (pick base_pool))
        in
        let pool = prologue @ base_pool in
        let first = gen_loop ~depth:0 pool in
        let pool = first @ pool in
        let second = if int 2 = 0 then gen_loop ~depth:0 pool else [] in
        let pool = second @ pool in
        List.iter (Dsl.output b) first;
        List.iter (Dsl.output b) second;
        if int 2 = 0 then Dsl.output b (combine pool (pick pool)))
  in
  { seed; prog; bindings = List.rev !bindings }

open Halo

type verdict =
  | Healthy of { observed : float; bound : float }
  | Breach of { observed : float; bound : float; output : int; slot : int }
  | Unbounded of { observed : float }

let healthy = function Healthy _ -> true | Breach _ | Unbounded _ -> false

let verdict_to_string = function
  | Healthy { observed; bound } ->
    Printf.sprintf "healthy (worst error %.3e within bound %.3e)" observed
      bound
  | Breach { observed; bound; output; slot } ->
    Printf.sprintf
      "BREACH: output %d slot %d off by %.3e, bound %.3e — silent corruption \
       or broken noise model"
      output slot observed bound
  | Unbounded { observed } ->
    Printf.sprintf
      "unbounded: static analysis found noise growth without bootstrap \
       (observed error %.3e unchecked)"
      observed

let default_margin = 10.0

(* The effective margin: [HALO_GUARD_MARGIN] overrides the default so every
   caller (CLI, serving layer, soaks) is configurable end-to-end without
   threading a flag through each of them.  Non-positive or unparsable
   values fall back to the default. *)
let margin () =
  match Sys.getenv_opt "HALO_GUARD_MARGIN" with
  | None -> default_margin
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some m when m > 0.0 && Float.is_finite m -> m
    | _ -> default_margin)

let check ?margin:margin_opt p ~reference ~observed =
  let margin = match margin_opt with Some m -> m | None -> margin () in
  let report = Noise_budget.analyze p in
  (* Worst absolute deviation, tracked per output. *)
  let worst = ref 0.0 and worst_out = ref 0 and worst_slot = ref 0 in
  let breach = ref None in
  List.iteri
    (fun output (exp, got) ->
      let bound =
        match List.nth_opt report.Noise_budget.per_output output with
        | Some b -> b *. margin
        | None -> report.Noise_budget.worst *. margin
      in
      let n = min (Array.length exp) (Array.length got) in
      for slot = 0 to n - 1 do
        let d = Float.abs (exp.(slot) -. got.(slot)) in
        if d > !worst then begin
          worst := d;
          worst_out := output;
          worst_slot := slot
        end;
        if d > bound && !breach = None then
          breach := Some (d, bound, output, slot)
      done)
    (List.combine reference observed);
  if not report.Noise_budget.bounded then Unbounded { observed = !worst }
  else
    match !breach with
    | Some (observed, bound, output, slot) ->
      Breach { observed; bound; output; slot }
    | None ->
      Healthy
        { observed = !worst; bound = report.Noise_budget.worst *. margin }

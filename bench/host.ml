(* The machine the timings come from: the CPU model where the OS reports
   one (Linux), and the cores OCaml sees. *)
let describe () =
  let model =
    match open_in "/proc/cpuinfo" with
    | exception Sys_error _ -> "unknown CPU"
    | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> "unknown CPU"
        | line -> (
          match String.index_opt line ':' with
          | Some i when String.trim (String.sub line 0 i) = "model name" ->
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          | _ -> find ())
      in
      let m = find () in
      close_in ic;
      m
  in
  Printf.sprintf "%s, %d cores" model (Domain.recommended_domain_count ())

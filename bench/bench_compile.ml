(* Compile-time bench (paper Table 6): DaCapo with every loop fully
   unrolled at 10, 20, 30 and 40 iterations against HALO at 40, on the six
   flat-loop programs at 8192 slots and vector size 512.

   Each cell is k compiles of one program (built once, outside the clock)
   with [Strategy.compile]; [Gc.compact ()] runs before every sample, so
   each starts from the same heap.  A cell reports the median and the
   quartiles of its samples.  Every compiled program is also digested
   (MD5 of [Printer.program_to_string]) and checked against the digests
   the placement searches printed before they were made incremental: the
   process exits nonzero if any differs, so a speed-up that moves a
   bootstrap cannot pass.  [--tiny] runs the same grid at 1024 slots,
   size 64 and 4/10 iterations, one sample each, for CI.  Results go to
   stdout and, with [--json PATH], to a halo-bench-compile/v1 JSON report
   that names the host's CPU and core count. *)

open Halo
module W = Halo_ml.Workloads

type geometry = {
  slots : int;
  size : int;
  dacapo_iters : int list;
  halo_iters : int;
  samples : int; (* compiles per cell *)
  (* (program, strategy, iterations) -> MD5 of the printed program *)
  digests : (string * string * int * string) list;
}

let full =
  {
    slots = 8192;
    size = 512;
    dacapo_iters = [ 10; 20; 30; 40 ];
    halo_iters = 40;
    samples = 5;
    digests =
      [
        ("Linear", "dacapo", 10, "84936c11d72afd0f023562058c73ee9f");
        ("Linear", "dacapo", 20, "9d5a3dc7e3c5ec1b891f04cff17c05ef");
        ("Linear", "dacapo", 30, "fc22c4bc8d306ec4698ba4d205f23265");
        ("Linear", "dacapo", 40, "02a4b047e4c5e97df5378fb23e9accaa");
        ("Linear", "halo", 40, "2b98bd367372acba1f2addf46a13683f");
        ("Polynomial", "dacapo", 10, "e5108092c3e529fe6c6c918e55f76993");
        ("Polynomial", "dacapo", 20, "30af34cfbf695ad433726b106cf00de5");
        ("Polynomial", "dacapo", 30, "db262c7b2ef28350d1ab56191ef18a92");
        ("Polynomial", "dacapo", 40, "8dd31281484b3b05a432338f99700aec");
        ("Polynomial", "halo", 40, "5081ed8833067ed7539644929613383a");
        ("Multivariate", "dacapo", 10, "c80fdfde895a59ce09348deed4c27a37");
        ("Multivariate", "dacapo", 20, "5e7c226e10f9de90736717e864c5bbcc");
        ("Multivariate", "dacapo", 30, "78f3908efbf56a592be59bedb2331db2");
        ("Multivariate", "dacapo", 40, "61b695d88570120438c96ddc1fadc81c");
        ("Multivariate", "halo", 40, "070763592341b5a002d818ce683d1a09");
        ("Logistic", "dacapo", 10, "566e2cad53997228fd4a4c941ec340ad");
        ("Logistic", "dacapo", 20, "76191e81bfa4bb3ef5343dd5d40d1127");
        ("Logistic", "dacapo", 30, "ed116f4e4e101e67f3f0e675140ef010");
        ("Logistic", "dacapo", 40, "8616e4f48e7e09906bc54c5561226a1a");
        ("Logistic", "halo", 40, "516ae52c18488bc45f17d24222ace3b3");
        ("K-means", "dacapo", 10, "23f2f7e45d4b467dfc118cbfb6a62fab");
        ("K-means", "dacapo", 20, "552a77dcd06c39944d384be2be26b110");
        ("K-means", "dacapo", 30, "15f8a83fabcebde7db7a5a4050f15afd");
        ("K-means", "dacapo", 40, "dd1ceca5b27d65e65eb431df0e21f262");
        ("K-means", "halo", 40, "f0f95f5d7185fb9c6f1a23c76a846efe");
        ("SVM", "dacapo", 10, "75bf4ed9db8604af30596dcf14c5511c");
        ("SVM", "dacapo", 20, "b0627ba703b0212314d6313f3a458a35");
        ("SVM", "dacapo", 30, "bbd0e1995e2493ad0c386a8254b8fba6");
        ("SVM", "dacapo", 40, "a236e0e8ad4470701295c354c6aa40e6");
        ("SVM", "halo", 40, "175efc104f723d5f6f0236832ac1d891");
      ];
  }

let tiny =
  {
    slots = 1024;
    size = 64;
    dacapo_iters = [ 4; 10 ];
    halo_iters = 10;
    samples = 1;
    digests =
      [
        ("Linear", "dacapo", 4, "e1835e81f82f28c4cbf4ec80598c2ecf");
        ("Linear", "dacapo", 10, "89f6cbccc2d97239ceda897226ff4859");
        ("Linear", "halo", 10, "2bfa3668e92bf7140ef957564554b88b");
        ("Polynomial", "dacapo", 4, "ad32c485b4f489bf1d642e1955be0345");
        ("Polynomial", "dacapo", 10, "5a1813189ddca87afc632c9e16167f80");
        ("Polynomial", "halo", 10, "99b30880ede5b309eb0649079f7f1ac7");
        ("Multivariate", "dacapo", 4, "bd8be13dc376f78776a2de2e1bfba635");
        ("Multivariate", "dacapo", 10, "239590a2c4b5911e2475afb5b5c5bbc5");
        ("Multivariate", "halo", 10, "88b8f9ef924b489647d10f6a15d2d3f3");
        ("Logistic", "dacapo", 4, "59870879dcae6bd01c6572bd0f78cfb9");
        ("Logistic", "dacapo", 10, "e436f60c2722e9f6febdd02e2fb6fd28");
        ("Logistic", "halo", 10, "14e999d6f5f080169f67732134be7b4e");
        ("K-means", "dacapo", 4, "2a50ce241075d452ecc29ca3646ea99a");
        ("K-means", "dacapo", 10, "b1d24863ba908a57ec51b94b6f52882b");
        ("K-means", "halo", 10, "9a3a8d877040f4e9af896c49aef905ef");
        ("SVM", "dacapo", 4, "e5ebaaa1354328f36b147477208a3946");
        ("SVM", "dacapo", 10, "873eeddca53b2347dc33e821b19e4586");
        ("SVM", "halo", 10, "ebbb0e6f10848f81886763f2f574ab8e");
      ];
  }

type cell = {
  program : string;
  strategy : Strategy.t;
  iters : int;
  samples : float array; (* seconds, sorted *)
  md5 : string;
  expected : string option;
}

let quantile sorted q =
  let n = Array.length sorted in
  let x = q *. float_of_int (n - 1) in
  let i = int_of_float x in
  if i >= n - 1 then sorted.(n - 1)
  else sorted.(i) +. ((x -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let median c = quantile c.samples 0.5
let matches c = c.expected = Some c.md5

let measure geo (b : Halo_ml.Bench_def.t) strategy ~iters =
  let program = b.build ~slots:geo.slots ~size:geo.size in
  let bindings = W.default_bindings b ~iters in
  let compiled = ref program in
  let times =
    Array.init geo.samples (fun _ ->
        Gc.compact ();
        let t0 = Unix.gettimeofday () in
        compiled := Strategy.compile ~bindings ~strategy program;
        Unix.gettimeofday () -. t0)
  in
  Array.sort compare times;
  let name = Strategy.to_string strategy in
  let md5 = Digest.to_hex (Digest.string (Printer.program_to_string !compiled)) in
  let expected =
    List.find_map
      (fun (p, s, k, d) -> if p = b.name && s = name && k = iters then Some d else None)
      geo.digests
  in
  { program = b.name; strategy; iters; samples = times; md5; expected }

(* Per program: its DaCapo cell at the largest iteration count over its
   HALO cell; and the geometric mean of that ratio. *)
let ratios geo cells =
  let find p s k =
    List.find (fun c -> c.program = p && c.strategy = s && c.iters = k) cells
  in
  let last = List.nth geo.dacapo_iters (List.length geo.dacapo_iters - 1) in
  let per =
    List.map
      (fun (b : Halo_ml.Bench_def.t) ->
        ( b.name,
          median (find b.name Strategy.Dacapo last)
          /. median (find b.name Strategy.Halo geo.halo_iters) ))
      W.flat
  in
  let geomean =
    exp
      (List.fold_left (fun acc (_, r) -> acc +. log r) 0.0 per
      /. float_of_int (List.length per))
  in
  (last, per, geomean)

let json geo cells =
  let b = Buffer.create 4096 in
  let last, per, geomean = ratios geo cells in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"halo-bench-compile/v1\",\n";
  Printf.bprintf b "  \"host\": %S,\n" (Host.describe ());
  Printf.bprintf b "  \"slots\": %d,\n  \"size\": %d,\n  \"samples\": %d,\n" geo.slots
    geo.size geo.samples;
  Buffer.add_string b "  \"results\": [\n";
  List.iteri
    (fun i c ->
      Printf.bprintf b
        "    { \"program\": %S, \"strategy\": %S, \"iters\": %d, \"median_s\": %.6f, \
         \"q1_s\": %.6f, \"q3_s\": %.6f, \"md5\": %S, \"md5_matches_reference\": %b }%s\n"
        c.program (Strategy.to_string c.strategy) c.iters (median c)
        (quantile c.samples 0.25) (quantile c.samples 0.75) c.md5 (matches c)
        (if i = List.length cells - 1 then "" else ","))
    cells;
  Printf.bprintf b "  ],\n  \"dacapo_over_halo_at\": %d,\n  \"ratios\": [\n" last;
  List.iteri
    (fun i (p, r) ->
      Printf.bprintf b "    { \"program\": %S, \"ratio\": %.2f }%s\n" p r
        (if i = List.length per - 1 then "" else ","))
    per;
  Printf.bprintf b "  ],\n  \"geomean_ratio\": %.2f\n}\n" geomean;
  Buffer.contents b

let () =
  let geo = ref full in
  let json_path = ref "" in
  let spec =
    [
      ("--json", Arg.Set_string json_path, "write a JSON report to PATH");
      ( "--tiny",
        Arg.Unit (fun () -> geo := tiny),
        "CI smoke mode: 1024 slots, size 64, 4/10 iterations, one sample" );
    ]
  in
  Arg.parse spec (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "bench_compile: DaCapo vs HALO compile time, with printed-program digests";
  let geo = !geo in
  Printf.printf "compile bench: slots=%d size=%d samples=%d\n" geo.slots geo.size geo.samples;
  Printf.printf "%-13s" "benchmark";
  List.iter (fun k -> Printf.printf " %12s" (Printf.sprintf "DaCapo@%d" k)) geo.dacapo_iters;
  Printf.printf " %12s\n%!" (Printf.sprintf "HALO@%d" geo.halo_iters);
  let cells =
    List.concat_map
      (fun (b : Halo_ml.Bench_def.t) ->
        Printf.printf "%-13s%!" b.name;
        let cells =
          List.map
            (fun (strategy, iters) ->
              let c = measure geo b strategy ~iters in
              Printf.printf " %11.4f%s%!" (median c) (if matches c then " " else "!");
              c)
            (List.map (fun k -> (Strategy.Dacapo, k)) geo.dacapo_iters
            @ [ (Strategy.Halo, geo.halo_iters) ])
        in
        print_newline ();
        cells)
      W.flat
  in
  let last, _, geomean = ratios geo cells in
  Printf.printf "median seconds; geomean DaCapo@%d / HALO: %.1fx\n" last geomean;
  if !json_path <> "" then begin
    let oc = open_out !json_path in
    output_string oc (json geo cells);
    close_out oc;
    Printf.printf "wrote %s\n%!" !json_path
  end;
  let bad = List.filter (fun c -> not (matches c)) cells in
  if bad <> [] then begin
    List.iter
      (fun c ->
        Printf.eprintf "bench_compile: %s %s@%d printed-program MD5 %s, expected %s\n"
          c.program (Strategy.to_string c.strategy) c.iters c.md5
          (Option.value c.expected ~default:"(none recorded)"))
      bad;
    exit 1
  end

let same_length op x y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg ("Slots." ^ op ^ ": slot counts differ");
  n

let add x y =
  let n = same_length "add" x y in
  let out = Array.create_float n in
  for i = 0 to n - 1 do
    Array.unsafe_set out i (Array.unsafe_get x i +. Array.unsafe_get y i)
  done;
  out

let sub x y =
  let n = same_length "sub" x y in
  let out = Array.create_float n in
  for i = 0 to n - 1 do
    Array.unsafe_set out i (Array.unsafe_get x i -. Array.unsafe_get y i)
  done;
  out

let mul x y =
  let n = same_length "mul" x y in
  let out = Array.create_float n in
  for i = 0 to n - 1 do
    Array.unsafe_set out i (Array.unsafe_get x i *. Array.unsafe_get y i)
  done;
  out

let neg x =
  let n = Array.length x in
  let out = Array.create_float n in
  for i = 0 to n - 1 do
    Array.unsafe_set out i (-.Array.unsafe_get x i)
  done;
  out

let shift_of n offset = ((offset mod n) + n) mod n

(* [out.(i) = x.(i + s)], indices wrapped at [n]: two blits. *)
let rotate_by x s n =
  let out = Array.create_float n in
  Array.blit x s out 0 (n - s);
  Array.blit x 0 out (n - s) s;
  out

let rotate x ~offset =
  let n = Array.length x in
  rotate_by x (shift_of n offset) n

let sum_rotations x ~offsets =
  let n = Array.length x in
  match offsets with
  | [] -> invalid_arg "Slots.sum_rotations: no offsets"
  | o :: os ->
    let out = rotate_by x (shift_of n o) n in
    List.iter
      (fun o ->
        let s = shift_of n o in
        for i = 0 to n - s - 1 do
          Array.unsafe_set out i (Array.unsafe_get out i +. Array.unsafe_get x (i + s))
        done;
        for i = n - s to n - 1 do
          Array.unsafe_set out i (Array.unsafe_get out i +. Array.unsafe_get x (i + s - n))
        done)
      os;
    out

let replicate x ~period n =
  if period <= 0 then invalid_arg "Slots.replicate: period must be positive";
  let len = min (Array.length x) period in
  let out = Array.make n 0.0 in
  let rec fill b =
    if b < n then begin
      Array.blit x 0 out b (min len (n - b));
      fill (b + period)
    end
  in
  fill 0;
  out

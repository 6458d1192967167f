(* Splitmix64-style generator truncated to OCaml's 63-bit ints. *)

type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  assert (bound > 0);
  bits t mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t bound =
  let max_bits = float_of_int max_int in
  bound *. (float_of_int (bits t) /. max_bits)

let bucket_count = 63

(* Raw observations kept verbatim while the population is small, so the
   percentile accessors can answer exactly instead of to a power of
   two.  Once [count] exceeds the buffer the histogram silently falls
   back to bucket math — the buffer is never resized. *)
let sample_cap = 128

type t = {
  buckets : int array;
  samples : int array;
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  { buckets = Array.make bucket_count 0;
    samples = Array.make sample_cap 0;
    count = 0; sum = 0;
    min_v = max_int; max_v = min_int }

(* Index of the bucket holding [v]: 0 for v <= 0, otherwise one more
   than the position of v's highest set bit, so 1 -> 1, 2..3 -> 2,
   4..7 -> 3, ... *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    min (bucket_count - 1) (bits 0 v)
  end

let bucket_lo i = if i <= 0 then 0 else 1 lsl (i - 1)
let bucket_hi i = if i <= 0 then 0 else (1 lsl i) - 1

let add t v =
  t.buckets.(bucket_of v) <- t.buckets.(bucket_of v) + 1;
  if t.count < sample_cap then t.samples.(t.count) <- v;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let sum t = t.sum
let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = if t.count = 0 then 0 else t.max_v

let percentile t p =
  if t.count = 0 then 0
  else begin
    let target =
      let x = int_of_float (ceil (p *. float_of_int t.count)) in
      max 1 (min t.count x)
    in
    let rec walk i seen =
      if i >= bucket_count then t.max_v
      else begin
        let seen = seen + t.buckets.(i) in
        if seen >= target then min (bucket_hi i) t.max_v
        else walk (i + 1) seen
      end
    in
    walk 0 0
  end

(* Exact percentile over the retained raw samples; only valid while
   [count <= sample_cap]. *)
let percentile_exact t p =
  let sorted = Array.sub t.samples 0 t.count in
  Array.sort compare sorted;
  let target =
    let x = int_of_float (ceil (p *. float_of_int t.count)) in
    max 1 (min t.count x)
  in
  sorted.(target - 1)

let pct t p =
  if t.count = 0 then 0
  else if t.count <= sample_cap then percentile_exact t p
  else percentile t p

let p50 t = pct t 0.50
let p95 t = pct t 0.95
let p99 t = pct t 0.99

let iter_nonempty t f =
  for i = 0 to bucket_count - 1 do
    if t.buckets.(i) > 0 then
      f ~lo:(bucket_lo i) ~hi:(bucket_hi i) ~count:t.buckets.(i)
  done

(** Log2-bucketed latency histograms.

    Bucket [0] counts values [<= 0]; bucket [i > 0] counts values in
    [[2^(i-1), 2^i)].  Sixty-three buckets cover the whole non-negative
    [int] range, so insertion is O(1), memory is constant, and
    percentiles are answered to within a factor of two — plenty for
    "did the fault path get slower" questions over simulated cycles. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** [add t v] records one observation of [v] (cycles, depth, bytes...). *)

val count : t -> int
val sum : t -> int
val mean : t -> float
(** [mean t] is [0.] when empty. *)

val min_value : t -> int
(** Smallest observation; [0] when empty. *)

val max_value : t -> int
(** Largest observation; [0] when empty. *)

val p50 : t -> int
val p95 : t -> int
val p99 : t -> int
(** Percentiles.  While the population is small (at most 128
    observations) these are answered exactly from a raw sample buffer;
    beyond that, by a walk over the buckets: the top of the bucket where
    the cumulative count crosses the fraction, clamped to [max_value],
    an upper bound within a factor of two.  [0] when empty. *)

val iter_nonempty : t -> (lo:int -> hi:int -> count:int -> unit) -> unit
(** Visit non-empty buckets in increasing value order. *)

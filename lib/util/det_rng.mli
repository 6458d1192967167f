(** Deterministic pseudo-random number generation.

    Workload generators must be reproducible across runs so that paper
    tables regenerate identically; this is a small splitmix64-style PRNG
    with an explicit state, independent of [Random]'s global state. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] is a generator whose sequence is a pure function of
    [seed]. *)

val int : t -> int -> int
(** [int t bound] is a uniform integer in [\[0, bound)].  [bound] must be
    positive. *)

val bool : t -> bool
(** [bool t] is a uniform boolean. *)

val float : t -> float -> float
(** [float t bound] is a uniform float in [\[0, bound)]. *)

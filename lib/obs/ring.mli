(** Fixed-capacity ring buffer.

    The trace sink keeps the most recent [capacity] records; older ones
    are silently overwritten (and counted) rather than growing without
    bound.  A capacity of zero makes every push a no-op, which is what
    the null sink uses. *)

type 'a t

val create : capacity:int -> 'a t
(** [create ~capacity] holds at most [capacity] elements. *)

val push : 'a t -> 'a -> unit
(** [push t x] appends [x], evicting the oldest element when full. *)

val length : 'a t -> int
(** Elements currently held. *)

val pushed : 'a t -> int
(** Total elements ever pushed, including those since overwritten. *)

val dropped : 'a t -> int
(** [pushed - length]: elements lost to wraparound. *)

val iter : ('a -> unit) -> 'a t -> unit
(** [iter f t] applies [f] oldest-first over the retained elements. *)

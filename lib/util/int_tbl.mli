(** Hash tables keyed by int: no polymorphic hash or compare, and
    nothing allocated per binding.

    Open addressing with linear probing: the keys sit unboxed in one
    int array and the values in a second array beside it, so a lookup
    is a multiply, a shift and a walk along one int array.  A key's
    slot is the top bits of its product with an odd 62-bit constant,
    which every bit of the key reaches: both halves of a key that packs
    two fields above and below bit 32 ({!pair}), and consecutive or
    page-aligned keys, spread over the slots.  Used for tables keyed by
    vpn, asid, page-table index, disk block, pager id, swap offset or a
    packed pair.

    [min_int] is no key: binding it raises [Invalid_argument], and no
    lookup finds it.  The table keeps the first value bound since it
    was created or {!reset} reachable; a removed value stays reachable
    from nowhere else in it. *)

type 'a t

val create : int -> 'a t
(** [create n] is an empty table with room for about [n] bindings
    before it first grows. *)

val length : 'a t -> int
(** The number of bindings. *)

val mem : 'a t -> int -> bool

val find : 'a t -> int -> 'a
(** [find t k] is [k]'s value; raises [Not_found] when [k] is unbound. *)

val find_or : 'a t -> int -> 'a -> 'a
(** [find_or t k default] is [k]'s value, or [default] when [k] is
    unbound; it allocates nothing.  A table whose values are options,
    each built once when it is bound, answers [find_or t k None] with
    the stored option. *)

val find_opt : 'a t -> int -> 'a option

val add : 'a t -> int -> 'a -> unit
(** [add t k v] binds [k], which must be unbound (else
    [Invalid_argument]); there is one binding per key. *)

val replace : 'a t -> int -> 'a -> unit
(** [replace t k v] binds [k] to [v], replacing any earlier binding. *)

val remove : 'a t -> int -> unit
(** [remove t k] unbinds [k], if bound. *)

val clear : 'a t -> unit
(** Drop every binding, keeping the capacity. *)

val reset : 'a t -> unit
(** Drop every binding and return to the capacity of {!create}. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** [iter f t] applies [f] to each binding in slot order, which
    follows the hash: no caller may depend on it.  [f] must not bind or
    unbind keys of [t]. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** [fold f t acc] folds [f] over the bindings in slot order, as
    {!iter}. *)

val filter_map_inplace : (int -> 'a -> 'a option) -> 'a t -> unit
(** [filter_map_inplace f t] rebinds each key [k] of [t] to [v'] when
    [f k v] is [Some v'] and unbinds it when it is [None], calling [f]
    once per binding, in no order a caller may depend on. *)

val longest_probe : 'a t -> int
(** The most slots a lookup of a bound key examines: 1 when every key
    sits in its home slot, 0 for an empty table.  How well the hash
    spreads a key shape. *)

(** {1 Pairs as keys} *)

val pair_fits : int -> int -> bool
(** [pair_fits hi lo] holds when [hi] is in [\[0, 2{^30})] and [lo] in
    [\[0, 2{^32})]. *)

val pair : int -> int -> int
(** [pair hi lo] is one non-negative key holding both: [hi] above bit
    32, [lo] below.  Two pairs that fit never share a key; one that
    does not fit raises [Invalid_argument] rather than alias another. *)

val pair_hi : int -> int
(** [pair_hi (pair hi lo)] is [hi]. *)

val pair_lo : int -> int
(** [pair_lo (pair hi lo)] is [lo]. *)

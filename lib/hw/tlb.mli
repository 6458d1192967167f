(** Per-CPU translation lookaside buffer.

    A small fully-associative cache of (asid, virtual page) to (frame,
    protection) mappings with FIFO replacement.  None of the
    multiprocessors the paper ran on kept TLBs consistent in hardware
    (Section 5.2), so invalidation is entirely software-driven: the pmap
    layer calls the flush operations below, possibly on remote CPUs via the
    machine's shootdown mechanism.

    An entry is keyed by one int packing its asid and virtual page, and
    the FIFO order is a ring of such ints, so a refill allocates no key
    or queue cell.  The virtual page must lie in [\[0, 2{^32})] and the
    asid in [\[0, 2{^30})]: {!insert} refuses anything else, and the
    lookups and invalidations answer for it as for a page never
    cached. *)

type t
(** One CPU's TLB. *)

type entry = { asid : int; vpn : int; pfn : int; prot : Prot.t }
(** A cached translation. *)

val create : capacity:int -> t
(** [create ~capacity] is an empty TLB holding at most [capacity] entries.
    A capacity of 0 means the machine has no TLB (every access walks the
    hardware maps, as on the SUN 3). *)

val capacity : t -> int
(** [capacity t] is the entry budget given at creation. *)

val lookup : t -> asid:int -> vpn:int -> entry option
(** [lookup t ~asid ~vpn] is the cached translation, if present.  The
    machine counts hits and misses ({!Machine.stats}). *)

val insert : t -> entry -> unit
(** [insert t e] caches [e], evicting the oldest entry when full and
    replacing any existing entry for the same (asid, vpn).  An entry
    invalidated and inserted again keeps its old place in the FIFO
    order as well as its new one, and is evicted from the older.  Raises
    [Invalid_argument] when the asid or vpn does not fit its key field
    (on a TLB of capacity 0, which caches nothing, it never raises). *)

val invalidate_page : t -> asid:int -> vpn:int -> unit
(** [invalidate_page t ~asid ~vpn] drops the entry for one page, if
    cached. *)

val invalidate_range : t -> asid:int -> lo_vpn:int -> hi_vpn:int -> unit
(** [invalidate_range t ~asid ~lo_vpn ~hi_vpn] drops every cached entry of
    [asid] with virtual page in [\[lo_vpn, hi_vpn)]; the batched-shootdown
    unit of invalidation. *)

val invalidate_asid : t -> asid:int -> unit
(** [invalidate_asid t ~asid] drops every entry of one address space. *)

val entries : t -> entry list
(** Current contents, oldest first; used by tests. *)

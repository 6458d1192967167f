(** Memory objects (Sections 3.3-3.5).

    A memory object is a repository for data, indexed by byte, that can be
    mapped into task address spaces.  All backing store is implemented by
    memory objects, so address maps never track backing storage
    themselves.  This module manages:

    - reference-counted creation and termination;
    - the object cache, which retains frequently used objects (text
      segments, files) after their last mapping reference disappears so
      reuse is inexpensive (Section 3.3);
    - shadow objects, which collect and remember the modified pages of a
      copy-on-write copy while relying on the original for everything
      unmodified (Section 3.4);
    - garbage collection of shadow chains: when an intermediate shadow is
      completely obscured or no longer shared it is collapsed away,
      preventing the long chains repeated fork/modify cycles would
      otherwise build (Section 3.5). *)

open Types

val create_anonymous : Vm_sys.t -> size:int -> obj
(** [create_anonymous sys ~size] is a temporary (internal) object with no
    pager: absent pages are zero filled on demand and the default pager
    takes its pageouts.  Reference count 1. *)

val create_with_pager : Vm_sys.t -> pager -> size:int -> obj
(** [create_with_pager sys pager ~size] is the object managed by [pager].
    If a live object already exists for this pager it is referenced and
    returned; if a cached one exists it is revived from the object cache
    (a cache hit, keeping its resident pages); otherwise a fresh object is
    created. *)

val reference : obj -> unit
(** [reference o] takes one more reference. *)

val deallocate : Vm_sys.t -> obj -> unit
(** [deallocate sys o] releases one reference.  When the last reference
    goes: persistent objects whose pager asked for caching enter the
    object cache (evicting the least recently used entry beyond the cache
    limit); anything else is terminated — its pages are freed (after
    removal from all pmaps) and its shadow reference released. *)

val shadow : Vm_sys.t -> obj -> offset:int -> size:int -> obj
(** [shadow sys o ~offset ~size] creates a shadow object of [size] bytes
    whose offset 0 corresponds to [offset] in [o].  The caller's reference
    to [o] is consumed by the new object's shadow link, so the caller must
    replace its own reference with the returned object (reference count
    1).  Used by the copy-on-write write-fault path. *)

val collapse : Vm_sys.t -> obj -> unit
(** [collapse sys o] repeatedly merges [o] with the object it shadows when
    that object is temporary, pager-less and referenced only by [o]:
    pages not obscured by [o] move up into it, obscured pages are freed,
    and the chain shortens by one.  Disabled when
    [sys.collapse_enabled] is false (ablation). *)

val chain_length : obj -> int
(** [chain_length o] is the number of objects from [o] to the bottom of
    its shadow chain, inclusive; the Section 3.5 bench reports this. *)

val chain_lookup :
  Vm_sys.t -> obj -> offset:int ->
  [ `Found of obj * page * int | `Absent of obj * int ]
(** [chain_lookup sys o ~offset] follows the shadow chain looking for the
    page at byte [offset] (page aligned): [`Found (owner, page,
    owner_offset)] when some object in the chain holds it resident,
    [`Absent (bottom, bottom_offset)] when no object does and data must
    come from [bottom]'s pager or be zero filled. *)

val lookup_resident : Vm_sys.t -> obj -> offset:int -> page option
(** [lookup_resident sys o ~offset] checks only [o] itself. *)

val free_page : Vm_sys.t -> page -> unit
(** [free_page sys p] removes every pmap mapping of [p] (urgently, so no
    stale TLB entry can reach the recycled frame) and returns it to the
    free list. *)

(** {1 Object locking}

    The simulator is single-threaded; object locks model the {e time} a
    multiprocessor would lose to contention.  An object lock is the one
    simulated lock the free queue uses too ([Vm_stats.lock_acquire]):
    writer sections stamp the object with the cycle at which they
    released; a later acquisition by a CPU whose clock is behind the
    stamp stalls for the residue, charged to the [Lock_wait] attribution
    category.  On one CPU every stall is zero, so the layer is
    cycle-invisible sequentially. *)

val lock_write : Vm_sys.t -> obj -> (unit -> 'a) -> 'a
(** [lock_write sys o f] runs [f] as an exclusive (writer) critical
    section on [o]: stalls for any overlapping prior hold, then on the
    way out stamps the release time.
    Pagein, shadow interposition, copy-on-write resolution and pageout
    cleaning run under this. *)

val lock_read : Vm_sys.t -> obj -> unit
(** [lock_read sys o] is the optimistic reader path: lock-free, it
    charges nothing when uncontended and only the
    retry residue when a writer hold overlaps in virtual time.  The
    resident-fault fast path uses this. *)

val uncache : Vm_sys.t -> obj -> unit
(** [uncache sys o] terminates [o] if it currently sits in the object
    cache; no-op otherwise.  Used when a pager withdraws its caching
    request. *)

val drain_cache : Vm_sys.t -> unit
(** [drain_cache sys] terminates every cached object (used by tests and by
    the cache-ablation bench). *)

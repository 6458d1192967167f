(** The paging daemon (Sections 3.1 and 5.2).

    Maintains the allocation queues: active pages age into the inactive
    (reclaimable) queue with their reference bits cleared; inactive pages
    whose reference bit came back on get a second chance; the rest are
    evicted.  Eviction follows the paper's TLB-consistency discipline for
    pageout (case 2 of Section 5.2): mappings are first removed from every
    pmap, then the daemon waits until all referencing TLBs have flushed (a
    timer tick) before the frame is freed, so no CPU can touch a recycled
    frame through a stale translation.

    Dirty anonymous pages are written to the default pager; dirty
    pager-backed pages are written back through [pager_data_write]. *)

val run : Vm_sys.t -> wanted:int -> unit
(** [run sys ~wanted] tries to free [wanted] pages now; it is every
    kernel's [Vm_sys.reclaim], called when the free list runs low. *)

val clean_page : Vm_sys.t -> Types.page -> bool
(** [clean_page sys p] writes [p] to its object's pager (attaching a
    default pager to anonymous objects, decorated by
    [Vm_sys.pager_decorator]) and clears its modify bits; used by the
    daemon and by [pager_clean_request].  The write blocks, so on [true]
    the page is clean now.  [false] means the write failed after its
    retry budget ({!Pager_guard}): the page is still dirty and the
    caller must keep it resident. *)

val write_cluster : Vm_sys.t -> Types.obj -> Types.page list -> bool
(** [write_cluster sys o pages] issues one clustered write for [pages]
    (contiguous, ascending offsets, all in [o], length >= 2), revoking
    write permission first and clearing modify bits on success.
    [false] means nothing was written; the caller must degrade to
    per-page {!clean_page} calls.  Used by the daemon and by
    [pager_clean_request]. *)

val deactivate_some : Vm_sys.t -> count:int -> unit
(** [deactivate_some sys ~count] moves up to [count] pages from the active
    to the inactive queue, clearing their reference bits; normally called
    by {!run} but exposed for tests. *)

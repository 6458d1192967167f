(** Clustered pagein with per-stream adaptive read-ahead.

    The machine-independent half of the Table 7-1 fix: when a fault (or
    a file read through {!Vnode_pager.read_through_object}) misses on a
    pager-backed page, ask the pager for a whole cluster and keep the
    extra pages resident as prefetch.  The window ramps
    1→2→4→…→[Vm_sys.cluster_max] while access stays sequential and
    resets on random access; prefetched pages go on the {e inactive}
    queue so wrong guesses are reclaimed first.

    Window state lives in a small per-object array of {e stream slots}
    ({!slot_count} of them), each keyed by the reading (map, entry), so
    several tasks streaming one shared object ramp independently instead
    of resetting each other through a single cursor.  A miss matches the
    slot whose cursor equals its offset ([Vm_sys.stats.stream_hits]);
    otherwise it reuses the reader's own slot, an expired one, or
    recycles the least recently used ([stream_resets]).  A slot lives
    while the {!Mach_hw.Machine.stamp} of its last commit does, so a
    clock reset expires it, and it dies with its object.

    Once a stream has ramped to {!free_behind_window} pages, the clean
    pages behind its cursor are deactivated to the {e head} of the
    inactive queue (free-behind), so a file larger than memory reclaims
    its own wake instead of flushing other tasks' working sets; dirty,
    wired, riding pages and pages ahead of another live stream are left
    alone.

    Clustering never weakens the failure policy: the range request is
    one-shot, and any error or truncated reply falls back to the
    retried one-page {!Pager_guard.request}, which a one-page plan asks
    directly.  The slot state is committed only after a successful
    issue, at the size actually issued — failed or clipped clusters
    cannot leave a phantom ramp — and a successful fallback read still
    advances the sequence point, so one bad cluster costs the ramp, not
    the ability to ramp again.

    [cluster_max = 1] takes the same path with every plan clipped to
    the demand page; its slot bookkeeping still runs, so [stream_hits]
    counts the sequential misses.

    Every reply lands through one step, a one-page reply being a
    cluster of one.  A reply stamps each page, demand page first
    ({!Mach_hw.Machine.io_landed}).  The miss waits only for the
    demand page; the prefetched pages are resident and filled at once
    but ride their own stamps ({!Resident.ride}), and the first
    fault to touch one waits out only that page's remaining device time
    ({!note_hit} → {!Pager_guard.await_page}).  A reply from a pager
    with no device behind it has already landed.

    A miss that continues a stream first asks the reclaimer for the
    pages its cluster needs beyond [free_target], so read-ahead keeps
    working when memory is full; a random miss never reclaims for
    speculation, and prefetch never allocates below [free_reserved]. *)

val slot_count : int
(** Stream slots per object that has seen a pager miss (8). *)

val pagein :
  Vm_sys.t -> ?stream:int * int -> Types.obj -> offset:int -> limit:int ->
  [ `Data of Types.page * int | `Absent | `Error ]
(** [pagein sys ~stream obj ~offset ~limit] services a pager miss at
    [offset] (page aligned) on behalf of the reader identified by
    [stream = (map id, entry start)] — the stream-slot key; the default
    [(-1, 0)] is the anonymous reader, so unkeyed callers share one
    slot.  [limit] bounds the cluster in this object's offset space (the
    map entry's window; pass [max_int] for none — object size always
    applies).  [`Data (p, bytes)] returns the resident, filled demand
    page and the total bytes the pager supplied (for the Pagein trace
    event); prefetched pages beyond the demand page are inserted into
    the object directly.  [`Absent] and [`Error] mean what they mean
    for {!Pager_guard.request}. *)

val note_hit : Vm_sys.t -> Types.page -> unit
(** Tell the read-ahead machinery a resident-page lookup hit [p]; if
    the page was prefetched this counts a prefetch hit and promotes it
    to the active queue. *)

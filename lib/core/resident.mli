(** The resident page table (Section 3.1).

    Physical memory is treated primarily as a cache for the contents of
    virtual memory objects.  This module keeps one {!Types.page} entry per
    machine-independent page, where a page is a boot-time power-of-two
    multiple of the hardware page size; each entry may simultaneously be
    linked into a memory-object page list, an allocation queue (free,
    active or inactive/reclaimable), and the object/offset table used
    for fast fault-time lookup: its [pg_life] says which.  This module
    is the one writer of every page field.

    Free pages live on one FIFO fronted by per-CPU magazines of 8 pages
    that refill and drain in whole batches.  Contention on the shared
    queue can be simulated (opt-in) with the one simulated lock that
    [Vm_object] locks are ([Vm_stats.lock_acquire]), on the machine's
    clocks; without it the allocator charges no cycles.

    Callers name a page by its object and byte offset, independent of
    any particular notion of physical page size; the table packs the
    object id and the page's index in the object into one int key
    ([Mach_util.Int_tbl.pair]), so a lookup builds no tuple. *)

type t
(** The resident page table for one kernel. *)

val create :
  machine:Mach_hw.Machine.t -> stats:Vm_stats.statistics -> multiple:int ->
  ?frame_limit:int -> unit -> t
(** [create ~machine ~stats ~multiple ()] groups [machine]'s present
    hardware frames into machine-independent pages of [multiple]
    consecutive frames (aligned); incomplete or hole-straddling groups
    are unusable, as are frames at or beyond [frame_limit] (an
    architecture's physical address limit).  All usable pages start on
    the shared free queue, and each of the machine's CPUs gets an empty
    magazine.  [multiple] must be a power of two.  A stall on the
    simulated queue lock ({!Vm_stats.lock_stall}) and the magazine
    counters ([vs_pcpu_hits], [vs_pcpu_refills], [vs_page_steals]) count
    in [stats]; the magazine counters reset with the machine's clocks,
    and a magazine steal is traced on the machine. *)

val page_size : t -> int
(** Machine-independent page size in bytes. *)

val total_pages : t -> int
(** Usable pages, free or not. *)

val free_count : t -> int
(** Free pages anywhere: the shared queue plus per-CPU magazines.
    O(1). *)

val active_count : t -> int
val inactive_count : t -> int

val set_lock_sim : t -> bool -> unit
(** [set_lock_sim t on] enables/disables contention simulation on the
    shared queue; each critical section holds it for 60 cycles.  Off by
    default: the plain allocator must charge nothing. *)

val alloc : cpu:int -> t -> Types.page option
(** [alloc ~cpu t] takes a free page ([None] when memory is exhausted):
    from [cpu]'s magazine when it is stocked, else from the head of the
    shared queue, refilling the magazine as a batch; when the queue is
    dry but magazines elsewhere still hold pages, one is stolen.  The
    page is [Allocated]: on no queue and owned by no object; its
    previous contents are whatever the last owner left (callers zero or
    overwrite as the fault logic dictates).  [cpu] must be one of the
    machine's CPUs.  The option is the page's [pg_found]. *)

val lookup : t -> obj:Types.obj -> offset:int -> Types.page option
(** [lookup t ~obj ~offset] is the fault-path lookup by memory object
    and byte offset; [None] for an offset that does not start a page.
    It allocates nothing. *)

val offset : Types.page -> int
(** Owned [p]'s byte offset in its object ([Invalid_argument] if
    unowned). *)

val insert : t -> Types.page -> obj:Types.obj -> offset:int -> unit
(** [insert t p ~obj ~offset] gives [p] its object/offset identity,
    linking it into [obj]'s page list and the hash: an [Allocated] page
    is then [Held], on no queue, and an owned one moves (a collapse
    moving a page up), keeping its queue place or wiring.  [offset]
    must be page aligned and not already occupied, and [p] not free
    (else [Invalid_argument]). *)

(** Queue moves and wiring take an owned page ([Invalid_argument]
    otherwise).  [activate] puts it at the tail of the active queue,
    unless it is wired; [deactivate] an unwired one at the tail of the
    inactive queue, or with [~front:true] at its head, which
    [take_inactive] pops next (free-behind: a stream's spent pages go
    before anyone else's working set).  [take_inactive] and
    [take_active] pop the oldest page of their queue for the pageout
    daemon and leave it [Held].  [wire] wires a page once more, taking
    it off its queue, and the last [unwire] puts it at the tail of the
    active queue ([Invalid_argument] on an unwired page). *)

val activate : t -> Types.page -> unit
val deactivate : ?front:bool -> t -> Types.page -> unit
val take_inactive : t -> Types.page option
val take_active : t -> Types.page option
val wired : Types.page -> bool
val wire : t -> Types.page -> unit
val unwire : t -> Types.page -> unit

val requeue : t -> Types.page -> int
val cleaned : Types.page -> unit
(** [requeue t p] activates [p] after a pageout whose write failed, and
    is the count of such failures in a row; [cleaned p], after one that
    succeeded, restarts it. *)

val riding : Types.page -> bool
(** [p] is [Riding]: busy until {!Pager_guard.await_page}. *)

val read_ahead : Types.page -> bool
(** [p] is [Prefetched] or [Riding]: read ahead, not used yet. *)

val ride : t -> Types.page -> cpu:int -> stamp:int -> service:int -> unit
val landed : Types.page -> unit
(** [ride t p ~cpu ~stamp ~service] makes [p] read-ahead, [Riding] until
    [stamp] when that lies past [cpu]'s clock, else [Prefetched]
    ([landed p] lands it now); [service] is the device time its
    {!Pager_guard.await_page} stands for.  A clock reset lands it. *)

val prefetch_hit : t -> Types.page -> issued:bool -> unit
(** [prefetch_hit t p ~issued] counts the first use of [p] as a prefetch
    hit when it was read ahead or its burst [issued] it; [p] becomes
    [Demand] and, if inactive, moves to the active queue. *)

val free_page : ?cpu:int -> t -> Types.page -> unit
(** [free_page t p] removes [p] from its object (if any) and any queue
    and returns it to the free pool: [cpu]'s magazine when [cpu] is
    given (draining the full magazine back to the shared queue first),
    otherwise the tail of the shared queue.  A read-ahead page counts a
    wasted prefetch; a riding page's stamp is dropped unwaited. *)

val iter_pages : t -> (Types.page -> unit) -> unit
(** [iter_pages t f] applies [f] to every page the allocator manages,
    whatever queue or object it is on; used by consistency checkers. *)

val iter_free : t -> (Types.page -> unit) -> unit
(** [iter_free t f] applies [f] to every free page — the shared queue,
    then magazine contents (without disturbing either); used by
    consistency checkers. *)

val drain_caches : t -> unit
(** Flush every per-CPU magazine back to the shared queue, so pages
    cached for one CPU cannot strand in its magazine while another CPU
    waits on the daemon.  Called when memory pressure is declared and
    after an OOM kill. *)

val conservation_errors : t -> string list
(** Structural audit of the free pool: [free_count] must equal the
    queue length plus magazine contents, and every page on the free
    queue or in a magazine must be [Free] (a magazine's unlinked); a
    [Free] page has no owner or wiring to audit.  Empty list =
    consistent. *)

val check_conservation : t -> bool
(** [conservation_errors t] is empty. *)

val object_pages : Types.obj -> Types.page list
(** [object_pages o] is [o]'s resident pages, in list order. *)

(** The resident page table (Section 3.1).

    Physical memory is treated primarily as a cache for the contents of
    virtual memory objects.  This module keeps one {!Types.page} entry per
    machine-independent page, where a page is a boot-time power-of-two
    multiple of the hardware page size; each entry may simultaneously be
    linked into a memory-object page list, an allocation queue (free,
    active or inactive/reclaimable), and the object/offset table used
    for fast fault-time lookup.

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

val alloc : ?cpu:int -> t -> Types.page option
(** [alloc t] takes a free page ([None] when memory is exhausted): from
    [cpu]'s magazine when it is stocked, else from the
    head of the shared queue, refilling the magazine as a batch; when
    the queue is dry but magazines elsewhere still hold pages, one is
    stolen.  The page is on no queue and belongs to no object; its
    previous contents are whatever the last owner left (callers zero or
    overwrite as the fault logic dictates).  [cpu] defaults to 0 and
    must be one of the machine's CPUs. *)

val lookup : t -> obj:Types.obj -> offset:int -> Types.page option
(** [lookup t ~obj ~offset] is the fault-path lookup by memory object
    and byte offset; [None] for an offset that does not start a page.
    It allocates nothing. *)

val insert : t -> Types.page -> obj:Types.obj -> offset:int -> unit
(** [insert t p ~obj ~offset] gives [p] its object/offset identity,
    linking it into [obj]'s page list and the hash.  [offset] must be
    page aligned and not already occupied (else [Invalid_argument]). *)

val remove_from_object : t -> Types.page -> unit
(** [remove_from_object t p] strips [p]'s identity (hash and object list);
    the page remains allocated. *)

val free_page : ?cpu:int -> t -> Types.page -> unit
(** [free_page t p] removes [p] from its object (if any) and any queue
    and returns it to the free pool: [cpu]'s magazine when [cpu] is
    given (draining the full magazine back to the shared queue first),
    otherwise the tail of the shared queue. *)

val enqueue : t -> Types.page -> Types.pageq -> unit
(** [enqueue t p q] moves [p] to queue [q] (removing it from its current
    queue).  [Q_free] must be reached via {!free_page} instead. *)

val enqueue_inactive_front : t -> Types.page -> unit
(** [enqueue_inactive_front t p] moves [p] to the {e head} of the
    inactive queue — the position {!take_inactive} pops next — used by
    free-behind so a streaming read's spent pages are reclaimed before
    anyone else's working set. *)

val take_inactive : t -> Types.page option
(** [take_inactive t] pops the oldest inactive page for the pageout
    daemon; the page ends up on no queue. *)

val take_active : t -> Types.page option
(** [take_active t] pops the oldest active page (used by the daemon to
    refill the inactive queue). *)

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
    queue length plus magazine contents, every queued page must be
    marked free, and cached pages must be ownerless.  Empty list =
    consistent. *)

val check_conservation : t -> bool
(** [conservation_errors t] is empty. *)

val object_pages : Types.obj -> Types.page list
(** [object_pages o] is [o]'s resident pages, in list order. *)

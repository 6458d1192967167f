(** The resident page table (Section 3.1).

    Physical memory is treated primarily as a cache for the contents of
    virtual memory objects.  This module keeps one {!Types.page} entry per
    machine-independent page, where a page is a boot-time power-of-two
    multiple of the hardware page size; each entry may simultaneously be
    linked into a memory-object page list, an allocation queue (free,
    active or inactive/reclaimable), and the object/offset hash bucket
    used for fast fault-time lookup.

    Free pages live on a configurable hierarchy rather than one global
    queue: [domains * colors] colored FIFOs (color = machine-independent
    frame number mod colors, domain = contiguous slice of physical
    memory) fronted by optional per-CPU magazines that refill and drain
    in batches.  The default — one domain, one color, magazines off — is
    a single FIFO identical to the classic allocator, and the direct
    path charges no cycles.  Contention on the shared queues can be
    simulated (opt-in) with the same release-stamp scheme as
    [Vm_object] locks, through hooks installed by the kernel.

    Byte offsets key the hash so the implementation is independent of any
    particular notion of physical page size. *)

type t
(** The resident page table for one kernel. *)

type counters = {
  mutable color_hits : int;
      (** allocations served at their preferred color *)
  mutable color_misses : int;
      (** allocations that widened the color search *)
  mutable pcpu_hits : int;
      (** allocations served from a per-CPU magazine *)
  mutable pcpu_refills : int;
      (** magazine refill trips to the shared queues *)
  mutable numa_local : int;
      (** shared-queue allocations from the CPU's own domain *)
  mutable numa_borrows : int;
      (** shared-queue allocations borrowed from another domain *)
  mutable page_steals : int;
      (** pages stolen out of another CPU's magazine *)
}

type hooks = {
  hk_now : cpu:int -> int;  (** the CPU's virtual clock, absolute cycles *)
  hk_charge : cpu:int -> int -> unit;
      (** charge queue-lock hold time to the CPU *)
  hk_stall : cpu:int -> int -> unit;
      (** charge a contended-lock residue (lock_wait) *)
  hk_epoch : unit -> int;
      (** current clock-reset epoch; stamps from older epochs are dead *)
  hk_steal : cpu:int -> victim:int -> page:Types.page -> unit;
      (** a magazine steal happened (tracing) *)
}
(** Simulation services, installed by [Vm_sys] (or a test harness); the
    allocator never sees the machine directly.  Without hooks it is pure
    bookkeeping. *)

val create :
  phys:Mach_hw.Phys_mem.t -> multiple:int -> ?frame_limit:int -> unit -> t
(** [create ~phys ~multiple ()] groups [phys]'s present hardware frames
    into machine-independent pages of [multiple] consecutive frames
    (aligned); incomplete or hole-straddling groups are unusable, as are
    frames at or beyond [frame_limit] (an architecture's physical address
    limit).  All usable pages start free.  [multiple] must be a power of
    two.  The allocator starts in the flat configuration: one domain,
    one color, magazines off. *)

val configure :
  t -> ?colors:int -> ?domains:int -> ?cpus:int -> ?cache:int ->
  ?refill:int -> unit -> unit
(** [configure t ~colors ~domains ~cpus ~cache ()] rebuilds the free
    hierarchy: [colors] colored queues (a power of two) per NUMA
    [domain], magazines of [cache] pages (0 = off) for CPU ids below
    [cpus], refill/drain trips moving [refill] pages (default 8).  Every
    free page is collected — queues in index order, then magazines — and
    re-bucketed onto its home queue under the new topology, preserving
    relative order; allocated pages are untouched.  Omitted parameters
    keep their current values. *)

val page_size : t -> int
(** Machine-independent page size in bytes. *)

val multiple : t -> int
(** Hardware frames per machine-independent page. *)

val total_pages : t -> int
(** Usable pages, free or not. *)

val free_count : t -> int
(** Free pages anywhere in the hierarchy: colored queues plus per-CPU
    magazines.  O(1). *)

val active_count : t -> int
val inactive_count : t -> int

val colors : t -> int
val domains : t -> int
val cache_size : t -> int
(** Current allocator topology. *)

val domain_free : t -> int -> int
(** [domain_free t d] is the number of pages on domain [d]'s colored
    queues (magazines excluded). *)

val cached_count : t -> int
(** Pages currently sitting in per-CPU magazines. *)

val domain_of_cpu : t -> cpu:int -> int
(** The domain CPU [cpu] allocates locally from ([cpu mod domains]). *)

val counters : t -> counters
(** Live allocator counters (see {!counters}); reset with
    {!reset_counters}. *)

val reset_counters : t -> unit

val set_hooks : t -> hooks -> unit
(** Install the simulation services used by the lock simulation and
    steal tracing. *)

val set_lock_sim : t -> ?hold:int -> bool -> unit
(** [set_lock_sim t on] enables/disables contention simulation on the
    shared queues; [hold] sets the per-critical-section hold time in
    cycles (default 60).  Off by default: the flat configuration must
    charge nothing. *)

val set_free_min_share : t -> int -> unit
(** A domain whose queued free count falls below this many pages is
    considered poor: local allocation borrows from the best-stocked
    other domain instead.  0 (the default) borrows only when the local
    domain is completely empty. *)

val alloc : ?cpu:int -> ?color:int -> t -> Types.page option
(** [alloc t] takes a free page ([None] when memory is exhausted): from
    [cpu]'s magazine when one is configured and stocked, else from the
    colored queues — local domain first, preferring [color] (any int;
    reduced mod colors) with a widening search on miss — refilling the
    magazine as a batch; when the queues are dry but magazines elsewhere
    still hold pages, one is stolen.  The page is on no queue and
    belongs to no object; its previous contents are whatever the last
    owner left (callers zero or overwrite as the fault logic dictates).
    Defaults: [cpu] 0, [color] from a round-robin rotor. *)

val lookup : t -> obj:Types.obj -> offset:int -> Types.page option
(** [lookup t ~obj ~offset] is the fault-path hash lookup by memory object
    and byte offset. *)

val insert : t -> Types.page -> obj:Types.obj -> offset:int -> unit
(** [insert t p ~obj ~offset] gives [p] its object/offset identity,
    linking it into [obj]'s page list and the hash.  [offset] must be
    page aligned and not already occupied. *)

val remove_from_object : t -> Types.page -> unit
(** [remove_from_object t p] strips [p]'s identity (hash and object list);
    the page remains allocated. *)

val free_page : ?cpu:int -> t -> Types.page -> unit
(** [free_page t p] removes [p] from its object (if any) and any queue
    and returns it to the free hierarchy: [cpu]'s magazine when one is
    configured (draining a batch back to the colored queues if it
    overflows), otherwise [p]'s home colored queue directly. *)

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
(** [iter_free t f] applies [f] to every free page — colored queues in
    index order, then magazine contents (without disturbing either);
    used by consistency checkers. *)

val drain_caches : t -> unit
(** Flush every per-CPU magazine back to the colored queues, so pages
    cached for one CPU cannot strand below [free_min] while another CPU
    waits on the daemon.  Called when memory pressure is declared and
    after an OOM kill. *)

val conservation_errors : t -> string list
(** Structural audit of the free hierarchy: [free_count] must equal the
    queue lengths plus magazine contents, per-domain counts must match,
    every queued page must sit on its home queue, and cached pages must
    be ownerless.  Empty list = consistent. *)

val check_conservation : t -> bool
(** [conservation_errors t = []]. *)

val object_pages : Types.obj -> Types.page list
(** [object_pages o] is [o]'s resident pages, in list order. *)

(** The simulated machine: CPUs, TLBs, physical memory and a cycle clock.

    Every memory access made by simulated software goes through a CPU's TLB
    and, on a miss, the active pmap's hardware translation walk; untranslated
    or under-privileged accesses trap to the kernel's fault handler, exactly
    the control flow the paper's VM system is built on.  Each CPU has its own
    cycle clock; total simulated time is the maximum over CPUs.

    TLB consistency is software's problem (none of the paper's
    multiprocessors could touch a remote TLB, Section 5.2), so the machine
    implements the paper's three strategies for propagating mapping changes:
    forcible interrupts, postponing until every CPU has taken a timer
    interrupt, and tolerated temporary inconsistency. *)

type t
(** A machine. *)

type fault = {
  fault_va : int;      (** faulting virtual address *)
  fault_write : bool;  (** whether hardware *reported* a write access; on
                           the NS32082 a read-modify-write access is
                           erroneously reported as a read (Section 5.1) *)
  fault_kind : [ `Invalid | `Protection ];
}
(** What the kernel's fault handler receives. *)

exception Memory_violation of string
(** Raised out of an access when the kernel's fault handler rejects it
    (e.g. access outside the task's address space or beyond its current
    protection), with the reason. *)

exception Unresolved_fault of fault
(** Raised when a fault persists after the handler claims to have resolved
    it repeatedly; indicates a kernel bug, never user error. *)

type shootdown_strategy =
  | Immediate_ipi
      (** Case 1 of Section 5.2: forcibly interrupt every CPU that may hold
          the mapping so its TLB is flushed before the change is used. *)
  | Deferred_timer
      (** Case 2: queue the flush and have the initiator wait until all
          CPUs have taken a timer interrupt (and hence flushed). *)
  | Lazy_local
      (** Case 3: flush only the initiating CPU and tolerate temporary
          inconsistency; remote CPUs flush at their next timer tick. *)

type flush_request =
  | Flush_page of { asid : int; vpn : int }  (** one translation *)
  | Flush_range of { asid : int; lo_vpn : int; hi_vpn : int }
      (** a coalesced run of pages, [\[lo_vpn, hi_vpn)]; produced by the
          pmap layer's flush batching *)
  | Flush_asid of int                        (** one address space *)

type stats = {
  mutable faults : int;           (** faults delivered to the kernel *)
  mutable ipis : int;             (** cross-CPU interrupts sent *)
  mutable shootdowns : int;       (** shootdown operations initiated *)
  mutable deferred_flushes : int; (** flushes executed at timer ticks *)
  mutable stale_tlb_uses : int;   (** TLB hits on entries with a pending
                                      invalidation (Lazy_local windows) *)
  mutable disk_ops : int;
  mutable disk_bytes : int;
  mutable disk_errors : int;  (** simulated disk transfers that failed
                                  (fault injection) *)
  mutable disk_retries : int; (** failed transfers retried by the driver *)
  mutable disk_waits : int;   (** blocking waits on disk stamps *)
  mutable disk_wait_cycles : int;
      (** cycles spent blocked on disk stamps (the residue actually
          charged at wait time) *)
  mutable disk_overlap_cycles : int;
      (** device cycles hidden behind computation: per wait,
          [service - residue] clamped at zero *)
  mutable tlb_hit_count : int;    (** translations served from a TLB entry *)
  mutable tlb_miss_count : int;   (** translations that walked the
                                      hardware map (or had no TLB) *)
}

val create :
  arch:Arch.t -> memory_frames:int -> ?holes:(int * int) list ->
  ?cpus:int -> ?shootdown:shootdown_strategy -> unit -> t
(** [create ~arch ~memory_frames ()] builds a machine with
    [memory_frames] hardware page frames and [cpus] processors (default 1).
    [holes] marks absent physical frame ranges (SUN 3 display memory).
    The timer interrupt that bounds the deferred shootdown strategy fires
    every 10 ms. *)

val arch : t -> Arch.t
val phys : t -> Phys_mem.t
val cpu_count : t -> int
val stats : t -> stats

(** {1 Tracing}

    The machine owns the observability sink: every subsystem (pmap
    backends, fault handler, pageout daemon, pagers) reaches it through
    its machine, so installing one tracer instruments the whole kernel.
    The default is {!Mach_obs.Obs.null}, permanently disabled; each
    instrumentation site pays one branch when tracing is off. *)

val tracer : t -> Mach_obs.Obs.t
val set_tracer : t -> Mach_obs.Obs.t -> unit

val set_fault_handler : t -> (cpu:int -> fault -> unit) -> unit
(** [set_fault_handler t h] installs the kernel's page-fault handler.  [h]
    must either repair the mapping (after which the access is retried) or
    raise [Memory_violation]. *)

val set_on_translated :
  t -> (asid:int -> pfn:int -> write:bool -> unit) -> unit
(** [set_on_translated t f] installs the hook the pmap layer uses to
    maintain per-frame reference and modify bits: [f] is called for every
    successful user access with the frame touched and the address space
    it was translated through. *)

(** {1 Clocks} *)

val charge : t -> cpu:int -> int -> unit
(** [charge t ~cpu c] advances CPU [cpu]'s clock by [c] cycles.  When a
    tracer is enabled the cycles are attributed to the innermost open
    category frame on that CPU ({!Mach_obs.Obs.attr_push}). *)

val charge_category : t -> cpu:int -> Mach_obs.Obs.category -> int -> unit
(** [charge_category t ~cpu cat c] is {!charge} with the cycles
    attributed to [cat] explicitly, bypassing the attribution stack;
    used for costs that belong to a fixed subsystem no matter who
    triggered them (disk service time, shootdown IPIs). *)

val with_category : t -> cpu:int -> Mach_obs.Obs.category -> (unit -> 'a) -> 'a
(** [with_category t ~cpu cat f] runs [f] with [cat] pushed on [cpu]'s
    attribution stack, so every {!charge} inside lands in [cat] unless a
    nested frame or explicit category overrides it.  Exception-safe; free
    when tracing is off. *)

val lock_stall : t -> cpu:int -> int -> unit
(** [lock_stall t ~cpu n] charges [n] cycles of contended-lock wait to
    [cpu], attributed to {!Mach_obs.Obs.Lock_wait} explicitly (a stall
    is wait time whatever kernel path suffered it).  A no-op when
    [n <= 0], so uncontended acquisitions are free. *)

(** {1 Stamps}

    A stamp is a cycle count that {!reset_clocks} expires: the simulated
    locks' release times, the landing of a page still on the device, a
    read-ahead slot's last commit.  Once the clocks restart, a stamp
    from before is dead whatever its count says, so a reset cannot
    manufacture a stall.  A stamp is an immediate value; holding one
    allocates nothing. *)

type stamp [@@immediate]

val expired : stamp
(** A stamp that was never live. *)

val stamp : t -> int -> stamp
(** [stamp t cycle] is a stamp at [cycle] (a CPU clock reading, or a
    disk completion after it), live until the next {!reset_clocks}. *)

val stamp_live : t -> stamp -> bool
(** [stamp_live t s] is true when no {!reset_clocks} has run since [s]
    was set. *)

val stamp_residue : t -> stamp -> cpu:int -> int
(** [stamp_residue t s ~cpu] is how many cycles [cpu]'s clock is behind
    [s]: 0 when it is not behind, and 0 once a reset has expired [s]. *)

val add_reset_hook : t -> (unit -> unit) -> unit
(** [add_reset_hook t f] runs [f] at the end of every {!reset_clocks},
    after clocks and machine statistics are zeroed; subsystems keeping
    their own counters (the page allocator) register here so one reset
    clears the whole measurement window. *)

val cycles : t -> cpu:int -> int
(** [cycles t ~cpu] is that CPU's clock. *)

val max_cycles : t -> int
(** [max_cycles t] is the largest CPU clock: elapsed simulated time. *)

val elapsed_ms : t -> float
(** [elapsed_ms t] is [max_cycles] converted via the architecture's clock
    rate. *)

val reset_clocks : t -> unit
(** [reset_clocks t] zeroes every CPU clock and the statistics and
    expires every {!stamp}; benchmarks call this between measurements.  Attribution totals are zeroed with
    the clocks (open frames survive) so they keep summing to the clock. *)

val set_sampler : t -> every_ms:int -> (unit -> unit) -> unit
(** [set_sampler t ~every_ms f] arranges for [f] to run the first time
    any CPU clock crosses each successive [every_ms] boundary of
    simulated time (the vmstat-style periodic readout).  The trigger
    is re-armed past the current {!max_cycles} before [f] runs, so a
    sampler may itself charge cycles.  Costs one compare per charge
    while armed; raises [Invalid_argument] when [every_ms <= 0]. *)

val disk_inflight : t -> int
(** Disk requests submitted but not yet complete at the current
    {!max_cycles}, over every disk; the depth gauge for periodic
    samplers. *)

val charge_disk : t -> cpu:int -> write:bool -> bytes:int -> unit
(** [charge_disk t ~cpu ~write ~bytes] accounts one blocking disk
    operation moving [bytes] bytes (latency plus per-KB transfer cost)
    with no stamp and no wait: the cycles go to [Disk_wait] on [cpu]
    and no [disk_waits] is counted; [write] is the transfer direction,
    recorded on the trace event.  It prices device time nobody waits
    on: a transfer an injected fault wasted before a request's own, and
    the BSD baseline's swap I/O.  A wait that follows pays only its own
    request's service. *)

(** {1 Disk requests}

    A transfer's device time is a stamp ({!io}): it starts, streams its
    bytes after the fixed latency, and completes [service] cycles after
    it started; {!io_landed} says when each prefix of its bytes lands,
    so a caller can wait for the page it needs and let the rest arrive.

    There is no device queue: a request starts when submitted, as if
    each CPU had a disk to itself.  A read ({!submit_disk}) charges
    nothing at submit and returns its stamp; a write ({!write_disk})
    blocks its CPU until it completes and returns nothing. *)

type io = { io_start : int; io_completion : int; io_service : int }
(** When a submitted read lands: [io_start] is the absolute cycle at
    which its bytes start to move (latency behind it), [io_completion]
    the stamp of its last byte, and [io_service] the device time a
    waiter can have overlapped. *)

val io_none : io
(** The stamp of a reply that involved no device: waiting on it is free
    and counts nothing. *)

val io_landed : t -> io -> bytes:int -> int
(** [io_landed t io ~bytes] is the cycle at which the first [bytes]
    bytes of the transfer have landed: [io_start] plus their per-KB
    transfer time, never later than [io_completion].  Page [i] of a
    clustered read lands at [io_landed ~bytes:((i + 1) * page_size)]. *)

val submit_disk : ?after:int -> t -> cpu:int -> bytes:int -> io
(** [submit_disk ~after t ~cpu ~bytes] submits one read and returns its
    stamp; [after] (default 0) is the earliest cycle it may start — the
    completion of the run before it, for a transfer split into runs. *)

val write_disk : ?after:int -> t -> cpu:int -> bytes:int -> unit
(** [write_disk ~after t ~cpu ~bytes] submits one write, starting no
    earlier than [after] (default 0; a read-back the write patches),
    and blocks [cpu] until it completes: one counted wait on its whole
    residue, the time to [after] included, with the write's own service
    as the overlap it can earn. *)

val wait_disk : t -> cpu:int -> completion:int -> service:int -> unit
(** [wait_disk t ~cpu ~completion ~service] blocks [cpu] until
    [completion], charging only the outstanding residue to [Disk_wait],
    and credits [service - residue] to [disk_overlap_cycles].  Waits
    sharing one request split its service between them (0 for a
    re-wait) so overlap is counted once. *)

val wait_io : t -> cpu:int -> io -> unit
(** [wait_io t ~cpu io] is a blocking caller's {!wait_disk} on the whole
    of [io]; free for {!io_none}. *)

(** {1 Address translation and access} *)

val set_translator : t -> cpu:int -> Translator.t option -> unit
(** [set_translator t ~cpu tr] makes [tr] the active hardware map source on
    [cpu]; called by [pmap_activate]/[pmap_deactivate].  Charges a context
    switch when the translator changes. *)

val active_translator : t -> cpu:int -> Translator.t option
(** [active_translator t ~cpu] is the translator last installed on [cpu]
    by {!set_translator}, if any. *)

val translate : t -> cpu:int -> va:int -> write:bool -> int
(** [translate t ~cpu ~va ~write] resolves [va] to a physical frame number,
    faulting to the kernel as needed.  Raises [Memory_violation] if the
    kernel rejects the access. *)

val read : t -> cpu:int -> va:int -> len:int -> Bytes.t
(** [read t ~cpu ~va ~len] performs a user-mode read of [len] bytes at
    [va], faulting pages in as needed, and returns the data. *)

val write : t -> cpu:int -> va:int -> Bytes.t -> unit
(** [write t ~cpu ~va data] performs a user-mode write of [data] at
    [va]. *)

val read_byte : t -> cpu:int -> va:int -> char
val write_byte : t -> cpu:int -> va:int -> char -> unit

val touch : t -> cpu:int -> va:int -> write:bool -> unit
(** [touch t ~cpu ~va ~write] performs a one-byte access, the canonical way
    workloads fault a page in. *)

(** {1 TLB maintenance} *)

val tlb_fill : t -> cpu:int -> Tlb.entry -> unit
(** [tlb_fill t ~cpu e] loads a translation directly into a CPU's TLB; used
    by TLB-only architectures whose kernel reloads the TLB in the fault
    handler. *)

val flush_local : t -> cpu:int -> flush_request -> unit
(** [flush_local t ~cpu req] applies [req] to [cpu]'s TLB immediately,
    charging the flush cost. *)

val shootdown : t -> initiator:int -> targets:int list ->
  flush_request list -> urgent:bool -> unit
(** [shootdown t ~initiator ~targets reqs ~urgent] propagates a list of
    mapping changes in one TLB-consistency exchange; a lone flush is a
    list of one.  The initiator's own TLB is always flushed immediately.
    [urgent] changes are propagated with IPIs regardless of strategy (the
    paper's case 1: "time critical and must be propagated at all costs");
    otherwise the machine's configured strategy applies: immediate
    exchanges interrupt each target CPU once for the whole list (one IPI
    per target, not per request) and complete before returning, deferred
    ones wait out the timer tick, lazy ones only queue.  The list length
    changes how many exchanges occur, never when consistency is restored.
    The empty list is a no-op. *)

val tick : t -> unit
(** [tick t] delivers a timer interrupt to every CPU: pending deferred
    flushes are applied (and charged).  Workloads call this periodically;
    the deferred strategy also waits on it internally. *)

val tlb_overreach : t -> (int * Tlb.entry) list
(** [tlb_overreach t] lists, as [(cpu, entry)], every TLB entry of a
    CPU's active address space that no pending flush covers and that the
    active translator does not back with the same frame and at least the
    entry's rights.  Empty whenever the TLBs are a subset of the pmaps —
    the invariant that lets a pmap skip the shootdown when rights are
    only gained. *)

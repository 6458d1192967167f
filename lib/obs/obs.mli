(** Kernel-wide VM tracing: typed events, a ring-buffer sink, and online
    latency aggregates.

    Every interesting transition in the simulator — fault service,
    pageout, TLB shootdown, pmap mutation, disk transfer, task switch —
    can emit a typed {!event} timestamped in simulated cycles with the
    CPU it happened on.  Events land in a fixed-capacity {!Ring} (old
    events are dropped, never reallocated) and feed per-kind counters
    plus log2 {!Hist} latency histograms, so summaries survive even
    when the ring has wrapped.

    The whole layer is off by default: machines start with {!null}, a
    permanently disabled sink, and every instrumentation site is
    written as [if Obs.enabled tr then Obs.record tr ...] so the
    disabled cost is a single load-and-branch with no allocation. *)

type fault_resolution =
  | Fast_reload  (** re-entered a mapping the pmap had dropped *)
  | Zero_fill    (** no backing data anywhere: fresh zero page *)
  | Cow_copy     (** write fault copied a page up a shadow chain *)
  | Pagein       (** a pager supplied the data (disk, swap, network) *)
  | Fault_error  (** the fault was rejected (bad address/protection) *)
  | Memory_error (** the backing pager failed for good: the retry budget
                     was exhausted and the task sees [KERN_MEMORY_ERROR] *)

val fault_resolutions : fault_resolution list
val fault_resolution_name : fault_resolution -> string

type flush_kind = Fl_page | Fl_range | Fl_asid

type event =
  | Fault_begin of { va : int; write : bool }
  | Fault_end of { va : int; resolution : fault_resolution; cycles : int }
      (** [cycles] is the fault service time: initiating CPU clock at
          [Fault_end] minus at [Fault_begin]. *)
  | Pagein of { offset : int; bytes : int; cycles : int }
      (** A pager satisfied a fault-time data request. *)
  | Pageout of { offset : int; bytes : int; inactive_depth : int }
      (** The daemon cleaned a dirty page; [inactive_depth] is the
          inactive-queue length at that moment (queue-depth gauge). *)
  | Shootdown of { initiator : int; targets : int; requests : int;
                   span_pages : int; urgent : bool; cycles : int }
      (** One TLB-consistency exchange: [requests] flush requests (1 for
          a lone flush) delivered with a single IPI round to [targets]
          remote CPUs; [span_pages] is the total number of pages the
          page/range requests cover; [cycles] is what the exchange cost
          the initiating CPU. *)
  | Tlb_flush of { kind : flush_kind; deferred : bool }
  | Pmap_enter of { asid : int; va : int; pfn : int }
  | Pmap_remove of { asid : int; start_va : int; end_va : int }
  | Pmap_protect of { asid : int; start_va : int; end_va : int }
  | Object_shadow of { depth : int }
      (** A shadow object was interposed; [depth] is the new chain
          length. *)
  | Task_switch of { task : string }
  | Disk_io of { write : bool; bytes : int; cycles : int }
  | Pager_retry of { offset : int; attempt : int; backoff : int }
      (** A pager request or write failed transiently; the kernel will
          retry after charging [backoff] cycles ([attempt] is 1-based). *)
  | Pager_timeout of { offset : int }
      (** A pager never replied within its deadline ([Chaos_pager]'s
          dropped reply, [Port_pager]'s dispatch deadline) to one
          request for [offset]. *)
  | Pager_dead of { pager : string; rescued : int }
      (** A pager crossed the consecutive-failure threshold and was
          declared dead; [rescued] dirty resident pages were written to
          the rescue (default) pager so no data is lost. *)
  | Io_error of { write : bool; bytes : int }
      (** A simulated disk transfer failed. *)
  | Prefetch of { offset : int; pages : int; window : int }
      (** Read-ahead brought in [pages] pages beyond the demand page at
          the cluster starting [offset]; [window] is the adaptive window
          the planner used.  Feeds the pagein cluster-size histogram
          (demand page included, so a recorded cluster is [pages + 1]). *)
  | Cluster_pageout of { offset : int; pages : int }
      (** The pageout path coalesced [pages] contiguous dirty pages into
          one pager write starting at [offset]. *)
  | Disk_submit of { write : bool; bytes : int; depth : int; latency : int }
      (** A disk request was submitted: [depth] requests are now in
          flight on every disk (this one included) and [latency] is the
          submit-to-completion time: its service, plus the wait for the
          run before it when a transfer is split into runs. *)
  | Disk_wait of { cycles : int; overlap : int }
      (** A CPU blocked on a disk stamp, charging [cycles] of residue;
          [overlap] is the device time it had already hidden behind
          computation ([service - residue], counted once per
          request). *)
  | Lock_stall of { obj : int; cycles : int }
      (** A CPU contended on memory object [obj]'s simulated
          reader/writer lock: [cycles] were charged waiting out the
          holder's critical section.  Uncontended acquisitions emit
          nothing (and cost nothing). *)
  | Burst_enter of { va : int; pages : int }
      (** A resident fault burst-mapped [pages] consecutive resident
          neighbours alongside the demand page at [va], all in one
          pmap batch (one shootdown exchange). *)
  | Alloc_wait of { free : int; wanted : int; cycles : int }
      (** An allocation found the free list down to the reserve and
          waited on the pageout daemon (allocation backpressure):
          [cycles] were charged to [Mem_wait], [free] pages were free
          when the wait began, [wanted] is the deficit to the target. *)
  | Swap_full of { used : int; capacity : int }
      (** A pageout write was refused because the swap partition is
          full ([used] of [capacity] bytes committed); the page stayed
          dirty and the system entered the memory-pressure state. *)
  | Oom_kill of { task : string; resident : int }
      (** The out-of-memory policy killed [task] — the largest
          anonymous-resident task — reclaiming its [resident] resident
          pages; the task sees [KERN_MEMORY_ERROR] from then on. *)
  | Page_steal of { victim : int; pfn : int }
      (** The shared free queues were dry, so the allocating CPU stole
          page [pfn] out of CPU [victim]'s per-CPU magazine. *)
  | Stream_reset of { obj : int; offset : int }
      (** A pager miss at [offset] on object [obj] matched no read-ahead
          stream and every slot belonged to a live reader, so the least
          recently used slot was recycled: more concurrent sequential
          streams than [Vm_cluster.slot_count]. *)
  | Free_behind of { obj : int; offset : int; pages : int }
      (** A stream ramped to [Vm_cluster.free_behind_window] deactivated
          [pages] clean, unwired pages behind its cursor (the cluster it
          just read starts at [offset]) to the {e head} of the inactive
          queue, so a large streaming read reclaims its own wake instead
          of flushing the working set. *)

val kind_count : int
val kind_name_of_index : int -> string
val kind_name : event -> string

type category =
  | User_compute    (** no kernel frame open: the workload itself *)
  | Fault_service   (** inside [vm_fault] (trap overhead included) *)
  | Pmap            (** machine-dependent map updates (enter/remove/protect) *)
  | Shootdown_ipi   (** TLB consistency: IPIs, remote/deferred flushes *)
  | Pager_wait      (** pager request/write paths, excluding device time *)
  | Retry_backoff   (** exponential backoff between pager retries *)
  | Disk_wait       (** disk service time and disk-stamp residue *)
  | Zero_fill       (** zero-filling fresh pages *)
  | Cow_copy        (** copying pages up shadow chains on write faults *)
  | Pageout_daemon  (** page reclaim: scanning, cleaning, clustered writes *)
  | Lock_wait       (** stalls on contended memory-object locks *)
  | Mem_wait        (** allocation backpressure: a CPU waiting on the
                        pageout daemon for a free page *)
(** Where a CPU's cycles go, kernel-wide; see {!attr_push}. *)

val categories : category list
val category_name : category -> string

type span_info = {
  sp_id : int;
  sp_cpu : int;
  sp_va : int;
  sp_resolution : fault_resolution;
  sp_cycles : int;
}
(** A completed fault span, kept for the profile report's top-N table. *)

type record = { ts : int; cpu : int; span : int; ev : event }
(** [span] is the innermost fault span open on [cpu] when the event was
    recorded (the span's own id on [Fault_begin]/[Fault_end]); 0 when
    no fault was in flight. *)

type t
(** A trace sink plus its aggregates. *)

val create : ?capacity:int -> unit -> t
(** [create ()] builds a sink (default ring capacity 65536), initially
    disabled. *)

val null : t
(** The shared, permanently disabled sink every machine starts with.
    Never enable it; install your own with [Machine.set_tracer]. *)

val enabled : t -> bool
(** The one branch instrumentation sites pay when tracing is off. *)

val set_enabled : t -> bool -> unit
(** Raises [Invalid_argument] when asked to enable {!null}. *)

val record : t -> ts:int -> cpu:int -> event -> unit
(** [record t ~ts ~cpu ev] unconditionally appends the event and updates
    counters/histograms.  Call only under an [enabled] check so disabled
    tracing stays free.

    Span bookkeeping happens here: [Fault_begin] opens a span with a
    fresh non-zero id, every event the same CPU records while the span
    is open carries it ([record.span]), [Fault_end] closes it and feeds
    the {!top_spans} table.  Records outside any fault have span 0. *)

(** {1 Cycle attribution}

    Every clock charge the machine makes while tracing is enabled lands
    in exactly one {!category}: the innermost frame of the charged CPU's
    attribution stack ([User_compute] when empty), or a category the
    charge site names explicitly (disk service time, shootdown IPIs).
    Kernel subsystems bracket their work with {!attr_push}/{!attr_pop}
    — nested frames attribute to the innermost — so the per-CPU totals
    partition the CPU's clock: for each CPU, the category totals sum
    exactly to its cycle count (when the tracer was installed before the
    machine ran).  Totals live outside the event ring and survive
    wraparound. *)

val attr_push : t -> cpu:int -> category -> unit
val attr_pop : t -> cpu:int -> unit
(** Bracket a stretch of kernel work on [cpu].  Pops on an empty stack
    are ignored. *)

val attr_charge : t -> cpu:int -> int -> unit
(** Attribute cycles to the innermost open frame ([User_compute] when
    none). *)

val attr_charge_as : t -> cpu:int -> category -> int -> unit
(** Attribute cycles to an explicit category, bypassing the stack. *)

val attr_total : t -> cpu:int -> category -> int

val attr_cpu_total : t -> cpu:int -> int
(** Sum over categories; equals the CPU's clock when the tracer was
    installed before the machine ran. *)

val attr_cpus : t -> int
(** Number of CPU slots with attribution state (max CPU seen + 1). *)

val attr_grand_total : t -> category -> int
(** Sum of a category's totals over every CPU. *)

val attr_reset_totals : t -> unit
(** Zero the cycle totals, keeping open frames and span state; paired
    with [Machine.reset_clocks] so totals keep summing to the clock. *)

val top_spans : t -> span_info list
(** Completed fault spans with the largest service time, biggest first
    (at most 10). *)

(** {1 Reading back} *)

val ring : t -> record Ring.t
val events_seen : t -> int
(** Total events recorded (survives ring wraparound). *)

val count_index : t -> int -> int

val open_faults : t -> int
(** [Fault_begin]s minus [Fault_end]s; 0 whenever no fault is in
    flight. *)

val fault_latency : t -> fault_resolution -> Hist.t
(** Service-time histogram for faults resolved that way; its [count] is
    the number of such faults. *)

type hist =
  | Shootdown_latency  (** cycles per TLB-consistency exchange *)
  | Pagein_latency     (** cycles per pager fill *)
  | Disk_latency       (** cycles per disk transfer *)
  | Pageout_queue_depth
      (** inactive-queue depth observed at each pageout *)
  | Pagein_cluster_pages
      (** pages per clustered pagein, demand page included (so
          single-page pageins do not feed it) *)
  | Pageout_cluster_pages  (** pages per clustered pageout write *)
  | Disk_queue_depth
      (** disk requests in flight on every disk at each submit, the new
          one included (there is no device queue) *)
  | Disk_completion_latency
      (** submit-to-completion cycles of disk requests (service, plus
          the wait for the run before, for a transfer split into runs) *)
  | Disk_wait_residue
      (** residue charged at each blocking wait on a disk stamp; zero
          entries are fully overlapped requests *)
  | Lock_stall_cycles
      (** cycles per contended object-lock acquisition (uncontended
          acquisitions feed nothing) *)
  | Burst_pages
      (** neighbour pages mapped per burst fault, demand page excluded *)
  | Mem_wait_cycles    (** cycles per allocation backpressure wait *)
(** The histograms {!record} keeps besides {!fault_latency}; a
    histogram's [count] is the number of events that fed it. *)

val hist_names : (hist * string * string) list
(** Every {!hist} with its stats JSON key and its summary table label,
    in export order. *)

val hist : t -> hist -> Hist.t

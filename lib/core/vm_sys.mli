(** Shared state of one kernel's virtual memory system.

    Everything the Vm_* modules need in common: the machine and pmap
    domain, the resident page table, the memory-object cache (Section
    3.3), tunables for the ablation benches (object cache and shadow
    collapse can be disabled), and the machine-independent statistics
    ({!Vm_stats}). *)

type burst = {
  b_page : Types.page;
  b_asid : int;
  b_entry : Types.entry;           (** whose window the outcome feeds *)
  b_issued : bool;                 (** counted in [prefetch_issued]; false
                                       when the burst adopted a pending
                                       read-ahead prefetch *)
}
(** One burst-mapped neighbour whose outcome is still undecided: mapped
    into [b_asid] by a resident fault through [b_entry], not yet touched
    there. *)

type oom_candidate = {
  oc_id : int;                     (** task id; deterministic tie-break *)
  oc_name : string;
  oc_map_id : int;                 (** the task's address map; exempt while
                                       a fault on it is in progress *)
  oc_resident : unit -> int;       (** anonymous resident pages right now *)
  oc_kill : unit -> unit;          (** reclaim everything, mark the task *)
}
(** A task the out-of-memory policy may kill, registered by [Task.create]
    as closures so this module stays below Task in the dependency
    order. *)

type t = {
  machine : Mach_hw.Machine.t;
  domain : Mach_pmap.Pmap_domain.t;
  resident : Resident.t;
  page_size : int;                 (** machine-independent page size *)
  mutable object_cache : Types.obj list;
      (** cached objects, most recently used first (all have [obj_cached]
          set and reference count 0) *)
  object_cache_limit : int;
      (** most objects the cache keeps; a deallocation past it
          terminates the least recently used *)
  mutable cache_enabled : bool;    (** ablation switch for the cache *)
  mutable collapse_enabled : bool; (** ablation switch for shadow-chain
                                       collapsing *)
  mutable pmap_prewarm_on_fork : bool;
      (** use the optional [pmap_copy] routine (Table 3-4) at fork to
          pre-load the child's pmap with (write-stripped) copies of the
          parent's mappings, trading enter work for avoided faults *)
  pager_objects : Types.obj Mach_util.Int_tbl.t;
      (** live or cached object for each pager id, so re-mapping a file
          finds the existing object *)
  reclaim : t -> wanted:int -> unit;
      (** the pageout daemon ({!Vm_pageout.run}); called when the free
          list runs low *)
  free_target : int;
      (** keep at least this many pages free; reclaim aims here *)
  free_reserved : int;
      (** hard floor: no path allocates out of the last
          [free_reserved] pages.  {!grab_page} waits on the pageout
          daemon at the floor, and read-ahead ({!Vm_cluster}) allocates
          only above it.  No path draws on the pages below it, but
          waiting there rather than at an empty list shapes paging
          under pressure: with a floor of 0 the bench's [pressure]
          points at 2x-4x of memory run 19-29% longer (their cells pin
          the floor), and pressure-free runs do not change *)
  mutable swap_capacity : int option;
      (** bytes the swap pool may commit; [None] is unbounded *)
  mutable mem_pressure : bool;
      (** pageout cannot make progress (swap full, or a dirty page
          exceeded the requeue limit); cleared when a pageout write
          succeeds again or an OOM kill frees memory *)
  mutable oom_candidates : oom_candidate list;
  mutable oom_exempt_map : int option;
      (** map id currently being faulted on ({!Vm_fault} maintains it);
          its task is never selected as the OOM victim *)
  mutable pager_decorator : (Types.pager -> Types.pager) option;
      (** interposition hook applied when the kernel itself creates a
          pager (the pageout daemon's default pager); [machsim --chaos]
          installs a fault-injecting wrapper here *)
  mutable cluster_max : int;
      (** upper bound on pagein read-ahead and pageout clustering, in
          pages; 1 clips every cluster to one page (every disk request
          is one page) *)
  mutable stream_clock : int;
      (** monotonic last-use stamp source for the stream-slot LRU; not
          the cycle clock, so {!Mach_hw.Machine.reset_clocks} cannot
          scramble the victim order *)
  mutable burst_max : int;
      (** upper bound on pages a resident fault maps in one pass, demand
          page included, and the cap of every map entry's adaptive
          window; 0 and 1 both map only the demand page *)
  burst_pending : burst Mach_util.Int_tbl.t;
      (** burst-mapped neighbours, one per page, keyed by
          [Mach_util.Int_tbl.pair asid pfn] (the page's first pfn),
          whose outcome is still undecided; settled by the pmap layer's
          first-touch and unmap hooks (installed by {!create}) or by
          {!burst_demand_fault} *)
  swap_stores : Bytes.t Mach_util.Int_tbl.t Mach_util.Int_tbl.t;
      (** pager id -> offset -> page-size chunk held by each
          {!Swap_pager} of this kernel; per kernel so a dropped kernel's
          swap contents are garbage with it *)
  stats : Vm_stats.statistics;
      (** the live [vm_statistics] counters the kernel increments;
          [vs_swap_used] is the bytes the swap pool has committed *)
  mutable last_obj_id : int;
  mutable last_map_id : int;
  mutable last_pager_id : int;
  mutable last_task_id : int;
      (** the last id this kernel gave an object, address map, pager and
          task ({!fresh_obj_id} and friends): ids are keys within one
          kernel, so two kernels in one process number alike *)
}

val pageout_requeue_limit : int
(** Failed-write requeues per dirty page before the daemon escalates to
    the pressure state instead of spinning. *)

val pager_retry_limit : int
(** Transient pager failures retried per request before giving up. *)

val pager_backoff_cycles : int
(** Base of the exponential backoff charged between pager retries. *)

val pager_death_threshold : int
(** Consecutive exhausted retry budgets before a pager is declared dead
    and its object degrades ({!Pager_guard}). *)

exception Out_of_memory
(** Raised when a page is needed, backpressure made no progress, and the
    OOM policy found no viable victim (every candidate exempt or without
    resident pages). *)

val create :
  machine:Mach_hw.Machine.t -> domain:Mach_pmap.Pmap_domain.t ->
  reclaim:(t -> wanted:int -> unit) -> t
(** [create ~machine ~domain ~reclaim] builds the VM state, with
    [reclaim] the pageout daemon; the machine-independent page is the
    domain's {!Mach_pmap.Pmap_domain.page_multiple} hardware pages.  The resident
    table honours the architecture's physical address limit. *)

val fresh_obj_id : t -> int
val fresh_map_id : t -> int
val fresh_pager_id : t -> int
val fresh_task_id : t -> int
(** The next id of each kind in this kernel, counting from 1. *)

val grab_page : t -> Types.page
(** [grab_page t] allocates a free page, running [t.reclaim] if the
    free list is low.  It never takes the free list below
    [free_reserved]; at the floor it waits on the daemon (allocation
    backpressure: reclaim rounds interleaved with fixed backoff charges
    to the [mem_wait] category) and escalates to the OOM policy when
    reclaim stalls, raising {!Out_of_memory} only when no victim
    remains.  The floor is global: pages cached in per-CPU magazines
    still count as free and are stolen back when the shared queue runs
    dry.  The returned page is on no queue and in no object. *)

val set_mem_pressure : t -> bool -> unit
(** Declare or clear the memory-pressure state ([mem_pressure]).
    Declaring it drains every per-CPU magazine back to the shared
    queue, so pages cached for one CPU cannot strand in its magazine
    while the daemon or another CPU's backpressure wait starves. *)

val set_swap_capacity : t -> int option -> unit
(** Configure the shared swap pool: [Some bytes] bounds what every
    {!Swap_pager} together may commit; [None] (the default) is
    unbounded. *)

val swap_charge : t -> int -> bool
(** [swap_charge t bytes] commits [bytes] of new swap chunks against the
    pool and counts them in [vs_swap_used], bounded or not; [false]
    (nothing committed) when that would exceed the capacity. *)

val swap_release : t -> int -> unit
(** Credit the pool back, e.g. when a swap store's object dies. *)

val oom_register : t -> oom_candidate -> unit
val oom_unregister : t -> id:int -> unit
(** Maintain the OOM candidate list (Task.create/terminate do). *)

val charge : t -> int -> unit
(** [charge t c] adds [c] cycles to the current CPU's clock. *)

val charge_cat : t -> Mach_obs.Obs.category -> int -> unit
(** [charge_cat t cat c] is {!charge} with the cycles attributed to
    [cat] explicitly ({!Mach_hw.Machine.charge_category}). *)

val with_cat : t -> Mach_obs.Obs.category -> (unit -> 'a) -> 'a
(** [with_cat t cat f] runs [f] under an attribution frame for [cat] on
    the current CPU ({!Mach_hw.Machine.with_category}); free when
    tracing is off. *)

val current_cpu : t -> int
(** CPU executing kernel code, as recorded in the pmap domain. *)

val tracer : t -> Mach_obs.Obs.t
(** The machine's trace sink ({!Mach_hw.Machine.tracer}). *)

val now : t -> int
(** Current CPU's clock, the timestamp trace events carry. *)

val emit : t -> Mach_obs.Obs.event -> unit
(** [emit t ev] records [ev] at the current CPU/time if tracing is
    enabled; one branch otherwise.  Hot paths that would compute event
    payloads eagerly should check [Obs.enabled (tracer t)] themselves. *)

val cost : t -> Mach_hw.Arch.cost
(** The architecture's cost table. *)

val burst_register :
  t -> asid:int -> Types.entry -> Types.page -> issued:bool -> unit
(** [burst_register t ~asid entry p ~issued] records [p] as burst-mapped
    into [asid] through [entry], its outcome undecided; [issued] says
    whether the caller counted it in [prefetch_issued].  The caller must
    clear the page's referenced bits so the next access is seen as a
    transition.  The outcome is a hit when the first touch comes through
    [asid]'s mapping, a miss when the mapping is dropped or the page is
    demand-faulted there first; either feeds [entry]'s hit/miss counts.
    Pure bookkeeping, charges nothing. *)

val burst_demand_fault : t -> asid:int -> Types.page -> unit
(** [burst_demand_fault t ~asid p] settles a pending burst record of [p]
    in [asid] as a miss: the page is being demand-faulted there, so its
    speculative mapping was not what served the access. *)

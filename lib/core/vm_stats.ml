(* What [vm_statistics] (Table 2-1) reports, declared once.

   The kernel counts straight into the mutable fields of the record each
   [Vm_sys.t] owns.  The immutable fields are the gauges kept elsewhere
   (page queues, the swap limit); they stay zero in the live record and
   are filled in by the [Vm_user.statistics] snapshot, which copies the
   whole record so a caller can subtract two snapshots. *)

type statistics = {
  vs_page_size : int;
  vs_pages_total : int;
  vs_pages_free : int;
  vs_pages_active : int;
  vs_pages_inactive : int;
  mutable vs_faults : int;             (* vm_fault invocations *)
  mutable vs_zero_fills : int;         (* pages zero-filled on demand *)
  mutable vs_cow_copies : int;         (* pages copied by write faults *)
  mutable vs_pager_reads : int;        (* pages filled from a pager *)
  mutable vs_pageouts : int;           (* pages cleaned by the daemon *)
  mutable vs_reactivations : int;
      (* inactive pages saved by their reference bit (second chance) *)
  mutable vs_object_cache_hits : int;  (* objects revived from the cache *)
  mutable vs_object_cache_misses : int;
      (* objects (re)built from their pager *)
  (* Failure handling. *)
  mutable vs_pager_retries : int;
      (* pager attempts retried after a transient failure *)
  mutable vs_pager_deaths : int;
      (* pagers declared dead after [pager_death_threshold] consecutive
         exhausted retry budgets *)
  mutable vs_rescued_pages : int;
      (* dirty resident pages written to a rescue pager at death *)
  mutable vs_pageout_failures : int;
      (* pageout writes that failed; the page stayed dirty, requeued *)
  mutable vs_memory_errors : int;
      (* faults concluded with [KERN_MEMORY_ERROR] *)
  (* Clustering. *)
  mutable vs_prefetch_issued : int;
      (* pages brought in by read-ahead beyond the demand page *)
  mutable vs_prefetch_hits : int;
      (* prefetched pages later referenced by a fault or read *)
  mutable vs_prefetch_wasted : int;
      (* prefetched pages reclaimed before any reference *)
  mutable vs_stream_hits : int;
      (* pager misses matched to an existing read-ahead stream slot;
         counted at every [cluster_max], 1 included *)
  mutable vs_stream_resets : int;
      (* live stream slots recycled for a new reader *)
  mutable vs_free_behind_pages : int;
      (* clean pages deactivated behind a ramped stream's cursor *)
  mutable vs_clustered_pageouts : int;
      (* multi-page writes issued by the daemon / clean_request *)
  (* Multiprocessor. *)
  mutable vs_lock_stalls : int;
      (* contended memory-object or allocator-queue lock acquisitions *)
  mutable vs_lock_stall_cycles : int;  (* cycles spent in those stalls *)
  mutable vs_burst_faults : int;
      (* resident faults that mapped at least one neighbour *)
  mutable vs_burst_mapped : int;       (* neighbour pages mapped by bursts *)
  (* Memory pressure. *)
  mutable vs_alloc_waits : int;
      (* allocations that waited on the pageout daemon at the reserve *)
  mutable vs_alloc_wait_cycles : int;
      (* cycles charged by those waits ([Mem_wait] attribution) *)
  mutable vs_swap_full_failures : int;
      (* pageout writes refused because the swap pool is full *)
  mutable vs_oom_kills : int;          (* tasks killed by the OOM policy *)
  mutable vs_swap_used : int;          (* bytes committed to swap *)
  vs_swap_capacity : int option;       (* swap limit; [None] = unbounded *)
  (* Object machinery. *)
  mutable vs_shadows_created : int;    (* shadow objects created *)
  mutable vs_collapses : int;          (* shadow objects collapsed away *)
  mutable vs_fast_reloads : int;
      (* faults resolved by re-entering a mapping the pmap had dropped *)
  mutable vs_rmw_bug_upgrades : int;
      (* NS32082 protection faults reported as reads and upgraded to
         writes by the kernel workaround *)
  mutable vs_pager_failures : int;
      (* pager attempts that exhausted the retry budget *)
  (* The per-CPU page magazines, counted by [Resident]; unlike the
     others they reset with the machine's clocks. *)
  mutable vs_pcpu_hits : int;     (* per-CPU magazine hits *)
  mutable vs_pcpu_refills : int;  (* magazine refill trips to the shared queue *)
  mutable vs_page_steals : int;   (* stolen from another CPU's magazine *)
}

let zero () =
  { vs_page_size = 0; vs_pages_total = 0; vs_pages_free = 0;
    vs_pages_active = 0; vs_pages_inactive = 0; vs_faults = 0;
    vs_zero_fills = 0; vs_cow_copies = 0; vs_pager_reads = 0;
    vs_pageouts = 0; vs_reactivations = 0; vs_object_cache_hits = 0;
    vs_object_cache_misses = 0; vs_pager_retries = 0; vs_pager_deaths = 0;
    vs_rescued_pages = 0; vs_pageout_failures = 0; vs_memory_errors = 0;
    vs_prefetch_issued = 0; vs_prefetch_hits = 0; vs_prefetch_wasted = 0;
    vs_stream_hits = 0; vs_stream_resets = 0; vs_free_behind_pages = 0;
    vs_clustered_pageouts = 0; vs_lock_stalls = 0; vs_lock_stall_cycles = 0;
    vs_burst_faults = 0; vs_burst_mapped = 0; vs_alloc_waits = 0;
    vs_alloc_wait_cycles = 0; vs_swap_full_failures = 0; vs_oom_kills = 0;
    vs_swap_used = 0; vs_swap_capacity = None; vs_shadows_created = 0;
    vs_collapses = 0; vs_fast_reloads = 0; vs_rmw_bug_upgrades = 0;
    vs_pager_failures = 0; vs_pcpu_hits = 0; vs_pcpu_refills = 0;
    vs_page_steals = 0 }

(* A CPU stalled [cycles] on a contended (simulated) lock: a memory
   object's, [obj] its id, or the shared free queue's, [obj] = -1.  One
   stall counts in [vs_lock_stalls]/[vs_lock_stall_cycles], is charged
   to the CPU as [Lock_wait] and is traced as [Lock_stall]. *)
let lock_stall s machine ~cpu ~obj cycles =
  s.vs_lock_stalls <- s.vs_lock_stalls + 1;
  s.vs_lock_stall_cycles <- s.vs_lock_stall_cycles + cycles;
  Mach_hw.Machine.lock_stall machine ~cpu cycles;
  let tr = Mach_hw.Machine.tracer machine in
  if Mach_obs.Obs.enabled tr then
    Mach_obs.Obs.record tr ~ts:(Mach_hw.Machine.cycles machine ~cpu) ~cpu
      (Mach_obs.Obs.Lock_stall { obj; cycles })

(* The one simulated lock, a memory object's or the shared free
   queue's: its state is the stamp its last hold released at.  The
   simulator is single-threaded, so a lock never excludes anyone; it
   models the time CPUs of a multiprocessor would lose to contention.
   An acquirer whose clock is behind the stamp would have found the
   lock held: it stalls for the residue ([lock_stall]).  A CPU never
   trails its own release stamp, so an uncontended lock costs nothing,
   and a clock reset expires the stamp. *)
let lock_acquire s machine ~cpu ~obj held =
  let residue = Mach_hw.Machine.stamp_residue machine held ~cpu in
  if residue > 0 then lock_stall s machine ~cpu ~obj residue

(* The stamp a hold that ends now on [cpu] leaves on its lock. *)
let lock_release machine ~cpu =
  Mach_hw.Machine.stamp machine (Mach_hw.Machine.cycles machine ~cpu)

(* Every statistic under its report name, in the order the stats JSON and
   the [machsim stats] table print them; an unbounded swap capacity
   reports 0. *)
let rows : (string * (statistics -> int)) list =
  [ ("page_size", fun s -> s.vs_page_size);
    ("pages_total", fun s -> s.vs_pages_total);
    ("pages_free", fun s -> s.vs_pages_free);
    ("pages_active", fun s -> s.vs_pages_active);
    ("pages_inactive", fun s -> s.vs_pages_inactive);
    ("faults", fun s -> s.vs_faults);
    ("zero_fills", fun s -> s.vs_zero_fills);
    ("cow_copies", fun s -> s.vs_cow_copies);
    ("pager_reads", fun s -> s.vs_pager_reads);
    ("pageouts", fun s -> s.vs_pageouts);
    ("reactivations", fun s -> s.vs_reactivations);
    ("object_cache_hits", fun s -> s.vs_object_cache_hits);
    ("object_cache_misses", fun s -> s.vs_object_cache_misses);
    ("pager_retries", fun s -> s.vs_pager_retries);
    ("pager_deaths", fun s -> s.vs_pager_deaths);
    ("rescued_pages", fun s -> s.vs_rescued_pages);
    ("pageout_failures", fun s -> s.vs_pageout_failures);
    ("memory_errors", fun s -> s.vs_memory_errors);
    ("prefetch_issued", fun s -> s.vs_prefetch_issued);
    ("prefetch_hits", fun s -> s.vs_prefetch_hits);
    ("prefetch_wasted", fun s -> s.vs_prefetch_wasted);
    ("stream_hits", fun s -> s.vs_stream_hits);
    ("stream_resets", fun s -> s.vs_stream_resets);
    ("free_behind_pages", fun s -> s.vs_free_behind_pages);
    ("clustered_pageouts", fun s -> s.vs_clustered_pageouts);
    ("lock_stalls", fun s -> s.vs_lock_stalls);
    ("lock_stall_cycles", fun s -> s.vs_lock_stall_cycles);
    ("burst_faults", fun s -> s.vs_burst_faults);
    ("burst_mapped", fun s -> s.vs_burst_mapped);
    ("alloc_waits", fun s -> s.vs_alloc_waits);
    ("alloc_wait_cycles", fun s -> s.vs_alloc_wait_cycles);
    ("swap_full_failures", fun s -> s.vs_swap_full_failures);
    ("oom_kills", fun s -> s.vs_oom_kills);
    ("swap_used", fun s -> s.vs_swap_used);
    ("swap_capacity", fun s -> Option.value s.vs_swap_capacity ~default:0);
    ("shadows_created", fun s -> s.vs_shadows_created);
    ("collapses", fun s -> s.vs_collapses);
    ("fast_reloads", fun s -> s.vs_fast_reloads);
    ("rmw_bug_upgrades", fun s -> s.vs_rmw_bug_upgrades);
    ("pager_failures", fun s -> s.vs_pager_failures);
    ("pcpu_hits", fun s -> s.vs_pcpu_hits);
    ("pcpu_refills", fun s -> s.vs_pcpu_refills);
    ("page_steals", fun s -> s.vs_page_steals) ]

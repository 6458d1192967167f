open Mach_hw
open Mach_pmap
module Int_tbl = Mach_util.Int_tbl

(* One burst-mapped neighbour whose outcome is still undecided: mapped
   into [b_asid] by a resident fault through [b_entry], not yet touched
   there. *)
type burst = {
  b_page : Types.page;
  b_asid : int;
  b_entry : Types.entry;     (* whose window the outcome feeds *)
  b_issued : bool;
      (* counted in [prefetch_issued]; false when the page was already
         a pending read-ahead prefetch, which the burst adopts *)
}

(* A task the out-of-memory policy may kill.  Registered by Task.create
   through closures so this module stays below Task in the dependency
   order; the ids are the task's, the map id identifies the address map
   so the task faulting right now can be exempted (killing it would pull
   the map out from under its own in-progress fault). *)
type oom_candidate = {
  oc_id : int;
  oc_name : string;
  oc_map_id : int;
  oc_resident : unit -> int;   (* anonymous resident pages right now *)
  oc_kill : unit -> unit;      (* reclaim everything and mark the task *)
}

type t = {
  machine : Machine.t;
  domain : Pmap_domain.t;
  resident : Resident.t;
  page_size : int;
  mutable object_cache : Types.obj list;
  object_cache_limit : int;
  mutable cache_enabled : bool;
  mutable collapse_enabled : bool;
  mutable pmap_prewarm_on_fork : bool;
  pager_objects : Types.obj Mach_util.Int_tbl.t;
  reclaim : t -> wanted:int -> unit;
  free_target : int;
  free_reserved : int;
      (* hard floor: no allocation takes the free list below it;
         [grab_page] waits on the pageout daemon there, and read-ahead
         allocates only above it *)
  mutable swap_capacity : int option;
      (* bytes of backing store the swap pool may commit; [None] is
         unbounded (the pre-pressure behaviour) *)
  mutable mem_pressure : bool;
      (* set when pageout cannot make progress (swap full, or a page
         exceeded the requeue limit); cleared when a pageout write
         succeeds again or an OOM kill frees memory *)
  mutable oom_candidates : oom_candidate list;
  mutable oom_exempt_map : int option;
      (* map id currently being faulted on; its task is never selected *)
  mutable pager_decorator : (Types.pager -> Types.pager) option;
  mutable cluster_max : int;
      (* upper bound on the read-ahead / pageout cluster, in pages;
         1 disables clustering entirely *)
  mutable stream_clock : int;
      (* monotonic last-use stamp source for stream-slot LRU; not the
         cycle clock, so [Machine.reset_clocks] cannot scramble it *)
  mutable burst_max : int;
      (* upper bound on pages a resident fault maps in one pass (demand
         page included), and the cap of every entry's adaptive window;
         0 and 1 both map only the demand page *)
  burst_pending : burst Mach_util.Int_tbl.t;
      (* [Int_tbl.pair asid pfn] -> burst-mapped neighbour whose outcome is
         still undecided; settled by the pmap layer's first-touch and
         unmap hooks, or by a demand fault on the page *)
  swap_stores : Bytes.t Mach_util.Int_tbl.t Mach_util.Int_tbl.t;
      (* pager id -> the chunks a Swap_pager of this kernel holds, kept
         here rather than in a global table so a dropped kernel takes
         its swap contents with it *)
  stats : Vm_stats.statistics;
      (* the live vm_statistics counters, swap pool usage included
         ([vs_swap_used]) *)
  mutable last_obj_id : int;
  mutable last_map_id : int;
  mutable last_pager_id : int;
  mutable last_task_id : int;
      (* the last id this kernel gave an object, address map, pager and
         task: each kind is numbered from 1 within one kernel *)
}

(* Policy constants, the same in every kernel. *)
let alloc_backoff_cycles = 2000 (* one backpressure wait *)
let pageout_requeue_limit = 3
let pager_retry_limit = 3
let pager_backoff_cycles = 500
let pager_death_threshold = 3

exception Out_of_memory

(* --- Burst-mapped page tracking --------------------------------------

   Burst faulting maps resident neighbour pages that were never demanded,
   so their first use cannot be seen by the fault path (they no longer
   fault).  Each burst mapping is one issued prefetch, registered here
   under (asid, page pfn) with the page's referenced bits cleared.  Its
   outcome is a hit when the pmap layer's first-touch hook reports a
   touch through that address space; it then counts as a prefetch hit
   and the page is promoted like any other.  It is a miss when the
   mapping is dropped first, or when the page is demand-faulted there
   first (a write through a mapping that a protect made read-only).  A
   touch through another task's mapping of the same page credits
   nobody, and a burst never marks the page [pg_prefetched], so no
   later demand fault or read can count it as a hit either.  Outcomes
   feed the entry's window (Vm_fault).  Pure bookkeeping: none of this
   charges cycles. *)

let burst_register t ~asid entry p ~issued =
  let b = { b_page = p; b_asid = asid; b_entry = entry; b_issued = issued } in
  Int_tbl.replace t.burst_pending (Int_tbl.pair asid p.Types.pfn) b

let burst_settle t b ~hit =
  let p = b.b_page and e = b.b_entry in
  Int_tbl.remove t.burst_pending (Int_tbl.pair b.b_asid p.Types.pfn);
  if hit then begin
    e.Types.e_burst_hits <- e.Types.e_burst_hits + 1;
    if b.b_issued || p.Types.pg_prefetched then
      t.stats.Vm_stats.vs_prefetch_hits <-
        t.stats.Vm_stats.vs_prefetch_hits + 1;
    p.Types.pg_prefetched <- false;
    if p.Types.pg_queue = Types.Q_inactive && p.Types.pg_wire_count = 0 then
      Resident.enqueue t.resident p Types.Q_active
  end
  else e.Types.e_burst_misses <- e.Types.e_burst_misses + 1

let burst_outcome t ~asid ~pfn ~hit =
  if Int_tbl.length t.burst_pending > 0 then
    match Int_tbl.find_opt t.burst_pending (Int_tbl.pair asid pfn) with
    | None -> ()
    | Some b -> burst_settle t b ~hit

let burst_demand_fault t ~asid p =
  burst_outcome t ~asid ~pfn:p.Types.pfn ~hit:false

let fresh_obj_id t = t.last_obj_id <- t.last_obj_id + 1; t.last_obj_id
let fresh_map_id t = t.last_map_id <- t.last_map_id + 1; t.last_map_id
let fresh_pager_id t = t.last_pager_id <- t.last_pager_id + 1; t.last_pager_id
let fresh_task_id t = t.last_task_id <- t.last_task_id + 1; t.last_task_id

let create ~machine ~domain ~reclaim =
  let arch = Machine.arch machine in
  let frame_limit =
    match arch.Arch.phys_limit with
    | None -> max_int
    | Some bytes -> bytes / arch.Arch.hw_page_size
  in
  let stats = Vm_stats.zero () in
  let resident =
    Resident.create ~machine ~stats
      ~multiple:(Pmap_domain.page_multiple domain) ~frame_limit ()
  in
  let total = Resident.total_pages resident in
  let t = {
    machine;
    domain;
    resident;
    page_size = Resident.page_size resident;
    object_cache = [];
    object_cache_limit = 64;
    cache_enabled = true;
    collapse_enabled = true;
    pmap_prewarm_on_fork = false;
    pager_objects = Int_tbl.create 64;
    reclaim;
    free_target = max 4 (total / 16);
    free_reserved = max 2 (total / 64);
    swap_capacity = None;
    mem_pressure = false;
    oom_candidates = [];
    oom_exempt_map = None;
    pager_decorator = None;
    cluster_max = 8;
    stream_clock = 0;
    burst_max = 8;
    burst_pending = Int_tbl.create 64;
    swap_stores = Int_tbl.create 16;
    stats;
    last_obj_id = 0;
    last_map_id = 0;
    last_pager_id = 0;
    last_task_id = 0;
  } in
  Pmap_domain.set_on_first_touch domain (fun ~asid ~pfn ->
      burst_outcome t ~asid ~pfn ~hit:true);
  Pmap_domain.set_on_unmap domain (fun ~asid ~pfn ->
      burst_outcome t ~asid ~pfn ~hit:false);
  t

(* Declare or clear memory pressure.  Declaring it flushes the per-CPU
   magazines back to the shared queue: pages cached for one CPU must
   not strand in its magazine while the daemon or another CPU's
   backpressure wait starves. *)
let set_mem_pressure t on =
  if on && not t.mem_pressure then Resident.drain_caches t.resident;
  t.mem_pressure <- on

let current_cpu t = Pmap_domain.current_cpu t.domain

let charge t c = Machine.charge t.machine ~cpu:(current_cpu t) c

let charge_cat t cat c =
  Machine.charge_category t.machine ~cpu:(current_cpu t) cat c

let with_cat t cat f =
  Machine.with_category t.machine ~cpu:(current_cpu t) cat f

let tracer t = Machine.tracer t.machine

let now t = Machine.cycles t.machine ~cpu:(current_cpu t)

let emit t ev =
  let tr = tracer t in
  if Mach_obs.Obs.enabled tr then begin
    let cpu = current_cpu t in
    Mach_obs.Obs.record tr ~ts:(Machine.cycles t.machine ~cpu) ~cpu ev
  end

let cost t = (Machine.arch t.machine).Arch.cost

(* --- Swap pool accounting --------------------------------------------

   One shared pool models the paging partition: every Swap_pager (the
   daemon's default pagers, rescue pagers) commits new chunks against it
   and credits it back when its object dies.  Usage is counted whether
   or not the pool is bounded; it is unbounded by default, so no write
   is refused until a capacity is configured. *)

let set_swap_capacity t cap = t.swap_capacity <- cap

let swap_charge t bytes =
  let s = t.stats in
  let used = s.Vm_stats.vs_swap_used + bytes in
  match t.swap_capacity with
  | Some cap when used > cap -> false
  | _ ->
    s.Vm_stats.vs_swap_used <- used;
    true

let swap_release t bytes =
  let s = t.stats in
  s.Vm_stats.vs_swap_used <- s.Vm_stats.vs_swap_used - bytes

(* --- Out-of-memory policy --------------------------------------------

   Deterministic: the victim is the candidate with the most anonymous
   resident pages, ties broken by the smaller task id.  The task whose
   map is being faulted right now is exempt — killing it would free
   pages out from under its own in-progress fault. *)

let oom_register t c = t.oom_candidates <- c :: t.oom_candidates

let oom_unregister t ~id =
  t.oom_candidates <- List.filter (fun c -> c.oc_id <> id) t.oom_candidates

(* Run the out-of-memory policy once: kill the candidate with the most
   anonymous resident pages (ties to the smaller task id; the task whose
   map is in [oom_exempt_map] is never chosen), count it in [oom_kills],
   emit [Oom_kill], and clear [mem_pressure].  [false] when no viable
   victim exists. *)
let oom_kill t =
  let viable =
    List.filter_map
      (fun c ->
         let exempt =
           match t.oom_exempt_map with
           | Some m -> c.oc_map_id = m
           | None -> false
         in
         if exempt then None
         else
           let r = c.oc_resident () in
           if r > 0 then Some (r, c) else None)
      t.oom_candidates
  in
  match viable with
  | [] -> false
  | first :: rest ->
    let resident, victim =
      List.fold_left
        (fun (rb, b) (r, c) ->
           if r > rb || (r = rb && c.oc_id < b.oc_id) then (r, c)
           else (rb, b))
        first rest
    in
    t.stats.Vm_stats.vs_oom_kills <- t.stats.Vm_stats.vs_oom_kills + 1;
    emit t (Mach_obs.Obs.Oom_kill { task = victim.oc_name; resident });
    oom_unregister t ~id:victim.oc_id;
    victim.oc_kill ();
    (* The kill freed memory (and possibly swap): pressure is relieved
       until pageout reports otherwise.  Magazines are flushed so every
       page the kill liberated is visible on the shared queue to
       whoever was starving. *)
    Resident.drain_caches t.resident;
    t.mem_pressure <- false;
    true

let grab_page t =
  if Resident.free_count t.resident < t.free_target then
    t.reclaim t ~wanted:(t.free_target - Resident.free_count t.resident);
  (* Allocations treat the free list as empty at [free_reserved].  The
     floor is global: magazine-cached pages count toward [free_count]
     and the allocator steals them back when the queue runs dry, so the
     reserve cannot be hidden inside a magazine. *)
  let take () =
    if Resident.free_count t.resident > t.free_reserved then
      Resident.alloc ~cpu:(current_cpu t) t.resident
    else None
  in
  match take () with
  | Some p -> p
  | None ->
    (* Allocation backpressure: wait on the pageout daemon on the
       virtual clocks instead of raising.  Each round reclaims toward
       the target and, when the free list is still at the floor, charges
       one backoff to [Mem_wait].  Two consecutive rounds without
       progress mean reclaim is stuck (everything dirty and the swap
       full, say): the OOM policy runs, and only when it finds no
       viable victim does the allocation fail for real. *)
    let stats = t.stats in
    let stalled = ref 0 in
    let result = ref None in
    while Option.is_none !result do
      let before = Resident.free_count t.resident in
      t.reclaim t ~wanted:(max 1 (t.free_target - before));
      match take () with
      | Some p -> result := Some p
      | None ->
        (* The wait path is the one place a free-accounting leak would
           deadlock the system, so audit the free pool here: free_count
           must equal queued plus magazine-cached pages exactly. *)
        assert (Resident.check_conservation t.resident);
        let free = Resident.free_count t.resident in
        let backoff = alloc_backoff_cycles in
        stats.Vm_stats.vs_alloc_waits <- stats.Vm_stats.vs_alloc_waits + 1;
        stats.Vm_stats.vs_alloc_wait_cycles <-
          stats.Vm_stats.vs_alloc_wait_cycles + backoff;
        charge_cat t Mach_obs.Obs.Mem_wait backoff;
        if Mach_obs.Obs.enabled (tracer t) then
          emit t
            (Mach_obs.Obs.Alloc_wait
               { free; wanted = max 1 (t.free_target - free);
                 cycles = backoff });
        if free > before then stalled := 0 else incr stalled;
        (* Escalate when reclaim is demonstrably stuck: either the
           daemon itself reported it (swap full, a page over the
           requeue limit) or two waits in a row freed nothing. *)
        if t.mem_pressure || !stalled >= 2 then begin
          stalled := 0;
          if not (oom_kill t) then raise Out_of_memory
        end
    done;
    (match !result with Some p -> p | None -> assert false)

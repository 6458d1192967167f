open Mach_util
open Mach_hw
open Types

(* Free pages live on one FIFO with a per-CPU magazine in front.
   Contention on the shared queue is simulated (opt-in) with the one
   simulated lock that [Vm_object] locks are. *)

(* Magazine capacity, and pages moved per refill or drain trip. *)
let magazine = 8

(* Cycles one critical section on the shared queue holds its lock. *)
let lock_hold = 60

type t = {
  machine : Machine.t;        (* virtual clocks, lock charges, tracing *)
  stats : Vm_stats.statistics; (* queue-lock stalls, magazine counters *)
  page_size : int;
  hash : page option Int_tbl.t;
      (* [key] (obj_id, offset) -> the page, as the option [lookup]
         returns, built once at [insert] *)
  mutable pages : page list; (* every page, whatever its state *)
  active : page Dlist.t;
  inactive : page Dlist.t;
  mutable total : int;
  mutable lock_sim : bool;    (* simulate contention on the shared queue *)
  free : page Dlist.t;        (* the shared free queue *)
  mutable qlock : Machine.stamp; (* its lock ([Vm_stats.lock_acquire]) *)
  caches : page list array;  (* per-CPU magazine, LIFO *)
  cache_count : int array;
  mutable free_total : int;   (* pages free anywhere: queue + magazines *)
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* The magazine counters reset with the machine's clocks. *)
let reset_counters (s : Vm_stats.statistics) =
  s.vs_pcpu_hits <- 0; s.vs_pcpu_refills <- 0; s.vs_page_steals <- 0

let create ~machine ~stats ~multiple ?(frame_limit = max_int) () =
  if not (is_power_of_two multiple) then
    invalid_arg "Resident.create: multiple must be a power of two";
  let phys = Machine.phys machine and cpus = Machine.cpu_count machine in
  let frames = min frame_limit (Phys_mem.frame_count phys) in
  let groups = frames / multiple in
  let t =
    {
      machine;
      stats;
      page_size = multiple * Phys_mem.page_size phys;
      hash = Int_tbl.create 1024;
      pages = [];
      active = Dlist.create ();
      inactive = Dlist.create ();
      total = 0;
      lock_sim = false;
      free = Dlist.create ();
      qlock = Machine.expired;
      caches = Array.make cpus [];
      cache_count = Array.make cpus 0;
      free_total = 0;
    }
  in
  for g = 0 to groups - 1 do
    let base = g * multiple in
    let usable = ref true in
    for i = 0 to multiple - 1 do
      if not (Phys_mem.frame_exists phys (base + i)) then usable := false
    done;
    if !usable then begin
      let p =
        {
          pfn = base;
          pg_obj = None;
          pg_offset = 0;
          pg_wire_count = 0;
          pg_busy = false;
          pg_prefetched = false;
          pg_inflight = None;
          pg_queue = Q_free;
          pg_queue_node = None;
          pg_obj_node = None;
          pg_requeues = 0;
        }
      in
      let node = Dlist.node p in
      p.pg_queue_node <- Some node;
      Dlist.push_back_node t.free node;
      t.pages <- p :: t.pages;
      t.free_total <- t.free_total + 1;
      t.total <- t.total + 1
    end
  done;
  Machine.add_reset_hook machine (fun () -> reset_counters stats);
  t

let page_size t = t.page_size
let total_pages t = t.total
let free_count t = t.free_total
let active_count t = Dlist.length t.active
let inactive_count t = Dlist.length t.inactive

let set_lock_sim t on = t.lock_sim <- on

(* --- Queue plumbing ---------------------------------------------------- *)

(* Each page keeps the one queue node it was made with, linked exactly
   while the page is on the free, active or inactive queue. *)
let qnode p = match p.pg_queue_node with Some n -> n | None -> assert false

(* Pages in a magazine are [Q_free] with their node unlinked; they never
   meet [unlink_queue] (magazines are popped explicitly), so an unlinked
   [Q_free] page arriving here is a double free. *)
let unlink_queue t p =
  let node = qnode p in
  match p.pg_queue with
  | Q_free ->
    Dlist.remove t.free node;
    t.free_total <- t.free_total - 1
  | Q_active -> Dlist.remove t.active node
  | Q_inactive -> Dlist.remove t.inactive node
  | Q_none -> assert (not (Dlist.linked node))

let set_queue t p q =
  unlink_queue t p;
  p.pg_queue <- q;
  match q with
  | Q_none -> ()
  | Q_active -> Dlist.push_back_node t.active (qnode p)
  | Q_inactive -> Dlist.push_back_node t.inactive (qnode p)
  | Q_free ->
    t.free_total <- t.free_total + 1;
    Dlist.push_back_node t.free (qnode p)

(* --- Magazines --------------------------------------------------------- *)

let cache_push t ~cpu p =
  assert (not (Dlist.linked (qnode p)));
  p.pg_queue <- Q_free;
  t.caches.(cpu) <- p :: t.caches.(cpu);
  t.cache_count.(cpu) <- t.cache_count.(cpu) + 1;
  t.free_total <- t.free_total + 1

let cache_pop t ~cpu =
  match t.caches.(cpu) with
  | [] -> None
  | p :: rest ->
    t.caches.(cpu) <- rest;
    t.cache_count.(cpu) <- t.cache_count.(cpu) - 1;
    t.free_total <- t.free_total - 1;
    p.pg_queue <- Q_none;
    Some p

(* --- Shared-queue lock simulation -------------------------------------- *)

(* An acquirer holds the queue for [lock_hold] cycles charged to its own
   clock, after any stall, and releases it at the clock the hold ends
   at.  A single CPU can never trail its own release stamp, so the
   uncontended case charges only the hold. *)
let lock_acquire t ~cpu =
  if t.lock_sim then begin
    Vm_stats.lock_acquire t.stats t.machine ~cpu ~obj:(-1) t.qlock;
    Machine.charge t.machine ~cpu lock_hold;
    t.qlock <- Vm_stats.lock_release t.machine ~cpu
  end

(* --- Allocation -------------------------------------------------------- *)

(* Pop the head of the shared queue for [cpu], taking its lock when
   [lock] (a refill batch pays for one acquisition). *)
let queue_take t ~cpu ~lock =
  match Dlist.first t.free with
  | None -> None
  | Some node ->
    if lock then lock_acquire t ~cpu;
    let p = Dlist.value node in
    set_queue t p Q_none;
    Some p

(* Last resort when the shared queue is dry but magazines still hold
   pages (they are part of [free_count], so the watermark logic believes
   in them): raid another CPU's magazine. *)
let steal t ~cpu =
  let n = Array.length t.caches in
  let rec scan i =
    if i >= n then None
    else begin
      let v = (cpu + 1 + i) mod n in
      if v <> cpu && t.cache_count.(v) > 0 then begin
        match cache_pop t ~cpu:v with
        | Some p ->
          t.stats.vs_page_steals <- t.stats.vs_page_steals + 1;
          let tr = Machine.tracer t.machine in
          if Mach_obs.Obs.enabled tr then
            Mach_obs.Obs.record tr ~ts:(Machine.cycles t.machine ~cpu) ~cpu
              (Mach_obs.Obs.Page_steal { victim = v; pfn = p.pfn });
          Some p
        | None -> assert false
      end
      else scan (i + 1)
    end
  in
  scan 0

let alloc ?cpu t =
  let cpu = match cpu with Some c when c >= 0 -> c | _ -> 0 in
  let p =
    if t.cache_count.(cpu) > 0 then begin
      t.stats.vs_pcpu_hits <- t.stats.vs_pcpu_hits + 1;
      cache_pop t ~cpu
    end
    else
      match queue_take t ~cpu ~lock:true with
      | None -> steal t ~cpu
      | Some first ->
        (* Refill: one trip to the shared queue (one lock acquisition)
           buys a whole batch; the extras go into the magazine so the
           next magazine - 1 allocations never touch shared state. *)
        t.stats.vs_pcpu_refills <- t.stats.vs_pcpu_refills + 1;
        let filled = ref true in
        for _ = 2 to magazine do
          if !filled then
            match queue_take t ~cpu ~lock:false with
            | Some extra -> cache_push t ~cpu extra
            | None -> filled := false
        done;
        Some first
  in
  (match p with Some p -> assert (Option.is_none p.pg_obj) | None -> ());
  p

(* --- Object identity --------------------------------------------------- *)

(* One int per (object, page): the object id above the page's index in
   the object ([Int_tbl.pair], which raises rather than alias).  An
   offset inside a page names no page: its key is -1, which no pair
   is. *)
let key t obj offset =
  if offset mod t.page_size <> 0 then -1
  else Int_tbl.pair obj.obj_id (offset / t.page_size)

let lookup t ~obj ~offset = Int_tbl.find_or t.hash (key t obj offset) None

let insert t p ~obj ~offset =
  assert (Option.is_none p.pg_obj);
  assert (offset mod t.page_size = 0);
  p.pg_obj <- Some obj;
  p.pg_offset <- offset;
  p.pg_obj_node <- Some (Dlist.push_back obj.obj_pages p);
  Int_tbl.add t.hash (key t obj offset) (Some p)

let remove_from_object t p =
  match p.pg_obj, p.pg_obj_node with
  | Some obj, Some node ->
    Int_tbl.remove t.hash (key t obj p.pg_offset);
    Dlist.remove obj.obj_pages node;
    p.pg_obj <- None;
    p.pg_obj_node <- None;
    p.pg_offset <- 0
  | None, None -> ()
  | Some _, None | None, Some _ -> assert false

(* --- Freeing ----------------------------------------------------------- *)

let free_page ?cpu t p =
  remove_from_object t p;
  p.pg_busy <- false;
  p.pg_prefetched <- false;
  p.pg_inflight <- None;
  p.pg_wire_count <- 0;
  p.pg_requeues <- 0;
  match cpu with
  | Some c ->
    set_queue t p Q_none;
    if t.cache_count.(c) >= magazine then begin
      (* Full magazine: drain it back to the shared queue in one lock
         trip, then keep the just-freed (hottest) page. *)
      lock_acquire t ~cpu:c;
      for _ = 1 to magazine do
        match cache_pop t ~cpu:c with
        | Some q -> set_queue t q Q_free
        | None -> ()
      done
    end;
    cache_push t ~cpu:c p
  | None ->
    lock_acquire t ~cpu:0;
    set_queue t p Q_free

let enqueue t p q =
  assert (q <> Q_free);
  set_queue t p q

(* Free-behind: a page deactivated behind a streaming read goes to the
   *head* of the inactive queue — the next page the daemon reclaims —
   so the stream eats its own wake before anyone else's working set. *)
let enqueue_inactive_front t p =
  unlink_queue t p;
  p.pg_queue <- Q_inactive;
  Dlist.push_front_node t.inactive (qnode p)

let take_pop t lst =
  match Dlist.first lst with
  | None -> None
  | Some node ->
    let p = Dlist.value node in
    set_queue t p Q_none;
    Some p

let take_inactive t = take_pop t t.inactive
let take_active t = take_pop t t.active

let iter_free t f =
  Dlist.iter f t.free;
  Array.iter (fun mag -> List.iter f mag) t.caches

let iter_pages t f = List.iter f t.pages

let object_pages o = Dlist.to_list o.obj_pages

(* --- Pressure ------------------------------------------------------------ *)

let drain_caches t =
  Array.iteri
    (fun cpu _ ->
       let rec loop () =
         match cache_pop t ~cpu with
         | Some p ->
           set_queue t p Q_free;
           loop ()
         | None -> ()
       in
       loop ())
    t.caches

(* --- Conservation ------------------------------------------------------ *)

let conservation_errors t =
  let errs = ref [] in
  let note fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  Dlist.iter
    (fun p ->
       if p.pg_queue <> Q_free then
         note "queued page pfn=%d not marked free" p.pfn)
    t.free;
  let cached = ref 0 in
  Array.iteri
    (fun cpu mag ->
       if List.length mag <> t.cache_count.(cpu) then
         note "cpu %d magazine count %d, list holds %d" cpu
           t.cache_count.(cpu) (List.length mag);
       cached := !cached + t.cache_count.(cpu);
       List.iter
         (fun p ->
            if p.pg_queue <> Q_free || Dlist.linked (qnode p) then
              note "cached page pfn=%d in inconsistent state" p.pfn;
            if Option.is_some p.pg_obj then
              note "cached page pfn=%d still owned" p.pfn)
         mag)
    t.caches;
  let queued = Dlist.length t.free in
  if queued + !cached <> t.free_total then
    note "free_count %d but the queue holds %d and magazines %d" t.free_total
      queued !cached;
  List.rev !errs

let check_conservation t =
  match conservation_errors t with [] -> true | _ :: _ -> false

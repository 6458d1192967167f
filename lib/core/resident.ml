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
      (* [key] (obj_id, offset) -> the page's [pg_found] *)
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
        { pfn = base; pg_found = None; pg_life = Free; pg_ahead = Demand;
          pg_queue_node = None; pg_requeues = 0 }
      in
      let node = Dlist.node p in
      p.pg_found <- Some p;
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

(* Take [p] off the queue its state names.  Magazine pages are [Free]
   and unlinked, and are popped explicitly, so an unlinked [Free] page
   arriving here is a double free. *)
let unlink t p =
  let node = qnode p in
  match p.pg_life with
  | Free ->
    Dlist.remove t.free node;
    t.free_total <- t.free_total - 1
  | Owned { where = Active; _ } -> Dlist.remove t.active node
  | Owned { where = Inactive; _ } -> Dlist.remove t.inactive node
  | Allocated | Owned { where = Held | Wired _; _ } ->
    assert (not (Dlist.linked node))

let push_free t p =
  p.pg_life <- Free;
  t.free_total <- t.free_total + 1;
  Dlist.push_back_node t.free (qnode p)

(* Move owned [p] to the tail of [where]'s queue ([front]: the head),
   or onto none. *)
let set_where ?(front = false) t p where =
  match p.pg_life with
  | Owned o ->
    unlink t p;
    o.where <- where;
    (match where with
     | Active -> Dlist.push_back_node t.active (qnode p)
     | Inactive when front -> Dlist.push_front_node t.inactive (qnode p)
     | Inactive -> Dlist.push_back_node t.inactive (qnode p)
     | Held | Wired _ -> ())
  | Free | Allocated -> invalid_arg "Resident: a queue move needs an owned page"

(* --- Magazines --------------------------------------------------------- *)

let cache_push t ~cpu p =
  assert (not (Dlist.linked (qnode p)));
  p.pg_life <- Free;
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
    p.pg_life <- Allocated;
    p.pg_found

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
    unlink t p;
    p.pg_life <- Allocated;
    p.pg_found

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
          p.pg_found
        | None -> assert false
      end
      else scan (i + 1)
    end
  in
  scan 0

let alloc ~cpu t =
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
      first.pg_found

(* --- Object identity --------------------------------------------------- *)

(* One int per (object, page): the object id above the page's index in
   the object ([Int_tbl.pair], which raises rather than alias).  An
   offset inside a page names no page: its key is -1, which no pair
   is. *)
let key t obj offset =
  if offset mod t.page_size <> 0 then -1
  else Int_tbl.pair obj.obj_id (offset / t.page_size)

let lookup t ~obj ~offset = Int_tbl.find_or t.hash (key t obj offset) None

let offset p =
  match p.pg_life with
  | Owned { offset; _ } -> offset
  | Free | Allocated -> invalid_arg "Resident.offset: the page has no owner"

(* Strip [p]'s identity; its state is the caller's to set. *)
let disown t p =
  match p.pg_life with
  | Owned { obj; offset; node; _ } ->
    Int_tbl.remove t.hash (key t obj offset);
    Dlist.remove obj.obj_pages node
  | Free | Allocated -> ()

let insert t p ~obj ~offset =
  assert (offset mod t.page_size = 0);
  let where =
    match p.pg_life with
    | Allocated -> Held
    | Owned { where; _ } -> disown t p; where
    | Free -> invalid_arg "Resident.insert: the page is free"
  in
  Int_tbl.add t.hash (key t obj offset) p.pg_found;
  p.pg_life <-
    Owned { obj; offset; node = Dlist.push_back obj.obj_pages p; where }

(* --- Queues and wiring --------------------------------------------------- *)

let wires p = match p.pg_life with Owned { where = Wired n; _ } -> n | _ -> 0
let wired p = wires p > 0
let activate t p = if not (wired p) then set_where t p Active

let deactivate ?front t p =
  assert (not (wired p));
  set_where ?front t p Inactive

let wire t p = set_where t p (Wired (wires p + 1))

let unwire t p =
  match wires p with
  | 0 -> invalid_arg "Resident.unwire: the page is not wired"
  | 1 -> set_where t p Active
  | n -> set_where t p (Wired (n - 1))

let take_pop t lst =
  match Dlist.first lst with
  | None -> None
  | Some node ->
    let p = Dlist.value node in
    set_where t p Held;
    p.pg_found

let take_inactive t = take_pop t t.inactive
let take_active t = take_pop t t.active

let requeue t p =
  p.pg_requeues <- p.pg_requeues + 1;
  activate t p;
  p.pg_requeues

let cleaned p = p.pg_requeues <- 0

(* --- Read-ahead state and freeing -------------------------------------- *)

let riding p =
  match p.pg_ahead with Riding _ -> true | Demand | Prefetched -> false

let read_ahead p =
  match p.pg_ahead with Demand -> false | Prefetched | Riding _ -> true

let ride t p ~cpu ~stamp ~service =
  p.pg_ahead <-
    (if stamp > Machine.cycles t.machine ~cpu then
       Riding { stamp = Machine.stamp t.machine stamp; service }
     else Prefetched)

let landed p = p.pg_ahead <- Prefetched

let prefetch_hit t p ~issued =
  if issued || read_ahead p then
    t.stats.vs_prefetch_hits <- t.stats.vs_prefetch_hits + 1;
  p.pg_ahead <- Demand;
  match p.pg_life with
  | Owned { where = Inactive; _ } -> set_where t p Active
  | Owned { where = Active | Held | Wired _; _ } | Free | Allocated -> ()

let free_page ?cpu t p =
  disown t p;
  unlink t p;
  p.pg_life <- Allocated;
  if read_ahead p then
    t.stats.vs_prefetch_wasted <- t.stats.vs_prefetch_wasted + 1;
  p.pg_ahead <- Demand;
  p.pg_requeues <- 0;
  match cpu with
  | Some c ->
    if t.cache_count.(c) >= magazine then begin
      (* Full magazine: drain it back to the shared queue in one lock
         trip, then keep the just-freed (hottest) page. *)
      lock_acquire t ~cpu:c;
      for _ = 1 to magazine do
        match cache_pop t ~cpu:c with
        | Some q -> push_free t q
        | None -> ()
      done
    end;
    cache_push t ~cpu:c p
  | None ->
    lock_acquire t ~cpu:0;
    push_free t p

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
           push_free t p;
           loop ()
         | None -> ()
       in
       loop ())
    t.caches

(* --- Conservation ------------------------------------------------------ *)

let conservation_errors t =
  let errs = ref [] in
  let note fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let free p = match p.pg_life with Free -> true | _ -> false in
  Dlist.iter
    (fun p ->
       if not (free p) then note "queued page pfn=%d not marked free" p.pfn)
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
            if (not (free p)) || Dlist.linked (qnode p) then
              note "cached page pfn=%d in inconsistent state" p.pfn)
         mag)
    t.caches;
  let queued = Dlist.length t.free in
  if queued + !cached <> t.free_total then
    note "free_count %d but the queue holds %d and magazines %d" t.free_total
      queued !cached;
  List.rev !errs

let check_conservation t =
  match conservation_errors t with [] -> true | _ :: _ -> false

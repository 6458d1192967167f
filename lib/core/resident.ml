open Mach_util
open Mach_hw
open Types

(* The free "queue" is really a hierarchy (DragonFly's vm_page shape):
   free pages live on [domains * colors] colored queues — color =
   machine-independent frame number mod [colors], domain = contiguous
   slice of physical memory — with an optional per-CPU magazine in
   front.  The default configuration (one domain, one color, magazines
   off) is the degenerate case of the same code: one queue, an empty
   borrow scan, no magazine, so it pops/pushes in the exact order the
   seed allocator did and replays it to the cycle.  [configure]
   re-buckets the free pages when the topology changes; contention on
   the shared queues is simulated (opt-in) with the same release-stamp
   scheme as [Vm_object] locks. *)

type counters = {
  mutable color_hits : int;     (* allocations served at the preferred color *)
  mutable color_misses : int;   (* allocations that had to widen the search *)
  mutable pcpu_hits : int;      (* allocations served from a per-CPU magazine *)
  mutable pcpu_refills : int;   (* magazine refill trips to the shared queues *)
  mutable numa_local : int;     (* queue allocations from the CPU's own domain *)
  mutable numa_borrows : int;   (* queue allocations borrowed cross-domain *)
  mutable page_steals : int;    (* pages stolen out of another CPU's magazine *)
}

(* Simulation services, installed by [Vm_sys] (or a test harness): the
   allocator itself never sees the machine, so virtual time and events
   arrive through these closures.  All optional — with no hooks the
   allocator is pure bookkeeping. *)
type hooks = {
  hk_now : cpu:int -> int;          (* CPU's virtual clock, absolute cycles *)
  hk_charge : cpu:int -> int -> unit;       (* charge queue-lock hold time *)
  hk_stall : cpu:int -> int -> unit;        (* charge contended-lock residue *)
  hk_epoch : unit -> int;           (* clock-reset epoch, to expire stamps *)
  hk_steal : cpu:int -> victim:int -> page:Types.page -> unit;
}

type t = {
  phys : Phys_mem.t;
  page_size : int;
  multiple : int;
  span_groups : int; (* physical extent in page groups, for the domain split *)
  hash : (int * int, page) Hashtbl.t; (* (obj_id, offset) -> page *)
  mutable pages : page list; (* every page, whatever its state *)
  active : page Dlist.t;
  inactive : page Dlist.t;
  mutable total : int;
  (* allocator topology *)
  mutable colors : int;       (* power of two; 1 = uncolored *)
  mutable domains : int;      (* NUMA domains; 1 = flat *)
  mutable cpus : int;         (* magazines allocated, CPU ids < cpus *)
  mutable cache_size : int;   (* magazine capacity; 0 = magazines off *)
  mutable refill_batch : int; (* pages per refill/drain trip *)
  mutable lock_sim : bool;    (* simulate contention on the shared queues *)
  mutable lock_hold : int;    (* cycles one queue critical section holds *)
  mutable free_min_share : int; (* per-domain poverty line: borrow below it *)
  mutable hooks : hooks option;
  (* free structure *)
  mutable queues : page Dlist.t array; (* index = domain * colors + color *)
  mutable qlock_free : int array;  (* per-queue lock release stamp, absolute *)
  mutable qlock_epoch : int array; (* epoch the stamp was taken in *)
  mutable dom_free : int array;    (* pages on each domain's queues *)
  mutable caches : page list array;  (* per-CPU magazine, LIFO *)
  mutable cache_count : int array;
  mutable free_total : int;   (* pages free anywhere: queues + magazines *)
  mutable rotor : int;        (* color spreader for hint-less allocations *)
  c : counters;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let fresh_counters () =
  { color_hits = 0; color_misses = 0; pcpu_hits = 0; pcpu_refills = 0;
    numa_local = 0; numa_borrows = 0; page_steals = 0 }

(* --- Page -> home queue ----------------------------------------------- *)

let page_group t p = p.pfn / t.multiple

let page_domain t p =
  min (t.domains - 1) (page_group t p * t.domains / t.span_groups)

let page_color t p = page_group t p land (t.colors - 1)

let qindex t p = (page_domain t p * t.colors) + page_color t p

let create ~phys ~multiple ?(frame_limit = max_int) () =
  if not (is_power_of_two multiple) then
    invalid_arg "Resident.create: multiple must be a power of two";
  let frames = min frame_limit (Phys_mem.frame_count phys) in
  let groups = frames / multiple in
  let t =
    {
      phys;
      page_size = multiple * Phys_mem.page_size phys;
      multiple;
      span_groups = max 1 groups;
      hash = Hashtbl.create 1024;
      pages = [];
      active = Dlist.create ();
      inactive = Dlist.create ();
      total = 0;
      colors = 1;
      domains = 1;
      cpus = 1;
      cache_size = 0;
      refill_batch = 8;
      lock_sim = false;
      lock_hold = 60;
      free_min_share = 0;
      hooks = None;
      queues = [| Dlist.create () |];
      qlock_free = [| 0 |];
      qlock_epoch = [| -1 |];
      dom_free = [| 0 |];
      caches = [| [] |];
      cache_count = [| 0 |];
      free_total = 0;
      rotor = 0;
      c = fresh_counters ();
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
      p.pg_queue_node <- Some (Dlist.push_back t.queues.(0) p);
      t.pages <- p :: t.pages;
      t.dom_free.(0) <- t.dom_free.(0) + 1;
      t.free_total <- t.free_total + 1;
      t.total <- t.total + 1
    end
  done;
  t

let page_size t = t.page_size
let multiple t = t.multiple
let total_pages t = t.total
let free_count t = t.free_total
let active_count t = Dlist.length t.active
let inactive_count t = Dlist.length t.inactive

let colors t = t.colors
let domains t = t.domains
let cache_size t = t.cache_size
let domain_free t d = t.dom_free.(d)
let cached_count t = Array.fold_left ( + ) 0 t.cache_count
let domain_of_cpu t ~cpu = cpu mod t.domains

let counters t = t.c

let reset_counters t =
  let c = t.c in
  c.color_hits <- 0; c.color_misses <- 0;
  c.pcpu_hits <- 0; c.pcpu_refills <- 0;
  c.numa_local <- 0; c.numa_borrows <- 0;
  c.page_steals <- 0

let set_hooks t h = t.hooks <- Some h

let set_lock_sim t ?hold on =
  t.lock_sim <- on;
  match hold with
  | Some h -> t.lock_hold <- max 0 h
  | None -> ()

let set_free_min_share t n = t.free_min_share <- max 0 n

(* --- Queue plumbing ---------------------------------------------------- *)

(* Pages in a magazine are [Q_free] with no queue node; they never meet
   [unlink_queue] (magazines are popped explicitly), so a node-less
   [Q_free] page arriving here is a double free. *)
let unlink_queue t p =
  match p.pg_queue, p.pg_queue_node with
  | Q_free, Some node ->
    let d = page_domain t p in
    Dlist.remove t.queues.(qindex t p) node;
    t.dom_free.(d) <- t.dom_free.(d) - 1;
    t.free_total <- t.free_total - 1
  | Q_active, Some node -> Dlist.remove t.active node
  | Q_inactive, Some node -> Dlist.remove t.inactive node
  | Q_none, None -> ()
  | _, _ -> assert false

let set_queue t p q =
  unlink_queue t p;
  p.pg_queue <- q;
  p.pg_queue_node <-
    (match q with
     | Q_none -> None
     | Q_active -> Some (Dlist.push_back t.active p)
     | Q_inactive -> Some (Dlist.push_back t.inactive p)
     | Q_free ->
       let d = page_domain t p in
       t.dom_free.(d) <- t.dom_free.(d) + 1;
       t.free_total <- t.free_total + 1;
       Some (Dlist.push_back t.queues.(qindex t p) p))

(* --- Magazines --------------------------------------------------------- *)

let cache_push t ~cpu p =
  p.pg_queue <- Q_free;
  p.pg_queue_node <- None;
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

(* Same scheme as [Vm_object] write locks: each queue keeps the absolute
   cycle its last critical section released at; an acquirer whose clock
   is behind that stamp pays the residue as a lock stall, then holds the
   queue for [lock_hold] cycles charged to its own clock.  Stamps from
   before a clock reset are expired by the epoch.  A single CPU can
   never trail its own release stamp, so the uncontended case charges
   only the hold. *)
let lock_acquire t ~cpu ~qi =
  if t.lock_sim then
    match t.hooks with
    | None -> ()
    | Some h ->
      let epoch = h.hk_epoch () in
      let now = h.hk_now ~cpu in
      let stamp = if t.qlock_epoch.(qi) = epoch then t.qlock_free.(qi) else 0 in
      let residue = stamp - now in
      if residue > 0 then h.hk_stall ~cpu residue;
      if t.lock_hold > 0 then h.hk_charge ~cpu t.lock_hold;
      t.qlock_free.(qi) <- max now stamp + t.lock_hold;
      t.qlock_epoch.(qi) <- epoch

(* --- Allocation -------------------------------------------------------- *)

(* Take one page off the shared queues for [cpu], preferring color
   [want]: local domain first, borrowing from the best-stocked other
   domain when the local one is empty or beneath its share of free_min;
   within the domain, a widening search from the preferred color.
   Returns [None] only when every queue everywhere is empty. *)
let queue_take t ~cpu ~want ~lock =
  let d0 = domain_of_cpu t ~cpu in
  let d =
    let local = t.dom_free.(d0) in
    if local > 0 && local >= t.free_min_share then d0
    else begin
      (* Borrow from the richest domain (ties to the first scanned,
         i.e. the nearest neighbour upward) — which may still be the
         local one if nobody is better stocked. *)
      let best = ref d0 and best_n = ref local in
      for i = 1 to t.domains - 1 do
        let dd = (d0 + i) mod t.domains in
        if t.dom_free.(dd) > !best_n then begin
          best := dd;
          best_n := t.dom_free.(dd)
        end
      done;
      !best
    end
  in
  if t.dom_free.(d) = 0 then None
  else begin
    (* The degenerate topology (one domain, one color) is the seed
       allocator; every hit would be trivially "local" and "matching",
       so the counters stay silent and zero there. *)
    if t.domains > 1 then
      if d = d0 then t.c.numa_local <- t.c.numa_local + 1
      else t.c.numa_borrows <- t.c.numa_borrows + 1;
    let mask = t.colors - 1 in
    let rec search i =
      let col = (want + i) land mask in
      let qi = (d * t.colors) + col in
      match Dlist.first t.queues.(qi) with
      | Some node ->
        if t.colors > 1 then
          if i = 0 then t.c.color_hits <- t.c.color_hits + 1
          else t.c.color_misses <- t.c.color_misses + 1;
        if lock then lock_acquire t ~cpu ~qi;
        let p = Dlist.value node in
        set_queue t p Q_none;
        p
      | None -> search (i + 1) (* terminates: dom_free.(d) > 0 *)
    in
    Some (search 0)
  end

(* Last resort when the shared queues are dry but magazines still hold
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
          t.c.page_steals <- t.c.page_steals + 1;
          (match t.hooks with
           | Some h -> h.hk_steal ~cpu ~victim:v ~page:p
           | None -> ());
          Some p
        | None -> assert false
      end
      else scan (i + 1)
    end
  in
  scan 0

let alloc ?cpu ?color t =
  let cpu = match cpu with Some c when c >= 0 -> c | _ -> 0 in
  let mask = t.colors - 1 in
  let want =
    match color with
    | Some c -> c land mask
    | None ->
      let w = t.rotor land mask in
      t.rotor <- (w + 1) land mask;
      w
  in
  let mag = t.cache_size > 0 && cpu < Array.length t.caches in
  let p =
    if mag && t.cache_count.(cpu) > 0 then begin
      t.c.pcpu_hits <- t.c.pcpu_hits + 1;
      cache_pop t ~cpu
    end
    else
      match queue_take t ~cpu ~want ~lock:true with
      | None -> steal t ~cpu
      | Some first ->
        if mag then begin
          (* Refill: one trip to the shared queues (one lock acquisition)
             buys a whole batch; the extras go into the magazine so the
             next refill_batch - 1 allocations never touch shared state. *)
          t.c.pcpu_refills <- t.c.pcpu_refills + 1;
          let filled = ref true in
          for _ = 2 to t.refill_batch do
            if !filled then
              match queue_take t ~cpu ~want ~lock:false with
              | Some extra -> cache_push t ~cpu extra
              | None -> filled := false
          done
        end;
        Some first
  in
  (match p with Some p -> assert (p.pg_obj = None) | None -> ());
  p

(* --- Object identity --------------------------------------------------- *)

let lookup t ~obj ~offset = Hashtbl.find_opt t.hash (obj.obj_id, offset)

let insert t p ~obj ~offset =
  assert (p.pg_obj = None);
  assert (offset mod t.page_size = 0);
  assert (not (Hashtbl.mem t.hash (obj.obj_id, offset)));
  p.pg_obj <- Some obj;
  p.pg_offset <- offset;
  p.pg_obj_node <- Some (Dlist.push_back obj.obj_pages p);
  Hashtbl.add t.hash (obj.obj_id, offset) p

let remove_from_object t p =
  match p.pg_obj, p.pg_obj_node with
  | Some obj, Some node ->
    Hashtbl.remove t.hash (obj.obj_id, p.pg_offset);
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
  | Some c when t.cache_size > 0 && c >= 0 && c < Array.length t.caches ->
    set_queue t p Q_none;
    if t.cache_count.(c) >= t.cache_size then begin
      (* Overflowing magazine: drain a batch back to the colored queues
         in one lock trip, then keep the just-freed (hottest) page. *)
      lock_acquire t ~cpu:c ~qi:(qindex t p);
      let n = min t.refill_batch t.cache_count.(c) in
      for _ = 1 to n do
        match cache_pop t ~cpu:c with
        | Some q -> set_queue t q Q_free
        | None -> ()
      done
    end;
    cache_push t ~cpu:c p
  | _ ->
    lock_acquire t ~cpu:(Option.value cpu ~default:0) ~qi:(qindex t p);
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
  p.pg_queue_node <- Some (Dlist.push_front t.inactive p)

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
  Array.iter (fun q -> Dlist.iter f q) t.queues;
  Array.iter (fun mag -> List.iter f mag) t.caches

let iter_pages t f = List.iter f t.pages

let object_pages o = Dlist.to_list o.obj_pages

(* --- Reconfiguration and pressure -------------------------------------- *)

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

let configure t ?colors ?domains ?cpus ?cache ?refill () =
  let colors = match colors with Some c -> c | None -> t.colors in
  let domains = match domains with Some d -> d | None -> t.domains in
  let cpus = match cpus with Some n -> n | None -> t.cpus in
  let cache = match cache with Some n -> n | None -> t.cache_size in
  if not (is_power_of_two colors) then
    invalid_arg "Resident.configure: colors must be a power of two";
  if domains < 1 || cpus < 1 || cache < 0 then
    invalid_arg "Resident.configure: bad topology";
  (* Collect every free page — queues in index order, then magazines —
     and re-bucket under the new topology, preserving relative order. *)
  let pages = ref [] in
  Array.iter
    (fun q ->
       let rec loop () =
         match Dlist.first q with
         | None -> ()
         | Some node ->
           let p = Dlist.value node in
           set_queue t p Q_none;
           pages := p :: !pages;
           loop ()
       in
       loop ())
    t.queues;
  Array.iteri
    (fun cpu _ ->
       let rec loop () =
         match cache_pop t ~cpu with
         | Some p ->
           pages := p :: !pages;
           loop ()
         | None -> ()
       in
       loop ())
    t.caches;
  t.colors <- colors;
  t.domains <- domains;
  t.cpus <- cpus;
  t.cache_size <- cache;
  (match refill with Some r -> t.refill_batch <- max 1 r | None -> ());
  let nq = domains * colors in
  t.queues <- Array.init nq (fun _ -> Dlist.create ());
  t.qlock_free <- Array.make nq 0;
  t.qlock_epoch <- Array.make nq (-1);
  t.dom_free <- Array.make domains 0;
  t.caches <- Array.make cpus [];
  t.cache_count <- Array.make cpus 0;
  t.rotor <- 0;
  List.iter (fun p -> set_queue t p Q_free) (List.rev !pages)

(* --- Conservation ------------------------------------------------------ *)

let conservation_errors t =
  let errs = ref [] in
  let note fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let queued = ref 0 in
  Array.iteri
    (fun qi q ->
       queued := !queued + Dlist.length q;
       Dlist.iter
         (fun p ->
            if p.pg_queue <> Q_free then
              note "queued page pfn=%d not marked free" p.pfn;
            if qindex t p <> qi then
              note "page pfn=%d on queue %d, home is %d" p.pfn qi
                (qindex t p))
         q)
    t.queues;
  let per_dom = Array.make t.domains 0 in
  Array.iteri
    (fun qi q -> per_dom.(qi / t.colors) <- per_dom.(qi / t.colors)
        + Dlist.length q)
    t.queues;
  Array.iteri
    (fun d n ->
       if t.dom_free.(d) <> n then
         note "domain %d free count %d, queues hold %d" d t.dom_free.(d) n)
    per_dom;
  let cached = ref 0 in
  Array.iteri
    (fun cpu mag ->
       if List.length mag <> t.cache_count.(cpu) then
         note "cpu %d magazine count %d, list holds %d" cpu
           t.cache_count.(cpu) (List.length mag);
       cached := !cached + t.cache_count.(cpu);
       List.iter
         (fun p ->
            if p.pg_queue <> Q_free || p.pg_queue_node <> None then
              note "cached page pfn=%d in inconsistent state" p.pfn;
            if p.pg_obj <> None then
              note "cached page pfn=%d still owned" p.pfn)
         mag)
    t.caches;
  if !queued + !cached <> t.free_total then
    note "free_count %d but queues hold %d and magazines %d" t.free_total
      !queued !cached;
  List.rev !errs

let check_conservation t = conservation_errors t = []

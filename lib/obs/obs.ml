type fault_resolution =
  | Fast_reload
  | Zero_fill
  | Cow_copy
  | Pagein
  | Fault_error
  | Memory_error

let fault_resolutions =
  [ Fast_reload; Zero_fill; Cow_copy; Pagein; Fault_error; Memory_error ]

let resolution_index = function
  | Fast_reload -> 0
  | Zero_fill -> 1
  | Cow_copy -> 2
  | Pagein -> 3
  | Fault_error -> 4
  | Memory_error -> 5

let fault_resolution_name = function
  | Fast_reload -> "fast_reload"
  | Zero_fill -> "zero_fill"
  | Cow_copy -> "cow_copy"
  | Pagein -> "pagein"
  | Fault_error -> "error"
  | Memory_error -> "memory_error"

type flush_kind = Fl_page | Fl_range | Fl_asid

type event =
  | Fault_begin of { va : int; write : bool }
  | Fault_end of { va : int; resolution : fault_resolution; cycles : int }
  | Pagein of { offset : int; bytes : int; cycles : int }
  | Pageout of { offset : int; bytes : int; inactive_depth : int }
  | Shootdown of { initiator : int; targets : int; requests : int;
                   span_pages : int; urgent : bool; cycles : int }
  | Tlb_flush of { kind : flush_kind; deferred : bool }
  | Pmap_enter of { asid : int; va : int; pfn : int }
  | Pmap_remove of { asid : int; start_va : int; end_va : int }
  | Pmap_protect of { asid : int; start_va : int; end_va : int }
  | Object_shadow of { depth : int }
  | Task_switch of { task : string }
  | Disk_io of { write : bool; bytes : int; cycles : int }
  | Pager_retry of { offset : int; attempt : int; backoff : int }
  | Pager_timeout of { offset : int }
  | Pager_dead of { pager : string; rescued : int }
  | Io_error of { write : bool; bytes : int }
  | Prefetch of { offset : int; pages : int; window : int }
      (* read-ahead beyond the demand page: [pages] prefetched at the
         cluster starting [offset], with the adaptive window at [window] *)
  | Cluster_pageout of { offset : int; pages : int }
  | Disk_submit of { write : bool; bytes : int; depth : int; latency : int }
      (* a disk request was submitted: [depth] requests now in flight
         on every disk, [latency] cycles until this one lands *)
  | Disk_wait of { cycles : int; overlap : int }
      (* a CPU blocked on a disk stamp: [cycles] residue charged,
         [overlap] device cycles it had already hidden behind work *)
  | Lock_stall of { obj : int; cycles : int }
      (* a CPU contended on a memory object's simulated lock: [cycles]
         charged waiting out the holder's critical section *)
  | Burst_enter of { va : int; pages : int }
      (* a resident fault burst-mapped [pages] consecutive resident
         neighbours alongside the demand page at [va] *)
  | Alloc_wait of { free : int; wanted : int; cycles : int }
      (* an allocation found the free list at the reserve and waited
         [cycles] on the pageout daemon; [free] pages were free at entry *)
  | Swap_full of { used : int; capacity : int }
      (* a pageout write was refused because the swap partition is full:
         [used] of [capacity] bytes committed *)
  | Oom_kill of { task : string; resident : int }
      (* the out-of-memory policy killed [task], reclaiming [resident]
         anonymous resident pages *)
  | Page_steal of { victim : int; pfn : int }
      (* the shared free queues were dry, so the allocating CPU stole
         page [pfn] out of CPU [victim]'s per-CPU magazine *)
  | Stream_reset of { obj : int; offset : int }
      (* every read-ahead stream slot of object [obj] was owned by a
         live reader, so the miss at [offset] recycled the least
         recently used one — concurrent streams exceed the slot array *)
  | Free_behind of { obj : int; offset : int; pages : int }
      (* a ramped stream deactivated [pages] clean pages behind its
         cursor (cluster start [offset]) to the head of the inactive
         queue, so the stream reclaims its own wake first *)

let kind_index = function
  | Fault_begin _ -> 0
  | Fault_end _ -> 1
  | Pagein _ -> 2
  | Pageout _ -> 3
  | Shootdown _ -> 4
  | Tlb_flush _ -> 5
  | Pmap_enter _ -> 6
  | Pmap_remove _ -> 7
  | Pmap_protect _ -> 8
  | Object_shadow _ -> 9
  | Task_switch _ -> 10
  | Disk_io _ -> 11
  | Pager_retry _ -> 12
  | Pager_timeout _ -> 13
  | Pager_dead _ -> 14
  | Io_error _ -> 15
  | Prefetch _ -> 16
  | Cluster_pageout _ -> 17
  | Disk_submit _ -> 18
  | Disk_wait _ -> 19
  | Lock_stall _ -> 20
  | Burst_enter _ -> 21
  | Alloc_wait _ -> 22
  | Swap_full _ -> 23
  | Oom_kill _ -> 24
  | Page_steal _ -> 25
  | Stream_reset _ -> 26
  | Free_behind _ -> 27

(* Indexed by [kind_index]. *)
let kind_names =
  [| "fault_begin"; "fault_end"; "pagein"; "pageout"; "shootdown";
     "tlb_flush"; "pmap_enter"; "pmap_remove"; "pmap_protect";
     "object_shadow"; "task_switch"; "disk_io"; "pager_retry";
     "pager_timeout"; "pager_dead"; "io_error"; "prefetch";
     "cluster_pageout"; "disk_submit"; "disk_wait"; "lock_stall";
     "burst_enter"; "alloc_wait"; "swap_full"; "oom_kill"; "page_steal";
     "stream_reset"; "free_behind" |]

let kind_count = Array.length kind_names

let kind_name_of_index k = kind_names.(k)

let kind_name ev = kind_name_of_index (kind_index ev)

(* --- Cycle attribution ------------------------------------------------ *)

(* Where a CPU's cycles go, kernel-wide.  Every clock charge lands in
   exactly one category: the innermost frame of the CPU's attribution
   stack (or [User_compute] when the stack is empty), unless the charge
   site names a category explicitly (disk service, shootdown IPIs).  The
   per-CPU x per-category totals therefore sum to the CPU's clock. *)
type category =
  | User_compute
  | Fault_service
  | Pmap
  | Shootdown_ipi
  | Pager_wait
  | Retry_backoff
  | Disk_wait
  | Zero_fill
  | Cow_copy
  | Pageout_daemon
  | Lock_wait
  | Mem_wait

let categories =
  [ User_compute; Fault_service; Pmap; Shootdown_ipi; Pager_wait;
    Retry_backoff; Disk_wait; Zero_fill; Cow_copy; Pageout_daemon;
    Lock_wait; Mem_wait ]

let category_count = 12

let category_index = function
  | User_compute -> 0
  | Fault_service -> 1
  | Pmap -> 2
  | Shootdown_ipi -> 3
  | Pager_wait -> 4
  | Retry_backoff -> 5
  | Disk_wait -> 6
  | Zero_fill -> 7
  | Cow_copy -> 8
  | Pageout_daemon -> 9
  | Lock_wait -> 10
  | Mem_wait -> 11

let category_name = function
  | User_compute -> "user_compute"
  | Fault_service -> "fault_service"
  | Pmap -> "pmap"
  | Shootdown_ipi -> "shootdown_ipi"
  | Pager_wait -> "pager_wait"
  | Retry_backoff -> "retry_backoff"
  | Disk_wait -> "disk_wait"
  | Zero_fill -> "zero_fill"
  | Cow_copy -> "cow_copy"
  | Pageout_daemon -> "pageout_daemon"
  | Lock_wait -> "lock_wait"
  | Mem_wait -> "mem_wait"

(* Per-CPU attribution state: a category stack (innermost frame last),
   per-category cycle totals, and the stack of open fault-span ids.
   Totals live outside the ring, so they survive wraparound. *)
type attr = {
  mutable at_stack : int array;  (* category indices *)
  mutable at_depth : int;
  at_totals : int array;         (* cycles per category_index *)
  mutable at_spans : int array;  (* open span ids *)
  mutable at_span_depth : int;
}

let attr_make () =
  { at_stack = Array.make 8 0; at_depth = 0;
    at_totals = Array.make category_count 0;
    at_spans = Array.make 8 0; at_span_depth = 0 }

(* A completed fault span, kept for the profile report's top-N table. *)
type span_info = {
  sp_id : int;
  sp_cpu : int;
  sp_va : int;
  sp_resolution : fault_resolution;
  sp_cycles : int;
}

let top_span_cap = 10

(* Latency and size histograms fed by [record], beside [fault_latency].
   [hist_names] is the one place each is named: its stats JSON key and
   its summary table label, in export order. *)
type hist =
  | Shootdown_latency | Pagein_latency | Disk_latency | Pageout_queue_depth
  | Pagein_cluster_pages | Pageout_cluster_pages | Disk_queue_depth
  | Disk_completion_latency | Disk_wait_residue | Lock_stall_cycles
  | Burst_pages | Mem_wait_cycles

let hist_names =
  [ (Shootdown_latency, "shootdown_latency", "shootdown");
    (Pagein_latency, "pagein_latency", "pagein");
    (Disk_latency, "disk_latency", "disk io");
    (Pageout_queue_depth, "pageout_queue_depth", "pageout queue depth");
    (Pagein_cluster_pages, "pagein_cluster_pages", "pagein cluster pages");
    (Pageout_cluster_pages, "pageout_cluster_pages", "pageout cluster pages");
    (Disk_queue_depth, "disk_queue_depth", "disk queue depth");
    (Disk_completion_latency, "disk_completion_latency",
     "disk completion latency");
    (Disk_wait_residue, "disk_wait_residue", "disk wait residue");
    (Lock_stall_cycles, "lock_stall_cycles", "lock stall cycles");
    (Burst_pages, "burst_pages", "burst pages");
    (Mem_wait_cycles, "mem_wait_cycles", "mem wait cycles") ]

let hist_index = function
  | Shootdown_latency -> 0 | Pagein_latency -> 1 | Disk_latency -> 2
  | Pageout_queue_depth -> 3 | Pagein_cluster_pages -> 4
  | Pageout_cluster_pages -> 5 | Disk_queue_depth -> 6
  | Disk_completion_latency -> 7 | Disk_wait_residue -> 8
  | Lock_stall_cycles -> 9 | Burst_pages -> 10 | Mem_wait_cycles -> 11

type record = { ts : int; cpu : int; span : int; ev : event }

type t = {
  mutable enabled : bool;
  is_null : bool;
  ring : record Ring.t;
  mutable attrs : attr array;    (* grown on first use per CPU *)
  mutable next_span : int;
  mutable top_spans : span_info list; (* largest service time first *)
  kind_counts : int array;
  fault_latency : Hist.t array; (* indexed by resolution_index *)
  hists : Hist.t array;         (* indexed by [hist_index] *)
  mutable open_faults : int;
}

let make ~capacity ~is_null =
  { enabled = false;
    is_null;
    ring = Ring.create ~capacity;
    attrs = [||];
    next_span = 1;
    top_spans = [];
    kind_counts = Array.make kind_count 0;
    fault_latency =
      Array.init (List.length fault_resolutions) (fun _ -> Hist.create ());
    hists = Array.init (List.length hist_names) (fun _ -> Hist.create ());
    open_faults = 0 }

let create ?(capacity = 65536) () = make ~capacity ~is_null:false

let null = make ~capacity:0 ~is_null:true

let enabled t = t.enabled

let set_enabled t on =
  if on && t.is_null then
    invalid_arg "Obs.set_enabled: the null sink cannot be enabled";
  t.enabled <- on

let attr_of t cpu =
  let n = Array.length t.attrs in
  if cpu >= n then
    t.attrs <-
      Array.init (cpu + 1)
        (fun i -> if i < n then t.attrs.(i) else attr_make ());
  t.attrs.(cpu)

let attr_push t ~cpu cat =
  let a = attr_of t cpu in
  if a.at_depth = Array.length a.at_stack then begin
    let s = Array.make (2 * a.at_depth) 0 in
    Array.blit a.at_stack 0 s 0 a.at_depth;
    a.at_stack <- s
  end;
  a.at_stack.(a.at_depth) <- category_index cat;
  a.at_depth <- a.at_depth + 1

let attr_pop t ~cpu =
  let a = attr_of t cpu in
  if a.at_depth > 0 then a.at_depth <- a.at_depth - 1

let attr_charge t ~cpu c =
  let a = attr_of t cpu in
  let i = if a.at_depth = 0 then 0 else a.at_stack.(a.at_depth - 1) in
  a.at_totals.(i) <- a.at_totals.(i) + c

let attr_charge_as t ~cpu cat c =
  let a = attr_of t cpu in
  let i = category_index cat in
  a.at_totals.(i) <- a.at_totals.(i) + c

let attr_total t ~cpu cat =
  if cpu < Array.length t.attrs then
    t.attrs.(cpu).at_totals.(category_index cat)
  else 0

let attr_cpu_total t ~cpu =
  if cpu < Array.length t.attrs then
    Array.fold_left ( + ) 0 t.attrs.(cpu).at_totals
  else 0

let attr_cpus t = Array.length t.attrs

let attr_grand_total t cat =
  let i = category_index cat in
  Array.fold_left (fun acc a -> acc + a.at_totals.(i)) 0 t.attrs

(* Zero the cycle totals without disturbing open category/span frames:
   a benchmark resetting clocks mid-run keeps the invariant that totals
   sum to the (freshly zeroed) clock. *)
let attr_reset_totals t =
  Array.iter (fun a -> Array.fill a.at_totals 0 category_count 0) t.attrs

let top_spans t = t.top_spans

let note_top_span t sp =
  let rec insert = function
    | [] -> [ sp ]
    | x :: rest when sp.sp_cycles > x.sp_cycles -> sp :: x :: rest
    | x :: rest -> x :: insert rest
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  t.top_spans <- take top_span_cap (insert t.top_spans)

let hist t h = t.hists.(hist_index h)

let add t h v = Hist.add (hist t h) v

let record t ~ts ~cpu ev =
  (* Span bookkeeping: Fault_begin opens a span and tags itself with the
     fresh id; every event the same CPU emits while the span is open
     carries that id; Fault_end closes it (and feeds the top-N table).
     Nested faults (a fault taken inside fault service) stack. *)
  let a = attr_of t cpu in
  let span =
    match ev with
    | Fault_begin _ ->
      let id = t.next_span in
      t.next_span <- id + 1;
      if a.at_span_depth = Array.length a.at_spans then begin
        let s = Array.make (2 * a.at_span_depth) 0 in
        Array.blit a.at_spans 0 s 0 a.at_span_depth;
        a.at_spans <- s
      end;
      a.at_spans.(a.at_span_depth) <- id;
      a.at_span_depth <- a.at_span_depth + 1;
      id
    | Fault_end { va; resolution; cycles } ->
      let id =
        if a.at_span_depth > 0 then a.at_spans.(a.at_span_depth - 1) else 0
      in
      if a.at_span_depth > 0 then a.at_span_depth <- a.at_span_depth - 1;
      note_top_span t
        { sp_id = id; sp_cpu = cpu; sp_va = va;
          sp_resolution = resolution; sp_cycles = cycles };
      id
    | _ ->
      if a.at_span_depth > 0 then a.at_spans.(a.at_span_depth - 1) else 0
  in
  Ring.push t.ring { ts; cpu; span; ev };
  let k = kind_index ev in
  t.kind_counts.(k) <- t.kind_counts.(k) + 1;
  match ev with
  | Fault_begin _ -> t.open_faults <- t.open_faults + 1
  | Fault_end { resolution; cycles; _ } ->
    t.open_faults <- t.open_faults - 1;
    Hist.add t.fault_latency.(resolution_index resolution) cycles
  | Pagein { cycles; _ } -> add t Pagein_latency cycles
  | Pageout { inactive_depth; _ } -> add t Pageout_queue_depth inactive_depth
  | Shootdown { cycles; _ } -> add t Shootdown_latency cycles
  | Disk_io { cycles; _ } -> add t Disk_latency cycles
  | Prefetch { pages; _ } -> add t Pagein_cluster_pages (pages + 1)
  | Cluster_pageout { pages; _ } -> add t Pageout_cluster_pages pages
  | Disk_submit { depth; latency; _ } ->
    add t Disk_queue_depth depth;
    add t Disk_completion_latency latency
  | Disk_wait { cycles; _ } -> add t Disk_wait_residue cycles
  | Lock_stall { cycles; _ } -> add t Lock_stall_cycles cycles
  | Burst_enter { pages; _ } -> add t Burst_pages pages
  | Alloc_wait { cycles; _ } -> add t Mem_wait_cycles cycles
  | Tlb_flush _ | Pmap_enter _ | Pmap_remove _ | Pmap_protect _
  | Object_shadow _ | Task_switch _
  | Pager_retry _ | Pager_timeout _ | Pager_dead _ | Io_error _
  | Swap_full _ | Oom_kill _ | Page_steal _ | Stream_reset _
  | Free_behind _ -> ()

let ring t = t.ring

let events_seen t = Ring.pushed t.ring

let count_index t k = t.kind_counts.(k)

let open_faults t = t.open_faults

let fault_latency t r = t.fault_latency.(resolution_index r)

(* The four basic memory-management data structures of Section 3:

     1. the resident page table entry ([page]),
     2. the address map ([vmap] of [entry]),
     3. the memory object ([obj], with its pager),
     4. the pmap (machine-dependent; see {!Mach_pmap.Pmap}).

   They are mutually recursive in exactly the way the paper's C structures
   point at each other, so they live together in this module; all
   behaviour is in the Vm_* modules.  Machine-independent code is the
   authoritative owner of everything here. *)

open Mach_util
open Mach_hw

(* A resident page (Section 3.1); Resident assigns every field. *)
type page = {
  pfn : int;
      (* first hardware frame of this (machine-independent) page; a Mach
         page spans [page_multiple] consecutive hardware frames *)
  mutable pg_found : page option;  (* [Some] this page, for lookup and alloc *)
  mutable pg_life : life;
  mutable pg_ahead : ahead;
  mutable pg_queue_node : page Dlist.node option;
      (* the page's one queue node, set when the page is made and relinked
         on every queue move; linked exactly while the page is on the
         free, active or inactive queue *)
  mutable pg_requeues : int;
      (* consecutive pageout attempts on which this page's write failed
         and it was requeued still dirty; reset when a clean succeeds or
         the page is freed.  Crossing the requeue limit flips the system
         into the memory-pressure state instead of spinning forever *)
}

(* A page's life, one field, so a free page cannot be owned or wired
   and a wired page cannot sit on a paging queue (Section 3.1: queues
   of free, reclaimable and allocated pages). *)
and life =
  | Free       (* on the shared free queue or in a CPU's magazine *)
  | Allocated  (* taken from the free pool, not yet given an identity *)
  | Owned of {
      obj : obj;
      offset : int;              (* byte offset within [obj] *)
      node : page Dlist.node;    (* on [obj]'s page list *)
      mutable where : where;
    }

(* Which paging queue an owned page is on.  [Held]: none, just inserted
   or taken by the pageout daemon; [Wired n]: none, wired [n] times. *)
and where = Active | Inactive (* reclaimable *) | Held | Wired of int

(* A page's read-ahead state; [Demand] for a page a fault or read asked
   for.  [Riding]: read ahead and still on the device, busy until
   someone waits out [stamp] (Pager_guard.await_page), a wait standing
   for [service] device cycles; a clock reset expires the stamp.
   [Prefetched]: landed read-ahead no one has used yet; its first use
   is a prefetch hit, its free a wasted prefetch. *)
and ahead =
  | Demand
  | Prefetched
  | Riding of { stamp : Machine.stamp; service : int }

(* When a pager's read lands on the device ([Machine.submit_disk]);
   [io_none] for a reply that involved no device. *)
and io = Mach_hw.Machine.io = {
  io_start : int;
  io_completion : int;
  io_service : int;
}

and obj = {
  obj_id : int;
  obj_size : int;                       (* bytes *)
  mutable obj_ref : int;                (* mapping + shadow references *)
  obj_pages : page Dlist.t;             (* the memory-object page list *)
  mutable obj_pager : pager option;
  mutable obj_shadow : obj option;
  mutable obj_shadow_offset : int;
      (* this object's offset 0 corresponds to [obj_shadow_offset] in the
         shadowed object *)
  obj_temporary : bool;
      (* anonymous kernel-managed memory; any other object may persist
         in the object cache *)
  mutable obj_cached : bool;            (* ref 0 but retained in the cache *)
  mutable obj_readonly : bool;
      (* pager_readonly: the pager never accepts writes, so the kernel
         must interpose a shadow on any write attempt *)
  mutable obj_dead : bool;              (* terminated; must hold no pages *)
  obj_health : pager_health;            (* failure record for obj_pager *)
  mutable obj_rescue : pager option;
      (* default-pager stand-in created when obj_pager is declared dead;
         holds rescued dirty pages and takes over paging duty *)
  mutable obj_streams : stream array;
      (* adaptive read-ahead state, one slot per concurrent sequential
         reader (the DragonFly cluster_cache shape): sized lazily to
         [Vm_cluster.slot_count] on first pagein, [| |] until then; the
         fault path never asks a pager-less object for a pagein, so
         those pay nothing.  A pager miss matches the slot
         whose cursor equals its offset; misses recycle the reader's own
         slot, an expired slot, or the least recently used one *)
  mutable obj_lock : Machine.stamp;
      (* the object's simulated lock: when its last exclusive hold
         released (Vm_stats.lock_acquire); a CPU whose clock is behind
         it contends and stalls *)
}

(* One read-ahead stream through a memory object.  The key (map id,
   entry start) names the reader so concurrent streams over one shared
   object cannot reset each other's ramp; the cursor/window pair is
   exactly the old per-object state, now per stream.  A slot lives
   while its commit stamp does: a clock reset expires it, so a recycled
   object or a fresh measurement interval never inherits a dead
   stream's cursor. *)
and stream = {
  mutable st_map : int;         (* map id of the reader; -1 anonymous *)
  mutable st_entry : int;       (* map entry start va; 0 anonymous *)
  mutable st_next : int;
      (* offset one byte past the last cluster this stream paged in; a
         miss exactly here is sequential access ([min_int] = never) *)
  mutable st_window : int;
      (* current window in pages: ramps 1->2->4->...->[cluster_max]
         while the stream stays sequential, resets on random *)
  mutable st_use : int;
      (* last-use stamp from [Vm_sys.stream_clock] (monotonic, not the
         cycle clock, so clock resets cannot scramble LRU order) *)
  mutable st_stamp : Machine.stamp; (* the last commit *)
}

(* The kernel's machine-independent record of how a pager has been
   behaving.  A pager that exhausts its retry budget [ph_consecutive]
   times in a row is declared dead (Pager_guard). *)
and pager_health = {
  mutable ph_consecutive : int;   (* request/write attempts that exhausted
                                     the retry budget in a row; reset on
                                     success *)
  mutable ph_dead : bool;
}

(* A pager instance manages one memory object (it is addressed through
   that object's paging_object port in real Mach).  The closures carry the
   kernel-to-pager calls of Table 3-1 that move data; the pager answers in
   the style of the pager-to-kernel calls of Table 3-2.  A read starts
   its device work and returns at once, and the reply's [io] stamp says
   when each of its bytes lands: the kernel waits for the demand page
   alone (Pager_guard.wait_prefix) and lets the other pages of a
   read-ahead cluster ride their own stamps ([Riding]).  A
   write returns once it has landed: the simulated disk has no queue,
   and a write blocks its CPU, so [Write_completed] has nothing left to
   wait on.

   Page data moves by reference, as in a Mach message: each side lends
   the other its own bytes ({!Lent.t}) for one call.  A pager answers
   [pgr_request] with slices of the blocks or chunks it stores; the
   kernel copies a reply's slices into frames and never keeps or
   mutates them.  The copy may come after the kernel has grabbed a
   frame, which can run the pageout daemon; that is safe because the
   daemon never writes the offsets being paged in, which are not
   resident.  The kernel passes [pgr_write] the frame spans of the
   pages it cleans; a pager copies a written slice into its store before
   it returns, and keeps no slice.  A pager that changes the data it
   answers with (a chaos decorator scrambling a reply) changes a copy. *)
and pager = {
  pgr_id : int;
  pgr_name : string;
  pgr_request : offset:int -> length:int -> pager_reply;
      (* pager_data_request: the kernel wants [length] bytes at [offset].
         [length] may span several pages (a cluster); the pager may answer
         with fewer bytes than asked (a truncated cluster) and the kernel
         will fall back to single-page requests for the remainder.
         [Data_unavailable] for a range means the pager holds no data at
         [offset] itself, so the kernel may zero-fill / descend for the
         demand page without re-asking page by page. *)
  pgr_write : offset:int -> data:Lent.t -> pager_write_reply;
      (* pager_data_write: the kernel cleans dirty pages; [data] may span
         several contiguous pages (a clustered pageout).  A pager that
         stores blobs keyed by offset must split the data at page
         boundaries or later single-page requests will miss it.
         [Write_error] means NO page of the range was cleaned; the kernel
         falls back to single-page writes. *)
  pgr_should_cache : bool ref;
      (* pager_cache: retain the object after its last unmap *)
}

and pager_reply =
  | Data_provided of Lent.t * io
      (* pager_data_provided: the data is in hand at once (the
         simulation holds it in host memory); the device is busy until
         the stamp *)
  | Data_unavailable           (* pager_data_unavailable: zero fill *)
  | Data_error                 (* pager_error: the request failed (I/O
                                  error, timeout, crashed pager); the
                                  kernel may retry *)

and pager_write_reply =
  | Write_completed            (* pager_data_write done: the data is
                                  stored and the device paid *)
  | Write_error                (* the page was NOT cleaned; the kernel
                                  must keep it dirty *)
  | Write_no_space             (* the backing store is full: permanent
                                  until space is released, so retrying is
                                  pointless (no health damage); the page
                                  stays dirty and the kernel enters its
                                  memory-pressure state *)

and backing =
  | No_backing     (* allocated but never touched; object made at fault *)
  | Backed of obj
  | Submap of vmap (* a sharing map (Section 3.4) *)

and entry = {
  mutable e_start : int;                (* inclusive, page aligned *)
  mutable e_end : int;                  (* exclusive *)
  mutable e_backing : backing;
  mutable e_offset : int;               (* offset into backing at e_start *)
  mutable e_prot : Prot.t;              (* current protection *)
  mutable e_max_prot : Prot.t;          (* maximum protection *)
  mutable e_inherit : Inheritance.t;
  mutable e_needs_copy : bool;
      (* data must be shadowed before this entry's first write *)
  mutable e_burst_window : int;
      (* pages a resident fault here maps in one pass, demand page
         included; always read capped at [Vm_sys.burst_max], so the
         initial [max_int] means "at the cap".  Doubles while the
         entry's burst neighbours are used, halves while they are not,
         down to 1 (the demand page only); at 1 the entry re-probes one
         neighbour after skipping [e_burst_skip] resident faults *)
  mutable e_burst_skip : int;
      (* resident faults left to skip before the next probe at window 1 *)
  mutable e_burst_gap : int;
      (* faults a probe at window 1 skips after it: 1 at first, doubled
         by each lost probe up to [Vm_sys.burst_max], reset by a won
         one *)
  mutable e_burst_hits : int;
      (* burst neighbours first touched through their burst mapping
         since the last burst decision *)
  mutable e_burst_misses : int;
      (* burst neighbours unmapped or demand-faulted before any such
         touch since the last burst decision *)
}

and vmap = {
  map_id : int;
  map_entries : entry Dlist.t;          (* sorted, non-overlapping *)
  mutable map_hint : entry Dlist.node option; (* last-fault hint *)
  map_pmap : Mach_pmap.Pmap.t option;   (* None for sharing maps *)
  mutable map_ref : int;
  map_low : int;
  map_high : int;
}

let fresh_health () = { ph_consecutive = 0; ph_dead = false }

let io_none = Mach_hw.Machine.io_none

let entry_size e = e.e_end - e.e_start

let is_submap e = match e.e_backing with Submap _ -> true | Backed _ | No_backing -> false

(* Offset within the entry's backing for address [va]. *)
let entry_offset_of e va =
  assert (va >= e.e_start && va < e.e_end);
  e.e_offset + (va - e.e_start)

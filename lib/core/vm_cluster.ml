(* Clustered pagein with per-stream adaptive read-ahead; the policy is
   documented in the interface.  The window state lives in a fixed array
   of [slot_count] stream slots on the object ([obj_streams]) — the
   DragonFly vfs_cluster shape.  Slot selection ([find_slot]) and
   cluster planning ([plan]) are read-only; each outcome path commits
   exactly what it managed to read, so a clipped or failed cluster
   leaves no phantom ramp.  A slot lives while its commit stamp does,
   so after a clock reset a recycled object or a fresh measurement
   interval never inherits a dead stream's cursor. *)

open Types
module Obs = Mach_obs.Obs

(* --- Stream slots ----------------------------------------------------- *)

let slot_count = 8
let free_behind_window = 4

(* A slot is invalid until its first commit. *)
let fresh_slot () =
  { st_map = -1; st_entry = 0; st_next = min_int; st_window = 1;
    st_use = 0; st_stamp = Mach_hw.Machine.expired }

let live (sys : Vm_sys.t) st =
  Mach_hw.Machine.stamp_live sys.Vm_sys.machine st.st_stamp

(* The slot array is built lazily, so objects that never see a pager
   miss — anonymous zero-fill memory, say — carry an empty array. *)
let slots_of obj =
  if Array.length obj.obj_streams = 0 then
    obj.obj_streams <- Array.init slot_count (fun _ -> fresh_slot ());
  obj.obj_streams

(* Pick the slot servicing the miss at [offset] for reader [stream].
   Returns the slot and whether it continues a sequential run.  Position
   first (the DragonFly rule: the cursor identifies the stream, whoever
   is driving it), then the reader's own keyed slot (a seek within one
   stream is not interference), then any expired slot, and only then the
   LRU victim — stealing a live reader's ramp, which is what
   [stream_resets] counts.  Selection is read-only on the slot: the key
   and cursor are written by the commit paths, after a successful
   issue. *)
let find_slot (sys : Vm_sys.t) obj ~stream:(map, ent) ~offset =
  let slots = slots_of obj in
  let valid = live sys in
  match Array.find_opt (fun st -> valid st && st.st_next = offset) slots with
  | Some st ->
    sys.Vm_sys.stats.Vm_stats.vs_stream_hits <-
      sys.Vm_sys.stats.Vm_stats.vs_stream_hits + 1;
    (st, true)
  | None ->
    let st =
      match
        Array.find_opt
          (fun st -> valid st && st.st_map = map && st.st_entry = ent)
          slots
      with
      | Some st -> st
      | None ->
        (match Array.find_opt (fun st -> not (valid st)) slots with
         | Some st -> st
         | None ->
           (* Every slot carries a live stream: evict the least recently
              used one.  More concurrent readers than slots. *)
           let lru = ref slots.(0) in
           Array.iter
             (fun st -> if st.st_use < !lru.st_use then lru := st)
             slots;
           sys.Vm_sys.stats.Vm_stats.vs_stream_resets <-
             sys.Vm_sys.stats.Vm_stats.vs_stream_resets + 1;
           Vm_sys.emit sys (Obs.Stream_reset { obj = obj.obj_id; offset });
           !lru)
    in
    (st, false)

(* Commit a successful issue to the slot: key, cursor, window, and the
   LRU and commit stamps.  The use stamp comes from a monotonic counter, not
   the cycle clock, so [reset_clocks] cannot reorder victims. *)
let commit (sys : Vm_sys.t) st ~stream:(map, ent) ~next ~window =
  st.st_map <- map;
  st.st_entry <- ent;
  st.st_next <- next;
  st.st_window <- window;
  sys.Vm_sys.stream_clock <- sys.Vm_sys.stream_clock + 1;
  st.st_use <- sys.Vm_sys.stream_clock;
  st.st_stamp <- Mach_hw.Machine.stamp sys.Vm_sys.machine (Vm_sys.now sys)

(* --- Free-behind ------------------------------------------------------ *)

(* Deactivate the clean pages stream [st] has left behind the cluster it
   just read ([offset] is the cluster start; the walk covers [pages]
   page offsets below it).  Only streams ramped to at least
   [free_behind_window] pages qualify, so a random or barely-sequential
   reader never touches the queues.  Skipped: dirty pages (their data
   exists nowhere else yet), wired/busy/in-flight pages, pages not on the
   active queue (untouched prefetch is already inactive and already
   ordered), and pages some other live stream has yet to reach —
   free-behind eats this stream's own wake, never a sharer's future.
   Moved pages go to the head of the inactive queue with their
   referenced bits cleared, so the daemon reclaims them next instead of
   granting a second chance. *)
let free_behind (sys : Vm_sys.t) obj st ~offset ~pages =
  if st.st_window >= free_behind_window then begin
    let ps = sys.Vm_sys.page_size and domain = sys.Vm_sys.domain in
    let ahead_of_other_stream off =
      Array.exists
        (fun s -> s != st && live sys s && s.st_next <= off)
        obj.obj_streams
    in
    let moved = ref 0 in
    for i = 1 to pages do
      let off = offset - (i * ps) in
      if off >= 0 then
        match Resident.lookup sys.Vm_sys.resident ~obj ~offset:off with
        | None -> ()
        | Some p ->
          if
            p.pg_queue = Q_active && p.pg_wire_count = 0
            && (not p.pg_busy) && Option.is_none p.pg_inflight
            && (not (ahead_of_other_stream off))
            && not (Mach_pmap.Pmap_domain.is_modified domain ~pfn:p.pfn)
          then begin
            Mach_pmap.Pmap_domain.clear_referenced domain ~pfn:p.pfn;
            Resident.enqueue_inactive_front sys.Vm_sys.resident p;
            incr moved
          end
    done;
    if !moved > 0 then begin
      sys.Vm_sys.stats.Vm_stats.vs_free_behind_pages <-
        sys.Vm_sys.stats.Vm_stats.vs_free_behind_pages + !moved;
      Vm_sys.emit sys
        (Obs.Free_behind { obj = obj.obj_id; offset; pages = !moved })
    end
  end

(* --- Cluster planning and issue --------------------------------------- *)

(* Pages to request at [offset], demand page included: clip the
   candidate window [w] (the slot's ramp, or 1 on a non-sequential
   miss) to [limit] (the map entry's window, in this object's offset
   space), to the object size and to the first already-resident page.
   Pure: the slot is committed by the caller only once the cluster
   actually issues. *)
let plan (sys : Vm_sys.t) obj ~w ~offset ~limit =
  let ps = sys.Vm_sys.page_size in
  let avail = min limit obj.obj_size - offset in
  let n = min w ((avail + ps - 1) / ps) in
  let rec absent i =
    if i >= n then i
    else
      let off = offset + (i * ps) in
      match Resident.lookup sys.Vm_sys.resident ~obj ~offset:off with
      | None -> absent (i + 1)
      | Some _ -> i
  in
  absent 1

(* Make room for a cluster of [pages] before asking for it: the
   reclaimer (the pageout daemon) frees what the free list is short of
   [free_target] plus the cluster, so speculation under pressure takes
   its pages from the inactive queue instead of being clipped away. *)
let reclaim_for (sys : Vm_sys.t) ~pages =
  let short =
    sys.Vm_sys.free_target + pages - Resident.free_count sys.Vm_sys.resident
  in
  if short > 0 then sys.Vm_sys.reclaim sys ~wanted:short

(* Install pages 1 .. [got - 1] of the reply [data] (page [i] is object
   offset [offset + i*ps]) as prefetch, each riding its own stamp in
   [io].  Returns how many pages were actually installed: the demand
   grab may have run the reclaimer since [plan], so resident pages are
   re-checked.  Allocation is raw [Resident.alloc] behind a hard
   [free_reserved] floor: prefetch must never wait, OOM or dip into the
   reserve on behalf of speculation — pages that do not fit are simply
   dropped from the tail. *)
let install_tail (sys : Vm_sys.t) obj ~offset ~got ~data ~io =
  let ps = sys.Vm_sys.page_size in
  let m = sys.Vm_sys.machine in
  let res = sys.Vm_sys.resident in
  let issued = ref 0 in
  let landed = ref (Mach_hw.Machine.io_landed m io ~bytes:ps) in
  for i = 1 to got - 1 do
    let off = offset + (i * ps) in
    let stamp = Mach_hw.Machine.io_landed m io ~bytes:((i + 1) * ps) in
    let service = stamp - !landed in
    landed := stamp;
    match Resident.lookup res ~obj ~offset:off with
    | Some _ -> ()
    | None ->
      if Resident.free_count res > sys.Vm_sys.free_reserved then
        let cpu = Vm_sys.current_cpu sys in
        match Resident.alloc ~cpu res with
        | None -> ()
        | Some p ->
          Resident.insert res p ~obj ~offset:off;
          Page_io.fill ~pos:(i * ps) sys p data;
          Pager_guard.ride sys p ~stamp ~service;
          p.pg_prefetched <- true;
          Resident.enqueue res p Q_inactive;
          incr issued
  done;
  !issued

(* Land a pager reply covering [got] pages from [offset]: wait for the
   demand page alone, commit the slot at the size actually read — a
   cluster clipped by the object end or a resident page must not ramp
   as if the full candidate window had been read — then fill the demand
   page and let the tail ride its own stamps. *)
let land_reply (sys : Vm_sys.t) obj st ~stream ~offset ~window ~got
    (data, io) =
  let ps = sys.Vm_sys.page_size and stats = sys.Vm_sys.stats in
  Pager_guard.wait_prefix sys io ~bytes:ps;
  commit sys st ~stream ~next:(offset + (got * ps)) ~window;
  stats.Vm_stats.vs_pager_reads <- stats.Vm_stats.vs_pager_reads + 1;
  let demand = Vm_sys.grab_page sys in
  Resident.insert sys.Vm_sys.resident demand ~obj ~offset;
  demand.pg_busy <- true;
  Page_io.fill sys demand data;
  demand.pg_busy <- false;
  let issued = install_tail sys obj ~offset ~got ~data ~io in
  if issued > 0 then begin
    stats.Vm_stats.vs_prefetch_issued <-
      stats.Vm_stats.vs_prefetch_issued + issued;
    Vm_sys.emit sys (Obs.Prefetch { offset; pages = issued; window })
  end;
  free_behind sys obj st ~offset ~pages:got;
  `Data (demand, got * ps)

(* A cluster is one range request, asked once.  A one-page plan, a
   failed cluster and a reply short of one page all take the retried
   one-page request, which owns the retry/death policy; its success
   collapses the window but still advances the sequence point, so one
   bad cluster costs the ramp, not the ability to ever ramp again. *)
let pagein (sys : Vm_sys.t) ?(stream = (-1, 0)) obj ~offset ~limit =
  let ps = sys.Vm_sys.page_size in
  let st, seq = find_slot sys obj ~stream ~offset in
  let w = if seq then min sys.Vm_sys.cluster_max (st.st_window * 2) else 1 in
  let n = plan sys obj ~w ~offset ~limit in
  let cluster =
    if n = 1 then None
    else begin
      reclaim_for sys ~pages:n;
      Some (Pager_guard.request_range sys obj ~offset ~length:(n * ps))
    end
  in
  match cluster with
  | Some (`Data ((data, _) as reply)) when Lent.length data >= ps ->
    land_reply sys obj st ~stream ~offset ~window:n
      ~got:(min n (Lent.length data / ps)) reply
  | Some `Absent -> `Absent
  | None | Some (`Data _ | `Error) ->
    (match Pager_guard.request sys obj ~offset ~length:ps with
     | `Data reply ->
       land_reply sys obj st ~stream ~offset ~window:1 ~got:1 reply
     | (`Absent | `Error) as r -> r)

(* A resident-page hit on a prefetched page: the guess paid off.  Count
   it and promote the page from the inactive to the active queue.  If
   the page is still riding its stamp, first wait out the residue —
   this is where a fault that outran the disk pays the remaining device
   time for its own page. *)
let note_hit (sys : Vm_sys.t) p =
  Pager_guard.await_page sys p;
  if p.pg_prefetched then begin
    p.pg_prefetched <- false;
    sys.Vm_sys.stats.Vm_stats.vs_prefetch_hits <-
      sys.Vm_sys.stats.Vm_stats.vs_prefetch_hits + 1;
    if p.pg_wire_count = 0 && p.pg_queue = Q_inactive then
      Resident.enqueue sys.Vm_sys.resident p Q_active
  end

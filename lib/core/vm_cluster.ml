(* Clustered pagein with per-stream adaptive read-ahead.

   Faults and file reads funnel their pager misses through {!pagein},
   which asks the object's pager for a multi-page cluster when the
   access pattern looks sequential.  The window state lives in a small
   fixed array of {e stream slots} on the object ([obj_streams], sized
   by [Vm_sys.stream_slots]) — the DragonFly vfs_cluster shape — so K
   tasks streaming one shared file each ramp their own window
   1 -> 2 -> 4 -> ... -> [Vm_sys.cluster_max] instead of interleaving
   their offsets through a single cursor and permanently resetting each
   other to one page.  A miss matches the slot whose cursor ([st_next])
   equals its offset; otherwise it takes the reader's own slot (keyed by
   map id and entry start), an expired slot, or recycles the least
   recently used one ([stream_resets]).

   The slot state is committed only after a successful issue: [plan]
   computes the candidate cluster without touching the slot, and each
   outcome path records exactly what it managed to read (so a cluster
   clipped to one page, or a failed range request, cannot leave a
   phantom ramp behind).  Slot stamps expire with the
   [Machine.reset_clocks] epoch, like object-lock stamps, so a recycled
   object or a fresh measurement interval never inherits a dead
   stream's cursor.

   Clustering is strictly opportunistic.  The range request is one-shot
   ({!Pager_guard.request_range}); on error or a reply shorter than one
   page we fall back to the single-page path, which owns the full
   retry/backoff/death policy.  Prefetched pages are filled from the
   same reply, marked [pg_prefetched] and enqueued on the *inactive*
   queue, so a wrong guess is the first thing the pageout daemon
   reclaims.

   Once a stream has ramped to [Vm_sys.free_behind_min] pages (0 = off,
   the default), the clean pages {e behind} its cursor are deactivated
   to the head of the inactive queue (free-behind): a file larger than
   memory then reclaims its own wake instead of flushing every other
   task's working set.  Dirty, wired, busy, in-flight pages — and pages
   another live stream has yet to reach — are skipped.

   With the asynchronous disk model on, the demand page is read first
   (blocking) and the prefetch tail is a second range request whose
   reply is not waited on: while its transfer is still pending, the tail
   pages ride an {!Types.inflight} record ({!Pager_guard.inflight_of}) —
   filled and resident immediately, but busy until the device's
   completion stamp, and the first toucher waits out the residue
   ({!Pager_guard.await_page} via {!note_hit}). *)

open Types
module Obs = Mach_obs.Obs

(* --- Stream slots ----------------------------------------------------- *)

let stream_epoch (sys : Vm_sys.t) =
  Mach_hw.Machine.reset_epoch sys.Vm_sys.machine

(* [st_epoch = -1] never equals a real epoch: the slot is invalid until
   its first commit. *)
let fresh_slot () =
  { st_map = -1; st_entry = 0; st_next = min_int; st_window = 1;
    st_use = 0; st_epoch = -1 }

(* The slot array is built lazily (and rebuilt when the knob changes),
   so objects that never see a pager miss — anonymous zero-fill memory,
   say — carry an empty array. *)
let slots_of (sys : Vm_sys.t) obj =
  let n = max 1 sys.Vm_sys.stream_slots in
  if Array.length obj.obj_streams <> n then
    obj.obj_streams <- Array.init n (fun _ -> fresh_slot ());
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
  let slots = slots_of sys obj in
  let epoch = stream_epoch sys in
  let valid st = st.st_epoch = epoch in
  let pick f =
    let r = ref None in
    Array.iter (fun st -> if !r = None && f st then r := Some st) slots;
    !r
  in
  match pick (fun st -> valid st && st.st_next = offset) with
  | Some st ->
    sys.Vm_sys.stats.Vm_stats.vs_stream_hits <-
      sys.Vm_sys.stats.Vm_stats.vs_stream_hits + 1;
    (st, true)
  | None ->
    let st =
      match
        pick (fun st -> valid st && st.st_map = map && st.st_entry = ent)
      with
      | Some st -> st
      | None ->
        (match pick (fun st -> not (valid st)) with
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
   LRU/epoch stamps.  The use stamp comes from a monotonic counter, not
   the cycle clock, so [reset_clocks] cannot reorder victims. *)
let commit (sys : Vm_sys.t) st ~stream:(map, ent) ~next ~window =
  st.st_map <- map;
  st.st_entry <- ent;
  st.st_next <- next;
  st.st_window <- window;
  sys.Vm_sys.stream_clock <- sys.Vm_sys.stream_clock + 1;
  st.st_use <- sys.Vm_sys.stream_clock;
  st.st_epoch <- stream_epoch sys

(* --- Free-behind ------------------------------------------------------ *)

(* Deactivate the clean pages stream [st] has left behind the cluster it
   just read ([offset] is the cluster start; the walk covers [pages]
   page offsets below it).  Only streams ramped to at least
   [free_behind_min] qualify, so a random or barely-sequential reader
   never touches the queues.  Skipped: dirty pages (their data exists
   nowhere else yet), wired/busy/in-flight pages, pages not on the
   active queue (untouched prefetch is already inactive and already
   ordered), and pages some other live stream has yet to reach —
   free-behind eats this stream's own wake, never a sharer's future.
   Moved pages go to the head of the inactive queue with their
   referenced bits cleared, so the daemon reclaims them next instead of
   granting a second chance. *)
let free_behind (sys : Vm_sys.t) obj st ~offset ~pages =
  let fbmin = sys.Vm_sys.free_behind_min in
  if fbmin > 0 && st.st_window >= fbmin then begin
    let ps = sys.Vm_sys.page_size in
    let epoch = stream_epoch sys in
    let ahead_of_other_stream off =
      Array.exists
        (fun s -> s != st && s.st_epoch = epoch && s.st_next <= off)
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
            && (not p.pg_busy) && p.pg_inflight = None
            && (not (ahead_of_other_stream off))
            && not (Vm_sys.page_modified sys p)
          then begin
            Vm_sys.clear_page_referenced sys p;
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
   space), to the object size, to the first already-resident page and
   to the free list's headroom (prefetch must never trigger reclaim).
   Pure: the slot is committed by the caller only once the cluster
   actually issues. *)
let plan (sys : Vm_sys.t) obj ~w ~offset ~limit =
  let ps = sys.Vm_sys.page_size in
  let bound = min limit obj.obj_size in
  let avail = bound - offset in
  if avail <= ps then 1
  else begin
    let n = min w ((avail + ps - 1) / ps) in
    let i = ref 1 in
    while
      !i < n
      && Resident.lookup sys.Vm_sys.resident ~obj
           ~offset:(offset + (!i * ps))
         = None
    do
      incr i
    done;
    let n = !i in
    (* Speculation gets only the pages above the free target: clipping
       there (not at [free_reserved]) means prefetch never even triggers
       reclaim, let alone touches the reserve — the reserve floor is
       enforced again at allocation time in [install_tail], where the
       free list may have dropped since this plan. *)
    let headroom =
      Resident.free_count sys.Vm_sys.resident - sys.Vm_sys.free_target
    in
    max 1 (min n (1 + max 0 headroom))
  end

(* The classical one-page pagein, exactly the pre-clustering fault path:
   guarded request with retries, then allocate/fill.  Returns the bytes
   a Pagein trace event should report.  On success stream slot [st]
   remembers where the read ended, so the next miss can be recognised as
   sequential, and its window collapses — a ramp is earned by issued
   clusters, not by plans. *)
let single (sys : Vm_sys.t) obj st ~stream ~offset =
  let ps = sys.Vm_sys.page_size in
  match Pager_guard.request sys obj ~offset ~length:ps with
  | `Data data ->
    let p = Vm_sys.grab_page ~color:(offset / ps) sys in
    Resident.insert sys.Vm_sys.resident p ~obj ~offset;
    p.pg_busy <- true;
    Page_io.fill sys p data;
    p.pg_busy <- false;
    sys.Vm_sys.stats.Vm_stats.vs_pager_reads <-
      sys.Vm_sys.stats.Vm_stats.vs_pager_reads + 1;
    commit sys st ~stream ~next:(offset + ps) ~window:1;
    `Data (p, ps)
  | `Absent -> `Absent
  | `Error -> `Error

(* Fill the [got] prefetch pages beyond the demand page from [data]
   (page [i] of [data] is object offset [tail_off + i*ps]).  [inflight]
   is the shared record of a transfer still on the device, [None] once
   it has landed; riding pages stay busy until awaited.  Returns how
   many pages were actually installed ([plan] skipped resident pages,
   but the demand grab may have run the reclaimer in between; re-check
   and never steal from the free target).  Allocation is raw
   [Resident.alloc] behind a hard [free_reserved] floor: prefetch must
   never wait, reclaim, OOM or dip into the reserve on behalf of
   speculation — pages that do not fit are simply dropped from the
   tail. *)
let install_tail (sys : Vm_sys.t) obj ~tail_off ~got ~data ~inflight =
  let ps = sys.Vm_sys.page_size in
  let issued = ref 0 in
  let alloc_above_reserve ~off =
    if Resident.free_count sys.Vm_sys.resident > sys.Vm_sys.free_reserved
    then
      Resident.alloc ~cpu:(Vm_sys.current_cpu sys) ~color:(off / ps)
        sys.Vm_sys.resident
    else None
  in
  for i = 0 to got - 1 do
    let off = tail_off + (i * ps) in
    if Resident.lookup sys.Vm_sys.resident ~obj ~offset:off = None then
      match alloc_above_reserve ~off with
      | None -> ()
      | Some p ->
        Resident.insert sys.Vm_sys.resident p ~obj ~offset:off;
        p.pg_busy <- true;
        Page_io.fill sys p (Bytes.sub data (i * ps) ps);
        (match inflight with
         | None -> p.pg_busy <- false
         | Some _ -> p.pg_inflight <- inflight);
        p.pg_prefetched <- true;
        Resident.enqueue sys.Vm_sys.resident p Q_inactive;
        incr issued
  done;
  !issued

let note_prefetch (sys : Vm_sys.t) ~offset ~issued ~window =
  if issued > 0 then begin
    let stats = sys.Vm_sys.stats in
    stats.Vm_stats.vs_prefetch_issued <-
      stats.Vm_stats.vs_prefetch_issued + issued;
    Vm_sys.emit sys (Obs.Prefetch { offset; pages = issued; window })
  end

(* Synchronous clustered pagein: one blocking range request covers the
   demand page and the tail. *)
let pagein_sync (sys : Vm_sys.t) obj st ~stream ~offset ~n =
  let ps = sys.Vm_sys.page_size in
  let stats = sys.Vm_sys.stats in
  match Pager_guard.request_range sys obj ~offset ~length:(n * ps) with
  | `Data (data, io) when Bytes.length data >= ps ->
    Pager_guard.wait_io sys io;
    let got = min n (Bytes.length data / ps) in
    (* Commit the ramp at the size actually issued: a cluster clipped by
       the object end, a resident page or free-list headroom must not
       ramp as if the full candidate window had been read. *)
    commit sys st ~stream ~next:(offset + (got * ps)) ~window:n;
    stats.Vm_stats.vs_pager_reads <- stats.Vm_stats.vs_pager_reads + 1;
    let demand = Vm_sys.grab_page ~color:(offset / ps) sys in
    Resident.insert sys.Vm_sys.resident demand ~obj ~offset;
    demand.pg_busy <- true;
    Page_io.fill sys demand (Bytes.sub data 0 ps);
    demand.pg_busy <- false;
    let issued =
      if got > 1 then
        install_tail sys obj ~tail_off:(offset + ps) ~got:(got - 1)
          ~data:(Bytes.sub data ps ((got - 1) * ps)) ~inflight:None
      else 0
    in
    note_prefetch sys ~offset ~issued ~window:n;
    free_behind sys obj st ~offset ~pages:got;
    `Data (demand, got * ps)
  | `Data _ (* truncated below one page *) | `Error ->
    (* Degrade to the single-page path, which owns retry/death — and
       still advance the sequence point on success, so one bad cluster
       costs the ramp, not the ability to ever ramp again. *)
    single sys obj st ~stream ~offset
  | `Absent -> `Absent

(* Asynchronous clustered pagein: the demand page is read first and
   blocking (keeping the guarded retry/death policy on the page the
   fault actually needs), then the tail is requested without waiting and
   overlaps with whatever the CPU does next.  Requesting after the
   demand read keeps the demand transfer ahead of the tail in the device
   queue.  A tail that needed no device (a pager with no disk behind
   it) has already landed and installs like a synchronous one. *)
let pagein_async (sys : Vm_sys.t) obj st ~stream ~offset ~n =
  let ps = sys.Vm_sys.page_size in
  let stats = sys.Vm_sys.stats in
  match single sys obj st ~stream ~offset with
  | (`Absent | `Error) as r -> r
  | `Data (demand, _) ->
    let tail_off = offset + ps in
    (match Pager_guard.request_range sys obj ~offset:tail_off
             ~length:((n - 1) * ps) with
     | `Data (data, io) when Bytes.length data >= ps ->
       let got = min (n - 1) (Bytes.length data / ps) in
       let issued =
         install_tail sys obj ~tail_off ~got ~data
           ~inflight:(Pager_guard.inflight_of sys io)
       in
       commit sys st ~stream ~next:(tail_off + (got * ps)) ~window:n;
       stats.Vm_stats.vs_pager_reads <- stats.Vm_stats.vs_pager_reads + 1;
       note_prefetch sys ~offset ~issued ~window:n;
       free_behind sys obj st ~offset ~pages:(got + 1);
       `Data (demand, ps + (got * ps))
     | `Data _ | `Error | `Absent -> `Data (demand, ps))

let pagein (sys : Vm_sys.t) ?(stream = (-1, 0)) obj ~offset ~limit =
  let st, seq = find_slot sys obj ~stream ~offset in
  let w = if seq then min sys.Vm_sys.cluster_max (st.st_window * 2) else 1 in
  let n = plan sys obj ~w ~offset ~limit in
  if n = 1 then single sys obj st ~stream ~offset
  else if Mach_hw.Machine.disk_async sys.Vm_sys.machine then
    pagein_async sys obj st ~stream ~offset ~n
  else pagein_sync sys obj st ~stream ~offset ~n

(* A resident-page hit on a prefetched page: the guess paid off.  Count
   it and promote the page from the inactive to the active queue.  If
   the page is still riding an async transfer, first wait out the
   residue — this is where a fault that outran the disk pays the
   remaining device time. *)
let note_hit (sys : Vm_sys.t) p =
  if p.pg_inflight <> None then Pager_guard.await_page sys p;
  if p.pg_prefetched then begin
    p.pg_prefetched <- false;
    sys.Vm_sys.stats.Vm_stats.vs_prefetch_hits <-
      sys.Vm_sys.stats.Vm_stats.vs_prefetch_hits + 1;
    if p.pg_wire_count = 0 && p.pg_queue = Q_inactive then
      Resident.enqueue sys.Vm_sys.resident p Q_active
  end

open Mach_hw
open Types
open Mach_pmap

let deactivate_some (sys : Vm_sys.t) ~count =
  Vm_sys.with_cat sys Mach_obs.Obs.Pageout_daemon @@ fun () ->
  let rec loop n =
    if n > 0 then
      match Resident.take_active sys.Vm_sys.resident with
      | None -> ()
      | Some p ->
        Pmap_domain.clear_referenced sys.Vm_sys.domain ~pfn:p.pfn;
        Resident.enqueue sys.Vm_sys.resident p Q_inactive;
        loop (n - 1)
  in
  loop count

(* Anonymous objects get their default pager on first pageout, decorated
   by [pager_decorator] (the chaos hook). *)
let ensure_pager (sys : Vm_sys.t) o =
  match o.obj_pager with
  | Some _ -> ()
  | None ->
    let pg = Swap_pager.make sys ~name:"default-pager" in
    let pg =
      match sys.Vm_sys.pager_decorator with
      | Some wrap -> wrap pg
      | None -> pg
    in
    o.obj_pager <- Some pg

(* The backing store refused a pageout for lack of space: the write was
   not transient (retrying cannot help until space is released), so the
   system enters the memory-pressure state — allocation backpressure
   escalates to the OOM policy instead of waiting on a daemon that
   cannot progress. *)
let note_no_space (sys : Vm_sys.t) =
  sys.Vm_sys.stats.Vm_stats.vs_swap_full_failures <-
    sys.Vm_sys.stats.Vm_stats.vs_swap_full_failures + 1;
  Vm_sys.set_mem_pressure sys true;
  if Mach_obs.Obs.enabled (Vm_sys.tracer sys) then
    Vm_sys.emit sys
      (Mach_obs.Obs.Swap_full
         { used = sys.Vm_sys.stats.Vm_stats.vs_swap_used;
           capacity =
             (match sys.Vm_sys.swap_capacity with
              | Some c -> c
              | None -> 0) })

(* [pages], one object's run from [offset], reached its pager: mark each
   clean, and count and note the write.  A successful write is progress,
   so pressure, if any, has lifted. *)
let run_cleaned (sys : Vm_sys.t) ~offset pages =
  List.iter
    (fun q ->
       Pmap_domain.clear_modified sys.Vm_sys.domain ~pfn:q.pfn;
       q.pg_requeues <- 0)
    pages;
  sys.Vm_sys.mem_pressure <- false;
  let n = List.length pages in
  sys.Vm_sys.stats.Vm_stats.vs_pageouts <-
    sys.Vm_sys.stats.Vm_stats.vs_pageouts + n;
  if Mach_obs.Obs.enabled (Vm_sys.tracer sys) then
    Vm_sys.emit sys
      (Mach_obs.Obs.Pageout
         { offset; bytes = n * sys.Vm_sys.page_size;
           inactive_depth = Resident.inactive_count sys.Vm_sys.resident })

(* Write a dirty page to its object's pager, attaching a default pager to
   anonymous objects on their first pageout.  Returns whether the page
   was actually cleaned; on [false] the page is still dirty and the
   caller must not free it. *)
let clean_page (sys : Vm_sys.t) p =
  match p.pg_obj with
  | None -> true
  | Some o ->
    (* Cleaning is a writer section on the owning object: faults on the
       same object stall behind it on a multiprocessor. *)
    Vm_object.lock_write sys o @@ fun () ->
    ensure_pager sys o;
    match
      Pager_guard.write sys o ~offset:p.pg_offset ~data:[ Page_io.lend sys p ]
    with
    | `Ok ->
      run_cleaned sys ~offset:p.pg_offset [ p ];
      true
    | `Failed ->
      sys.Vm_sys.stats.Vm_stats.vs_pageout_failures <-
        sys.Vm_sys.stats.Vm_stats.vs_pageout_failures + 1;
      false
    | `No_space ->
      note_no_space sys;
      false

(* One-shot clustered write of [pages] — contiguous, ascending, same
   object, length >= 2.  Write permission is revoked on every page first
   so the written copy is coherent and later writes re-fault and
   re-dirty.  On success the whole run is marked clean; on [false]
   nothing was written and the caller must degrade to per-page
   {!clean_page} calls (which own the retry/failure accounting). *)
let write_cluster (sys : Vm_sys.t) o pages =
  Vm_object.lock_write sys o @@ fun () ->
  ensure_pager sys o;
  let n = List.length pages in
  let start = (List.hd pages).pg_offset in
  (* One consistency exchange per page, not per run: a run's frame pages
     would pass the whole-space flush threshold and drop every
     translation of the address space. *)
  List.iter
    (fun q -> Pmap_domain.copy_on_write sys.Vm_sys.domain ~pfn:q.pfn)
    pages;
  (* The pager reads each page's frames in place: one slice a page. *)
  let data = List.map (Page_io.lend sys) pages in
  match Pager_guard.write_range sys o ~offset:start ~data with
  | `Ok ->
    sys.Vm_sys.stats.Vm_stats.vs_clustered_pageouts <-
      sys.Vm_sys.stats.Vm_stats.vs_clustered_pageouts + 1;
    if Mach_obs.Obs.enabled (Vm_sys.tracer sys) then
      Vm_sys.emit sys
        (Mach_obs.Obs.Cluster_pageout { offset = start; pages = n });
    run_cleaned sys ~offset:start pages;
    true
  | `Failed | `No_space ->
    (* Nothing was written; the per-page fallback owns the failure
       accounting (and the no-space escalation, page by page — one page
       may still fit where the cluster did not). *)
    false

(* Clean [p] together with its contiguous dirty neighbours: grow the run
   left and right over resident, unwired, non-busy modified pages of the
   same object, up to [cluster_max], and issue one clustered write.  The
   neighbours stay on their queues — now clean, they are freed without
   I/O when the daemon reaches them.  Degrades to {!clean_page} when
   there is nothing to coalesce (always, at [cluster_max <= 1]) or the
   clustered write fails. *)
let clean_cluster (sys : Vm_sys.t) p =
  match p.pg_obj with
  | None -> true
  | Some o ->
    let ps = sys.Vm_sys.page_size in
    let eligible q =
      (not q.pg_busy) && q.pg_wire_count = 0
      && Pmap_domain.is_modified sys.Vm_sys.domain ~pfn:q.pfn
    in
    let rec grow acc off step n =
      if n >= sys.Vm_sys.cluster_max || off < 0 then (acc, n)
      else
        match Resident.lookup sys.Vm_sys.resident ~obj:o ~offset:off with
        | Some q when eligible q -> grow (q :: acc) (off + step) step (n + 1)
        | _ -> (acc, n)
    in
    let before, n = grow [] (p.pg_offset - ps) (-ps) 1 in
    let after, n = grow [] (p.pg_offset + ps) ps n in
    if n < 2 then clean_page sys p
    else begin
      (* [before] was collected walking left, so prepending left it in
         ascending order already; [after] needs reversing. *)
      let run = before @ (p :: List.rev after) in
      if write_cluster sys o run then true else clean_page sys p
    end

let run (sys : Vm_sys.t) ~wanted =
  (* Attribution: reclaim is daemon work no matter who triggered it (a
     fault-path [grab_page] included); pager writes and disk time inside
     re-attribute themselves via narrower frames. *)
  Vm_sys.with_cat sys Mach_obs.Obs.Pageout_daemon @@ fun () ->
  let res = sys.Vm_sys.resident in
  (* Keep the inactive queue stocked: roughly a third of what is in
     circulation, and at least what this call needs. *)
  let circulating = Resident.active_count res + Resident.inactive_count res in
  let want_inactive = max wanted (circulating / 3) in
  if Resident.inactive_count res < want_inactive then
    deactivate_some sys ~count:(want_inactive - Resident.inactive_count res);
  let freed = ref 0 in
  let examined = ref 0 in
  let budget = (2 * Resident.inactive_count res) + 8 in
  while
    !freed < wanted && !examined < budget
    &&
    match Resident.take_inactive res with
    | None -> false
    | Some p ->
      incr examined;
      (* Reap a landed (or nearly landed) read-ahead page before
         examining it: charges only the residue and lifts the busy bit,
         so prefetched pages re-enter circulation instead of falling off
         the queues. *)
      if Option.is_some p.pg_inflight && p.pg_wire_count = 0 then
        Pager_guard.await_page sys p;
      if p.pg_busy || p.pg_wire_count > 0 then
        (* Should not be queued at all; make it so. *)
        Resident.enqueue res p Q_none
      else if Pmap_domain.is_referenced sys.Vm_sys.domain ~pfn:p.pfn then begin
        (* Second chance. *)
        Pmap_domain.clear_referenced sys.Vm_sys.domain ~pfn:p.pfn;
        Resident.enqueue res p Q_active;
        sys.Vm_sys.stats.Vm_stats.vs_reactivations <-
          sys.Vm_sys.stats.Vm_stats.vs_reactivations + 1
      end
      else begin
        (* Remove all mappings first, then wait for every TLB to flush
           before recycling the frame (Section 5.2, case 2). *)
        Pmap_domain.remove_all sys.Vm_sys.domain ~pfn:p.pfn ~urgent:false;
        Machine.tick sys.Vm_sys.machine;
        if
          Pmap_domain.is_modified sys.Vm_sys.domain ~pfn:p.pfn
          && not (clean_cluster sys p)
        then begin
          (* The pageout write failed after its retry budget: the data
             exists nowhere but this frame, so it must stay dirty and
             resident.  Requeue it at the back of the active queue — the
             backoff — so it ages through both queues again before the
             next write attempt.  Requeues are bounded: a page that
             keeps failing flips the system into the pressure state so
             allocation backpressure escalates to the OOM policy
             instead of spinning the daemon against a wall. *)
          p.pg_requeues <- p.pg_requeues + 1;
          if p.pg_requeues > Vm_sys.pageout_requeue_limit then
            Vm_sys.set_mem_pressure sys true;
          Resident.enqueue res p Q_active
        end
        else begin
          Pmap_domain.clear_referenced sys.Vm_sys.domain ~pfn:p.pfn;
          Pmap_domain.clear_modified sys.Vm_sys.domain ~pfn:p.pfn;
          if p.pg_prefetched then
            sys.Vm_sys.stats.Vm_stats.vs_prefetch_wasted <-
              sys.Vm_sys.stats.Vm_stats.vs_prefetch_wasted + 1;
          Resident.free_page ~cpu:(Vm_sys.current_cpu sys) res p;
          incr freed
        end
      end;
      true
  do
    ()
  done

let install sys =
  sys.Vm_sys.reclaim <- Some (fun sys ~wanted -> run sys ~wanted)

open Types
module Obs = Mach_obs.Obs

(* A blocking caller waits out a reply's device time; free for
   [io_none] and for a write the disk already paid. *)
let wait_io (sys : Vm_sys.t) io =
  Mach_hw.Machine.wait_io sys.Vm_sys.machine ~cpu:(Vm_sys.current_cpu sys) io

(* Wait only until the first [bytes] of [io] have landed — a cluster's
   demand page.  The wait stands for the device time from the request's
   start to that stamp; the pages behind it ride their own stamps. *)
let wait_prefix (sys : Vm_sys.t) io ~bytes =
  if io.io_service > 0 then begin
    let m = sys.Vm_sys.machine in
    let stamp = Mach_hw.Machine.io_landed m io ~bytes in
    Mach_hw.Machine.wait_disk m ~cpu:(Vm_sys.current_cpu sys)
      ~completion:stamp
      ~service:(stamp - (io.io_completion - io.io_service))
  end

(* Let [p] ride [stamp] while it is still in the future: the page is
   resident and filled but stays busy until someone awaits it.
   [service] is the device time the eventual wait stands for. *)
let ride (sys : Vm_sys.t) p ~stamp ~service =
  let m = sys.Vm_sys.machine in
  if stamp > Mach_hw.Machine.cycles m ~cpu:(Vm_sys.current_cpu sys) then begin
    p.pg_busy <- true;
    p.pg_inflight <-
      Some
        { if_stamp = stamp; if_service = service;
          if_epoch = Mach_hw.Machine.reset_epoch m }
  end

(* Declare the object's pager dead and rescue every dirty resident page
   to a fresh default pager before any of them can be lost.  The rescue
   pager is deliberately NOT passed through [pager_decorator]: it is the
   kernel's last line of defence and must be reliable. *)
let declare_dead (sys : Vm_sys.t) o pager =
  let stats = sys.Vm_sys.stats in
  o.obj_health.ph_dead <- true;
  stats.Vm_stats.vs_pager_deaths <- stats.Vm_stats.vs_pager_deaths + 1;
  let rescue = Swap_pager.make sys ~name:(pager.pgr_name ^ "+rescue") in
  o.obj_rescue <- Some rescue;
  let rescued = ref 0 in
  List.iter
    (fun p ->
       if
         (not p.pg_busy)
         && Mach_pmap.Pmap_domain.is_modified sys.Vm_sys.domain ~pfn:p.pfn
       then
         match
           rescue.pgr_write ~offset:p.pg_offset ~data:[ Page_io.lend sys p ]
         with
         | Write_completed io ->
           wait_io sys io;
           incr rescued;
           stats.Vm_stats.vs_rescued_pages <-
             stats.Vm_stats.vs_rescued_pages + 1
         | Write_error | Write_no_space -> ())
    (Resident.object_pages o);
  if Obs.enabled (Vm_sys.tracer sys) then
    Vm_sys.emit sys
      (Obs.Pager_dead { pager = pager.pgr_name; rescued = !rescued })

(* Run [attempt] with bounded retry and exponential backoff; account an
   exhausted budget against the object's health, possibly killing the
   pager.  [None] means the budget ran out. *)
let with_retries (sys : Vm_sys.t) o ~offset attempt =
  let stats = sys.Vm_sys.stats in
  let h = o.obj_health in
  let rec go n =
    match attempt () with
    | `Done v ->
      h.ph_consecutive <- 0;
      Some v
    | `Failed ->
      if n < Vm_sys.pager_retry_limit then begin
        stats.Vm_stats.vs_pager_retries <- stats.Vm_stats.vs_pager_retries + 1;
        let backoff = Vm_sys.pager_backoff_cycles * (1 lsl n) in
        if Obs.enabled (Vm_sys.tracer sys) then
          Vm_sys.emit sys
            (Obs.Pager_retry { offset; attempt = n + 1; backoff });
        Vm_sys.charge_cat sys Obs.Retry_backoff backoff;
        go (n + 1)
      end
      else begin
        stats.Vm_stats.vs_pager_failures <-
          stats.Vm_stats.vs_pager_failures + 1;
        h.ph_failures <- h.ph_failures + 1;
        h.ph_consecutive <- h.ph_consecutive + 1;
        if (not h.ph_dead)
           && h.ph_consecutive >= Vm_sys.pager_death_threshold
        then
          (match o.obj_pager with
           | Some pg -> declare_dead sys o pg
           | None -> ());
        None
      end
  in
  go 0

(* A dead pager's object answers from the rescue pager; pages the rescue
   pager never received read as absent, so they zero-fill.  The rescue
   read blocks: the last line of defence is never a prefetch. *)
let degraded_request sys o ~offset ~length =
  match o.obj_rescue with
  | None -> `Absent
  | Some r ->
    (match r.pgr_request ~offset ~length with
     | Data_provided (d, io) ->
       wait_io sys io;
       `Data d
     | Data_unavailable | Data_error -> `Absent)

let request sys o ~offset ~length =
  match o.obj_pager with
  | None -> `Absent
  | Some pager ->
    (* Attribution: everything from here to the pager's reply is pager
       time — except cycles a narrower frame or explicit category claims
       (disk service time, retry backoff). *)
    Vm_sys.with_cat sys Obs.Pager_wait @@ fun () ->
    if o.obj_health.ph_dead then degraded_request sys o ~offset ~length
    else begin
      match
        with_retries sys o ~offset (fun () ->
            match pager.pgr_request ~offset ~length with
            | Data_provided (d, io) ->
              wait_io sys io;
              `Done (`Data d)
            | Data_unavailable -> `Done `Absent
            | Data_error -> `Failed)
      with
      | Some reply -> reply
      | None -> `Error
    end

(* One-shot clustered read: no retries, no backoff, no health damage.
   Clustering is opportunistic — if anything goes wrong the caller falls
   back to the single-page [request] path, which owns the retry/backoff/
   death policy.  A [`Data] reply may be shorter than [length] (a
   truncated cluster) and carries the transfer's stamp unwaited: the
   caller waits for what it needs ([wait_io], [wait_prefix]) and lets
   the rest ride ([ride]).  [`Absent] means the pager holds nothing at [offset]
   itself (see the contract on [pgr_request]). *)
let request_range (sys : Vm_sys.t) o ~offset ~length =
  match o.obj_pager with
  | None -> `Absent
  | Some pager ->
    Vm_sys.with_cat sys Obs.Pager_wait @@ fun () ->
    if o.obj_health.ph_dead then
      (match degraded_request sys o ~offset ~length with
       | `Data d -> `Data (d, io_none)
       | `Absent -> `Absent)
    else begin
      match pager.pgr_request ~offset ~length with
      | Data_provided (d, io) ->
        o.obj_health.ph_consecutive <- 0;
        `Data (d, io)
      | Data_unavailable -> `Absent
      | Data_error -> `Error
    end

(* Block until the page has landed, charging only the residue of its
   own stamp, and lift the busy bit {!ride} set.  A stamp taken before
   the last [Machine.reset_clocks] has landed: the clocks it was
   measured against are gone. *)
let await_page (sys : Vm_sys.t) p =
  match p.pg_inflight with
  | None -> ()
  | Some r ->
    let m = sys.Vm_sys.machine in
    if r.if_epoch = Mach_hw.Machine.reset_epoch m then
      Mach_hw.Machine.wait_disk m ~cpu:(Vm_sys.current_cpu sys)
        ~completion:r.if_stamp ~service:r.if_service;
    p.pg_inflight <- None;
    p.pg_busy <- false

(* A dead pager's writes go to the rescue pager, blocking like every
   rescue transfer. *)
let rescue_write sys o ~offset ~data =
  match o.obj_rescue with
  | None -> `Failed
  | Some r ->
    (match r.pgr_write ~offset ~data with
     | Write_completed io ->
       wait_io sys io;
       `Ok
     | Write_error -> `Failed
     | Write_no_space -> `No_space)

(* One-shot clustered write, same policy: a failure is reported without
   retries or health damage and the caller degrades to single-page
   [write] calls.  [`No_space] — the backing store is full — is
   permanent until space is released, so it is reported distinctly (no
   retries either, and no health damage: the pager is fine, the disk is
   full) and the caller escalates to the memory-pressure state.  A disk
   write blocks until it lands, so [`Ok] has nothing left on the
   device. *)
let write_range (sys : Vm_sys.t) o ~offset ~data =
  match o.obj_pager with
  | None -> `Failed
  | Some pager ->
    Vm_sys.with_cat sys Obs.Pager_wait @@ fun () ->
    if o.obj_health.ph_dead then rescue_write sys o ~offset ~data
    else begin
      match pager.pgr_write ~offset ~data with
      | Write_completed _ ->
        o.obj_health.ph_consecutive <- 0;
        `Ok
      | Write_error -> `Failed
      | Write_no_space -> `No_space
    end

let write sys o ~offset ~data =
  match o.obj_pager with
  | None -> `Failed
  | Some pager ->
    Vm_sys.with_cat sys Obs.Pager_wait @@ fun () ->
    if o.obj_health.ph_dead then rescue_write sys o ~offset ~data
    else begin
      match
        with_retries sys o ~offset (fun () ->
            match pager.pgr_write ~offset ~data with
            | Write_completed io ->
              wait_io sys io;
              `Done `Ok
            | Write_no_space -> `Done `No_space
            | Write_error -> `Failed)
      with
      | Some r -> r
      | None ->
        (* If the exhausted budget just killed the pager, [declare_dead]
           already rescued this page along with the rest; returning
           [`Failed] still makes the caller keep it dirty, so the rescue
           copy is refreshed by the next pageout pass. *)
        `Failed
    end

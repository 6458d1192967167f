open Types
module Obs = Mach_obs.Obs

(* Wait only until the first [bytes] of [io] have landed — a reply's
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

(* Block until the page has landed, charging only the residue of its
   own stamp.  A stamp taken before the last [Machine.reset_clocks] has
   landed: the clocks it was measured against are gone. *)
let await_page (sys : Vm_sys.t) p =
  match p.pg_ahead with
  | Demand | Prefetched -> ()
  | Riding { stamp; service } ->
    let m = sys.Vm_sys.machine and cpu = Vm_sys.current_cpu sys in
    if Mach_hw.Machine.stamp_live m stamp then
      Mach_hw.Machine.wait_disk m ~cpu
        ~completion:
          (Mach_hw.Machine.cycles m ~cpu
           + Mach_hw.Machine.stamp_residue m stamp ~cpu)
        ~service;
    Resident.landed p

(* The two pager calls.  Each asks [o]'s pager once, or its rescue pager
   once the pager is dead, and every other path here goes through them.
   A live pager's data or completed write resets its health, and its
   reply's stamp comes back unwaited.  A rescue read blocks: the last
   line of defence is never a prefetch, so it comes back as [io_none].
   Pages the rescue pager never received read as absent, so they
   zero-fill.  A write has landed when its reply arrives. *)
let read_once (sys : Vm_sys.t) o ~offset ~length =
  let dead = o.obj_health.ph_dead in
  match if dead then o.obj_rescue else o.obj_pager with
  | None -> `Absent
  | Some pager ->
    (match pager.pgr_request ~offset ~length with
     | Data_provided (d, io) when dead ->
       Mach_hw.Machine.wait_io sys.Vm_sys.machine
         ~cpu:(Vm_sys.current_cpu sys) io;
       `Data (d, io_none)
     | Data_provided (d, io) ->
       o.obj_health.ph_consecutive <- 0;
       `Data (d, io)
     | Data_unavailable -> `Absent
     | Data_error -> if dead then `Absent else `Error)

let write_once o ~offset ~data =
  let dead = o.obj_health.ph_dead in
  match if dead then o.obj_rescue else o.obj_pager with
  | None -> `Failed
  | Some pager ->
    (match pager.pgr_write ~offset ~data with
     | Write_completed ->
       if not dead then o.obj_health.ph_consecutive <- 0;
       `Ok
     | Write_error -> `Failed
     | Write_no_space -> `No_space)

(* Declare the object's pager dead and rescue every dirty resident page
   to a fresh default pager before any of them can be lost.  The rescue
   pager is deliberately NOT passed through [pager_decorator]: it is the
   kernel's last line of defence and must be reliable. *)
let declare_dead (sys : Vm_sys.t) o pager =
  let stats = sys.Vm_sys.stats in
  o.obj_health.ph_dead <- true;
  stats.Vm_stats.vs_pager_deaths <- stats.Vm_stats.vs_pager_deaths + 1;
  o.obj_rescue <- Some (Swap_pager.make sys ~name:(pager.pgr_name ^ "+rescue"));
  let rescued = ref 0 in
  List.iter
    (fun p ->
       if
         (not (Resident.riding p))
         && Mach_pmap.Pmap_domain.is_modified sys.Vm_sys.domain ~pfn:p.pfn
       then
         match
           write_once o ~offset:(Resident.offset p) ~data:[ Page_io.lend sys p ]
         with
         | `Ok ->
           incr rescued;
           stats.Vm_stats.vs_rescued_pages <-
             stats.Vm_stats.vs_rescued_pages + 1
         | `Failed | `No_space -> ())
    (Resident.object_pages o);
  if Obs.enabled (Vm_sys.tracer sys) then
    Vm_sys.emit sys
      (Obs.Pager_dead { pager = pager.pgr_name; rescued = !rescued })

(* Run [attempt] with bounded retry and exponential backoff; account an
   exhausted budget against the object's health, possibly killing the
   pager.  [None] means the budget ran out.  A dead pager's object gets
   one attempt: the rescue pager is neither retried nor judged. *)
let with_retries (sys : Vm_sys.t) o ~offset attempt =
  let stats = sys.Vm_sys.stats in
  let h = o.obj_health in
  let rec go n =
    match attempt () with
    | `Done v ->
      h.ph_consecutive <- 0;
      Some v
    | `Failed when h.ph_dead -> None
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

(* An object without a pager answers [none] at once.  Otherwise
   everything from here to the pager's reply is pager time — except
   cycles a narrower frame or explicit category claims (disk service
   time, retry backoff). *)
let paging (sys : Vm_sys.t) o none f =
  match o.obj_pager with
  | None -> none
  | Some _ -> Vm_sys.with_cat sys Obs.Pager_wait f

(* One-shot clustered read: no retries, no backoff, no health damage.
   Clustering is opportunistic — if anything goes wrong the caller falls
   back to the single-page [request] path, which owns the retry/backoff/
   death policy.  A [`Data] reply may be shorter than [length] (a
   truncated cluster).  Both reads hand the transfer's stamp back
   unwaited: the caller waits for the page it needs ([wait_prefix]) and
   lets the rest ride ([ride]).  [`Absent] means the pager holds nothing
   at [offset] itself (see the contract on [Types.pager]). *)
let request_range sys o ~offset ~length =
  paging sys o `Absent (fun () -> read_once sys o ~offset ~length)

let request sys o ~offset ~length =
  paging sys o `Absent @@ fun () ->
  match
    with_retries sys o ~offset (fun () ->
        match read_once sys o ~offset ~length with
        | `Error -> `Failed
        | (`Data _ | `Absent) as r -> `Done r)
  with
  | Some r -> r
  | None -> `Error

(* One-shot clustered write, same policy: a failure is reported without
   retries or health damage and the caller degrades to single-page
   [write] calls.  [`No_space] — the backing store is full — is
   permanent until space is released, so it is reported distinctly (no
   retries either, and no health damage: the pager is fine, the disk is
   full) and the caller escalates to the memory-pressure state. *)
let write_range sys o ~offset ~data =
  paging sys o `Failed (fun () -> write_once o ~offset ~data)

let write sys o ~offset ~data =
  paging sys o `Failed @@ fun () ->
  match
    with_retries sys o ~offset (fun () ->
        match write_once o ~offset ~data with
        | `Failed -> `Failed
        | (`Ok | `No_space) as r -> `Done r)
  with
  | Some r -> r
  | None ->
    (* If the exhausted budget just killed the pager, [declare_dead]
       already rescued this page along with the rest; returning
       [`Failed] still makes the caller keep it dirty, so the rescue
       copy is refreshed by the next pageout pass. *)
    `Failed

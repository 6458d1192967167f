open Mach_hw
open Types
open Mach_pmap
module Obs = Mach_obs.Obs

let enter_page pmap ~page_va p ~prot =
  pmap.Pmap.enter ~va:page_va ~pfn:p.pfn ~prot ~wired:(Resident.wired p)

(* Allocate a fresh page and give it an identity in [obj] at [offset]. *)
let new_page_in (sys : Vm_sys.t) obj ~offset =
  let p = Vm_sys.grab_page sys in
  Resident.insert sys.Vm_sys.resident p ~obj ~offset;
  p

(* Burst faulting: when the demand page was found resident in the first
   object, scan forward for consecutive neighbours that are also resident
   there and not yet mapped by this pmap, and map them in the same pass.
   They ride the demand page's flush batch, so the whole burst costs one
   consistency exchange instead of one fault (and one exchange) each.
   The scan stops at the first page that does not qualify — past the
   entry's burst window, its object window or [va_end] (where the
   faulting map stops reaching this entry), absent, riding its disk
   stamp, or already mapped here.  A window of 0 or 1 maps no
   neighbour.  [i] is the neighbour to look at, [acc] the ones found so
   far, last first. *)
let rec burst_scan (sys : Vm_sys.t) ~asid ~window ~lim obj ~page_va ~va_end
    ~offset i acc =
  let ps = sys.Vm_sys.page_size in
  let off = offset + (i * ps) and va_n = page_va + (i * ps) in
  if i >= window || off >= lim || va_n >= va_end then List.rev acc
  else
    match Vm_object.lookup_resident sys obj ~offset:off with
    | Some q
      when (not (Resident.riding q))
           && not (Pmap_domain.mapped_by sys.Vm_sys.domain ~pfn:q.pfn ~asid)
      ->
      burst_scan sys ~asid ~window ~lim obj ~page_va ~va_end ~offset (i + 1)
        ((va_n, q) :: acc)
    | _ -> List.rev acc

let collect_burst (sys : Vm_sys.t) pmap entry obj ~page_va ~va_end ~offset =
  let window = Vm_sys.burst_window sys entry in
  burst_scan sys ~asid:pmap.Pmap.asid ~window
    ~lim:(entry.e_offset + entry_size entry) obj ~page_va ~va_end ~offset 1 []

(* What a traced fault reports in its [Fault_end] event: the CPU and
   clock it began on, how it was resolved, and whether a pager supplied
   the page.  Built only under tracing; an untraced fault carries [None]
   and allocates none of it. *)
type trace_frame = {
  tf_cpu : int;
  tf_t0 : int;
  mutable tf_resolution : Obs.fault_resolution;
  mutable tf_paged_in : bool;
}

let resolved tf r =
  match tf with Some f -> f.tf_resolution <- r | None -> ()

(* Close the fault: under tracing, its [Fault_end] carries the
   resolution kind and service time. *)
let conclude sys tf ~va result =
  (match tf with
   | None -> ()
   | Some f ->
     let t1 = Machine.cycles sys.Vm_sys.machine ~cpu:f.tf_cpu in
     let resolution =
       match result with
       | Error Kr.Memory_error -> Obs.Memory_error
       | Error _ -> Obs.Fault_error
       | Ok _ -> if f.tf_paged_in then Obs.Pagein else f.tf_resolution
     in
     Obs.record (Vm_sys.tracer sys) ~ts:t1 ~cpu:f.tf_cpu
       (Obs.Fault_end { va; resolution; cycles = t1 - f.tf_t0 }));
  result

(* Protection for the hardware mapping: copy-on-write situations must
   trap the next write. *)
let mapped_prot fl ~cow =
  if cow then Prot.remove_write fl.Vm_map.fl_prot else fl.Vm_map.fl_prot

let finish sys pmap ~page_va p ~prot =
  enter_page pmap ~page_va p ~prot;
  Resident.activate sys.Vm_sys.resident p;
  Ok p

(* When the authoritative entry lives in a sharing map, a page copied
   up into its shadow changes what every sharer should see, but their
   pmaps may still map the old page.  Invalidate all mappings of the
   source page so each sharer re-faults through the updated chain;
   tasks that reference the old object through their own entries
   (snapshot holders) re-fault to the same page and are unaffected. *)
let invalidate_shared_source sys fl src =
  match fl.Vm_map.fl_map.map_pmap with
  | None -> Pmap_domain.remove_all sys.Vm_sys.domain ~pfn:src.pfn ~urgent:false
  | Some _ -> ()

(* A writer section on [obj] around a top-level [body], under an
   attribution frame for [cat] only when tracing: no closure untraced. *)
let section sys fl obj ~offset cat body x =
  Vm_object.lock_read sys obj;
  match
    if Obs.enabled (Vm_sys.tracer sys) then
      Vm_sys.with_cat sys cat (fun () -> body sys fl obj ~offset x)
    else body sys fl obj ~offset x
  with
  | v ->
    Vm_object.unlock sys obj;
    v
  | exception e ->
    Vm_object.unlock sys obj;
    raise e

(* The stream-slot key, map id and entry start, tells concurrent
   sequential readers of one shared object apart. *)
let cluster_pagein sys fl obj ~offset lim =
  Vm_cluster.pagein sys
    ~stream:(fl.Vm_map.fl_map.map_id, fl.Vm_map.fl_entry.e_start)
    obj ~offset ~limit:lim

(* Ask [obj]'s pager for the page at [off]: pagein mutates the object's
   page list, a writer section.  The lock is held across the pager wait,
   so on a shared object other CPUs faulting meanwhile stall behind the
   disk time — the contention mpfault measures.  Pager traffic goes
   through {!Vm_cluster}/{!Pager_guard}: sequential misses pull in a
   whole read-ahead cluster, transient failures are retried with
   backoff, and a pager that exhausts its budget surfaces
   KERN_MEMORY_ERROR here.  [lim] is the end of the map entry's window
   in [obj]'s offset space: the cluster may not spill past what this
   entry actually maps. *)
let pagein sys tf fl obj ~off ~lim =
  let tp =
    match tf with
    | Some f -> Machine.cycles sys.Vm_sys.machine ~cpu:f.tf_cpu
    | None -> 0
  in
  match section sys fl obj ~offset:off Obs.Pager_wait cluster_pagein lim with
  | `Data (p, bytes) ->
    (match tf with
     | Some f ->
       f.tf_paged_in <- true;
       let t1 = Machine.cycles sys.Vm_sys.machine ~cpu:f.tf_cpu in
       Obs.record (Vm_sys.tracer sys) ~ts:t1 ~cpu:f.tf_cpu
         (Obs.Pagein { offset = off; bytes; cycles = t1 - tp })
     | None -> ());
    `Found (obj, p)
  | `Error -> `Failed
  | `Absent -> `Absent

(* Walk the shadow chain.  At each level the resident page wins;
   failing that the object's *own* pager is asked (a shadow that has
   paged out to the default pager must answer from there, never from
   the object it shadows); only when the pager has nothing — or there
   is no pager — does the search descend.  An object with no pager (a
   temporary object before its first pageout) holds data only in its
   resident pages: it is stepped over without asking for a cluster, but
   still through an (empty) writer section, whose stall and release
   stamp stand for the lock a real kernel takes here. *)
let rec search sys tf pmap fl obj off lim =
  match Vm_object.lookup_resident sys obj ~offset:off with
  | Some p ->
    Vm_sys.burst_demand_fault sys ~asid:pmap.Pmap.asid p;
    Vm_cluster.note_hit sys p;
    `Found (obj, p)
  | None ->
    let asked =
      match obj.obj_pager with
      | None ->
        Vm_object.lock_read sys obj;
        Vm_object.unlock sys obj;
        `Absent
      | Some _ -> pagein sys tf fl obj ~off ~lim
    in
    (match asked with
     | (`Found _ | `Failed) as r -> r
     | `Absent ->
       (match obj.obj_shadow with
        | Some next ->
          search sys tf pmap fl next
            (off + obj.obj_shadow_offset)
            (lim + obj.obj_shadow_offset)
        | None -> `Bottom))

(* The resident fast path: the page is in the first object.  An
   optimistic, generation-validated read of the object — free unless a
   writer hold overlapped — and a burst of resident neighbours mapped
   with it. *)
let map_resident sys tf pmap fl first_obj p ~page_va ~offset =
  let stats = sys.Vm_sys.stats and entry = fl.Vm_map.fl_entry in
  Vm_object.lock_read sys first_obj;
  stats.Vm_stats.vs_fast_reloads <- stats.Vm_stats.vs_fast_reloads + 1;
  resolved tf Obs.Fast_reload;
  let prot =
    mapped_prot fl ~cow:(entry.e_needs_copy || first_obj.obj_readonly)
  in
  match
    collect_burst sys pmap entry first_obj ~page_va
      ~va_end:fl.Vm_map.fl_va_end ~offset
  with
  | [] -> finish sys pmap ~page_va p ~prot
  | _ :: _ as burst ->
    stats.Vm_stats.vs_burst_faults <- stats.Vm_stats.vs_burst_faults + 1;
    stats.Vm_stats.vs_burst_mapped <-
      stats.Vm_stats.vs_burst_mapped + List.length burst;
    (* One outer batch: the demand page's enters and every
       neighbour's share a single consistency exchange. *)
    Pmap_domain.batched sys.Vm_sys.domain (fun () ->
        enter_page pmap ~page_va p ~prot;
        List.iter
          (fun (va_n, q) ->
             enter_page pmap ~page_va:va_n q ~prot;
             (* A pending read-ahead prefetch of [q] is adopted
                by the burst, not issued twice. *)
             let issued = not (Resident.read_ahead q) in
             if issued then
               stats.Vm_stats.vs_prefetch_issued <-
                 stats.Vm_stats.vs_prefetch_issued + 1;
             (* The page will never re-fault here, so its first
                use must be seen as a referenced-bit transition:
                clear the bits and register for the first-touch
                hook. *)
             Pmap_domain.clear_referenced sys.Vm_sys.domain ~pfn:q.pfn;
             Vm_sys.burst_register sys ~asid:pmap.Pmap.asid entry q
               ~issued)
          burst);
    if Option.is_some tf then
      Vm_sys.emit sys
        (Obs.Burst_enter { va = page_va; pages = 1 + List.length burst });
    Resident.activate sys.Vm_sys.resident p;
    Ok p

(* Bodies of the writer sections that give [first_obj] a new page. *)
let copy_up sys fl first_obj ~offset src =
  let p = new_page_in sys first_obj ~offset in
  Page_io.copy sys ~src ~dst:p;
  invalidate_shared_source sys fl src;
  Vm_object.collapse sys first_obj

let zero_fill sys _fl first_obj ~offset () =
  let p = new_page_in sys first_obj ~offset in
  Page_io.zero sys p;
  p

(* Resolve the fault at [offset] in [first_obj] once the walk has
   found what backs it. *)
let resolve sys tf pmap fl first_obj ~page_va ~offset ~write =
  let stats = sys.Vm_sys.stats and entry = fl.Vm_map.fl_entry in
  let lim = entry.e_offset + entry_size entry in
  match search sys tf pmap fl first_obj offset lim with
  | `Failed ->
    (* The backing pager failed for good (retry budget exhausted).
       The paper's contract holds: machine-independent state is
       intact, the task just cannot have this page. *)
    stats.Vm_stats.vs_memory_errors <- stats.Vm_stats.vs_memory_errors + 1;
    Error Kr.Memory_error
  | `Found (owner, p) when owner == first_obj ->
    map_resident sys tf pmap fl first_obj p ~page_va ~offset
  | `Found (_, src) ->
    if write then begin
      (* Copy the page up into the first object: a writer section
         on the object gaining the page. *)
      section sys fl first_obj ~offset Obs.Cow_copy copy_up src;
      stats.Vm_stats.vs_cow_copies <- stats.Vm_stats.vs_cow_copies + 1;
      resolved tf Obs.Cow_copy;
      (* The copy may have moved the page up; look it up afresh. *)
      (match Vm_object.lookup_resident sys first_obj ~offset with
       | Some p -> finish sys pmap ~page_va p ~prot:(mapped_prot fl ~cow:false)
       | None -> assert false)
    end
    else begin
      (* Map the lower object's page without write permission so a
         later write still faults and copies. *)
      resolved tf Obs.Fast_reload;
      finish sys pmap ~page_va src ~prot:(mapped_prot fl ~cow:true)
    end
  | `Bottom ->
    (* Nothing anywhere in the chain: memory with no backing data is
       automatically zero filled, directly in the first object. *)
    let p = section sys fl first_obj ~offset Obs.Zero_fill zero_fill () in
    stats.Vm_stats.vs_zero_fills <- stats.Vm_stats.vs_zero_fills + 1;
    resolved tf Obs.Zero_fill;
    finish sys pmap ~page_va p
      ~prot:
        (mapped_prot fl
           ~cow:((entry.e_needs_copy && not write) || first_obj.obj_readonly))

(* The first object of the faulting entry, made or interposed first:
   a never-touched region gets its anonymous memory object now, and a
   write to a needs-copy entry — or to an object whose pager declared
   it read-only (pager_readonly, Table 3-2) — interposes a shadow object
   that will collect this map's modified pages (Section 3.4). *)
let first_object sys entry ~write =
  let obj =
    match entry.e_backing with
    | Backed o -> o
    | No_backing ->
      let o = Vm_object.create_anonymous sys ~size:(entry_size entry) in
      entry.e_backing <- Backed o;
      entry.e_offset <- 0;
      o
    | Submap _ -> assert false (* lookup_fault resolved submaps *)
  in
  if write && (entry.e_needs_copy || obj.obj_readonly) then begin
    let s =
      Vm_object.shadow sys obj ~offset:entry.e_offset ~size:(entry_size entry)
    in
    entry.e_backing <- Backed s;
    entry.e_offset <- 0;
    entry.e_needs_copy <- false;
    s
  end
  else obj

(* The fault handler proper; [fault] wraps it.  Trace bracketing: one
   Fault_begin/Fault_end pair per invocation, the end event carrying
   the resolution kind and service time; event construction and clock
   reads happen only when tracing. *)
let handle sys map ~va ~write =
  let stats = sys.Vm_sys.stats in
  stats.Vm_stats.vs_faults <- stats.Vm_stats.vs_faults + 1;
  let tr = Vm_sys.tracer sys in
  let tf =
    if Obs.enabled tr then begin
      let cpu = Vm_sys.current_cpu sys in
      let t0 = Machine.cycles sys.Vm_sys.machine ~cpu in
      Obs.record tr ~ts:t0 ~cpu (Obs.Fault_begin { va; write });
      Some
        { tf_cpu = cpu; tf_t0 = t0; tf_resolution = Obs.Fault_error;
          tf_paged_in = false }
    end
    else None
  in
  match Vm_map.lookup_fault sys map ~va ~write with
  | Error _ as e -> conclude sys tf ~va e
  | Ok fl ->
    let ps = sys.Vm_sys.page_size in
    let page_va = va - (va mod ps) in
    let entry = fl.Vm_map.fl_entry in
    (* Byte offset of the faulting page within the entry's window; stable
       across the backing rewrites below. *)
    let rel = fl.Vm_map.fl_offset - (va mod ps) - entry.e_offset in
    assert (rel mod ps = 0);
    let first_obj = first_object sys entry ~write in
    let offset = entry.e_offset + rel in
    let pmap =
      match map.map_pmap with
      | Some p -> p
      | None -> invalid_arg "Vm_fault.fault: map has no pmap"
    in
    (* Allocation backpressure almost never fails: grab_page waits on
       the daemon and falls back to the OOM policy first.  When it does
       raise — swap full and every candidate exempt or empty, i.e. this
       very task is the last one standing — the kernel survives and the
       fault concludes with a resource-shortage error the caller can
       surface. *)
    conclude sys tf ~va
      (match resolve sys tf pmap fl first_obj ~page_va ~offset ~write with
       | r -> r
       | exception Vm_sys.Out_of_memory -> Error Kr.Resource_shortage)

(* While this fault is in flight its map's task is exempt from the OOM
   policy: killing it would deallocate the very structures (entry,
   objects, source pages) this handler is holding.  Saved/restored so
   nested faults keep the innermost map exempt. *)
let handle_exempt sys map ~va ~write =
  let saved_exempt = sys.Vm_sys.oom_exempt_map in
  sys.Vm_sys.oom_exempt_map <- map.map_id;
  match handle sys map ~va ~write with
  | r ->
    sys.Vm_sys.oom_exempt_map <- saved_exempt;
    r
  | exception e ->
    sys.Vm_sys.oom_exempt_map <- saved_exempt;
    raise e

(* Attribution: the whole handler runs under a [Fault_service] frame
   (redundant under [Machine.deliver_fault], which pushes the same
   category, but syscall-path callers — wire, user copyin — reach here
   directly).  Narrower frames in [handle] re-attribute the interesting
   sub-costs: pager traffic, zero fills, COW copies.  Untraced, there is
   no frame to push and no closure is built. *)
let fault sys map ~va ~write =
  if Obs.enabled (Vm_sys.tracer sys) then
    Vm_sys.with_cat sys Obs.Fault_service (fun () ->
        handle_exempt sys map ~va ~write)
  else handle_exempt sys map ~va ~write

let wire sys map ~va =
  match fault sys map ~va ~write:true with
  | Error _ as e -> e
  | Ok p ->
    Resident.wire sys.Vm_sys.resident p;
    Ok ()

let unwire sys map ~va =
  match Vm_map.resolve_object_at sys map ~va with
  | None -> Error Kr.Invalid_address
  | Some (o, offset) ->
    let offset = offset - (offset mod sys.Vm_sys.page_size) in
    (match Vm_object.chain_lookup sys o ~offset with
     | `Found (_, p, _) when Resident.wired p ->
       Resident.unwire sys.Vm_sys.resident p;
       Ok ()
     | `Found _ | `Absent _ -> Error Kr.Invalid_argument)

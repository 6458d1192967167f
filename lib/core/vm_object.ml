open Types
open Mach_pmap

let make_obj sys ~size ~pager ~temporary =
  {
    obj_id = Vm_sys.fresh_obj_id sys;
    obj_size = size;
    obj_ref = 1;
    obj_pages = Mach_util.Dlist.create ();
    obj_pager = pager;
    obj_shadow = None;
    obj_shadow_offset = 0;
    obj_temporary = temporary;
    obj_cached = false;
    obj_readonly = false;
    obj_dead = false;
    obj_health = fresh_health ();
    obj_rescue = None;
    obj_streams = [||];
    obj_lock = Mach_hw.Machine.expired;
  }

(* --- Object locking, simulated on the virtual clock -------------------

   An object lock is the one simulated lock ([Vm_stats.lock_acquire]).
   Every exclusive (writer) critical section stamps the object with the
   cycle at which it released, on every exit, exceptions included.  On
   a single CPU every stall is zero and the locking layer is
   cycle-invisible — exactly the uncontended fast path.

   Readers (the resident-fault fast path) are optimistic: they do the
   lookup with no lock traffic and keep no state of their own.  A reader
   that overlapped a writer hold in virtual time would have had to retry,
   so [lock_read] charges the same residue a writer would have seen — the
   retry cost — and nothing when uncontended. *)

let lock_read (sys : Vm_sys.t) o =
  Vm_stats.lock_acquire sys.Vm_sys.stats sys.Vm_sys.machine
    ~cpu:(Vm_sys.current_cpu sys) ~obj:o.obj_id o.obj_lock

let unlock (sys : Vm_sys.t) o =
  o.obj_lock <-
    Vm_stats.lock_release sys.Vm_sys.machine ~cpu:(Vm_sys.current_cpu sys)

let lock_write sys o f =
  lock_read sys o;
  match f () with
  | v ->
    unlock sys o;
    v
  | exception e ->
    unlock sys o;
    raise e

let create_anonymous sys ~size =
  make_obj sys ~size ~pager:None ~temporary:true

let lookup_resident (sys : Vm_sys.t) o ~offset =
  Resident.lookup sys.Vm_sys.resident ~obj:o ~offset

let free_page (sys : Vm_sys.t) p =
  (* No pmap may retain a mapping to a frame about to be recycled; this is
     a time-critical invalidation (case 1 of Section 5.2). *)
  let free () =
    if p.pg_prefetched then
      sys.Vm_sys.stats.Vm_stats.vs_prefetch_wasted <-
        sys.Vm_sys.stats.Vm_stats.vs_prefetch_wasted + 1;
    Pmap_domain.remove_all sys.Vm_sys.domain ~pfn:p.pfn ~urgent:true;
    Pmap_domain.clear_modified sys.Vm_sys.domain ~pfn:p.pfn;
    Pmap_domain.clear_referenced sys.Vm_sys.domain ~pfn:p.pfn;
    Resident.free_page ~cpu:(Vm_sys.current_cpu sys) sys.Vm_sys.resident p
  in
  match p.pg_obj with
  | Some o -> lock_write sys o free
  | None -> free ()

let reference o =
  assert (not o.obj_dead);
  o.obj_ref <- o.obj_ref + 1

(* Termination: free all pages and drop the shadow reference. *)
let rec terminate sys o =
  assert (o.obj_ref = 0);
  assert (not o.obj_dead);
  o.obj_dead <- true;
  (* Read-ahead streams die with the object: the slot array carries
     reader cursors, and a recycled object id must never inherit them.
     (Cache *eviction* comes through here too; only [cache_revive]
     keeps streams alive, so a cached file's window survives between
     reads but never survives termination.) *)
  o.obj_streams <- [||];
  List.iter (fun p -> free_page sys p) (Resident.object_pages o);
  (* A dead object's swap chunks are garbage: credit them back to the
     swap pool ([Swap_pager.release] is a no-op for non-swap pagers). *)
  (match o.obj_pager with
   | Some pager ->
     Mach_util.Int_tbl.remove sys.Vm_sys.pager_objects pager.pgr_id;
     Swap_pager.release sys pager
   | None -> ());
  (match o.obj_rescue with
   | Some rescue -> Swap_pager.release sys rescue
   | None -> ());
  match o.obj_shadow with
  | None -> ()
  | Some backing ->
    o.obj_shadow <- None;
    deallocate sys backing

and cache_insert sys o =
  o.obj_cached <- true;
  sys.Vm_sys.object_cache <- o :: sys.Vm_sys.object_cache;
  (* Trim the cache to its limit, terminating the least recently used. *)
  let rec split n = function
    | [] -> ([], [])
    | x :: rest when n > 0 ->
      let keep, evict = split (n - 1) rest in
      (x :: keep, evict)
    | rest -> ([], rest)
  in
  let keep, evict =
    split sys.Vm_sys.object_cache_limit sys.Vm_sys.object_cache
  in
  sys.Vm_sys.object_cache <- keep;
  List.iter
    (fun victim ->
       victim.obj_cached <- false;
       terminate sys victim)
    evict

and deallocate sys o =
  assert (o.obj_ref > 0);
  o.obj_ref <- o.obj_ref - 1;
  if o.obj_ref = 0 then begin
    let cacheable =
      sys.Vm_sys.cache_enabled && not o.obj_temporary
      && (match o.obj_pager with
          | Some p -> !(p.pgr_should_cache)
          | None -> false)
    in
    if cacheable then cache_insert sys o else terminate sys o
  end

let cache_revive sys o =
  assert o.obj_cached;
  o.obj_cached <- false;
  o.obj_ref <- 1;
  sys.Vm_sys.object_cache <-
    List.filter (fun o' -> o'.obj_id <> o.obj_id) sys.Vm_sys.object_cache

let create_with_pager sys pager ~size =
  match Mach_util.Int_tbl.find_opt sys.Vm_sys.pager_objects pager.pgr_id with
  | Some o when o.obj_cached ->
    sys.Vm_sys.stats.Vm_stats.vs_object_cache_hits <-
      sys.Vm_sys.stats.Vm_stats.vs_object_cache_hits + 1;
    cache_revive sys o;
    o
  | Some o ->
    reference o;
    o
  | None ->
    sys.Vm_sys.stats.Vm_stats.vs_object_cache_misses <-
      sys.Vm_sys.stats.Vm_stats.vs_object_cache_misses + 1;
    let o = make_obj sys ~size ~pager:(Some pager) ~temporary:false in
    Mach_util.Int_tbl.add sys.Vm_sys.pager_objects pager.pgr_id o;
    o

let chain_length o =
  let rec loop acc o =
    match o.obj_shadow with
    | None -> acc
    | Some s -> loop (acc + 1) s
  in
  loop 1 o

let shadow sys o ~offset ~size =
  (* Interposing a shadow rewrites what faults on [o]'s range resolve to:
     an exclusive section on [o]. *)
  lock_write sys o (fun () ->
      let s = make_obj sys ~size ~pager:None ~temporary:true in
      s.obj_shadow <- Some o; (* consumes the caller's reference to [o] *)
      s.obj_shadow_offset <- offset;
      sys.Vm_sys.stats.Vm_stats.vs_shadows_created <-
        sys.Vm_sys.stats.Vm_stats.vs_shadows_created + 1;
      if Mach_obs.Obs.enabled (Vm_sys.tracer sys) then
        Vm_sys.emit sys
          (Mach_obs.Obs.Object_shadow { depth = chain_length s });
      s)

let chain_lookup sys o ~offset =
  assert (offset mod sys.Vm_sys.page_size = 0);
  let rec loop cur off =
    match lookup_resident sys cur ~offset:off with
    | Some p -> `Found (cur, p, off)
    | None ->
      (match cur.obj_shadow with
       | Some next -> loop next (off + cur.obj_shadow_offset)
       | None -> `Absent (cur, off))
  in
  loop o offset

(* Collapse (Section 3.5): while the object [o] shadows is a temporary,
   pager-less object referenced only by [o], merge it away.  Pages of the
   backing not obscured by [o] move up; obscured pages are freed.  When a
   level is blocked (the backing is shared or managed), the walk continues
   deeper: an intermediate shadow can absorb *its* backing even while it
   is itself still shared — this is what keeps the chains short while a
   parent task is alive between forks. *)
let rec collapse sys o =
  if not sys.Vm_sys.collapse_enabled then ()
  else begin
    let rec step () =
      match o.obj_shadow with
      | None -> ()
      | Some backing ->
        if
          backing.obj_ref = 1 && Option.is_none backing.obj_pager
          && backing.obj_temporary && not backing.obj_cached
        then begin
          List.iter
            (fun p ->
               let new_off = p.pg_offset - o.obj_shadow_offset in
               let visible =
                 new_off >= 0 && new_off < o.obj_size
                 && Option.is_none (lookup_resident sys o ~offset:new_off)
               in
               if visible then begin
                 Resident.remove_from_object sys.Vm_sys.resident p;
                 Resident.insert sys.Vm_sys.resident p ~obj:o
                   ~offset:new_off
               end
               else free_page sys p)
            (Resident.object_pages backing);
          o.obj_shadow <- backing.obj_shadow;
          o.obj_shadow_offset <-
            o.obj_shadow_offset + backing.obj_shadow_offset;
          backing.obj_shadow <- None;
          backing.obj_ref <- 0;
          backing.obj_dead <- true;
          (* The merged-away backing is dead without passing through
             [terminate]: drop its stream slots the same way, so a
             stale cursor cannot ride along if the record is reused. *)
          backing.obj_streams <- [||];
          sys.Vm_sys.stats.Vm_stats.vs_collapses <-
            sys.Vm_sys.stats.Vm_stats.vs_collapses + 1;
          step ()
        end
        else collapse sys backing
    in
    step ()
  end

let uncache sys o =
  if o.obj_cached then begin
    sys.Vm_sys.object_cache <-
      List.filter (fun o' -> o'.obj_id <> o.obj_id) sys.Vm_sys.object_cache;
    o.obj_cached <- false;
    terminate sys o
  end

let drain_cache sys =
  let victims = sys.Vm_sys.object_cache in
  sys.Vm_sys.object_cache <- [];
  List.iter
    (fun o ->
       o.obj_cached <- false;
       terminate sys o)
    victims

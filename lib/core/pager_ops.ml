open Mach_hw
open Types
open Mach_pmap

(* Visit the resident pages of [o] with offsets in [offset, offset+length),
   page aligned, in ascending offset order when probing.  Small ranges
   probe the resident hash per page offset — O(range) — and only ranges
   wider than the object's resident population fall back to walking the
   page list, so a clean/flush/lock request for a few pages of a huge
   object no longer visits every resident page. *)
let pages_in_range (sys : Vm_sys.t) o ~offset ~length f =
  let ps = sys.Vm_sys.page_size in
  let lo = offset - (offset mod ps) in
  let hi = offset + length in
  let span = (hi - lo + ps - 1) / ps in
  if span <= Mach_util.Dlist.length o.obj_pages then begin
    let off = ref lo in
    while !off < hi do
      (match Resident.lookup sys.Vm_sys.resident ~obj:o ~offset:!off with
       | Some p -> f p
       | None -> ());
      off := !off + ps
    done
  end
  else
    List.iter
      (fun p -> if p.pg_offset >= lo && p.pg_offset < hi then f p)
      (Resident.object_pages o)

let clean_request sys o ~offset ~length =
  let ps = sys.Vm_sys.page_size in
  let dirty = ref [] in
  pages_in_range sys o ~offset ~length (fun p ->
      if Pmap_domain.is_modified sys.Vm_sys.domain ~pfn:p.pfn then
        dirty := p :: !dirty);
  let dirty =
    List.sort (fun a b -> Int.compare a.pg_offset b.pg_offset) !dirty
  in
  let written = ref 0 in
  let clean_one p =
    (* Writing back races with writers: take write permission away
       first so the cleaned copy is coherent. *)
    Pmap_domain.copy_on_write sys.Vm_sys.domain ~pfn:p.pfn;
    if Vm_pageout.clean_page sys p then incr written
  in
  (* Coalesce contiguous dirty pages into clustered writes (capped at
     [cluster_max]); a failed clustered write degrades to per-page
     cleaning, which owns the retry/failure accounting. *)
  let flush_run run =
    match List.rev run with
    | [] -> ()
    | [ p ] -> clean_one p
    | pages ->
      if Vm_pageout.write_cluster sys o pages then
        written := !written + List.length pages
      else List.iter clean_one pages
  in
  let rec group run = function
    | [] -> flush_run run
    | p :: rest ->
      (match run with
       | q :: _
         when p.pg_offset = q.pg_offset + ps
              && List.length run < sys.Vm_sys.cluster_max ->
         group (p :: run) rest
       | [] -> group [ p ] rest
       | _ ->
         flush_run run;
         group [ p ] rest)
  in
  group [] dirty;
  !written

let flush_request sys o ~offset ~length =
  let flushed = ref 0 in
  let victims = ref [] in
  pages_in_range sys o ~offset ~length (fun p -> victims := p :: !victims);
  List.iter
    (fun p ->
       Vm_object.free_page sys p;
       incr flushed)
    !victims;
  !flushed

let set_caching sys o should_cache =
  (match o.obj_pager with
   | Some pg -> pg.pgr_should_cache := should_cache
   | None -> ());
  if not should_cache then Vm_object.uncache sys o

let lock_request sys o ~offset ~length ~lock =
  pages_in_range sys o ~offset ~length (fun p ->
      if lock.Prot.read then
        (* Locking reads means no access at all: drop the mappings. *)
        Pmap_domain.remove_all sys.Vm_sys.domain ~pfn:p.pfn ~urgent:false
      else if lock.Prot.write then
        Pmap_domain.copy_on_write sys.Vm_sys.domain ~pfn:p.pfn)

let readonly sys o =
  o.obj_readonly <- true;
  pages_in_range sys o ~offset:0 ~length:o.obj_size (fun p ->
      Pmap_domain.copy_on_write sys.Vm_sys.domain ~pfn:p.pfn)

let is_readonly o = o.obj_readonly

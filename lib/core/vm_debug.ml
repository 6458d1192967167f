open Mach_hw
open Types
open Mach_pmap

let spf = Printf.sprintf

(* Collect violations into a list ref. *)
let note errs fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt

let check_object_structure sys errs o =
  if o.obj_dead then note errs "object %d referenced but dead" o.obj_id;
  if o.obj_ref < 0 then note errs "object %d negative refcount" o.obj_id;
  if o.obj_cached && o.obj_ref <> 0 then
    note errs "object %d cached with refcount %d" o.obj_id o.obj_ref;
  (* Stream slots die with their object, come [Vm_cluster.slot_count] at
     a time, and a live slot has a page-aligned cursor. *)
  let slots = Array.length o.obj_streams in
  if slots > 0 && (o.obj_dead || slots <> Vm_cluster.slot_count) then
    note errs "object %d%s holds %d stream slots" o.obj_id
      (if o.obj_dead then " (terminated)" else "") slots;
  Array.iter
    (fun st ->
       if
         Machine.stamp_live sys.Vm_sys.machine st.st_stamp
         && st.st_next mod sys.Vm_sys.page_size <> 0
       then
         note errs "object %d stream cursor %d unaligned" o.obj_id st.st_next)
    o.obj_streams;
  (* Pages on the object's list must carry the object's identity and be
     found through the hash. *)
  List.iter
    (fun p ->
       (match p.pg_obj with
        | Some owner when owner == o -> ()
        | Some owner ->
          note errs "page pfn=%d on object %d's list but owned by %d" p.pfn
            o.obj_id owner.obj_id
        | None ->
          note errs "page pfn=%d on object %d's list but ownerless" p.pfn
            o.obj_id);
       if p.pg_offset mod sys.Vm_sys.page_size <> 0 then
         note errs "page pfn=%d at unaligned offset %d" p.pfn p.pg_offset;
       match Resident.lookup sys.Vm_sys.resident ~obj:o ~offset:p.pg_offset with
       | Some q when q == p -> ()
       | Some _ ->
         note errs "hash disagrees for object %d offset %d" o.obj_id
           p.pg_offset
       | None ->
         note errs "page pfn=%d missing from hash (object %d offset %d)"
           p.pfn o.obj_id p.pg_offset)
    (Resident.object_pages o)

(* Walk a shadow chain, checking acyclicity via a bound. *)
let check_chain errs o =
  let rec loop seen cur depth =
    if depth > 1000 then note errs "object %d: shadow chain unbounded" o.obj_id
    else if List.memq cur seen then
      note errs "object %d: shadow chain cycle" o.obj_id
    else
      match cur.obj_shadow with
      | None -> ()
      | Some next -> loop (cur :: seen) next (depth + 1)
  in
  loop [] o 0

let rec collect_objects acc o =
  if List.memq o acc then acc
  else
    match o.obj_shadow with
    | None -> o :: acc
    | Some next -> collect_objects (o :: acc) next

let check_entry sys errs ~in_submap m e =
  let ps = sys.Vm_sys.page_size in
  if e.e_start mod ps <> 0 || e.e_end mod ps <> 0 then
    note errs "map %d: entry [%x,%x) not page aligned" m.map_id e.e_start
      e.e_end;
  if e.e_end <= e.e_start then
    note errs "map %d: empty or inverted entry [%x,%x)" m.map_id e.e_start
      e.e_end;
  if e.e_start < m.map_low || e.e_end > m.map_high then
    note errs "map %d: entry [%x,%x) outside [%x,%x)" m.map_id e.e_start
      e.e_end m.map_low m.map_high;
  if not (Prot.subset e.e_prot ~of_:e.e_max_prot) then
    note errs "map %d: current protection %s exceeds maximum %s" m.map_id
      (Prot.to_string e.e_prot)
      (Prot.to_string e.e_max_prot);
  match e.e_backing with
  | No_backing -> ()
  | Backed o ->
    if e.e_offset < 0 then
      note errs "map %d: negative object offset" m.map_id;
    if o.obj_dead then
      note errs "map %d: entry [%x,%x) backed by dead object %d" m.map_id
        e.e_start e.e_end o.obj_id
  | Submap sm ->
    if in_submap then
      note errs "map %d: nested sharing map %d" m.map_id sm.map_id;
    if sm.map_ref < 1 then
      note errs "map %d: sharing map %d has refcount %d" m.map_id sm.map_id
        sm.map_ref

let rec check_map_rec sys errs ~in_submap m =
  let last_end = ref min_int in
  List.iter
    (fun e ->
       if e.e_start < !last_end then
         note errs "map %d: overlapping/unsorted entries at %x" m.map_id
           e.e_start;
       last_end := e.e_end;
       check_entry sys errs ~in_submap m e)
    (Vm_map.entries m);
  (* Recurse into referenced structures. *)
  List.iter
    (fun e ->
       match e.e_backing with
       | No_backing -> ()
       | Backed o ->
         check_chain errs o;
         List.iter
           (fun o' -> check_object_structure sys errs o')
           (collect_objects [] o)
       | Submap sm -> check_map_rec sys errs ~in_submap:true sm)
    (Vm_map.entries m)

let check_map sys m =
  let errs = ref [] in
  check_map_rec sys errs ~in_submap:false m;
  List.rev !errs

let check_resident sys =
  let errs = ref [] in
  let res = sys.Vm_sys.resident in
  let counted =
    Resident.free_count res + Resident.active_count res
    + Resident.inactive_count res
  in
  if counted > Resident.total_pages res then
    note errs "queues hold %d pages of %d total" counted
      (Resident.total_pages res);
  (* Free pages belong to no object, are not wired, and no hardware
     mapping of them survives. *)
  Resident.iter_free res (fun p ->
      (match p.pg_obj with
       | Some o ->
         note errs "free page pfn=%d still owned by object %d" p.pfn
           o.obj_id
       | None -> ());
      if p.pg_wire_count <> 0 then
        note errs "free page pfn=%d wired" p.pfn;
      let n = Pmap_domain.mapping_count sys.Vm_sys.domain ~pfn:p.pfn in
      if n > 0 then
        note errs "free page pfn=%d retains %d mappings" p.pfn n);
  List.rev_append !errs (Resident.conservation_errors res)

(* Every pv record must be confirmed by the owning pmap's pmap_extract
   on every frame of its page — the two layers may never disagree, and
   no page is ever partly mapped. *)
let check_pv sys =
  let errs = ref [] in
  let domain = sys.Vm_sys.domain and phys = Machine.phys sys.Vm_sys.machine in
  let hw = Phys_mem.page_size phys and m = Pmap_domain.page_multiple domain in
  for page = 0 to (Phys_mem.frame_count phys / m) - 1 do
    List.iter
      (fun (asid, vpn) ->
         for j = 0 to m - 1 do
           let pfn = (page * m) + j in
           match Pmap_domain.find_pmap domain ~asid with
           | None -> note errs "frame %d mapped by destroyed pmap %d" pfn asid
           | Some p when p.Pmap.extract ((vpn + j) * hw) <> Some pfn ->
             note errs "pv says asid %d maps vpn %d -> frame %d, pmap does not"
               asid (vpn + j) pfn
           | Some _ -> ()
         done)
      (Pmap_domain.mappings_of domain ~pfn:(page * m))
  done;
  List.rev !errs

(* Every live TLB entry is backed by its pmap, with rights no wider
   than the pmap's: what lets pmap_enter and pmap_protect skip the
   shootdown when a translation only gains rights. *)
let check_tlb sys =
  List.map
    (fun (cpu, (e : Tlb.entry)) ->
       spf "cpu %d caches asid %d vpn %d -> frame %d %s beyond its pmap" cpu
         e.Tlb.asid e.Tlb.vpn e.Tlb.pfn (Prot.to_string e.Tlb.prot))
    (Machine.tlb_overreach sys.Vm_sys.machine)

(* A burst record awaiting its outcome is keyed by its page's pfn, and
   its address space still maps that page, which an object still owns:
   dropping a mapping or freeing the page settles the record first. *)
let check_burst sys =
  let errs = ref [] in
  Mach_util.Int_pair.Tbl.iter
    (fun (asid, pfn) (b : Vm_sys.burst) ->
       let p = b.Vm_sys.b_page in
       if pfn <> p.pfn then
         note errs "burst record (asid %d, pfn %d) names page pfn=%d" asid
           pfn p.pfn;
       if
         not
           (List.exists
              (fun (a, _) -> a = asid)
              (Pmap_domain.mappings_of sys.Vm_sys.domain ~pfn:p.pfn))
       then note errs "burst record (asid %d, pfn %d) is not mapped" asid pfn;
       if Option.is_none p.pg_obj then
         note errs "burst record (asid %d, pfn %d) outlives its object" asid
           pfn)
    sys.Vm_sys.burst_pending;
  List.rev !errs

(* A page riding a disk stamp is busy until it is awaited, and is a page
   of a live object that still finds it at its offset: freeing or
   removing the page settles the stamp first, so no stamp outlives its
   object. *)
let check_inflight sys =
  let errs = ref [] in
  let res = sys.Vm_sys.resident in
  Resident.iter_pages res (fun p ->
      match p.pg_inflight with
      | None -> ()
      | Some _ ->
        if not p.pg_busy then
          note errs "page pfn=%d rides a disk stamp but is not busy" p.pfn;
        (match p.pg_obj with
         | Some o when not o.obj_dead ->
           (match Resident.lookup res ~obj:o ~offset:p.pg_offset with
            | Some q when q == p -> ()
            | Some _ | None ->
              note errs "page pfn=%d rides a disk stamp outside object %d"
                p.pfn o.obj_id)
         | Some o ->
           note errs "page pfn=%d rides a disk stamp in dead object %d" p.pfn
             o.obj_id
         | None ->
           note errs "page pfn=%d rides a disk stamp but has no object" p.pfn));
  List.rev !errs

(* The swap pool's usage is exactly the bytes its stores hold. *)
let check_swap sys =
  let stored =
    Hashtbl.fold
      (fun _ store acc ->
         Hashtbl.fold (fun _ b acc -> acc + Bytes.length b) store acc)
      sys.Vm_sys.swap_stores 0
  in
  let used = sys.Vm_sys.stats.Vm_stats.vs_swap_used in
  if used = stored then []
  else [ spf "swap_used %d <> stored chunk bytes %d" used stored ]

(* Live and cached pager-backed objects, mapped or not. *)
let check_pager_objects sys =
  let errs = ref [] in
  Hashtbl.iter
    (fun _ o -> check_object_structure sys errs o)
    sys.Vm_sys.pager_objects;
  List.rev !errs

let check_all sys ~maps =
  List.concat_map (check_map sys) maps
  @ check_resident sys @ check_pv sys @ check_tlb sys @ check_burst sys
  @ check_inflight sys @ check_swap sys @ check_pager_objects sys

let pp_object sys ppf o =
  let rec chain ppf o =
    Format.fprintf ppf "obj%d[%s%s%s ref=%d pages=%d size=%dK]" o.obj_id
      (if o.obj_temporary then "anon" else "pager")
      (if o.obj_cached then " cached" else "")
      (if o.obj_readonly then " ro" else "")
      o.obj_ref
      (List.length (Resident.object_pages o))
      (o.obj_size / 1024);
    match o.obj_shadow with
    | None -> ()
    | Some next ->
      Format.fprintf ppf " -> +%d " o.obj_shadow_offset;
      chain ppf next
  in
  ignore sys;
  chain ppf o

let pp_map sys ppf m =
  Format.fprintf ppf "map %d [%x..%x) ref=%d %s@\n" m.map_id m.map_low
    m.map_high m.map_ref
    (match m.map_pmap with
     | Some p -> Printf.sprintf "pmap asid=%d" p.Pmap.asid
     | None -> "(sharing map)");
  List.iter
    (fun e ->
       Format.fprintf ppf "  %08x-%08x %s/%s %-6s%s " e.e_start e.e_end
         (Prot.to_string e.e_prot)
         (Prot.to_string e.e_max_prot)
         (Inheritance.to_string e.e_inherit)
         (if e.e_needs_copy then " cow" else "");
       (match e.e_backing with
        | No_backing -> Format.fprintf ppf "(untouched)"
        | Backed o ->
          Format.fprintf ppf "@%d %a" e.e_offset (pp_object sys) o
        | Submap sm ->
          Format.fprintf ppf "@%d sharing-map %d (%d entries, ref=%d)"
            e.e_offset sm.map_id (Vm_map.entry_count sm) sm.map_ref);
       Format.fprintf ppf "@\n")
    (Vm_map.entries m)

let dump_map sys m = Format.asprintf "%a" (pp_map sys) m

let assert_ok sys ~maps =
  match check_all sys ~maps with
  | [] -> ()
  | errs ->
    failwith
      (spf "VM invariant violations:\n%s" (String.concat "\n" errs))

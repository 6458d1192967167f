open Mach_util
open Mach_hw
open Types
open Mach_pmap

(* ---- alignment helpers ---------------------------------------------- *)

let page_trunc (sys : Vm_sys.t) addr = addr - (addr mod sys.Vm_sys.page_size)

let page_round (sys : Vm_sys.t) size =
  let ps = sys.Vm_sys.page_size in
  (size + ps - 1) / ps * ps

(* The whole pages [\[lo, hi)] that [\[addr, addr + size)] touches. *)
let page_span sys ~addr ~size =
  let lo = page_trunc sys addr in
  (lo, lo + page_round sys (size + (addr - lo)))

(* ---- construction ---------------------------------------------------- *)

let create sys ~pmap ~low ~high =
  {
    map_id = Vm_sys.fresh_map_id sys;
    map_entries = Dlist.create ();
    map_hint = None;
    map_pmap = pmap;
    map_ref = 1;
    map_low = low;
    map_high = high;
  }

let reference m = m.map_ref <- m.map_ref + 1

let entry_count m = Dlist.length m.map_entries

let entries m = Dlist.to_list m.map_entries

(* ---- entry search ---------------------------------------------------- *)

let contains e va = va >= e.e_start && va < e.e_end

(* The paper: fast lookup on faults is achieved by keeping last-fault
   hints, searching from the last entry found. *)
let find_node m ~va =
  let hit node =
    m.map_hint <- Some node;
    Some node
  in
  let scan_from start =
    let rec loop = function
      | None -> None
      | Some node ->
        let e = Dlist.value node in
        if contains e va then hit node
        else if e.e_start > va then None
        else loop (Dlist.next node)
    in
    loop start
  in
  match m.map_hint with
  | Some node when Dlist.linked node ->
    let e = Dlist.value node in
    if contains e va then hit node
    else if va >= e.e_end then scan_from (Dlist.next node)
    else scan_from (Dlist.first m.map_entries)
  | Some _ | None -> scan_from (Dlist.first m.map_entries)

let find m ~va =
  match find_node m ~va with
  | None -> None
  | Some node -> Some (Dlist.value node)

(* First entry whose end lies beyond [va] (i.e. containing or after).
   Mirrors the [find_node] fast path: when the last-fault hint sits
   at-or-before [va] the scan starts there instead of at the list head,
   so range operations near the hint are O(distance), not O(map). *)
let first_node_beyond (sys : Vm_sys.t) m ~va =
  let rec loop = function
    | None -> None
    | Some node ->
      sys.Vm_sys.map_scan_steps <- sys.Vm_sys.map_scan_steps + 1;
      if (Dlist.value node).e_end > va then Some node
      else loop (Dlist.next node)
  in
  let start =
    match m.map_hint with
    | Some node when Dlist.linked node && (Dlist.value node).e_start <= va ->
      Some node
    | Some _ | None -> Dlist.first m.map_entries
  in
  loop start

(* ---- backing reference management ------------------------------------ *)

let backing_ref = function
  | No_backing -> ()
  | Backed o -> Vm_object.reference o
  | Submap sm -> reference sm

let rec backing_unref sys = function
  | No_backing -> ()
  | Backed o -> Vm_object.deallocate sys o
  | Submap sm -> deallocate sys sm

(* ---- entry insertion and removal ------------------------------------- *)

and make_entry ~start_ ~end_ ~backing ~offset ~prot ~max_prot ~inherit_
    ~needs_copy =
  {
    e_start = start_;
    e_end = end_;
    e_backing = backing;
    e_offset = offset;
    e_prot = prot;
    e_max_prot = max_prot;
    e_inherit = inherit_;
    e_needs_copy = needs_copy;
    e_wired = false;
    e_burst_window = max_int;
    e_burst_skip = 0;
    e_burst_gap = 1;
    e_burst_hits = 0;
    e_burst_misses = 0;
  }

and insert_entry sys m e =
  (* Keep the list sorted; ranges never overlap. *)
  match first_node_beyond sys m ~va:e.e_start with
  | None -> ignore (Dlist.push_back m.map_entries e)
  | Some node ->
    assert ((Dlist.value node).e_start >= e.e_end);
    ignore (Dlist.insert_before m.map_entries node e)

and remove_entry sys m node ~unmap =
  let e = Dlist.value node in
  (match m.map_hint with
   | Some h when h == node -> m.map_hint <- None
   | Some _ | None -> ());
  Dlist.remove m.map_entries node;
  (match m.map_pmap with
   | Some pmap when unmap ->
     pmap.Pmap.remove ~start_va:e.e_start ~end_va:e.e_end
   | Some _ | None -> ());
  backing_unref sys e.e_backing

and deallocate sys m =
  assert (m.map_ref > 0);
  m.map_ref <- m.map_ref - 1;
  if m.map_ref = 0 then begin
    Dlist.iter_nodes (fun node -> remove_entry sys m node ~unmap:false) m.map_entries;
    match m.map_pmap with
    | Some pmap -> pmap.Pmap.destroy ()
    | None -> ()
  end

(* ---- clipping --------------------------------------------------------- *)

(* A new entry over [\[start_, end_)] with [e]'s attributes and one more
   reference to its backing, [offset] bytes into it: the piece a clip
   splits off [e]. *)
let split_piece e ~start_ ~end_ ~offset =
  let piece =
    make_entry ~start_ ~end_ ~backing:e.e_backing ~offset ~prot:e.e_prot
      ~max_prot:e.e_max_prot ~inherit_:e.e_inherit ~needs_copy:e.e_needs_copy
  in
  piece.e_wired <- e.e_wired;
  backing_ref e.e_backing;
  piece

(* Split [e] so that it starts exactly at [addr]; the piece before [addr]
   becomes a new entry.  No-op when [addr] is outside (or at the start
   of) [e]. *)
let clip_start m node addr =
  let e = Dlist.value node in
  if addr > e.e_start && addr < e.e_end then begin
    let left = split_piece e ~start_:e.e_start ~end_:addr ~offset:e.e_offset in
    e.e_offset <- e.e_offset + (addr - e.e_start);
    e.e_start <- addr;
    ignore (Dlist.insert_before m.map_entries node left)
  end

(* Split [e] so that it ends exactly at [addr]; the piece from [addr]
   onward becomes a new entry. *)
let clip_end m node addr =
  let e = Dlist.value node in
  if addr > e.e_start && addr < e.e_end then begin
    let right =
      split_piece e ~start_:addr ~end_:e.e_end
        ~offset:(e.e_offset + (addr - e.e_start))
    in
    e.e_end <- addr;
    ignore (Dlist.insert_after m.map_entries node right)
  end

(* Apply [f] to every entry node overlapping [lo, hi), clipped exactly to
   the range.  [f] may remove the node. *)
let iter_range_clipped sys m ~lo ~hi f =
  let rec loop node_opt =
    match node_opt with
    | None -> ()
    | Some node ->
      let e = Dlist.value node in
      if e.e_start >= hi then ()
      else begin
        clip_start m node lo;
        clip_end m node hi;
        let next = Dlist.next node in
        f node;
        loop next
      end
  in
  loop (first_node_beyond sys m ~va:lo)

(* ---- free-space search ------------------------------------------------ *)

let find_space m ~size ~hint_addr =
  let cursor = ref (max m.map_low hint_addr) in
  let result = ref None in
  let check_gap limit =
    if !result = None && !cursor + size <= limit then result := Some !cursor
  in
  Dlist.iter
    (fun e ->
       check_gap e.e_start;
       if e.e_end > !cursor then cursor := e.e_end)
    m.map_entries;
  check_gap m.map_high;
  !result

let range_free sys m ~lo ~hi =
  match first_node_beyond sys m ~va:lo with
  | None -> true
  | Some node -> (Dlist.value node).e_start >= hi

(* ---- allocation ------------------------------------------------------- *)

let default_max_prot = Prot.all

(* Where [size] bytes go: with [anywhere], the first fit at or above [at]
   (or the bottom), retried from the bottom if [at] was above it;
   otherwise exactly at [at], which must lie in the map and be free. *)
let place sys m ~at ~size ~anywhere =
  if anywhere then begin
    let hint_addr =
      match at with Some a -> page_trunc sys a | None -> m.map_low
    in
    match find_space m ~size ~hint_addr with
    | Some addr -> Ok addr
    | None when hint_addr <= m.map_low -> Error Kr.No_space
    | None ->
      (match find_space m ~size ~hint_addr:m.map_low with
       | Some addr -> Ok addr
       | None -> Error Kr.No_space)
  end
  else
    match at with
    | None -> Error Kr.Invalid_argument
    | Some a ->
      let a = page_trunc sys a in
      if a < m.map_low || a + size > m.map_high then Error Kr.Invalid_address
      else if range_free sys m ~lo:a ~hi:(a + size) then Ok a
      else Error Kr.No_space

(* A read/write region of [backing] from [offset], placed by [place]. *)
let alloc_common sys m ~at ~size ~anywhere ~backing ~offset =
  if size <= 0 then Error Kr.Invalid_argument
  else begin
    let size = page_round sys size in
    match place sys m ~at ~size ~anywhere with
    | Error _ as e -> e
    | Ok addr ->
      let e =
        make_entry ~start_:addr ~end_:(addr + size) ~backing ~offset
          ~prot:Prot.read_write ~max_prot:default_max_prot
          ~inherit_:Inheritance.default ~needs_copy:false
      in
      insert_entry sys m e;
      Ok addr
  end

let allocate sys m ?at ~size ~anywhere () =
  alloc_common sys m ~at ~size ~anywhere ~backing:No_backing ~offset:0

(* Write-protect, in every pmap, the resident pages of [o] whose offsets
   lie in [lo, hi): the pmap_copy_on_write operation of Table 3-3 applied
   over a range. *)
let cow_protect sys o ~lo ~hi =
  List.iter
    (fun p ->
       if p.pg_offset >= lo && p.pg_offset < hi then
         Pmap_domain.copy_on_write sys.Vm_sys.domain ~pfn:p.pfn)
    (Resident.object_pages o)

let allocate_object sys m o ~offset ~size =
  alloc_common sys m ~at:None ~size ~anywhere:true ~backing:(Backed o) ~offset

let deallocate_range sys m ~addr ~size =
  if size < 0 then Error Kr.Invalid_argument
  else begin
    let lo, hi = page_span sys ~addr ~size in
    iter_range_clipped sys m ~lo ~hi (fun node ->
        remove_entry sys m node ~unmap:true);
    Ok ()
  end

(* ---- protection and inheritance -------------------------------------- *)

let pmap_protect_range m e prot =
  match m.map_pmap with
  | Some pmap ->
    pmap.Pmap.protect ~start_va:e.e_start ~end_va:e.e_end ~prot
  | None -> ()

let protect sys m ~addr ~size ~set_max ~prot =
  if size < 0 then Error Kr.Invalid_argument
  else begin
    let lo, hi = page_span sys ~addr ~size in
    (* Validate before mutating: raising current protection beyond the
       maximum fails as a whole. *)
    let ok = ref true in
    let rec validate node_opt =
      match node_opt with
      | None -> ()
      | Some node ->
        let e = Dlist.value node in
        if e.e_start < hi then begin
          if (not set_max) && not (Prot.subset prot ~of_:e.e_max_prot) then
            ok := false;
          validate (Dlist.next node)
        end
    in
    validate (first_node_beyond sys m ~va:lo);
    if not !ok then Error Kr.Protection_failure
    else begin
      iter_range_clipped sys m ~lo ~hi (fun node ->
          let e = Dlist.value node in
          if set_max then begin
            e.e_max_prot <- Prot.inter e.e_max_prot prot;
            if not (Prot.subset e.e_prot ~of_:e.e_max_prot) then begin
              e.e_prot <- Prot.inter e.e_prot e.e_max_prot;
              pmap_protect_range m e e.e_prot
            end
          end
          else begin
            let old = e.e_prot in
            e.e_prot <- prot;
            (* Hardware permissions only ever shrink here; raising takes
               effect lazily through faults, so an entry that loses no
               right leaves the pmap alone. *)
            if not (Prot.subset old ~of_:prot) then
              pmap_protect_range m e prot
          end);
      Ok ()
    end
  end

let set_inheritance sys m ~addr ~size inh =
  if size < 0 then Error Kr.Invalid_argument
  else begin
    let lo, hi = page_span sys ~addr ~size in
    iter_range_clipped sys m ~lo ~hi (fun node ->
        (Dlist.value node).e_inherit <- inh);
    Ok ()
  end

type region_info = {
  ri_start : int;
  ri_end : int;
  ri_prot : Prot.t;
  ri_max_prot : Prot.t;
  ri_inherit : Inheritance.t;
  ri_shared : bool;
  ri_needs_copy : bool;
}

let regions m =
  List.map
    (fun e ->
       {
         ri_start = e.e_start;
         ri_end = e.e_end;
         ri_prot = e.e_prot;
         ri_max_prot = e.e_max_prot;
         ri_inherit = e.e_inherit;
         ri_shared = is_submap e;
         ri_needs_copy = e.e_needs_copy;
       })
    (entries m)

(* ---- sharing maps ----------------------------------------------------- *)

(* Convert [e]'s backing into a sharing map holding the old backing, so
   that the region can be shared read/write across address maps. *)
let ensure_submap sys e =
  match e.e_backing with
  | Submap sm -> sm
  | (Backed _ | No_backing) as old ->
    let size = entry_size e in
    let sm = create sys ~pmap:None ~low:0 ~high:size in
    insert_entry sys sm
      (make_entry ~start_:0 ~end_:size ~backing:old ~offset:e.e_offset
         ~prot:e.e_prot ~max_prot:e.e_max_prot ~inherit_:e.e_inherit
         ~needs_copy:e.e_needs_copy);
    e.e_backing <- Submap sm; (* the old backing reference moved into sm *)
    e.e_offset <- 0;
    e.e_needs_copy <- false;
    sm

(* ---- virtual copies (fork's Copy, vm_copy, out-of-line data) -------- *)

type copy_item = { ci_obj : obj option; ci_offset : int; ci_size : int }

type map_copy = { mc_items : copy_item list; mc_size : int }

(* Capture [e] copy-on-write, consing its pieces onto [acc] (the last one
   first): one piece for a plain entry, and for a sharing map's entry one
   per sub-entry of its window, clipped so needs-copy marks exactly the
   window (sharing maps are never nested, Section 3.4).  A backed piece
   takes an object reference, has its resident pages write-protected in
   every pmap and is marked needs-copy. *)
let rec capture sys e acc =
  match e.e_backing with
  | No_backing ->
    { ci_obj = None; ci_offset = 0; ci_size = entry_size e } :: acc
  | Backed o ->
    let lo = e.e_offset and size = entry_size e in
    Vm_object.reference o;
    cow_protect sys o ~lo ~hi:(lo + size);
    e.e_needs_copy <- true;
    { ci_obj = Some o; ci_offset = lo; ci_size = size } :: acc
  | Submap sm ->
    let acc = ref acc in
    iter_range_clipped sys sm ~lo:e.e_offset ~hi:(e.e_offset + entry_size e)
      (fun node -> acc := capture sys (Dlist.value node) !acc);
    !acc

(* Map [items] back to back from [start] with the given rights, consuming
   their references; each backed piece is needs-copy. *)
let place_items sys m ~start ~prot ~max_prot ~inherit_ items =
  ignore
    (List.fold_left
       (fun start item ->
          let backing, offset, needs_copy =
            match item.ci_obj with
            | None -> (No_backing, 0, false)
            | Some o -> (Backed o, item.ci_offset, true)
          in
          let end_ = start + item.ci_size in
          insert_entry sys m
            (make_entry ~start_:start ~end_ ~backing ~offset ~prot ~max_prot
               ~inherit_ ~needs_copy);
          end_)
       start items)

let fork sys parent ~child_pmap =
  let child =
    create sys ~pmap:(Some child_pmap) ~low:parent.map_low
      ~high:parent.map_high
  in
  List.iter
    (fun e ->
       match e.e_inherit with
       | Inheritance.None_ -> ()
       | Inheritance.Shared ->
         let sm = ensure_submap sys e in
         reference sm;
         insert_entry sys child
           (make_entry ~start_:e.e_start ~end_:e.e_end ~backing:(Submap sm)
              ~offset:e.e_offset ~prot:e.e_prot ~max_prot:e.e_max_prot
              ~inherit_:e.e_inherit ~needs_copy:false)
       | Inheritance.Copy ->
         place_items sys child ~start:e.e_start ~prot:e.e_prot
           ~max_prot:e.e_max_prot ~inherit_:e.e_inherit
           (List.rev (capture sys e [])))
    (entries parent);
  (* Optionally pre-load the child's pmap from the parent's via the
     Table 3-4 pmap_copy routine (write permission stripped, so
     copy-on-write semantics are untouched): the child then starts
     without reload faults on inherited pages. *)
  if sys.Vm_sys.pmap_prewarm_on_fork then begin
    match parent.map_pmap with
    | Some src ->
      (match src.Pmap.copy with
       | Some pmap_copy ->
         Dlist.iter
           (fun e ->
              pmap_copy ~dst:child_pmap ~dst_start:e.e_start
                ~len:(entry_size e) ~src_start:e.e_start)
           child.map_entries
       | None -> ())
    | None -> ()
  end;
  child

(* ---- fault-path lookup ------------------------------------------------ *)

type fault_lookup = {
  fl_map : vmap;
  fl_entry : entry;
  fl_offset : int;
  fl_prot : Prot.t;
  fl_va_end : int;
}

let lookup_fault _sys m ~va ~write =
  match find m ~va with
  | None -> Error Kr.Invalid_address
  | Some e ->
    if not (Prot.allows e.e_prot ~write) then Error Kr.Protection_failure
    else begin
      match e.e_backing with
      | Backed _ | No_backing ->
        Ok
          { fl_map = m; fl_entry = e; fl_offset = entry_offset_of e va;
            fl_prot = e.e_prot; fl_va_end = e.e_end }
      | Submap sm ->
        let off = entry_offset_of e va in
        (match find sm ~va:off with
         | None -> Error Kr.Invalid_address
         | Some s ->
           let prot = Prot.inter e.e_prot s.e_prot in
           if not (Prot.allows prot ~write) then
             Error Kr.Protection_failure
           else
             Ok
               { fl_map = sm; fl_entry = s;
                 fl_offset = entry_offset_of s off; fl_prot = prot;
                 (* [s] lives in the sharing map's address space *)
                 fl_va_end = min e.e_end (va + (s.e_end - off)) })
    end

let resolve_object_at _sys m ~va =
  match find m ~va with
  | None -> None
  | Some e ->
    (match e.e_backing with
     | Backed o -> Some (o, entry_offset_of e va)
     | No_backing -> None
     | Submap sm ->
       let off = entry_offset_of e va in
       (match find sm ~va:off with
        | Some ({ e_backing = Backed o; _ } as s) ->
          Some (o, entry_offset_of s off)
        | Some _ | None -> None))

let copy_size c = c.mc_size

let extract_copy sys m ~addr ~size =
  if size <= 0 then Error Kr.Invalid_argument
  else begin
    let lo, hi = page_span sys ~addr ~size in
    (* The whole range must be allocated. *)
    let covered = ref lo in
    let rec check node_opt =
      match node_opt with
      | None -> ()
      | Some node ->
        let e = Dlist.value node in
        if e.e_start <= !covered && e.e_end > !covered then begin
          covered := e.e_end;
          if !covered < hi then check (Dlist.next node)
        end
    in
    check (first_node_beyond sys m ~va:lo);
    if !covered < hi then Error Kr.Invalid_address
    else begin
      let items = ref [] in
      iter_range_clipped sys m ~lo ~hi (fun node ->
          items := capture sys (Dlist.value node) !items);
      Ok { mc_items = List.rev !items; mc_size = hi - lo }
    end
  end

let insert_copy sys m c ?at () =
  match place sys m ~at ~size:c.mc_size ~anywhere:(Option.is_none at) with
  | Error _ as e -> e
  | Ok base ->
    place_items sys m ~start:base ~prot:Prot.read_write
      ~max_prot:default_max_prot ~inherit_:Inheritance.default c.mc_items;
    Ok base

let discard_copy sys c =
  List.iter
    (fun item ->
       match item.ci_obj with
       | Some o -> Vm_object.deallocate sys o
       | None -> ())
    c.mc_items

(* Generic pmap built from lazily-constructed linear page tables.

   The VAX keeps page tables in physical memory; the solution the paper
   chose "was to keep page tables in physical memory, but only to construct
   those parts of the table which were needed to actually map virtual to
   real addresses for pages currently in use" (Section 5.1).  The NS32082
   uses two-level tables with the same character plus hard virtual and
   physical address limits.  Both are instances of this module: a hash of
   page-table pages, each covering [ptes_per_page] consecutive virtual
   pages, created on first use and garbage collected when empty. *)

open Mach_hw

type pte = {
  mutable p_pfn : int;
  mutable p_prot : Prot.t;
  mutable p_valid : bool;
  mutable p_wired : bool;
}

type tpage = { ptes : pte array; mutable valid_count : int }

let make (ctx : Backend.ctx) ~kind ~va_limit ~top_bytes
    ?(pfn_ok = fun _ -> true) () =
  let asid = Backend.fresh_asid ctx in
  let stats = Pmap.fresh_stats () in
  let presence = Backend.fresh_presence ctx in
  let page = Backend.page_size ctx in
  let pte_bytes = (Backend.arch ctx).Arch.pte_bytes in
  let ptes_per_page = page / pte_bytes in
  let tables : (int, tpage) Hashtbl.t = Hashtbl.create 16 in
  let resident = ref 0 in

  let fresh_pte () =
    { p_pfn = 0; p_prot = Prot.none; p_valid = false; p_wired = false }
  in
  let find_pte vpn =
    match Hashtbl.find_opt tables (vpn / ptes_per_page) with
    | None -> None
    | Some tp -> Some tp.ptes.(vpn mod ptes_per_page)
  in
  let find_or_create_tpage vpn =
    let idx = vpn / ptes_per_page in
    match Hashtbl.find_opt tables idx with
    | Some tp -> tp
    | None ->
      (* Constructing a page-table page costs a page zero. *)
      Backend.charge ctx (Backend.move_cost ctx page);
      let tp =
        { ptes = Array.init ptes_per_page (fun _ -> fresh_pte ());
          valid_count = 0 }
      in
      Hashtbl.add tables idx tp;
      tp
  in

  (* Invalidate one pte; the caller decides how to flush. *)
  let invalidate_pte vpn pte =
    assert pte.p_valid;
    pte.p_valid <- false;
    Backend.pv_remove ctx ~pfn:pte.p_pfn ~asid ~vpn;
    Backend.charge ctx (Backend.cost ctx).Arch.pte_write;
    decr resident;
    stats.Pmap.removals <- stats.Pmap.removals + 1;
    let idx = vpn / ptes_per_page in
    match Hashtbl.find_opt tables idx with
    | None -> assert false
    | Some tp ->
      tp.valid_count <- tp.valid_count - 1;
      if tp.valid_count = 0 then Hashtbl.remove tables idx
  in

  let install vpn ~pfn ~prot ~wired =
    let tp = find_or_create_tpage vpn in
    let pte = tp.ptes.(vpn mod ptes_per_page) in
    assert (not pte.p_valid);
    pte.p_pfn <- pfn;
    pte.p_prot <- prot;
    pte.p_valid <- true;
    pte.p_wired <- wired;
    tp.valid_count <- tp.valid_count + 1;
    incr resident;
    Backend.pv_insert ctx ~pfn ~asid ~vpn
  in

  let enter ~va ~pfn ~prot ~wired =
    if va < 0 || va >= va_limit then
      invalid_arg "pmap_enter: virtual address beyond hardware limit";
    if not (pfn_ok pfn) then
      invalid_arg "pmap_enter: physical page beyond hardware limit";
    let vpn = va / page in
    (* TLBs need invalidating only when a previously valid translation
       changes; fresh entries cannot be cached anywhere. *)
    (match find_pte vpn with
     | Some pte when pte.p_valid && pte.p_pfn = pfn ->
       (* Same frame: update protection in place. *)
       let old = pte.p_prot in
       pte.p_prot <- prot;
       pte.p_wired <- wired;
       Backend.reenter ctx presence ~asid ~vpn ~old ~prot
     | Some pte when pte.p_valid ->
       invalidate_pte vpn pte;
       Backend.shoot_page ctx presence ~asid ~vpn;
       install vpn ~pfn ~prot ~wired
     | Some _ | None -> install vpn ~pfn ~prot ~wired);
    Backend.charge ctx (Backend.cost ctx).Arch.pte_write;
    stats.Pmap.enters <- stats.Pmap.enters + 1
  in

  (* Visit the valid ptes whose vpn lies in [lo, hi); [f vpn pte] may
     invalidate the pte.  Iterates existing table pages, not the raw
     virtual range, so sparse spaces stay cheap. *)
  let iter_valid_in_range lo hi f =
    let idxs =
      Hashtbl.fold
        (fun idx _ acc ->
           let first_vpn = idx * ptes_per_page in
           let last_vpn = first_vpn + ptes_per_page - 1 in
           if last_vpn >= lo && first_vpn < hi then idx :: acc else acc)
        tables []
      |> List.sort compare
    in
    let visit idx =
      match Hashtbl.find_opt tables idx with
      | None -> ()
      | Some tp ->
        for i = 0 to ptes_per_page - 1 do
          let vpn = (idx * ptes_per_page) + i in
          let pte = tp.ptes.(i) in
          if vpn >= lo && vpn < hi && pte.p_valid then f vpn pte
        done
    in
    List.iter visit idxs
  in

  (* The batch accumulator coalesces the per-page shootdowns into one
     exchange (and promotes to a whole-space flush past the threshold);
     with batching off each page goes out as its own shootdown. *)
  let range_op ~start_va ~end_va f =
    let lo = start_va / page in
    let hi = (end_va + page - 1) / page in
    Backend.batched ctx (fun () -> iter_valid_in_range lo hi f)
  in

  let remove ~start_va ~end_va =
    range_op ~start_va ~end_va (fun vpn pte ->
        invalidate_pte vpn pte;
        Backend.shoot_page ctx presence ~asid ~vpn)
  in

  let protect ~start_va ~end_va ~prot =
    stats.Pmap.protect_ops <- stats.Pmap.protect_ops + 1;
    range_op ~start_va ~end_va (fun vpn pte ->
        Backend.lower ctx presence ~asid ~vpn ~old:pte.p_prot ~prot
          ~set:(fun reduced -> pte.p_prot <- reduced))
  in

  let extract va =
    match find_pte (va / page) with
    | Some pte when pte.p_valid -> Some pte.p_pfn
    | Some _ | None -> None
  in

  let lookup vpn =
    match find_pte vpn with
    | Some pte when pte.p_valid ->
      Translator.Mapped { pfn = pte.p_pfn; prot = pte.p_prot }
    | Some _ | None -> Translator.Missing
  in
  let translator =
    { Translator.asid; lookup;
      walk_cost = (Backend.cost ctx).Arch.tlb_fill; hw_walk = true }
  in

  (* Drop every non-wired mapping: the pmap-as-cache behaviour. *)
  let collect () =
    let dropped = ref 0 in
    iter_valid_in_range 0 max_int (fun vpn pte ->
        if not pte.p_wired then begin
          invalidate_pte vpn pte;
          incr dropped
        end);
    stats.Pmap.cache_drops <- stats.Pmap.cache_drops + !dropped;
    if !dropped > 0 then Backend.shoot_asid ctx presence ~asid
  in

  let destroy () =
    iter_valid_in_range 0 max_int (fun vpn pte -> invalidate_pte vpn pte);
    Backend.shoot_asid ctx presence ~asid;
    Hashtbl.reset tables
  in

  let map_bytes () = top_bytes + (Hashtbl.length tables * page) in

  (* pmap_copy (Table 3-4, optional): duplicate valid mappings into a
     destination pmap so it avoids its initial faults.  Write permission
     is stripped — the typical caller is fork, where the child's data
     must stay copy-on-write until its first write fault. *)
  let copy ~dst ~dst_start ~len ~src_start =
    let lo = src_start / page in
    let hi = (src_start + len + page - 1) / page in
    iter_valid_in_range lo hi (fun vpn pte ->
        let va = dst_start + ((vpn * page) - src_start) in
        dst.Pmap.enter ~va ~pfn:pte.p_pfn
          ~prot:(Prot.remove_write pte.p_prot) ~wired:false)
  in

  {
    Pmap.asid;
    kind;
    (* real reference counting is installed by Pmap_domain *)
    reference = (fun () -> ());
    enter;
    remove;
    protect;
    extract;
    activate = (fun ~cpu -> Backend.activate ctx presence translator ~cpu);
    deactivate =
      (fun ~cpu -> Backend.deactivate ctx presence translator ~cpu);
    copy = Some copy;
    resident_count = (fun () -> !resident);
    map_bytes;
    collect;
    destroy;
    stats;
  }

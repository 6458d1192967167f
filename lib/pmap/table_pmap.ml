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
module Int_tbl = Mach_util.Int_tbl

type pte = {
  mutable p_pfn : int;
  mutable p_prot : Prot.t;
  mutable p_valid : bool;
  mutable p_wired : bool;
}

type tpage = { ptes : pte array; mutable valid_count : int }

(* The existing table pages covering [lo, hi), ascending: looked up one
   by one when there are no more of them than tables, else picked out of
   a scan of the tables, so sparse spaces stay cheap either way. *)
let covering tables ~ptes_per_page lo hi =
  let first = lo / ptes_per_page and last = (hi - 1) / ptes_per_page in
  if last - first < Int_tbl.length tables then
    List.init (max 0 (last - first + 1)) (( + ) first)
    |> List.filter_map (fun idx ->
        Option.map (fun tp -> (idx, tp)) (Int_tbl.find_opt tables idx))
  else
    Int_tbl.fold
      (fun idx tp acc ->
         if idx >= first && idx <= last then (idx, tp) :: acc else acc)
      tables []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let make (ctx : Backend.ctx) ~va_limit ~top_bytes ~pfn_ok () =
  let sh = Backend.shell ctx in
  let asid = sh.Backend.asid and stats = sh.Backend.stats in
  let page = Backend.page_size ctx in
  let pte_bytes = (Backend.arch ctx).Arch.pte_bytes in
  let ptes_per_page = page / pte_bytes in
  let tables : tpage Int_tbl.t = Int_tbl.create 16 in
  let resident = ref 0 in

  let fresh_pte () =
    { p_pfn = 0; p_prot = Prot.none; p_valid = false; p_wired = false }
  in
  let find_pte vpn =
    match Int_tbl.find_opt tables (vpn / ptes_per_page) with
    | None -> None
    | Some tp -> Some tp.ptes.(vpn mod ptes_per_page)
  in
  let find_or_create_tpage vpn =
    let idx = vpn / ptes_per_page in
    match Int_tbl.find_opt tables idx with
    | Some tp -> tp
    | None ->
      (* Constructing a page-table page costs a page zero. *)
      Backend.charge ctx (Backend.move_cost ctx page);
      let tp =
        { ptes = Array.init ptes_per_page (fun _ -> fresh_pte ());
          valid_count = 0 }
      in
      Int_tbl.add tables idx tp;
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
    match Int_tbl.find_opt tables idx with
    | None -> assert false
    | Some tp ->
      tp.valid_count <- tp.valid_count - 1;
      if tp.valid_count = 0 then Int_tbl.remove tables idx
  in

  (* The valid ptes whose vpn lies in [lo, hi), in vpn order. *)
  let range lo hi =
    covering tables ~ptes_per_page lo hi
    |> List.concat_map (fun (idx, tp) ->
        let first_vpn = idx * ptes_per_page in
        let acc = ref [] in
        for vpn = min (hi - 1) (first_vpn + ptes_per_page - 1)
            downto max lo first_vpn do
          let pte = tp.ptes.(vpn - first_vpn) in
          if pte.p_valid then acc := (vpn, pte) :: !acc
        done;
        !acc)
  in
  let store =
    { Backend.range; drop = invalidate_pte;
      prot_of = (fun pte -> pte.p_prot);
      set_prot = (fun _ pte prot -> pte.p_prot <- prot);
      wired = (fun pte -> pte.p_wired); pte = true }
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
       Backend.reenter ctx sh.Backend.presence ~asid ~vpn ~old ~prot
     | Some pte when pte.p_valid ->
       Backend.unmap ctx sh store vpn pte;
       install vpn ~pfn ~prot ~wired
     | Some _ | None -> install vpn ~pfn ~prot ~wired);
    Backend.charge ctx (Backend.cost ctx).Arch.pte_write;
    stats.Pmap.enters <- stats.Pmap.enters + 1
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

  let destroy () =
    List.iter (fun (vpn, pte) -> invalidate_pte vpn pte) (range 0 max_int);
    Backend.shoot_asid ctx sh.Backend.presence ~asid;
    Int_tbl.reset tables
  in

  (* pmap_copy (Table 3-4, optional): duplicate valid mappings into a
     destination pmap so it avoids its initial faults.  Write permission
     is stripped — the typical caller is fork, where the child's data
     must stay copy-on-write until its first write fault. *)
  let copy ~dst ~dst_start ~len ~src_start =
    let lo = src_start / page in
    let hi = (src_start + len + page - 1) / page in
    List.iter
      (fun (vpn, pte) ->
         let va = dst_start + ((vpn * page) - src_start) in
         dst.Pmap.enter ~va ~pfn:pte.p_pfn
           ~prot:(Prot.remove_write pte.p_prot) ~wired:false)
      (range lo hi)
  in

  Backend.pmap ctx sh store ~translator ~enter ~extract
    ~resident_count:(fun () -> !resident) ~destroy
    ~map_bytes:(fun () -> top_bytes + (Int_tbl.length tables * page))
    ~copy ()

let domain ctx ~top_bytes ~pfn_ok =
  let va_limit = (Backend.arch ctx).Arch.user_va_limit in
  { Backend.new_pmap = (fun () -> make ctx ~va_limit ~top_bytes ~pfn_ok ());
    shared_map_bytes = (fun () -> 0) }

(* VAX: a full 2 GB user space needs 8 MB of linear page table, so only
   the parts mapping pages in use are built. *)
let vax_domain ctx = domain ctx ~top_bytes:0 ~pfn_ok:(fun _ -> true)

(* NS32082 (Encore MultiMax, Sequent Balance), with the MMU's shortcomings
   of Section 5.1: 16 MB of virtual memory per page table and 32 MB of
   addressable physical memory, both enforced by [pmap_enter] (the
   read-modify-write fault bug is modelled in the machine layer).  The
   two-level scheme has an always-present top-level table: 1 KB for a
   16 MB space with 64 KB second-level sections. *)
let ns32082_domain ctx =
  let page = Backend.page_size ctx in
  let phys_limit =
    Option.value (Backend.arch ctx).Arch.phys_limit ~default:max_int
  in
  domain ctx ~top_bytes:1024 ~pfn_ok:(fun pfn -> pfn * page < phys_limit)

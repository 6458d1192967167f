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

(* A pte is one word, as on the hardware: the frame number above the
   wired bit, the three rights and the valid bit. *)
let prots =
  Array.init 8 (fun b ->
      Prot.make ~read:(b land 4 <> 0) ~write:(b land 2 <> 0)
        ~execute:(b land 1 <> 0))

let pte ~pfn ~(prot : Prot.t) ~wired =
  let bit b n = if b then n else 0 in
  (pfn lsl 5) lor bit wired 16 lor bit prot.read 8 lor bit prot.write 4
  lor bit prot.execute 2 lor 1

let valid pte = pte land 1 = 1
let pfn_of pte = pte lsr 5
let prot_of pte = prots.((pte lsr 1) land 7)
let wired pte = pte land 16 <> 0

type tpage = { ptes : int array; mutable valid_count : int }

(* Collected table pages are kept, up to this many per domain, and
   reused as they are: a collected page holds no valid pte. *)
let max_spare = 4

(* Apply [f vpn tp] to each valid page of table page [tp], index [idx],
   whose first vpn lies in [lo, hi), in vpn order.  [f] may invalidate
   the page it is given, and so empty [tp]: the pages after it then
   read invalid. *)
let iter_valid (ctx : Backend.ctx) ~ptes_per_page idx tp lo hi f =
  let first_vpn = idx * ptes_per_page in
  let last = min (hi - 1) (first_vpn + ptes_per_page - 1) in
  let n = ctx.Backend.page_frames in
  let vpn = ref (Backend.page_of ctx (max lo first_vpn + n - 1)) in
  while !vpn <= last do
    if valid tp.ptes.(!vpn - first_vpn) then f !vpn tp;
    vpn := !vpn + n
  done

(* [iter_range] over the valid pages whose first vpn lies in [lo, hi),
   in vpn order, each with its table page.  The table pages covering
   the range are looked up one by one when there are no more of them
   than tables, else picked out of the tables and sorted, so sparse
   spaces stay cheap either way. *)
let iter_in ctx tables ~ptes_per_page lo hi f =
  let first = lo / ptes_per_page and last = (hi - 1) / ptes_per_page in
  let visit idx =
    match Int_tbl.find_opt tables idx with
    | Some tp -> iter_valid ctx ~ptes_per_page idx tp lo hi f
    | None -> ()
  in
  if last - first < Int_tbl.length tables then
    for idx = first to last do
      visit idx
    done
  else begin
    let idxs = Array.make (Int_tbl.length tables) 0 and k = ref 0 in
    Int_tbl.iter
      (fun idx _ ->
         if idx >= first && idx <= last then begin
           idxs.(!k) <- idx;
           incr k
         end)
      tables;
    let idxs = Array.sub idxs 0 !k in
    Array.sort Int.compare idxs;
    Array.iter visit idxs
  end

let make (ctx : Backend.ctx) spare ~va_limit ~top_bytes ~pfn_ok () =
  let sh = Backend.shell ctx in
  let asid = sh.Backend.asid and stats = sh.Backend.stats in
  let page = Backend.page_size ctx in
  let frames = ctx.Backend.page_frames in
  let pte_bytes = (Backend.arch ctx).Arch.pte_bytes in
  let ptes_per_page = page / pte_bytes in
  let pte_write = (Backend.cost ctx).Arch.pte_write in
  let tables : tpage Int_tbl.t = Int_tbl.create 16 in
  let resident = ref 0 in

  let pte_at vpn =
    match Int_tbl.find_opt tables (vpn / ptes_per_page) with
    | None -> 0
    | Some tp -> tp.ptes.(vpn mod ptes_per_page)
  in
  (* Write the page's ptes from index [i] of [tp]. *)
  let write tp i ~pfn ~prot ~wired =
    for j = 0 to frames - 1 do
      tp.ptes.(i + j) <- pte ~pfn:(pfn + j) ~prot ~wired
    done
  in
  let find_or_create_tpage vpn =
    let idx = vpn / ptes_per_page in
    match Int_tbl.find_opt tables idx with
    | Some tp -> tp
    | None ->
      (* Constructing a page-table page costs a page zero. *)
      Backend.charge ctx (Backend.move_cost ctx page);
      let tp =
        match !spare with
        | tp :: rest -> spare := rest; tp
        | [] -> { ptes = Array.make ptes_per_page 0; valid_count = 0 }
      in
      Int_tbl.add tables idx tp;
      tp
  in

  (* Invalidate the page mapped from [vpn], leaving its table page in
     place; the caller decides how to flush. *)
  let clear vpn tp =
    let i = vpn mod ptes_per_page in
    assert (valid tp.ptes.(i));
    Backend.pv_remove ctx ~pfn:(pfn_of tp.ptes.(i)) ~asid ~vpn;
    for j = i to i + frames - 1 do
      tp.ptes.(j) <- tp.ptes.(j) land lnot 1;
      Backend.charge ctx pte_write
    done;
    resident := !resident - frames;
    stats.Pmap.removals <- stats.Pmap.removals + frames;
    tp.valid_count <- tp.valid_count - frames
  in
  (* ...and collect the table page once it maps nothing. *)
  let invalidate vpn tp =
    clear vpn tp;
    if tp.valid_count = 0 then begin
      Int_tbl.remove tables (vpn / ptes_per_page);
      if List.compare_length_with !spare max_spare < 0 then
        spare := tp :: !spare
    end
  in

  let iter_range lo hi f = iter_in ctx tables ~ptes_per_page lo hi f in
  let at vpn tp = tp.ptes.(vpn mod ptes_per_page) in
  let store =
    { Backend.iter_range; drop = invalidate;
      prot_of = (fun vpn tp -> prot_of (at vpn tp));
      set_prot =
        (fun vpn tp prot ->
           let x = at vpn tp in
           write tp (vpn mod ptes_per_page) ~pfn:(pfn_of x) ~prot
             ~wired:(wired x));
      wired = (fun vpn tp -> wired (at vpn tp)); pte = true }
  in

  let install vpn ~pfn ~prot ~wired =
    let tp = find_or_create_tpage vpn in
    write tp (vpn mod ptes_per_page) ~pfn ~prot ~wired;
    tp.valid_count <- tp.valid_count + frames;
    resident := !resident + frames;
    Backend.pv_insert ctx ~pfn ~asid ~vpn
  in

  let enter ~va ~pfn ~prot ~wired =
    if va < 0 || va + ((frames - 1) * page) >= va_limit then
      invalid_arg "pmap_enter: virtual address beyond hardware limit";
    if not (pfn_ok (pfn + frames - 1)) then
      invalid_arg "pmap_enter: physical page beyond hardware limit";
    let vpn = Backend.page_vpn ctx ~va ~pfn in
    (* TLBs need invalidating only when a previously valid translation
       changes; fresh entries cannot be cached anywhere. *)
    (match Int_tbl.find_opt tables (vpn / ptes_per_page) with
     | Some tp when valid (at vpn tp) ->
       let i = vpn mod ptes_per_page in
       if pfn_of tp.ptes.(i) = pfn then begin
         (* Same frames: update protection in place. *)
         let old = prot_of tp.ptes.(i) in
         write tp i ~pfn ~prot ~wired;
         Backend.reenter ctx sh.Backend.presence ~asid ~vpn ~old ~prot
       end
       else begin
         (* The new ptes overwrite the old page's in place, so its table
            page is not collected in between. *)
         clear vpn tp;
         Backend.shoot_page ctx sh.Backend.presence ~asid ~vpn;
         install vpn ~pfn ~prot ~wired
       end
     | Some _ | None -> install vpn ~pfn ~prot ~wired);
    Backend.charge_frames ctx pte_write;
    stats.Pmap.enters <- stats.Pmap.enters + frames
  in

  let lookup vpn =
    let x = pte_at vpn in
    if valid x then Translator.Mapped { pfn = pfn_of x; prot = prot_of x }
    else Translator.Missing
  in
  let translator =
    { Translator.asid; lookup;
      walk_cost = (Backend.cost ctx).Arch.tlb_fill; hw_walk = true }
  in

  let destroy () =
    iter_range 0 max_int invalidate;
    Backend.shoot_asid ctx sh.Backend.presence ~asid;
    Int_tbl.reset tables
  in

  (* pmap_copy (Table 3-4, optional): duplicate valid page mappings into
     a destination pmap, one page enter each, so it avoids its initial
     faults.  Write permission is stripped — the typical caller is fork,
     where the child's data must stay copy-on-write until its first
     write fault. *)
  let copy ~dst ~dst_start ~len ~src_start =
    let lo = src_start / page in
    let hi = (src_start + len + page - 1) / page in
    iter_range lo hi (fun vpn tp ->
        let x = at vpn tp in
        let va = dst_start + ((vpn * page) - src_start) in
        dst.Pmap.enter ~va ~pfn:(pfn_of x)
          ~prot:(Prot.remove_write (prot_of x)) ~wired:false)
  in

  Backend.pmap ctx sh store ~translator ~enter
    ~resident_count:(fun () -> !resident) ~destroy
    ~map_bytes:(fun () -> top_bytes + (Int_tbl.length tables * page))
    ~copy ()

(* A page's ptes sit in one table page, so [pmap_enter] looks one up. *)
let domain ctx ~top_bytes ~pfn_ok =
  let arch = Backend.arch ctx in
  if ctx.Backend.page_frames > arch.Arch.hw_page_size / arch.Arch.pte_bytes
  then invalid_arg "Table_pmap: a page must fit in one page-table page";
  let va_limit = arch.Arch.user_va_limit in
  let spare = ref [] in
  { Backend.new_pmap =
      (fun () -> make ctx spare ~va_limit ~top_bytes ~pfn_ok ());
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

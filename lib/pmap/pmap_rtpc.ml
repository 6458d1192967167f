open Mach_hw
module Int_tbl = Mach_util.Int_tbl

(* Per-pmap bookkeeping the eviction path must reach from a foreign
   pmap: its shell, its store and its share of the inverted table. *)
type owner = {
  o_shell : Backend.shell;
  o_store : Backend.mapping Backend.store;
  o_vpns : Backend.mapping Int_tbl.t; (* first vpn -> page mapping *)
}

let make_domain (ctx : Backend.ctx) =
  let frames = Phys_mem.frame_count (Machine.phys ctx.machine) in
  let n = ctx.Backend.page_frames in
  let pte_bytes = (Backend.arch ctx).Arch.pte_bytes in
  let owners : owner Int_tbl.t = Int_tbl.create 16 in

  (* Remove and shoot a page mapping, whoever owns it. *)
  let evict { Pv.pv_asid; pv_vpn } =
    let o = Int_tbl.find owners pv_asid in
    Backend.unmap ctx o.o_shell o.o_store pv_vpn (Int_tbl.find o.o_vpns pv_vpn)
  in

  let new_pmap () =
    let sh = Backend.shell ctx in
    let asid = sh.Backend.asid and stats = sh.Backend.stats in
    let own_vpns = Int_tbl.create 64 in
    let store = Backend.table_store ctx sh ~pte:true (fun () -> own_vpns) in
    Int_tbl.add owners asid
      { o_shell = sh; o_store = store; o_vpns = own_vpns };

    let enter ~va ~pfn ~prot ~wired =
      if pfn < 0 || pfn + n > frames then
        invalid_arg "pmap_enter: no such physical page";
      let vpn = Backend.page_vpn ctx ~va ~pfn in
      (* Drop any previous mapping this pmap had for the page... *)
      let kept =
        match Int_tbl.find_opt own_vpns vpn with
        | Some (old : Backend.mapping) when old.m_pfn = pfn -> Some old.m_prot
        | Some old -> Backend.unmap ctx sh store vpn old; None
        | None -> None
      in
      (* ...and, inverted-table restriction, any other mapping of the
         page's frames, which the domain's pv table — indexed by frame,
         like the hardware's — names: all of them are evicted. *)
      List.iter
        (fun (m : Pv.mapping) ->
           if not (m.pv_asid = asid && m.pv_vpn = vpn) then begin
             evict m;
             stats.Pmap.alias_evictions <- stats.Pmap.alias_evictions + n
           end)
        (Pv.mappings ctx.Backend.pv ~pfn);
      Int_tbl.replace own_vpns vpn
        { Backend.m_pfn = pfn; m_prot = prot; m_wired = wired };
      if Option.is_none kept then Backend.pv_insert ctx ~pfn ~asid ~vpn;
      Backend.charge_frames ctx (Backend.cost ctx).Arch.pte_write;
      (* Only a pre-existing translation can be cached in a TLB; one on
         another frame was shot by its eviction above. *)
      (match kept with
       | Some old ->
         Backend.reenter ctx sh.Backend.presence ~asid ~vpn ~old ~prot
       | None -> ());
      stats.Pmap.enters <- stats.Pmap.enters + n
    in

    (* The hardware hashes (asid, vpn) through the anchor table into the
       inverted table; [own_vpns] holds the same bindings for this
       pmap's asid. *)
    let lookup = Backend.lookup_in ctx own_vpns in
    let translator =
      { Translator.asid; lookup;
        walk_cost = (Backend.cost ctx).Arch.tlb_fill; hw_walk = true }
    in

    let destroy () =
      Backend.unmap_range ctx sh store 0 max_int;
      Int_tbl.remove owners asid
    in

    Backend.pmap ctx sh store ~translator ~enter
      ~resident_count:(fun () -> Int_tbl.length own_vpns * n)
      ~destroy ()
  in
  {
    Backend.new_pmap;
    (* The inverted table plus hash anchors scale with physical memory,
       never with address-space size. *)
    shared_map_bytes = (fun () -> 2 * frames * pte_bytes);
  }

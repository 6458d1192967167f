open Mach_hw
module Int_tbl = Mach_util.Int_tbl

(* One slot per physical frame: the (at most one) virtual mapping of that
   frame. *)
type slot = {
  mutable s_asid : int;
  mutable s_vpn : int;
  mutable s_prot : Prot.t;
  mutable s_wired : bool;
  mutable s_valid : bool;
}

(* Per-pmap bookkeeping the eviction path must reach from a foreign pmap. *)
type owner = {
  o_shell : Backend.shell;
  o_store : int Backend.store; (* mappings are frame numbers *)
  o_vpns : int Int_tbl.t; (* vpn -> pfn, this pmap's live mappings *)
}

let make_domain (ctx : Backend.ctx) =
  let frames = Phys_mem.frame_count (Machine.phys ctx.machine) in
  let page = Backend.page_size ctx in
  let pte_bytes = (Backend.arch ctx).Arch.pte_bytes in
  let ipt =
    Array.init frames (fun _ ->
        { s_asid = 0; s_vpn = 0; s_prot = Prot.none; s_wired = false;
          s_valid = false })
  in
  let owners : owner Int_tbl.t = Int_tbl.create 16 in

  (* Invalidate the mapping occupying [pfn], whoever owns it. *)
  let unlink pfn =
    let s = ipt.(pfn) in
    assert s.s_valid;
    let o = Int_tbl.find owners s.s_asid in
    Int_tbl.remove o.o_vpns s.s_vpn;
    Backend.pv_remove ctx ~pfn ~asid:s.s_asid ~vpn:s.s_vpn;
    Backend.charge ctx (Backend.cost ctx).Arch.pte_write;
    let stats = o.o_shell.Backend.stats in
    stats.Pmap.removals <- stats.Pmap.removals + 1;
    s.s_valid <- false
  in

  (* Remove and shoot the mapping occupying [pfn], whoever owns it. *)
  let evict pfn =
    let s = ipt.(pfn) in
    let o = Int_tbl.find owners s.s_asid in
    Backend.unmap ctx o.o_shell o.o_store s.s_vpn pfn
  in

  let new_pmap () =
    let sh = Backend.shell ctx in
    let asid = sh.Backend.asid and stats = sh.Backend.stats in
    let own_vpns : int Int_tbl.t = Int_tbl.create 64 in
    let store =
      { Backend.range = Backend.range_of own_vpns;
        drop = (fun _ pfn -> unlink pfn);
        prot_of = (fun pfn -> ipt.(pfn).s_prot);
        set_prot = (fun _ pfn prot -> ipt.(pfn).s_prot <- prot);
        wired = (fun pfn -> ipt.(pfn).s_wired); pte = true }
    in
    Int_tbl.add owners asid
      { o_shell = sh; o_store = store; o_vpns = own_vpns };

    let enter ~va ~pfn ~prot ~wired =
      if pfn < 0 || pfn >= frames then
        invalid_arg "pmap_enter: no such physical page";
      let vpn = va / page in
      (* Drop any previous mapping this pmap had for the page... *)
      let kept =
        match Int_tbl.find_opt own_vpns vpn with
        | Some old_pfn when old_pfn = pfn -> Some ipt.(pfn).s_prot
        | Some old_pfn -> evict old_pfn; None
        | None -> None
      in
      (* ...and, inverted-table restriction, any foreign mapping of the
         frame itself. *)
      let s = ipt.(pfn) in
      if s.s_valid && not (s.s_asid = asid && s.s_vpn = vpn) then begin
        evict pfn;
        stats.Pmap.alias_evictions <- stats.Pmap.alias_evictions + 1
      end;
      if not s.s_valid then begin
        s.s_asid <- asid;
        s.s_vpn <- vpn;
        s.s_wired <- wired;
        s.s_valid <- true;
        Int_tbl.replace own_vpns vpn pfn;
        Backend.pv_insert ctx ~pfn ~asid ~vpn
      end;
      s.s_prot <- prot;
      s.s_wired <- wired;
      Backend.charge ctx (Backend.cost ctx).Arch.pte_write;
      (* Only a pre-existing translation can be cached in a TLB; one on
         another frame was shot by its eviction above. *)
      (match kept with
       | Some old ->
         Backend.reenter ctx sh.Backend.presence ~asid ~vpn ~old ~prot
       | None -> ());
      stats.Pmap.enters <- stats.Pmap.enters + 1
    in

    (* The hardware hashes (asid, vpn) through the anchor table into
       the inverted table; each pmap's [own_vpns] holds the same
       vpn -> pfn bindings for its asid. *)
    let lookup vpn =
      match Int_tbl.find_opt own_vpns vpn with
      | Some pfn ->
        Translator.Mapped { pfn; prot = ipt.(pfn).s_prot }
      | None -> Translator.Missing
    in
    let translator =
      { Translator.asid; lookup;
        walk_cost = (Backend.cost ctx).Arch.tlb_fill; hw_walk = true }
    in

    let destroy () =
      Backend.unmap_range ctx sh store 0 max_int;
      Int_tbl.remove owners asid
    in

    Backend.pmap ctx sh store ~translator ~enter
      ~extract:(fun va -> Int_tbl.find_opt own_vpns (va / page))
      ~resident_count:(fun () -> Int_tbl.length own_vpns) ~destroy ()
  in
  {
    Backend.new_pmap;
    (* The inverted table plus hash anchors scale with physical memory,
       never with address-space size. *)
    shared_map_bytes = (fun () -> 2 * frames * pte_bytes);
  }

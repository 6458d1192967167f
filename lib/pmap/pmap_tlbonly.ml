open Mach_hw
module Int_tbl = Mach_util.Int_tbl

type mapping = { m_pfn : int; m_prot : Prot.t; m_wired : bool }

let make_domain (ctx : Backend.ctx) =
  let page = Backend.page_size ctx in
  let new_pmap () =
    let sh = Backend.shell ctx in
    let asid = sh.Backend.asid and stats = sh.Backend.stats in
    (* Software-only shadow of the TLB contents; the hardware never walks
       it, every miss traps. *)
    let soft : mapping Int_tbl.t = Int_tbl.create 64 in
    let translator =
      Translator.software ~asid (fun vpn ->
          match Int_tbl.find_opt soft vpn with
          | Some m -> Translator.Mapped { pfn = m.m_pfn; prot = m.m_prot }
          | None -> Translator.Missing)
    in

    let fill_active_tlbs vpn m =
      Array.iteri
        (fun cpu active ->
           if active then
             Machine.tlb_fill ctx.machine ~cpu
               { Tlb.asid; vpn; pfn = m.m_pfn; prot = m.m_prot })
        sh.Backend.presence.Backend.active
    in

    let enter ~va ~pfn ~prot ~wired =
      if va < 0 then invalid_arg "pmap_enter: negative address";
      let vpn = va / page in
      let m = { m_pfn = pfn; m_prot = prot; m_wired = wired } in
      let previous = Int_tbl.find_opt soft vpn in
      let shoot =
        match previous with
        | Some old when old.m_pfn <> pfn ->
          Backend.pv_remove ctx ~pfn:old.m_pfn ~asid ~vpn;
          stats.Pmap.removals <- stats.Pmap.removals + 1;
          Backend.pv_insert ctx ~pfn ~asid ~vpn;
          true
        | Some old -> Backend.loses ~old:old.m_prot ~prot
        | None -> Backend.pv_insert ctx ~pfn ~asid ~vpn; false
      in
      Int_tbl.replace soft vpn m;
      (* The flush must land before the refill below, so bypass any open
         batch (whose flush would otherwise wipe the fresh entries at
         [end_batch] and fault the page straight back).  Gained rights
         need none: the refill replaces the active CPUs' entries, and a
         weaker one cached elsewhere protection-faults into a re-enter. *)
      if shoot then
        Backend.shoot ctx sh.Backend.presence
          (Machine.Flush_page { asid; vpn });
      fill_active_tlbs vpn m;
      Backend.charge ctx (Backend.cost ctx).Arch.pte_write;
      stats.Pmap.enters <- stats.Pmap.enters + 1
    in

    (* Mappings [protect] lowered, to refill once its batch has flushed. *)
    let lowered = ref [] in
    let store =
      { Backend.range = Backend.range_of soft;
        drop =
          (fun vpn m ->
             Int_tbl.remove soft vpn;
             Backend.pv_remove ctx ~pfn:m.m_pfn ~asid ~vpn;
             stats.Pmap.removals <- stats.Pmap.removals + 1);
        prot_of = (fun m -> m.m_prot);
        set_prot =
          (fun vpn m prot ->
             let m = { m with m_prot = prot } in
             Int_tbl.replace soft vpn m;
             lowered := (vpn, m) :: !lowered);
        wired = (fun m -> m.m_wired); pte = false }
    in

    let destroy () =
      Backend.unmap_range ctx sh store 0 max_int;
      Int_tbl.reset soft
    in

    let p =
      Backend.pmap ctx sh store ~translator ~enter
        ~extract:(fun va ->
            Option.map (fun m -> m.m_pfn) (Int_tbl.find_opt soft (va / page)))
        ~resident_count:(fun () -> Int_tbl.length soft) ~destroy ()
    in
    (* Refill only after the batched flush has landed; refilling inside
       the batch would hand [end_batch] fresh entries to wipe. *)
    let protect ~start_va ~end_va ~prot =
      lowered := [];
      p.Pmap.protect ~start_va ~end_va ~prot;
      List.iter (fun (vpn, m) -> fill_active_tlbs vpn m) (List.rev !lowered)
    in
    { p with Pmap.protect }
  in
  { Backend.new_pmap; shared_map_bytes = (fun () -> 0) }

open Mach_hw
module Int_tbl = Mach_util.Int_tbl

let make_domain (ctx : Backend.ctx) =
  let n = ctx.Backend.page_frames in
  let new_pmap () =
    let sh = Backend.shell ctx in
    let asid = sh.Backend.asid and stats = sh.Backend.stats in
    (* Software-only shadow of the TLB contents, keyed by first vpn; the
       hardware never walks it, every miss traps. *)
    let soft = Int_tbl.create 64 in
    let translator = Translator.software ~asid (Backend.lookup_in ctx soft) in

    (* Load frame [j] of page mapping [m], first vpn [vpn]. *)
    let fill_active_tlbs vpn (m : Backend.mapping) j =
      Array.iteri
        (fun cpu active ->
           if active then
             Machine.tlb_fill ctx.machine ~cpu
               { Tlb.asid; vpn = vpn + j; pfn = m.m_pfn + j; prot = m.m_prot })
        sh.Backend.presence.Backend.active
    in

    let enter ~va ~pfn ~prot ~wired =
      if va < 0 then invalid_arg "pmap_enter: negative address";
      let vpn = Backend.page_vpn ctx ~va ~pfn in
      let m = { Backend.m_pfn = pfn; m_prot = prot; m_wired = wired } in
      let previous = Int_tbl.find_opt soft vpn in
      let shoot =
        match previous with
        | Some (old : Backend.mapping) when old.m_pfn <> pfn ->
          Backend.pv_remove ctx ~pfn:old.m_pfn ~asid ~vpn;
          stats.Pmap.removals <- stats.Pmap.removals + n;
          Backend.pv_insert ctx ~pfn ~asid ~vpn;
          true
        | Some old -> Backend.loses ~old:old.m_prot ~prot
        | None -> Backend.pv_insert ctx ~pfn ~asid ~vpn; false
      in
      Int_tbl.replace soft vpn m;
      (* Each frame's flush must land before its refill below, so bypass
         any open batch (whose flush would otherwise wipe the fresh
         entries at [end_batch] and fault the page straight back).
         Gained rights need none: the refill replaces the active CPUs'
         entries, and a weaker one cached elsewhere protection-faults
         into a re-enter. *)
      for j = 0 to n - 1 do
        if shoot then
          Backend.shoot ctx sh.Backend.presence
            (Machine.Flush_page { asid; vpn = vpn + j });
        fill_active_tlbs vpn m j;
        Backend.charge ctx (Backend.cost ctx).Arch.pte_write
      done;
      stats.Pmap.enters <- stats.Pmap.enters + n
    in

    (* Mappings [protect] lowered, to refill once its batch has flushed. *)
    let lowered = ref [] in
    let store =
      Backend.table_store ctx sh ~pte:false
        ~on_set:(fun vpn m -> lowered := (vpn, m) :: !lowered)
        (fun () -> soft)
    in

    let destroy () =
      Backend.unmap_range ctx sh store 0 max_int;
      Int_tbl.reset soft
    in

    let p =
      Backend.pmap ctx sh store ~translator ~enter
        ~resident_count:(fun () -> Int_tbl.length soft * n) ~destroy ()
    in
    (* Refill only after the batched flush has landed; refilling inside
       the batch would hand [end_batch] fresh entries to wipe. *)
    let protect ~start_va ~end_va ~prot =
      lowered := [];
      p.Pmap.protect ~start_va ~end_va ~prot;
      List.iter
        (fun (vpn, m) ->
           for j = 0 to n - 1 do
             fill_active_tlbs vpn m j
           done)
        (List.rev !lowered)
    in
    { p with Pmap.protect }
  in
  { Backend.new_pmap; shared_map_bytes = (fun () -> 0) }

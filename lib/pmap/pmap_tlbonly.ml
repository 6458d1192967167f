open Mach_hw

type mapping = { m_pfn : int; m_prot : Prot.t; m_wired : bool }

let make_domain (ctx : Backend.ctx) =
  let page = Backend.page_size ctx in
  let new_pmap () =
    let asid = Backend.fresh_asid ctx in
    let stats = Pmap.fresh_stats () in
    let presence = Backend.fresh_presence ctx in
    (* Software-only shadow of the TLB contents; the hardware never walks
       it, every miss traps. *)
    let soft : (int, mapping) Hashtbl.t = Hashtbl.create 64 in
    let translator =
      Translator.software ~asid (fun vpn ->
          match Hashtbl.find_opt soft vpn with
          | Some m -> Translator.Mapped { pfn = m.m_pfn; prot = m.m_prot }
          | None -> Translator.Missing)
    in

    let fill_active_tlbs vpn m =
      Array.iteri
        (fun cpu active ->
           if active then
             Machine.tlb_fill ctx.machine ~cpu
               { Tlb.asid; vpn; pfn = m.m_pfn; prot = m.m_prot })
        presence.Backend.active
    in

    let enter ~va ~pfn ~prot ~wired =
      if va < 0 then invalid_arg "pmap_enter: negative address";
      let vpn = va / page in
      let m = { m_pfn = pfn; m_prot = prot; m_wired = wired } in
      let previous = Hashtbl.find_opt soft vpn in
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
      Hashtbl.replace soft vpn m;
      (* The flush must land before the refill below, so bypass any open
         batch (whose flush would otherwise wipe the fresh entries at
         [end_batch] and fault the page straight back).  Gained rights
         need none: the refill replaces the active CPUs' entries, and a
         weaker one cached elsewhere protection-faults into a re-enter. *)
      if shoot then
        Backend.shoot ctx presence (Machine.Flush_page { asid; vpn })
          ~urgent:false;
      fill_active_tlbs vpn m;
      Backend.charge ctx (Backend.cost ctx).Arch.pte_write;
      stats.Pmap.enters <- stats.Pmap.enters + 1
    in

    let in_range lo hi =
      Hashtbl.fold
        (fun vpn m acc ->
           if vpn >= lo && vpn < hi then (vpn, m) :: acc else acc)
        soft []
    in

    let drop vpn m =
      Hashtbl.remove soft vpn;
      Backend.pv_remove ctx ~pfn:m.m_pfn ~asid ~vpn;
      Backend.shoot_page ctx presence ~asid ~vpn;
      stats.Pmap.removals <- stats.Pmap.removals + 1
    in

    let range_bounds ~start_va ~end_va =
      (start_va / page, (end_va + page - 1) / page)
    in

    let remove ~start_va ~end_va =
      let lo, hi = range_bounds ~start_va ~end_va in
      Backend.batched ctx (fun () ->
          List.iter (fun (vpn, m) -> drop vpn m) (in_range lo hi))
    in

    let protect ~start_va ~end_va ~prot =
      stats.Pmap.protect_ops <- stats.Pmap.protect_ops + 1;
      let lo, hi = range_bounds ~start_va ~end_va in
      let lowered = ref [] in
      Backend.batched ctx (fun () ->
          List.iter
            (fun (vpn, m) ->
               Backend.lower ~pte:false ctx presence ~asid ~vpn
                 ~old:m.m_prot ~prot ~set:(fun reduced ->
                     let m = { m with m_prot = reduced } in
                     Hashtbl.replace soft vpn m;
                     lowered := (vpn, m) :: !lowered))
            (in_range lo hi));
      (* Refill only after the batched flush has landed; refilling inside
         the batch would hand [end_batch] fresh entries to wipe. *)
      List.iter (fun (vpn, m) -> fill_active_tlbs vpn m) (List.rev !lowered)
    in

    let extract va =
      match Hashtbl.find_opt soft (va / page) with
      | Some m -> Some m.m_pfn
      | None -> None
    in

    let collect () =
      let victims =
        List.filter (fun (_, m) -> not m.m_wired) (in_range 0 max_int)
      in
      Backend.batched ctx (fun () ->
          List.iter (fun (vpn, m) -> drop vpn m) victims);
      stats.Pmap.cache_drops <-
        stats.Pmap.cache_drops + List.length victims
    in

    let destroy () =
      Backend.batched ctx (fun () ->
          List.iter (fun (vpn, m) -> drop vpn m) (in_range 0 max_int));
      Hashtbl.reset soft
    in

    {
      Pmap.asid;
      (* real reference counting is installed by Pmap_domain *)
      reference = (fun () -> ());
      kind = Arch.Tlb_only;
      enter;
      remove;
      protect;
      extract;
      activate = (fun ~cpu -> Backend.activate ctx presence translator ~cpu);
      deactivate =
        (fun ~cpu -> Backend.deactivate ctx presence translator ~cpu);
      copy = None;
      resident_count = (fun () -> Hashtbl.length soft);
      map_bytes = (fun () -> 0);
      collect;
      destroy;
      stats;
    }
  in
  { Backend.new_pmap; shared_map_bytes = (fun () -> 0) }

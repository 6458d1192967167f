open Mach_hw

type mapping = { m_pfn : int; m_prot : Prot.t; m_wired : bool }

type context = {
  c_index : int;
  mutable c_owner : int option; (* asid *)
  c_table : (int, mapping) Hashtbl.t; (* vpn -> mapping *)
  mutable c_stamp : int; (* LRU clock *)
}

(* What the context-stealing path needs to reach about a foreign pmap. *)
type owner = {
  o_presence : Backend.presence;
  o_stats : Pmap.stats;
  mutable o_context : context option;
}

let make_domain (ctx : Backend.ctx) =
  let arch = Backend.arch ctx in
  let n_contexts =
    match arch.Arch.contexts with Some n -> n | None -> 8
  in
  let page = Backend.page_size ctx in
  let contexts =
    Array.init n_contexts (fun i ->
        { c_index = i; c_owner = None; c_table = Hashtbl.create 64;
          c_stamp = 0 })
  in
  let clock = ref 0 in
  let owners : (int, owner) Hashtbl.t = Hashtbl.create 16 in

  let release_context c =
    match c.c_owner with
    | None -> ()
    | Some victim_asid ->
      let victim = Hashtbl.find owners victim_asid in
      (* Everything the victim had mapped is gone; it will fault the
         mappings back in when it next runs. *)
      Hashtbl.iter
        (fun vpn m ->
           Backend.pv_remove ctx ~pfn:m.m_pfn ~asid:victim_asid ~vpn;
           victim.o_stats.Pmap.removals <-
             victim.o_stats.Pmap.removals + 1)
        c.c_table;
      Backend.shoot ctx victim.o_presence
        (Machine.Flush_asid victim_asid) ~urgent:false;
      Hashtbl.reset c.c_table;
      c.c_owner <- None;
      victim.o_context <- None
  in

  let new_pmap () =
    let asid = Backend.fresh_asid ctx in
    let stats = Pmap.fresh_stats () in
    let presence = Backend.fresh_presence ctx in
    let me = { o_presence = presence; o_stats = stats; o_context = None } in
    Hashtbl.add owners asid me;

    (* Find this pmap's context, grabbing a free one or stealing the
       least-recently-used. *)
    let my_context () =
      match me.o_context with
      | Some c -> incr clock; c.c_stamp <- !clock; c
      | None ->
        let free =
          Array.to_seq contexts
          |> Seq.filter (fun c -> c.c_owner = None)
          |> fun s -> Seq.uncons s
        in
        let c =
          match free with
          | Some (c, _) -> c
          | None ->
            let lru =
              Array.fold_left
                (fun best c ->
                   match best with
                   | None -> Some c
                   | Some b -> if c.c_stamp < b.c_stamp then Some c else best)
                None contexts
            in
            (match lru with
             | Some c ->
               release_context c;
               stats.Pmap.context_steals <- stats.Pmap.context_steals + 1;
               c
             | None -> assert false)
        in
        Backend.charge ctx (Backend.cost ctx).Arch.context_switch;
        c.c_owner <- Some asid;
        me.o_context <- Some c;
        incr clock;
        c.c_stamp <- !clock;
        c
    in

    let enter ~va ~pfn ~prot ~wired =
      if va < 0 || va >= arch.Arch.user_va_limit then
        invalid_arg "pmap_enter: virtual address beyond hardware limit";
      let vpn = va / page in
      let c = my_context () in
      let previous = Hashtbl.find_opt c.c_table vpn in
      (match previous with
       | Some old when old.m_pfn <> pfn ->
         Backend.pv_remove ctx ~pfn:old.m_pfn ~asid ~vpn;
         stats.Pmap.removals <- stats.Pmap.removals + 1;
         Backend.pv_insert ctx ~pfn ~asid ~vpn
       | Some _ -> ()
       | None -> Backend.pv_insert ctx ~pfn ~asid ~vpn);
      Hashtbl.replace c.c_table vpn
        { m_pfn = pfn; m_prot = prot; m_wired = wired };
      Backend.charge ctx (Backend.cost ctx).Arch.pte_write;
      (match previous with
       | Some old when old.m_pfn <> pfn ->
         Backend.shoot_page ctx presence ~asid ~vpn
       | Some old ->
         Backend.reenter ctx presence ~asid ~vpn ~old:old.m_prot ~prot
       | None -> ());
      stats.Pmap.enters <- stats.Pmap.enters + 1
    in

    (* This pmap's live mappings with vpn in [lo, hi); empty when it holds
       no context. *)
    let in_range lo hi =
      match me.o_context with
      | None -> []
      | Some c ->
        Hashtbl.fold
          (fun vpn m acc ->
             if vpn >= lo && vpn < hi then (vpn, m) :: acc else acc)
          c.c_table []
    in

    let drop vpn m =
      match me.o_context with
      | None -> assert false
      | Some c ->
        Hashtbl.remove c.c_table vpn;
        Backend.pv_remove ctx ~pfn:m.m_pfn ~asid ~vpn;
        Backend.charge ctx (Backend.cost ctx).Arch.pte_write;
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
      Backend.batched ctx (fun () ->
          List.iter
            (fun (vpn, m) ->
               match me.o_context with
               | None -> ()
               | Some c ->
                 Backend.lower ctx presence ~asid ~vpn ~old:m.m_prot ~prot
                   ~set:(fun reduced ->
                       Hashtbl.replace c.c_table vpn
                         { m with m_prot = reduced }))
            (in_range lo hi))
    in

    let extract va =
      match me.o_context with
      | None -> None
      | Some c ->
        (match Hashtbl.find_opt c.c_table (va / page) with
         | Some m -> Some m.m_pfn
         | None -> None)
    in

    let lookup vpn =
      match me.o_context with
      | None -> Translator.Missing
      | Some c ->
        (match Hashtbl.find_opt c.c_table vpn with
         | Some m -> Translator.Mapped { pfn = m.m_pfn; prot = m.m_prot }
         | None -> Translator.Missing)
    in
    (* The mapping RAM *is* the translation path: no walk cost. *)
    let translator =
      { Translator.asid; lookup; walk_cost = 0; hw_walk = true }
    in

    let activate ~cpu =
      ignore (my_context ());
      Backend.activate ctx presence translator ~cpu
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
      (match me.o_context with
       | Some c ->
         Hashtbl.iter
           (fun vpn m -> Backend.pv_remove ctx ~pfn:m.m_pfn ~asid ~vpn)
           c.c_table;
         Hashtbl.reset c.c_table;
         c.c_owner <- None;
         me.o_context <- None
       | None -> ());
      Hashtbl.remove owners asid
    in

    {
      Pmap.asid;
      (* real reference counting is installed by Pmap_domain *)
      reference = (fun () -> ());
      kind = Arch.Sun3;
      enter;
      remove;
      protect;
      extract;
      activate;
      deactivate =
        (fun ~cpu -> Backend.deactivate ctx presence translator ~cpu);
      copy = None;
      resident_count =
        (fun () ->
           match me.o_context with
           | None -> 0
           | Some c -> Hashtbl.length c.c_table);
      map_bytes = (fun () -> 0);
      collect;
      destroy;
      stats;
    }
  in
  {
    Backend.new_pmap;
    (* Fixed mapping RAM: segment map plus page-map groups per context. *)
    shared_map_bytes = (fun () -> n_contexts * 48 * 1024);
  }

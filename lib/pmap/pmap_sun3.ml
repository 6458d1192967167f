open Mach_hw
module Int_tbl = Mach_util.Int_tbl

type context = {
  mutable c_owner : int option; (* asid *)
  c_table : Backend.mapping Int_tbl.t; (* first vpn -> page mapping *)
  mutable c_stamp : int; (* LRU clock *)
}

(* What the context-stealing path needs to reach about a foreign pmap. *)
type owner = { o_shell : Backend.shell; mutable o_context : context option }

let make_domain (ctx : Backend.ctx) =
  let arch = Backend.arch ctx in
  let n_contexts =
    match arch.Arch.contexts with Some n -> n | None -> 8
  in
  let page = Backend.page_size ctx and n = ctx.Backend.page_frames in
  let contexts =
    Array.init n_contexts (fun _ ->
        { c_owner = None; c_table = Int_tbl.create 64; c_stamp = 0 })
  in
  let clock = ref 0 in
  let owners : owner Int_tbl.t = Int_tbl.create 16 in
  (* The table of a pmap without a context: always empty. *)
  let no_table = Int_tbl.create 1 in

  let release_context c =
    match c.c_owner with
    | None -> ()
    | Some victim_asid ->
      let victim = Int_tbl.find owners victim_asid in
      (* Everything the victim had mapped is gone; it will fault the
         mappings back in when it next runs. *)
      let stats = victim.o_shell.Backend.stats in
      Int_tbl.iter
        (fun vpn m ->
           Backend.pv_remove ctx ~pfn:m.Backend.m_pfn ~asid:victim_asid ~vpn;
           stats.Pmap.removals <- stats.Pmap.removals + n)
        c.c_table;
      Backend.shoot ctx victim.o_shell.Backend.presence
        (Machine.Flush_asid victim_asid);
      Int_tbl.reset c.c_table;
      c.c_owner <- None;
      victim.o_context <- None
  in

  let new_pmap () =
    let sh = Backend.shell ctx in
    let asid = sh.Backend.asid and stats = sh.Backend.stats in
    let me = { o_shell = sh; o_context = None } in
    Int_tbl.add owners asid me;

    (* Find this pmap's context, grabbing a free one or stealing the
       least-recently-used. *)
    let my_context () =
      match me.o_context with
      | Some c -> incr clock; c.c_stamp <- !clock; c
      | None ->
        let c =
          match
            Array.find_opt (fun c -> Option.is_none c.c_owner) contexts
          with
          | Some c -> c
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
      if va < 0 || va + ((n - 1) * page) >= arch.Arch.user_va_limit then
        invalid_arg "pmap_enter: virtual address beyond hardware limit";
      let vpn = Backend.page_vpn ctx ~va ~pfn in
      let c = my_context () in
      let previous = Int_tbl.find_opt c.c_table vpn in
      (match previous with
       | Some old when old.Backend.m_pfn <> pfn ->
         Backend.pv_remove ctx ~pfn:old.Backend.m_pfn ~asid ~vpn;
         stats.Pmap.removals <- stats.Pmap.removals + n;
         Backend.pv_insert ctx ~pfn ~asid ~vpn
       | Some _ -> ()
       | None -> Backend.pv_insert ctx ~pfn ~asid ~vpn);
      Int_tbl.replace c.c_table vpn
        { Backend.m_pfn = pfn; m_prot = prot; m_wired = wired };
      Backend.charge_frames ctx (Backend.cost ctx).Arch.pte_write;
      (match previous with
       | Some old when old.Backend.m_pfn <> pfn ->
         Backend.shoot_page ctx sh.Backend.presence ~asid ~vpn
       | Some old ->
         Backend.reenter ctx sh.Backend.presence ~asid ~vpn
           ~old:old.Backend.m_prot ~prot
       | None -> ());
      stats.Pmap.enters <- stats.Pmap.enters + n
    in

    (* This pmap's mapping RAM, empty without a context. *)
    let table () =
      match me.o_context with Some c -> c.c_table | None -> no_table
    in
    let store = Backend.table_store ctx sh ~pte:true table in
    let lookup vpn =
      match me.o_context with
      | Some c -> Backend.lookup_in ctx c.c_table vpn
      | None -> Translator.Missing
    in
    (* The mapping RAM *is* the translation path: no walk cost. *)
    let translator =
      { Translator.asid; lookup; walk_cost = 0; hw_walk = true }
    in

    let destroy () =
      (match me.o_context with
       | Some c ->
         Int_tbl.iter
           (fun vpn m -> Backend.pv_remove ctx ~pfn:m.Backend.m_pfn ~asid ~vpn)
           c.c_table;
         Int_tbl.reset c.c_table;
         c.c_owner <- None;
         me.o_context <- None
       | None -> ());
      Int_tbl.remove owners asid
    in

    Backend.pmap ctx sh store ~translator ~enter
      ~resident_count:(fun () ->
          Int_tbl.length (table ()) * n)
      ~destroy ~on_activate:(fun () -> ignore (my_context ())) ()
  in
  {
    Backend.new_pmap;
    (* Fixed mapping RAM: segment map plus page-map groups per context. *)
    shared_map_bytes = (fun () -> n_contexts * 48 * 1024);
  }

open Mach_hw
module Int_tbl = Mach_util.Int_tbl

type t = {
  ctx : Backend.ctx;
  factory : Backend.factory;
  registry : Pmap.t Int_tbl.t;
  mutable on_first_touch : (asid:int -> pfn:int -> unit) option;
      (* fired when a frame's referenced bit transitions clear -> set,
         with the address space the touch went through and the first
         frame of the frame's page; the VM layer uses it to observe the
         first touch of pages it mapped speculatively (burst faulting).
         Charges nothing. *)
}

let create ?(page_multiple = 1) machine =
  if page_multiple <= 0 || page_multiple land (page_multiple - 1) <> 0 then
    invalid_arg "Pmap_domain.create: page_multiple must be a power of two";
  let ctx = Backend.create ~page_frames:page_multiple machine in
  let factory =
    match (Machine.arch machine).Arch.kind with
    | Arch.Vax -> Table_pmap.vax_domain ctx
    | Arch.Rt_pc -> Pmap_rtpc.make_domain ctx
    | Arch.Sun3 -> Pmap_sun3.make_domain ctx
    | Arch.Ns32082 -> Table_pmap.ns32082_domain ctx
    | Arch.Tlb_only -> Pmap_tlbonly.make_domain ctx
  in
  let t =
    { ctx; factory; registry = Int_tbl.create 16; on_first_touch = None }
  in
  Machine.set_on_translated machine (fun ~asid ~pfn ~write ->
      let pv = ctx.Backend.pv in
      (match t.on_first_touch with
       | Some f when not (Pv.frame_referenced pv ~pfn) ->
         f ~asid ~pfn:(Backend.page_of ctx pfn)
       | _ -> ());
      Pv.set_referenced pv ~pfn;
      if write then Pv.set_modified pv ~pfn);
  t

let set_on_first_touch t f = t.on_first_touch <- Some f

let set_on_unmap t f = t.ctx.Backend.on_unmap <- f

let machine t = t.ctx.Backend.machine

let page_multiple t = t.ctx.Backend.page_frames

let tracing t = Mach_obs.Obs.enabled (Machine.tracer t.ctx.Backend.machine)

(* Only called under [tracing t], so an untraced call builds no event. *)
let note t ev =
  let m = t.ctx.Backend.machine and cpu = t.ctx.Backend.cur_cpu in
  Mach_obs.Obs.record (Machine.tracer m) ~ts:(Machine.cycles m ~cpu) ~cpu ev

(* Wrap a fresh pmap in one record update: trace emission and cycle
   attribution around the mutation entry points, and reference counting
   (pmap_reference/pmap_destroy of Table 3-3) that keeps the registry in
   step with the pmap's lifetime.  Instrumenting here covers every
   architecture backend at once; the tracer is read through the machine
   on each call so enabling tracing mid-run works.  When tracing is off
   each wrapped call pays one branch and builds no event record.  The
   [Pmap] attribution frame brackets the backend call itself, so
   map-update costs land in the Pmap category wherever they were
   triggered from — except TLB-consistency work, which the machine
   charges as [Shootdown_ipi] explicitly.  [enter] and the final
   [destroy] each run in one flush batch, opened outside the frame and
   the trace note, so their exchange goes out after both. *)
let create_pmap t =
  let p = t.factory.Backend.new_pmap () in
  let m = t.ctx.Backend.machine in
  let asid = p.Pmap.asid in
  let in_pmap f =
    Machine.with_category m ~cpu:t.ctx.Backend.cur_cpu Mach_obs.Obs.Pmap f
  in
  let refs = ref 1 in
  let p =
    { p with
      Pmap.enter =
        (fun ~va ~pfn ~prot ~wired ->
           Backend.batched t.ctx (fun () ->
               in_pmap (fun () -> p.Pmap.enter ~va ~pfn ~prot ~wired);
               if tracing t then
                 note t (Mach_obs.Obs.Pmap_enter { asid; va; pfn })));
      remove =
        (fun ~start_va ~end_va ->
           in_pmap (fun () -> p.Pmap.remove ~start_va ~end_va);
           if tracing t then
             note t (Mach_obs.Obs.Pmap_remove { asid; start_va; end_va }));
      protect =
        (fun ~start_va ~end_va ~prot ->
           in_pmap (fun () -> p.Pmap.protect ~start_va ~end_va ~prot);
           if tracing t then
             note t (Mach_obs.Obs.Pmap_protect { asid; start_va; end_va }));
      reference = (fun () -> incr refs);
      destroy =
        (fun () ->
           assert (!refs > 0);
           decr refs;
           if !refs = 0 then begin
             Backend.batched t.ctx p.Pmap.destroy;
             Int_tbl.remove t.registry asid
           end) }
  in
  Int_tbl.add t.registry asid p;
  p

let find_pmap t ~asid = Int_tbl.find_opt t.registry asid

let set_current_cpu t cpu = t.ctx.Backend.cur_cpu <- cpu

let current_cpu t = t.ctx.Backend.cur_cpu

let page_size t = Backend.page_size t.ctx

let batched t f = Backend.batched t.ctx f

let pmap_of t ~asid =
  match find_pmap t ~asid with Some p -> p | None -> assert false

(* Apply [f pmap va len] to every mapping of the machine-independent
   page at [pfn] — one pv record each, one call over the page's vpns —
   all inside one batch.  The consistency unit is the MI page, so a page
   mapped into many address spaces still costs a single exchange (one
   IPI round per target CPU). *)
let each_page_mapping t ~pfn f =
  let page = page_size t in
  let len = page_multiple t * page in
  batched t (fun () ->
      List.iter
        (fun { Pv.pv_asid; pv_vpn } ->
           f (pmap_of t ~asid:pv_asid) (pv_vpn * page) len)
        (Pv.mappings t.ctx.Backend.pv ~pfn))

(* Urgency is captured per accumulated flush, so restoring [urgent_mode]
   before the batch flushes is safe. *)
let remove_all t ~pfn ~urgent =
  let saved = t.ctx.Backend.urgent_mode in
  t.ctx.Backend.urgent_mode <- urgent;
  match
    each_page_mapping t ~pfn (fun p va len ->
        p.Pmap.remove ~start_va:va ~end_va:(va + len))
  with
  | () -> t.ctx.Backend.urgent_mode <- saved
  | exception e ->
    t.ctx.Backend.urgent_mode <- saved;
    raise e

let copy_on_write t ~pfn =
  let read_only_mask = Prot.remove_write Prot.all in
  each_page_mapping t ~pfn (fun p va len ->
      p.Pmap.protect ~start_va:va ~end_va:(va + len) ~prot:read_only_mask)

(* The MMU hook keeps the bits per frame; these answer for the page
   holding [pfn]. *)
let is_modified t ~pfn = Pv.is_modified t.ctx.Backend.pv ~pfn
let is_referenced t ~pfn = Pv.is_referenced t.ctx.Backend.pv ~pfn
let clear_modified t ~pfn = Pv.clear_modified t.ctx.Backend.pv ~pfn
let clear_referenced t ~pfn = Pv.clear_referenced t.ctx.Backend.pv ~pfn

let mapping_count t ~pfn = List.length (Pv.mappings t.ctx.Backend.pv ~pfn)

let mapped_by t ~pfn ~asid = Pv.mapped_by t.ctx.Backend.pv ~pfn ~asid

let mappings_of t ~pfn =
  List.map
    (fun { Pv.pv_asid; pv_vpn } -> (pv_asid, pv_vpn))
    (Pv.mappings t.ctx.Backend.pv ~pfn)

(* Each frame is charged as its own move; the bytes move at once. *)
let charge_frames t =
  Backend.charge_frames t.ctx (Backend.move_cost t.ctx (page_size t))

let zero_page t ~pfn =
  charge_frames t;
  Phys_mem.zero_span (Machine.phys (machine t)) pfn ~offset:0
    ~len:(page_multiple t * page_size t)

let copy_page t ~src ~dst =
  charge_frames t;
  Phys_mem.copy_frames (Machine.phys (machine t)) ~src ~dst
    ~frames:(page_multiple t)

let shared_map_bytes t = t.factory.Backend.shared_map_bytes ()

let total_map_bytes t =
  Int_tbl.fold
    (fun _ p acc -> acc + p.Pmap.map_bytes ())
    t.registry (shared_map_bytes t)

let total_stats t =
  let acc = Pmap.fresh_stats () in
  Int_tbl.iter
    (fun _ p ->
       let s = p.Pmap.stats in
       acc.Pmap.enters <- acc.Pmap.enters + s.Pmap.enters;
       acc.Pmap.removals <- acc.Pmap.removals + s.Pmap.removals;
       acc.Pmap.protect_ops <- acc.Pmap.protect_ops + s.Pmap.protect_ops;
       acc.Pmap.alias_evictions <-
         acc.Pmap.alias_evictions + s.Pmap.alias_evictions;
       acc.Pmap.context_steals <-
         acc.Pmap.context_steals + s.Pmap.context_steals;
       acc.Pmap.cache_drops <- acc.Pmap.cache_drops + s.Pmap.cache_drops)
    t.registry;
  acc

(* Flush batching tests: Machine.shootdown on request lists, the pmap
   layer's batch accumulator and request coalescing, and end-to-end IPI
   counts for multi-page vm_protect/vm_deallocate.  The contract under
   test: batching shrinks the number of consistency exchanges (one IPI
   round per target CPU per operation), never the moment at which
   consistency is restored. *)

open Mach_hw
open Mach_core
open Mach_pmap
module Obs = Mach_obs.Obs

let kb = 1024

(* ---- Machine.shootdown on request lists -------------------------------- *)

let make_translator ~asid table =
  { Translator.asid;
    lookup =
      (fun vpn ->
         match Hashtbl.find_opt table vpn with
         | Some (pfn, prot) -> Translator.Mapped { pfn; prot }
         | None -> Translator.Missing);
    walk_cost = 20; hw_walk = true }

(* A 4-CPU machine with pages 0..3 mapped and every CPU's TLB warm on all
   of them. *)
let batch_setup strategy =
  let m =
    Machine.create ~arch:Arch.uvax2 ~memory_frames:64 ~cpus:4
      ~shootdown:strategy ()
  in
  let table = Hashtbl.create 8 in
  for vpn = 0 to 3 do
    Hashtbl.replace table vpn (10 + vpn, Prot.read_write)
  done;
  let tr = make_translator ~asid:1 table in
  let ps = Arch.uvax2.Arch.hw_page_size in
  for cpu = 0 to 3 do
    Machine.set_translator m ~cpu (Some tr);
    for vpn = 0 to 3 do
      ignore (Machine.read_byte m ~cpu ~va:(vpn * ps))
    done
  done;
  (m, table)

let reqs_0_to_3 =
  [ Machine.Flush_range { asid = 1; lo_vpn = 0; hi_vpn = 3 };
    Machine.Flush_page { asid = 1; vpn = 3 } ]

(* [(requests, span_pages)] of every traced shootdown, oldest first. *)
let shootdown_events tr =
  let acc = ref [] in
  Mach_obs.Ring.iter
    (fun r ->
       match r.Obs.ev with
       | Obs.Shootdown { requests; span_pages; _ } ->
         acc := (requests, span_pages) :: !acc
       | _ -> ())
    (Obs.ring tr);
  List.rev !acc

(* Whether [cpu]'s TLB holds [vpn] of its active address space: a read
   of the page counts a TLB hit only then.  The read refills a missing
   entry (or faults on an unmapped page), so probe a page once. *)
let cached m ~cpu ~vpn =
  let hits () = (Machine.stats m).Machine.tlb_hit_count in
  let before = hits () in
  (try
     ignore
       (Machine.translate m ~cpu ~va:(vpn * Arch.uvax2.Arch.hw_page_size)
          ~write:false)
   with Machine.Memory_violation _ -> ());
  hits () > before

let test_batch_one_ipi_per_target () =
  let m, _table = batch_setup Machine.Immediate_ipi in
  Machine.shootdown m ~initiator:0 ~targets:[ 0; 1; 2; 3 ]
    reqs_0_to_3 ~urgent:false;
  (* 3 remote targets, 2 requests: the IPI count follows targets, not
     requests or pages. *)
  Alcotest.(check int) "one IPI per remote target" 3
    (Machine.stats m).Machine.ipis;
  for cpu = 0 to 3 do
    for vpn = 0 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "cpu%d vpn%d flushed" cpu vpn)
        false (cached m ~cpu ~vpn)
    done
  done

let test_batch_empty_and_singleton () =
  let m, _table = batch_setup Machine.Immediate_ipi in
  let tr = Obs.create () in
  Obs.set_enabled tr true;
  Machine.set_tracer m tr;
  Machine.shootdown m ~initiator:0 ~targets:[ 0; 1; 2; 3 ] []
    ~urgent:false;
  Alcotest.(check int) "empty batch is a no-op" 0
    (Machine.stats m).Machine.shootdowns;
  Machine.shootdown m ~initiator:0 ~targets:[ 0; 1 ]
    [ Machine.Flush_page { asid = 1; vpn = 0 } ]
    ~urgent:false;
  (* A lone flush is a batch of one: one exchange, one event. *)
  Alcotest.(check int) "one shootdown" 1 (Machine.stats m).Machine.shootdowns;
  Alcotest.(check (list (pair int int))) "one event, 1 request, 1 page"
    [ (1, 1) ] (shootdown_events tr);
  Alcotest.(check int) "one IPI" 1 (Machine.stats m).Machine.ipis;
  Alcotest.(check bool) "cpu1 vpn0 flushed" false (cached m ~cpu:1 ~vpn:0);
  Alcotest.(check bool) "cpu1 vpn1 kept" true (cached m ~cpu:1 ~vpn:1)

let test_batch_deferred_waits () =
  let m, _table = batch_setup Machine.Deferred_timer in
  let before = Machine.cycles m ~cpu:0 in
  Machine.shootdown m ~initiator:0 ~targets:[ 0; 1; 2; 3 ]
    reqs_0_to_3 ~urgent:false;
  Alcotest.(check int) "no IPIs" 0 (Machine.stats m).Machine.ipis;
  Alcotest.(check bool) "initiator waited out the tick" true
    (Machine.cycles m ~cpu:0 - before > 1000);
  (* Consistency restored at the tick: both requests landed on each of
     the 3 remotes. *)
  Alcotest.(check int) "deferred flushes counted" 6
    (Machine.stats m).Machine.deferred_flushes;
  Alcotest.(check bool) "cpu2 vpn1 flushed" false (cached m ~cpu:2 ~vpn:1)

let test_batch_lazy_queues () =
  let m, _table = batch_setup Machine.Lazy_local in
  Machine.shootdown m ~initiator:0 ~targets:[ 0; 1; 2; 3 ]
    reqs_0_to_3 ~urgent:false;
  Alcotest.(check int) "no IPIs" 0 (Machine.stats m).Machine.ipis;
  (* Initiator flushed immediately, remotes only queued. *)
  Alcotest.(check bool) "initiator flushed" false (cached m ~cpu:0 ~vpn:1);
  (* A hit inside the batched range counts as a stale use. *)
  Alcotest.(check bool) "remote still cached" true (cached m ~cpu:1 ~vpn:1);
  Alcotest.(check int) "stale use counted" 1
    (Machine.stats m).Machine.stale_tlb_uses;
  Machine.tick m;
  Alcotest.(check int) "both requests drained at tick on each remote" 6
    (Machine.stats m).Machine.deferred_flushes;
  Alcotest.(check bool) "drained at tick" false (cached m ~cpu:1 ~vpn:1)

let test_batch_urgent_overrides_lazy () =
  let m, _table = batch_setup Machine.Lazy_local in
  Machine.shootdown m ~initiator:0 ~targets:[ 0; 1; 2; 3 ]
    reqs_0_to_3 ~urgent:true;
  Alcotest.(check int) "IPIs despite lazy strategy" 3
    (Machine.stats m).Machine.ipis;
  Machine.tick m;
  Alcotest.(check int) "nothing pending" 0
    (Machine.stats m).Machine.deferred_flushes

let test_flush_range_is_half_open () =
  let m, _table = batch_setup Machine.Immediate_ipi in
  Machine.flush_local m ~cpu:1
    (Machine.Flush_range { asid = 1; lo_vpn = 1; hi_vpn = 3 });
  Alcotest.(check bool) "below kept" true (cached m ~cpu:1 ~vpn:0);
  Alcotest.(check bool) "lo dropped" false (cached m ~cpu:1 ~vpn:1);
  Alcotest.(check bool) "mid dropped" false (cached m ~cpu:1 ~vpn:2);
  Alcotest.(check bool) "hi kept (half-open)" true (cached m ~cpu:1 ~vpn:3)

(* ---- the pmap layer's accumulator -------------------------------------- *)

(* Scattered pages below the promotion threshold coalesce into
   range/page requests delivered as one batched exchange. *)
let test_accumulator_coalesces () =
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:256 ~cpus:2 () in
  let domain = Pmap_domain.create machine in
  let tr = Obs.create () in
  Obs.set_enabled tr true;
  Machine.set_tracer machine tr;
  let p = Pmap_domain.create_pmap domain in
  let ps = Arch.uvax2.Arch.hw_page_size in
  p.Pmap.activate ~cpu:0;
  p.Pmap.activate ~cpu:1;
  List.iter
    (fun vpn ->
       p.Pmap.enter ~va:(vpn * ps) ~pfn:(20 + vpn) ~prot:Prot.read_write
         ~wired:false)
    [ 0; 1; 2; 10 ];
  Machine.reset_clocks machine;
  Pmap_domain.batched domain (fun () ->
      p.Pmap.remove ~start_va:0 ~end_va:(3 * ps);
      p.Pmap.remove ~start_va:(10 * ps) ~end_va:(11 * ps));
  (* One batched exchange carrying [0,3) as a range plus page 10: one IPI
     to the one remote CPU, and one Shootdown event with 2 requests
     spanning 4 pages. *)
  Alcotest.(check int) "one IPI" 1 (Machine.stats machine).Machine.ipis;
  Alcotest.(check (list (pair int int)))
    "one batched exchange: 2 coalesced requests, 4 pages"
    [ (2, 4) ] (shootdown_events tr);
  Alcotest.(check (option int)) "all removed" None (p.Pmap.extract 0)

(* Past the threshold the accumulator promotes to a whole-space flush:
   still one exchange, delivered as a plain (singleton) shootdown. *)
let test_accumulator_promotes () =
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:256 ~cpus:2 () in
  let domain = Pmap_domain.create machine in
  let p = Pmap_domain.create_pmap domain in
  let ps = Arch.uvax2.Arch.hw_page_size in
  p.Pmap.activate ~cpu:0;
  p.Pmap.activate ~cpu:1;
  for vpn = 0 to 15 do
    p.Pmap.enter ~va:(vpn * ps) ~pfn:(20 + vpn) ~prot:Prot.read_write
      ~wired:false
  done;
  Machine.reset_clocks machine;
  p.Pmap.remove ~start_va:0 ~end_va:(16 * ps);
  Alcotest.(check int) "one IPI for 16 pages" 1
    (Machine.stats machine).Machine.ipis;
  Alcotest.(check int) "one shootdown" 1
    (Machine.stats machine).Machine.shootdowns

(* ---- end-to-end: vm_protect / vm_deallocate --------------------------- *)

let boot ?(arch = Arch.uvax2) ?(cpus = 4) () =
  let machine =
    Machine.create ~arch ~memory_frames:2048 ~cpus
      ~shootdown:Machine.Immediate_ipi ()
  in
  let kernel = Kernel.create ~page_multiple:8 machine in
  (machine, kernel, Kernel.sys kernel)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Kr.to_string e)

(* A region of 64 KB (at least two pages) mapped and TLB-warm on all
   four CPUs. *)
let warm_region (machine, kernel, sys) =
  let t = Kernel.create_task kernel () in
  for cpu = 0 to Machine.cpu_count machine - 1 do
    Kernel.run_task kernel ~cpu t
  done;
  let ps = Kernel.page_size kernel in
  let size = max (64 * kb) (2 * ps) in
  let addr = ok (Vm_user.allocate sys t ~size ~anywhere:true ()) in
  for cpu = 0 to Machine.cpu_count machine - 1 do
    let rec sweep va =
      if va < addr + size then begin
        Machine.touch machine ~cpu ~va ~write:true;
        sweep (va + ps)
      end
    in
    sweep addr
  done;
  Machine.reset_clocks machine;
  (t, addr, size)

let archs =
  [ Arch.uvax2; Arch.rt_pc; Arch.sun3_160; Arch.ns32082; Arch.rp3_tlb ]

let task_pmap t =
  match (Task.map t).Types.map_pmap with
  | Some p -> p
  | None -> Alcotest.fail "task map has no pmap"

(* Lowering is one exchange per target CPU; raising is none, on every
   backend: the stale read-only entries it leaves are dropped by the
   protection fault of the first write through them. *)
let test_protect_ipis_scale_with_targets () =
  List.iter
    (fun arch ->
       let name what = Printf.sprintf "%s [%s]" what arch.Arch.name in
       let machine, kernel, sys = boot ~arch () in
       let t, addr, size = warm_region (machine, kernel, sys) in
       let stats = Machine.stats machine in
       let protect prot =
         Pmap_domain.set_current_cpu kernel.Kernel.domain 0;
         ok (Vm_user.protect sys t ~addr ~size ~set_max:false ~prot)
       in
       protect Prot.read_only;
       (* Every kernel page revoked, 3 remote CPUs: one IPI per target
          CPU, not per page. *)
       Alcotest.(check int) (name "lowering: one exchange") 1
         stats.Machine.shootdowns;
       Alcotest.(check int) (name "lowering: IPIs = target CPUs") 3
         stats.Machine.ipis;
       Alcotest.(check int) (name "no stale uses under Immediate_ipi") 0
         stats.Machine.stale_tlb_uses;
       (* The revocation really landed everywhere. *)
       for cpu = 0 to 3 do
         try
           Machine.write_byte machine ~cpu ~va:addr 'X';
           Alcotest.fail (name "stale writable TLB entry survived")
         with Machine.Memory_violation _ -> ()
       done;
       (* CPU 1 caches the first page read-only; then rights come back. *)
       let before = Machine.read_byte machine ~cpu:1 ~va:addr in
       let written = Char.chr (Char.code before + 1) in
       let clocks () = List.init 4 (fun cpu -> Machine.cycles machine ~cpu) in
       let pmap = task_pmap t in
       let protect_ops = pmap.Pmap.stats.Pmap.protect_ops in
       Machine.reset_clocks machine;
       protect Prot.read_write;
       Alcotest.(check int) (name "raising: pmap untouched") protect_ops
         pmap.Pmap.stats.Pmap.protect_ops;
       (* The backends' own rule: a raising pmap_protect writes, charges
          and flushes nothing (a TLB flush charges its CPU). *)
       let cycles = clocks () in
       pmap.Pmap.protect ~start_va:addr ~end_va:(addr + size)
         ~prot:Prot.all;
       Alcotest.(check (list int)) (name "raising pmap_protect: 0 cycles")
         cycles (clocks ());
       Alcotest.(check int) (name "raising: no shootdown") 0
         stats.Machine.shootdowns;
       Alcotest.(check int) (name "raising: no IPI") 0 stats.Machine.ipis;
       (* The stale read-only entry costs CPU 1 one protection fault. *)
       Machine.write_byte machine ~cpu:1 ~va:addr written;
       Alcotest.(check int) (name "write through the stale entry: 1 fault")
         1 stats.Machine.faults;
       (* A write that walks the read-only pte caches it before trapping;
          the re-enter flushes that local entry, so this is one fault
          too. *)
       let ps = Kernel.page_size kernel in
       Machine.write_byte machine ~cpu:2 ~va:(addr + ps) written;
       Alcotest.(check int) (name "write through a walk: 1 more fault") 2
         stats.Machine.faults;
       Alcotest.(check int) (name "writes after a raise: no IPI") 0
         stats.Machine.ipis;
       Alcotest.(check (list string)) (name "TLBs within pmaps") []
         (Vm_debug.check_all sys ~maps:[ Task.map t ]);
       List.iter
         (fun cpu ->
            Alcotest.(check char)
              (name (Printf.sprintf "read back on CPU %d" cpu))
              written (Machine.read_byte machine ~cpu ~va:addr))
         [ 0; 1; 2; 3 ];
       protect Prot.read_only;
       Alcotest.(check int) (name "lowering again: one exchange") 1
         stats.Machine.shootdowns;
       Alcotest.(check int) (name "lowering again: IPIs = target CPUs") 3
         stats.Machine.ipis)
    archs

let test_deallocate_ipis_scale_with_targets () =
  let machine, kernel, sys = boot () in
  let t, addr, size = warm_region (machine, kernel, sys) in
  Mach_pmap.Pmap_domain.set_current_cpu kernel.Kernel.domain 0;
  ok (Vm_user.deallocate sys t ~addr ~size);
  Alcotest.(check bool) "IPIs bounded by target CPUs"
    true
    ((Machine.stats machine).Machine.ipis <= 3);
  Alcotest.(check int) "no stale uses under Immediate_ipi" 0
    (Machine.stats machine).Machine.stale_tlb_uses;
  for cpu = 0 to 3 do
    try
      ignore (Machine.read_byte machine ~cpu ~va:addr);
      Alcotest.fail "deallocated page still readable"
    with Machine.Memory_violation _ -> ()
  done

(* ---- page-granular consistency ----------------------------------------- *)

(* A task that ran on CPU 1 maps [pages] machine-independent pages of
   [multiple] hardware frames each; the pageout daemon on CPU 0 then
   evicts them all.  Returns the machine counters of the eviction. *)
let evict_from_cpu0 arch ~multiple ~pages =
  let machine =
    Machine.create ~arch ~memory_frames:2048 ~cpus:2
      ~shootdown:Machine.Immediate_ipi ()
  in
  let kernel = Kernel.create ~page_multiple:multiple machine in
  let sys = Kernel.sys kernel in
  let t = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:1 t;
  let ps = Kernel.page_size kernel in
  let addr = ok (Vm_user.allocate sys t ~size:(pages * ps) ~anywhere:true ()) in
  for i = 0 to pages - 1 do
    Machine.touch machine ~cpu:1 ~va:(addr + (i * ps)) ~write:false
  done;
  Machine.reset_clocks machine;
  Pmap_domain.set_current_cpu kernel.Kernel.domain 0;
  Vm_pageout.deactivate_some sys ~count:pages;
  Vm_pageout.run sys ~wanted:pages;
  Alcotest.(check int) "every page evicted" 0
    (Resident.active_count sys.Vm_sys.resident
     + Resident.inactive_count sys.Vm_sys.resident);
  Machine.stats machine

(* Evicting a page is one consistency exchange, however many hardware
   frames it spans: its frames' vpns travel as one range request. *)
let test_evict_one_exchange_per_page () =
  let s = evict_from_cpu0 Arch.vax8200 ~multiple:8 ~pages:1 in
  Alcotest.(check int) "VAX: one shootdown for 8 frames" 1
    s.Machine.shootdowns;
  Alcotest.(check int) "VAX: one IPI for 8 frames" 1 s.Machine.ipis;
  let s = evict_from_cpu0 Arch.rt_pc ~multiple:2 ~pages:4 in
  Alcotest.(check int) "RT PC: one shootdown per page" 4
    s.Machine.shootdowns

(* ---- closing a batch ----------------------------------------------------- *)

(* A domain on a 2-CPU uVAX II under Immediate_ipi: one pmap active on
   both CPUs with vpns 0..3 mapped read-write and cached in both TLBs. *)
let domain_setup () =
  let m =
    Machine.create ~arch:Arch.uvax2 ~memory_frames:64 ~cpus:2
      ~shootdown:Machine.Immediate_ipi ()
  in
  let d = Pmap_domain.create m in
  let p = Pmap_domain.create_pmap d in
  let ps = Arch.uvax2.Arch.hw_page_size in
  p.Pmap.activate ~cpu:0;
  p.Pmap.activate ~cpu:1;
  for vpn = 0 to 3 do
    p.Pmap.enter ~va:(vpn * ps) ~pfn:(10 + vpn) ~prot:Prot.read_write
      ~wired:false
  done;
  for cpu = 0 to 1 do
    for vpn = 0 to 3 do
      ignore (Machine.read_byte m ~cpu ~va:(vpn * ps))
    done
  done;
  (m, d, p, ps)

(* A batch that collects nothing closes at once: no exchange, no cycle.
   A fresh enter collects nothing either.  The batches after them still
   issue what they collect: a lost right as one exchange, a gained right
   as a flush of the initiator's own entry only. *)
let test_empty_batch_is_free () =
  let m, d, p, ps = domain_setup () in
  let st = Machine.stats m in
  let shots = st.Machine.shootdowns and ipis = st.Machine.ipis in
  let c0 = Machine.cycles m ~cpu:0 and c1 = Machine.cycles m ~cpu:1 in
  Pmap_domain.batched d ignore;
  Alcotest.(check int) "no shootdown" shots st.Machine.shootdowns;
  Alcotest.(check int) "no IPI" ipis st.Machine.ipis;
  Alcotest.(check int) "no cycle on cpu0" c0 (Machine.cycles m ~cpu:0);
  Alcotest.(check int) "no cycle on cpu1" c1 (Machine.cycles m ~cpu:1);
  Pmap_domain.batched d (fun () ->
      p.Pmap.enter ~va:(5 * ps) ~pfn:20 ~prot:Prot.read_write ~wired:false);
  Alcotest.(check int) "fresh enter: no shootdown" shots
    st.Machine.shootdowns;
  Pmap_domain.batched d (fun () ->
      p.Pmap.protect ~start_va:0 ~end_va:ps ~prot:Prot.read_only);
  Alcotest.(check int) "lost right: one shootdown" (shots + 1)
    st.Machine.shootdowns;
  Alcotest.(check int) "lost right: one IPI" (ipis + 1) st.Machine.ipis;
  Alcotest.(check bool) "cpu1 vpn0 flushed" false (cached m ~cpu:1 ~vpn:0);
  Alcotest.(check bool) "cpu1 vpn1 kept" true (cached m ~cpu:1 ~vpn:1);
  ignore (Machine.read_byte m ~cpu:0 ~va:0);
  Alcotest.(check bool) "cpu0 caches the read-only entry" true
    (cached m ~cpu:0 ~vpn:0);
  Pmap_domain.batched d (fun () ->
      p.Pmap.enter ~va:0 ~pfn:10 ~prot:Prot.read_write ~wired:false);
  Alcotest.(check int) "gained right: no shootdown" (shots + 1)
    st.Machine.shootdowns;
  Alcotest.(check bool) "gained right: cpu0 entry flushed" false
    (cached m ~cpu:0 ~vpn:0)

(* A body that raises inside a batch still closes it: what it collected
   goes out as the exception passes, and the depth is back to zero, so a
   later unbatched remove is issued at once. *)
let test_raising_batch_closes () =
  let m, d, p, ps = domain_setup () in
  let st = Machine.stats m in
  let shots = st.Machine.shootdowns in
  (match
     Pmap_domain.batched d (fun () ->
         p.Pmap.remove ~start_va:0 ~end_va:ps;
         raise Exit)
   with
   | () -> Alcotest.fail "expected Exit"
   | exception Exit -> ());
  Alcotest.(check int) "collected flush issued" (shots + 1)
    st.Machine.shootdowns;
  Alcotest.(check bool) "cpu1 vpn0 flushed" false (cached m ~cpu:1 ~vpn:0);
  p.Pmap.remove ~start_va:ps ~end_va:(2 * ps);
  Alcotest.(check int) "next remove issued at once" (shots + 2)
    st.Machine.shootdowns;
  Alcotest.(check bool) "cpu1 vpn1 flushed" false (cached m ~cpu:1 ~vpn:1);
  Alcotest.(check bool) "cpu1 vpn2 kept" true (cached m ~cpu:1 ~vpn:2)

(* ---- allocation guard: the batch holds pages --------------------------- *)

(* Minor-heap words [f] allocates. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

(* smp's consistency path in small: an NS32082 kernel with page multiple
   8 (4 KB pages of eight 512-byte frames) and 256 pages of one task
   written from 2 CPUs.  Each round reprotects the range down and up and
   drops its mappings, the pages written again before each step; only
   the steps are measured.  Each step is one batch of 256 pages: a batch
   that held every page as its 8 hardware vpns in lists and sorted them
   at the end allocated about 179,000 words a round; one that holds a
   page once, by its first vpn, and stops counting past the whole-space
   threshold leaves about 6,200 to the vm layer and the range walk.  The
   count repeats exactly. *)
let test_drop_and_reprotect_allocation () =
  let machine =
    Machine.create ~arch:Arch.ns32082 ~memory_frames:4096 ~cpus:2
      ~shootdown:Machine.Immediate_ipi ()
  in
  let kernel = Kernel.create ~page_multiple:8 machine in
  let sys = Kernel.sys kernel in
  let t = Kernel.create_task kernel () in
  let ps = Kernel.page_size kernel and pages = 256 in
  let size = pages * ps in
  let addr = ok (Vm_user.allocate sys t ~size ~anywhere:true ()) in
  for cpu = 0 to 1 do
    Kernel.run_task kernel ~cpu t
  done;
  let write_all () =
    for cpu = 0 to 1 do
      for i = 0 to pages - 1 do
        Machine.touch machine ~cpu ~va:(addr + (i * ps)) ~write:true
      done
    done
  in
  let pmap = task_pmap t in
  let round () =
    write_all ();
    let reprotect =
      minor_words (fun () ->
          List.iter
            (fun prot ->
               ok (Vm_user.protect sys t ~addr ~size ~set_max:false ~prot))
            [ Prot.read_only; Prot.read_write ])
    in
    write_all ();
    reprotect
    + minor_words (fun () ->
        pmap.Pmap.remove ~start_va:addr ~end_va:(addr + size))
  in
  ignore (round ());
  let words = (round () + round () + round ()) / 3 in
  let shootdowns = (Machine.stats machine).Machine.shootdowns in
  Alcotest.(check bool) "rounds shoot down" true (shootdowns >= 8);
  if words >= 20_000 then
    Alcotest.failf "%d minor words per drop-and-reprotect round" words

(* ---- qcheck: page-granular requests equal the vpn-by-vpn reference ----- *)

(* The requests of one asid's vpns as the batch built them when it held
   hardware vpns: each page expanded to its vpns, sorted and deduplicated,
   one whole-space flush past 8 vpns, else adjacent vpns coalesced into
   ranges, the highest first. *)
let reference_requests ~asid vpns =
  let vpns = List.sort_uniq Int.compare vpns in
  if List.length vpns > 8 then [ Machine.Flush_asid asid ]
  else
    let emit lo hi acc =
      if hi = lo + 1 then Machine.Flush_page { asid; vpn = lo } :: acc
      else Machine.Flush_range { asid; lo_vpn = lo; hi_vpn = hi } :: acc
    in
    let rec go lo hi acc = function
      | [] -> emit lo hi acc
      | v :: rest ->
        if v = hi then go lo (hi + 1) acc rest
        else go v (v + 1) (emit lo hi acc) rest
    in
    match vpns with [] -> [] | v :: rest -> go v (v + 1) [] rest

(* [(local, shot)] by the reference: the shot pages' requests, and the
   local pages' vpns less the shot ones, none at all when the shot side
   flushes the whole space. *)
let reference_batch ~page_frames ~asid ops =
  let vpns shot =
    List.concat_map
      (fun (s, first) ->
         if s = shot then List.init page_frames (( + ) first) else [])
      ops
  in
  let shot_vpns = vpns true in
  let shot = reference_requests ~asid shot_vpns in
  let local =
    match shot with
    | [ Machine.Flush_asid _ ] -> []
    | _ ->
      reference_requests ~asid
        (List.filter (fun v -> not (List.mem v shot_vpns)) (vpns false))
  in
  (local, shot)

(* [(local, shot)] as an open batch collects them: [(true, vpn)] shoots
   the page at [vpn], [(false, vpn)] re-enters it with gained rights. *)
let batch_of ~page_frames ~asid ops =
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:64 ~cpus:1 () in
  let ctx = Backend.create ~page_frames machine in
  let p = { Backend.active = [| true |]; ran_on = [| true |] } in
  Backend.begin_batch ctx;
  List.iter
    (fun (shot, vpn) ->
       if shot then Backend.shoot_page ctx p ~asid ~vpn
       else
         Backend.reenter ctx p ~asid ~vpn ~old:Prot.read_only
           ~prot:Prot.read_write)
    ops;
  (Backend.local_requests ctx, Backend.shot_requests ctx)

let batch_gen =
  QCheck2.Gen.(
    let* page_frames = oneofl [ 1; 2; 4; 8 ] in
    let page = map (fun i -> i * page_frames) (int_range 0 15) in
    let run =
      map2
        (fun first n -> List.init n (fun i -> first + (i * page_frames)))
        page (int_range 1 6)
    in
    let side pages = map2 (fun s l -> List.map (fun v -> (s, v)) l) bool pages in
    let+ ops =
      list_size (int_range 0 8)
        (oneof [ side (map (fun v -> [ v ]) page); side run ])
    in
    (page_frames, List.concat ops))

let print_batch (page_frames, ops) =
  Printf.sprintf "page_frames %d: %s" page_frames
    (String.concat " "
       (List.map
          (fun (shot, v) -> Printf.sprintf "%s%d" (if shot then "S" else "L") v)
          ops))

let batch_qcheck =
  QCheck2.Test.make ~name:"batch requests equal the vpn-by-vpn reference"
    ~count:1000 ~print:print_batch batch_gen
    (fun (page_frames, ops) ->
       batch_of ~page_frames ~asid:3 ops
       = reference_batch ~page_frames ~asid:3 ops)

(* ---- qcheck: TLBs agree with page tables across all backends ----------- *)

type op =
  | Enter of int * int (* vpn, pfn *)
  | Remove of int * int (* lo_vpn, pages *)
  | Protect of int * int (* lo_vpn, pages *)
  | Touch of int * int (* cpu, vpn *)

let op_gen =
  QCheck2.Gen.(
    oneof
      [ map2 (fun v p -> Enter (v, p)) (int_range 0 31) (int_range 1 63);
        map2 (fun v n -> Remove (v, n)) (int_range 0 31) (int_range 1 12);
        map2 (fun v n -> Protect (v, n)) (int_range 0 31) (int_range 1 12);
        map2 (fun c v -> Touch (c, v)) (int_range 0 1) (int_range 0 31) ])

(* Under Immediate_ipi there is never a pending invalidation, so at any
   point every cached TLB entry must agree with the page tables.  The
   model map drives fault-time re-entry so TLB-only machines
   can make progress. *)
let mixed_ops_agree arch ops =
  let machine =
    Machine.create ~arch ~memory_frames:256 ~cpus:2
      ~shootdown:Machine.Immediate_ipi ()
  in
  let domain = Pmap_domain.create machine in
  let p = Pmap_domain.create_pmap domain in
  let ps = arch.Arch.hw_page_size in
  let model : (int, int * Prot.t) Hashtbl.t = Hashtbl.create 32 in
  Machine.set_fault_handler machine (fun ~cpu:_ f ->
      let vpn = f.Machine.fault_va / ps in
      match Hashtbl.find_opt model vpn with
      | Some (pfn, prot) ->
        p.Pmap.enter ~va:(vpn * ps) ~pfn ~prot ~wired:false
      | None ->
        raise (Machine.Memory_violation "unmapped"))
  ;
  p.Pmap.activate ~cpu:0;
  p.Pmap.activate ~cpu:1;
  let apply = function
    | Enter (vpn, pfn) ->
      Hashtbl.replace model vpn (pfn, Prot.read_write);
      p.Pmap.enter ~va:(vpn * ps) ~pfn ~prot:Prot.read_write ~wired:false
    | Remove (lo, n) ->
      for vpn = lo to lo + n - 1 do
        Hashtbl.remove model vpn
      done;
      p.Pmap.remove ~start_va:(lo * ps) ~end_va:((lo + n) * ps)
    | Protect (lo, n) ->
      for vpn = lo to lo + n - 1 do
        match Hashtbl.find_opt model vpn with
        | Some (pfn, prot) ->
          Hashtbl.replace model vpn (pfn, Prot.inter prot Prot.read_only)
        | None -> ()
      done;
      p.Pmap.protect ~start_va:(lo * ps) ~end_va:((lo + n) * ps)
        ~prot:Prot.read_only
    | Touch (cpu, vpn) ->
      (try ignore (Machine.read_byte machine ~cpu ~va:(vpn * ps))
       with Machine.Memory_violation _ -> ())
  in
  List.iter apply ops;
  Machine.tlb_overreach machine = []
  && (Machine.stats machine).Machine.stale_tlb_uses = 0

let mixed_ops_qcheck arch =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "TLBs agree with page tables after mixed ops [%s]"
         arch.Arch.name)
    ~count:60
    QCheck2.Gen.(list_size (int_range 10 50) op_gen)
    (fun ops -> mixed_ops_agree arch ops)

let () =
  Alcotest.run "batch"
    [ ( "machine",
        [ Alcotest.test_case "one IPI per target" `Quick
            test_batch_one_ipi_per_target;
          Alcotest.test_case "empty and singleton batches" `Quick
            test_batch_empty_and_singleton;
          Alcotest.test_case "deferred batch waits out the tick" `Quick
            test_batch_deferred_waits;
          Alcotest.test_case "lazy batch queues all requests" `Quick
            test_batch_lazy_queues;
          Alcotest.test_case "urgent overrides lazy" `Quick
            test_batch_urgent_overrides_lazy;
          Alcotest.test_case "range flush is half-open" `Quick
            test_flush_range_is_half_open ] );
      ( "accumulator",
        [ Alcotest.test_case "coalesces adjacent pages" `Quick
            test_accumulator_coalesces;
          Alcotest.test_case "promotes past the threshold" `Quick
            test_accumulator_promotes;
          Alcotest.test_case "an empty batch is free" `Quick
            test_empty_batch_is_free;
          Alcotest.test_case "a raising body closes its batch" `Quick
            test_raising_batch_closes;
          Alcotest.test_case "drop and reprotect allocate no vpn lists"
            `Quick test_drop_and_reprotect_allocation ] );
      ( "end_to_end",
        [ Alcotest.test_case "vm_protect: IPIs follow targets" `Quick
            test_protect_ipis_scale_with_targets;
          Alcotest.test_case "vm_deallocate: IPIs follow targets" `Quick
            test_deallocate_ipis_scale_with_targets;
          Alcotest.test_case "pageout: one exchange per page" `Quick
            test_evict_one_exchange_per_page ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          (batch_qcheck :: List.map mixed_ops_qcheck archs) ) ]

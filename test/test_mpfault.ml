(* Object locking and burst faulting.

   The contracts under test: the lock layer is cycle-invisible on one
   CPU and burst=1 (machinery on, demand page only) is byte- and
   cycle-identical to burst=0; bursting at any width is invisible to
   data; burst-mapped neighbours are counted as prefetch and their first
   touch as a hit even though they never fault, while a neighbour whose
   mapping went unused is never a hit; each map entry's burst window
   falls to the demand page when neighbours go unused, re-probes on an
   exponential backoff, regrows when a probe is used and holds at the
   cap while neighbours are used; burst records pass the audit; and
   multi-CPU lock stalls are deterministic — replay-identical across
   runs, with or without chaos injection — and conserved in the cycle
   attribution. *)

open Mach_hw
open Mach_core
open Mach_pagers
module Fail = Mach_fail.Fail
module Obs = Mach_obs.Obs

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Kr.to_string e)

(* uVAX II, 512 B hardware pages, multiple 8 => 4 KB system pages. *)
let boot ?(frames = 2048) ?(cpus = 1) () =
  let machine =
    Machine.create ~arch:Arch.uvax2 ~memory_frames:frames ~cpus ()
  in
  let kernel = Kernel.create ~page_multiple:8 machine in
  (machine, kernel, Kernel.sys kernel)

let pmap_of task =
  match (Task.map task).Types.map_pmap with
  | Some p -> p
  | None -> assert false

(* ---- burst accounting ---------------------------------------------------- *)

(* Zero-fill 32 pages, drop every mapping, touch the region again
   sequentially: with burst=8 that second sweep is 4 faults, each
   mapping 7 neighbours, and every neighbour's first touch counts as a
   prefetch hit (none of them fault). *)
let test_burst_counts () =
  let machine, kernel, sys = boot () in
  sys.Vm_sys.burst_max <- 8;
  let task = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:0 task;
  let ps = sys.Vm_sys.page_size in
  let n = 32 in
  let addr = ok (Vm_user.allocate sys task ~size:(n * ps) ~anywhere:true ()) in
  for i = 0 to n - 1 do
    Machine.write_byte machine ~cpu:0 ~va:(addr + (i * ps)) 'b'
  done;
  let pmap = pmap_of task in
  pmap.Mach_pmap.Pmap.remove ~start_va:addr ~end_va:(addr + (n * ps));
  let s = sys.Vm_sys.stats in
  let f0 = s.Vm_stats.vs_faults in
  for i = 0 to n - 1 do
    Machine.touch machine ~cpu:0 ~va:(addr + (i * ps)) ~write:true
  done;
  Alcotest.(check int) "faults in the sweep" 4 (s.Vm_stats.vs_faults - f0);
  Alcotest.(check int) "burst faults" 4 s.Vm_stats.vs_burst_faults;
  Alcotest.(check int) "neighbours mapped" 28 s.Vm_stats.vs_burst_mapped;
  Alcotest.(check int) "counted as prefetch" 28 s.Vm_stats.vs_prefetch_issued;
  Alcotest.(check int) "first touches are hits" 28 s.Vm_stats.vs_prefetch_hits;
  Alcotest.(check int) "no stalls on one CPU" 0 s.Vm_stats.vs_lock_stalls

(* Burst-map 7 neighbours, drop the range before any is touched, then
   demand-fault each neighbour (from the top, so none bursts again):
   the burst guess missed, so none of those faults is a prefetch hit. *)
let test_dropped_neighbours_not_hits () =
  let machine, kernel, sys = boot () in
  sys.Vm_sys.burst_max <- 8;
  let task = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:0 task;
  let ps = sys.Vm_sys.page_size in
  let n = 8 in
  let addr = ok (Vm_user.allocate sys task ~size:(n * ps) ~anywhere:true ()) in
  for i = 0 to n - 1 do
    Machine.write_byte machine ~cpu:0 ~va:(addr + (i * ps)) 'd'
  done;
  let pmap = pmap_of task in
  let drop () =
    pmap.Mach_pmap.Pmap.remove ~start_va:addr ~end_va:(addr + (n * ps))
  in
  drop ();
  Machine.touch machine ~cpu:0 ~va:addr ~write:false;
  let s = sys.Vm_sys.stats in
  Alcotest.(check int) "neighbours mapped" 7 s.Vm_stats.vs_burst_mapped;
  Alcotest.(check int) "counted as prefetch" 7 s.Vm_stats.vs_prefetch_issued;
  drop ();
  let f0 = s.Vm_stats.vs_faults in
  for i = n - 1 downto 1 do
    Machine.touch machine ~cpu:0 ~va:(addr + (i * ps)) ~write:false
  done;
  Alcotest.(check int) "every neighbour demand-faulted" 7
    (s.Vm_stats.vs_faults - f0);
  Alcotest.(check int) "no burst after the drop" 7 s.Vm_stats.vs_burst_mapped;
  Alcotest.(check int) "no prefetch hits" 0 s.Vm_stats.vs_prefetch_hits

(* ---- burst window ---------------------------------------------------------- *)

(* Every audit of the VM structures, burst records included, is clean. *)
let audit sys tasks =
  Alcotest.(check (list string)) "audit" []
    (Vm_debug.check_all sys ~maps:(List.map Task.map tasks))

(* The vmbench smp shape on one shared task: each round one CPU touches
   one page, then the whole range is dropped before any neighbour is
   used.  Returns the booted world, the region and the neighbours
   mapped per round's single fault. *)
let drop_rounds rounds =
  let machine, kernel, sys = boot ~cpus:2 () in
  sys.Vm_sys.burst_max <- 8;
  let task = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:0 task;
  Kernel.run_task kernel ~cpu:1 task;
  let ps = sys.Vm_sys.page_size in
  let n = 2 * rounds in
  let addr = ok (Vm_user.allocate sys task ~size:(n * ps) ~anywhere:true ()) in
  for i = 0 to n - 1 do
    Machine.write_byte machine ~cpu:0 ~va:(addr + (i * ps)) 'w'
  done;
  let pmap = pmap_of task in
  let s = sys.Vm_sys.stats in
  let drop () =
    pmap.Mach_pmap.Pmap.remove ~start_va:addr ~end_va:(addr + (n * ps))
  in
  let mapped =
    List.init rounds (fun r ->
        let cpu = r mod 2 in
        Mach_pmap.Pmap_domain.set_current_cpu kernel.Kernel.domain cpu;
        drop ();
        let f0 = s.Vm_stats.vs_faults and m0 = s.Vm_stats.vs_burst_mapped in
        Machine.touch machine ~cpu ~va:(addr + (2 * r * ps)) ~write:(r mod 3 = 0);
        Alcotest.(check int) "one fault per round"
          1 (s.Vm_stats.vs_faults - f0);
        audit sys [ task ];
        s.Vm_stats.vs_burst_mapped - m0)
  in
  Mach_pmap.Pmap_domain.set_current_cpu kernel.Kernel.domain 0;
  drop ();
  (machine, sys, task, addr, n, mapped)

(* The window starts at the cap and halves on each round's misses down
   to the demand page alone.  From there it re-probes one neighbour
   after skipping 1, 2, 4 and then at most [burst_max] = 8 faults. *)
let test_window_shrinks_on_drops () =
  let _, sys, _, _, _, mapped = drop_rounds 24 in
  Alcotest.(check (list int)) "neighbours per fault"
    [ 7; 3; 1; 1; 0; 1; 0; 0; 1; 0; 0; 0; 0; 1; 0; 0; 0; 0; 0; 0; 0; 0; 1; 0 ]
    mapped;
  Alcotest.(check int) "no prefetch hits"
    0 sys.Vm_sys.stats.Vm_stats.vs_prefetch_hits

(* After the drop phase a sequential sweep uses every neighbour: the
   skipped faults run out, the next probe wins, and the window ramps
   2 -> 4 -> 8, back to 7 neighbours per fault within [burst_max] + 4
   faults. *)
let test_window_regrows_from_floor () =
  let machine, sys, task, addr, n, _ = drop_rounds 24 in
  let ps = sys.Vm_sys.page_size in
  let s = sys.Vm_sys.stats in
  let mapped = ref [] in
  for i = 0 to n - 1 do
    let f0 = s.Vm_stats.vs_faults and m0 = s.Vm_stats.vs_burst_mapped in
    Machine.touch machine ~cpu:0 ~va:(addr + (i * ps)) ~write:false;
    if s.Vm_stats.vs_faults > f0 then
      mapped := (s.Vm_stats.vs_burst_mapped - m0) :: !mapped;
    audit sys [ task ]
  done;
  let mapped = List.rev !mapped in
  Alcotest.(check (list int)) "neighbours per fault"
    [ 0; 0; 0; 0; 0; 0; 0; 1; 1; 3; 7; 7; 7; 7; 0 ] mapped;
  let rec first_full k = function
    | [] -> max_int
    | 7 :: _ -> k
    | _ :: l -> first_full (k + 1) l
  in
  Alcotest.(check bool) "full window within burst_max + 4 faults" true
    (first_full 1 mapped <= sys.Vm_sys.burst_max + 4)

(* The mpfault shape: four CPUs sweep interleaved stripes of one shared
   object, then drop and re-sweep.  Other CPUs' burst neighbours sit
   mapped and untouched while each CPU decides — undecided, not misses —
   so the window holds at the cap: every re-sweep is 4 faults per
   stripe with 7 neighbours each, all of them hits. *)
let test_window_holds_on_stripes () =
  let machine, kernel, sys = boot ~cpus:4 () in
  sys.Vm_sys.burst_max <- 8;
  let task = Kernel.create_task kernel () in
  for cpu = 0 to 3 do
    Kernel.run_task kernel ~cpu task
  done;
  let ps = sys.Vm_sys.page_size in
  let stripe_pages = 32 in
  let stripe = stripe_pages * ps in
  let addr = ok (Vm_user.allocate sys task ~size:(4 * stripe) ~anywhere:true ()) in
  let pmap = pmap_of task in
  let sweep () =
    for p = 0 to stripe_pages - 1 do
      for cpu = 0 to 3 do
        Machine.touch machine ~cpu
          ~va:(addr + (cpu * stripe) + (p * ps))
          ~write:true
      done
    done
  in
  sweep ();
  let s = sys.Vm_sys.stats in
  for _ = 1 to 3 do
    for cpu = 0 to 3 do
      Mach_pmap.Pmap_domain.set_current_cpu kernel.Kernel.domain cpu;
      pmap.Mach_pmap.Pmap.remove
        ~start_va:(addr + (cpu * stripe))
        ~end_va:(addr + ((cpu + 1) * stripe))
    done;
    let f0 = s.Vm_stats.vs_faults and m0 = s.Vm_stats.vs_burst_mapped in
    let h0 = s.Vm_stats.vs_prefetch_hits in
    sweep ();
    Alcotest.(check int) "faults per re-sweep" 16 (s.Vm_stats.vs_faults - f0);
    Alcotest.(check int) "neighbours per re-sweep" 112
      (s.Vm_stats.vs_burst_mapped - m0);
    Alcotest.(check int) "hits per re-sweep" 112
      (s.Vm_stats.vs_prefetch_hits - h0);
    audit sys [ task ]
  done

(* Two tasks share one object.  A burst-maps pages 1..7; B then touches
   page 7 through its own mapping.  That touch is B's, not a use of A's
   speculative mapping, so it credits nobody; A's own touch of page 6
   is a hit. *)
let test_other_task_touch_not_credited () =
  let machine, kernel, sys = boot ~cpus:2 () in
  sys.Vm_sys.burst_max <- 8;
  let a = Kernel.create_task kernel ~name:"a" () in
  Kernel.run_task kernel ~cpu:0 a;
  let ps = sys.Vm_sys.page_size in
  let n = 8 in
  let addr = ok (Vm_user.allocate sys a ~size:(n * ps) ~anywhere:true ()) in
  ok (Vm_user.inherit_ sys a ~addr ~size:(n * ps) Inheritance.Shared);
  for i = 0 to n - 1 do
    Machine.write_byte machine ~cpu:0 ~va:(addr + (i * ps)) 's'
  done;
  let b = Kernel.fork_task kernel ~cpu:0 a in
  Kernel.run_task kernel ~cpu:1 b;
  List.iter
    (fun t ->
       (pmap_of t).Mach_pmap.Pmap.remove ~start_va:addr
         ~end_va:(addr + (n * ps)))
    [ a; b ];
  let s = sys.Vm_sys.stats in
  Machine.touch machine ~cpu:0 ~va:addr ~write:false;
  Alcotest.(check int) "A burst-mapped its neighbours"
    7 s.Vm_stats.vs_burst_mapped;
  audit sys [ a; b ];
  Machine.touch machine ~cpu:1 ~va:(addr + (7 * ps)) ~write:false;
  Alcotest.(check int) "B's touch credits nobody" 0 s.Vm_stats.vs_prefetch_hits;
  audit sys [ a; b ];
  Machine.touch machine ~cpu:0 ~va:(addr + (6 * ps)) ~write:false;
  Alcotest.(check int) "A's own touch is a hit" 1 s.Vm_stats.vs_prefetch_hits;
  audit sys [ a; b ]

(* Burst records are per page.  A burst-maps pages 1..7 of a shared
   region on pages of eight hardware frames: one record each, keyed by
   (A's asid, the page's pfn).  A's first touch of frame 3 of page 1
   settles page 1 as a hit; B's touch of page 7 through its own mapping
   leaves A's record pending; a pmap_remove of one frame of page 5 is
   refused (pages are mapped whole) and settles nothing; dropping A's
   mapping of page 5 settles it as a miss. *)
let test_burst_records_per_page () =
  let machine, kernel, sys = boot ~cpus:2 () in
  sys.Vm_sys.burst_max <- 8;
  let a = Kernel.create_task kernel ~name:"a" () in
  Kernel.run_task kernel ~cpu:0 a;
  let ps = sys.Vm_sys.page_size and hw = Arch.uvax2.Arch.hw_page_size in
  let n = 8 in
  let addr = ok (Vm_user.allocate sys a ~size:(n * ps) ~anywhere:true ()) in
  ok (Vm_user.inherit_ sys a ~addr ~size:(n * ps) Inheritance.Shared);
  for i = 0 to n - 1 do
    Machine.write_byte machine ~cpu:0 ~va:(addr + (i * ps)) 'r'
  done;
  let b = Kernel.fork_task kernel ~cpu:0 a in
  Kernel.run_task kernel ~cpu:1 b;
  List.iter
    (fun t ->
       (pmap_of t).Mach_pmap.Pmap.remove ~start_va:addr
         ~end_va:(addr + (n * ps)))
    [ a; b ];
  let asid = (pmap_of a).Mach_pmap.Pmap.asid in
  (* The pending pages, by index in the region; each record's key must
     be A's asid and its own page's pfn. *)
  let pending what expect =
    let pages =
      Mach_util.Int_tbl.fold
        (fun key (r : Vm_sys.burst) acc ->
           let asid' = Mach_util.Int_tbl.pair_hi key
           and pfn = Mach_util.Int_tbl.pair_lo key in
           let p = r.Vm_sys.b_page in
           if asid' <> asid || pfn <> p.Types.pfn then
             Alcotest.failf "record (%d, %d) for page pfn=%d" asid' pfn
               p.Types.pfn;
           (p.Types.pg_offset / ps) :: acc)
        sys.Vm_sys.burst_pending []
    in
    Alcotest.(check (list int)) what expect (List.sort Int.compare pages);
    audit sys [ a; b ]
  in
  let s = sys.Vm_sys.stats in
  Machine.touch machine ~cpu:0 ~va:addr ~write:false;
  pending "one record per neighbour page" [ 1; 2; 3; 4; 5; 6; 7 ];
  (* The entry whose window the outcomes feed (in the sharing map). *)
  let entry =
    match
      Mach_util.Int_tbl.fold
        (fun _ (r : Vm_sys.burst) _ -> Some r.Vm_sys.b_entry)
        sys.Vm_sys.burst_pending None
    with
    | Some e -> e
    | None -> Alcotest.fail "no burst record"
  in
  Machine.touch machine ~cpu:0 ~va:(addr + ps + (3 * hw)) ~write:false;
  pending "frame 3's touch settles page 1" [ 2; 3; 4; 5; 6; 7 ];
  Alcotest.(check int) "a hit" 1 s.Vm_stats.vs_prefetch_hits;
  Alcotest.(check int) "the entry's hit" 1 entry.Types.e_burst_hits;
  Machine.touch machine ~cpu:1 ~va:(addr + (7 * ps)) ~write:false;
  pending "B's touch leaves A's record" [ 2; 3; 4; 5; 6; 7 ];
  let va5 = addr + (5 * ps) in
  Alcotest.check_raises "one frame of page 5"
    (Invalid_argument
       "pmap_remove/pmap_protect: range must cover whole pages")
    (fun () ->
       (pmap_of a).Mach_pmap.Pmap.remove ~start_va:(va5 + (2 * hw))
         ~end_va:(va5 + (3 * hw)));
  pending "a refused remove settles nothing" [ 2; 3; 4; 5; 6; 7 ];
  (pmap_of a).Mach_pmap.Pmap.remove ~start_va:va5 ~end_va:(va5 + ps);
  pending "page 5 unmapped settles it" [ 2; 3; 4; 6; 7 ];
  Alcotest.(check int) "as a miss" 1 entry.Types.e_burst_misses;
  Alcotest.(check int) "still one hit" 1 s.Vm_stats.vs_prefetch_hits

(* ---- qcheck: burst transparency ------------------------------------------- *)

(* Random streams of reads, writes, pmap range drops and reprotects
   (read-only, then back to read-write, which leaves the hardware
   mappings read-only) over a 16-page region, replayed under two burst
   limits; ends with a full read of the region.  Returns the bytes read,
   the CPU clock and the fault count.  With [audit] the VM structures
   are checked after every op and the first failure raises. *)
let burst_run ?(audit = false) ops burst =
  let machine, kernel, sys = boot () in
  sys.Vm_sys.burst_max <- burst;
  let task = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:0 task;
  let ps = sys.Vm_sys.page_size in
  let n = 16 in
  let addr = ok (Vm_user.allocate sys task ~size:(n * ps) ~anywhere:true ()) in
  let pmap = pmap_of task in
  List.iter
    (fun (i, kind) ->
       (match kind with
        | 0 -> Machine.touch machine ~cpu:0 ~va:(addr + (i * ps)) ~write:false
        | 1 ->
          Machine.write_byte machine ~cpu:0 ~va:(addr + (i * ps))
            (Char.chr (0x40 + i))
        | 2 ->
          pmap.Mach_pmap.Pmap.remove ~start_va:(addr + (i * ps))
            ~end_va:(addr + (n * ps))
        | _ ->
          List.iter
            (fun prot ->
               ok
                 (Vm_user.protect sys task ~addr:(addr + (i * ps))
                    ~size:((n - i) * ps) ~set_max:false ~prot))
            [ Prot.read_only; Prot.read_write ]);
       if audit then Vm_debug.assert_ok sys ~maps:[ Task.map task ])
    ops;
  let bytes =
    Bytes.to_string (Machine.read machine ~cpu:0 ~va:addr ~len:(n * ps))
  in
  (bytes, Machine.cycles machine ~cpu:0, sys.Vm_sys.stats.Vm_stats.vs_faults)

let ops_gen =
  QCheck2.Gen.(
    list_size (int_range 1 24) (pair (int_range 0 15) (int_range 0 3)))

(* burst=0 and burst=1 both map only the demand page: they must be
   indistinguishable, to the cycle. *)
let burst1_is_legacy =
  QCheck2.Test.make ~name:"burst=1 byte- and cycle-identical to burst=0"
    ~count:40 ops_gen
    (fun ops -> burst_run ops 0 = burst_run ops 1)

(* Bursting any width must be invisible to data and never add faults,
   and its bookkeeping must pass the audit after every op. *)
let burst_transparent =
  QCheck2.Test.make ~name:"burst=8 byte-identical, never more faults"
    ~count:40 ops_gen
    (fun ops ->
       let b0, _, f0 = burst_run ops 0 in
       let b8, _, f8 = burst_run ~audit:true ops 8 in
       b0 = b8 && f8 <= f0)

(* ---- 4-CPU contention: deterministic and conserved ------------------------ *)

(* Four CPUs zero-fill disjoint stripes of one shared object in a
   round-robin interleave (writer sections overlap on the virtual
   clocks), then twice drop their stripe's mappings and re-touch it.
   With [chaos_seed] the default pager is chaos-wrapped and memory is
   pressured, so pageout and pagein churn through the injector too. *)
let contention_run ?chaos_seed ?(frames = 4096) () =
  let machine, kernel, sys = boot ~frames ~cpus:4 () in
  let tr = Obs.create ~capacity:(1 lsl 12) () in
  Obs.set_enabled tr true;
  Machine.set_tracer machine tr;
  let fp =
    match chaos_seed with
    | None -> None
    | Some seed ->
      let inj = Fail.create ~seed in
      List.iter
        (fun (site, plan) -> Fail.attach inj ~site plan)
        (Option.value ~default:[] (Fail.profile "flaky"));
      sys.Vm_sys.pager_decorator <- Some (Chaos_pager.wrap sys inj);
      Some (fun () -> Fail.fingerprint inj)
  in
  let task = Kernel.create_task kernel () in
  for cpu = 0 to 3 do
    Kernel.run_task kernel ~cpu task
  done;
  let ps = sys.Vm_sys.page_size in
  let stripe_pages = 32 in
  let stripe = stripe_pages * ps in
  let addr = ok (Vm_user.allocate sys task ~size:(4 * stripe) ~anywhere:true ()) in
  let pmap = pmap_of task in
  (* Clocks, attribution and lock stamps zeroed together: conservation
     is exact from here, and stamps from before the reset are expired. *)
  Machine.reset_clocks machine;
  let sweep () =
    for p = 0 to stripe_pages - 1 do
      for cpu = 0 to 3 do
        Machine.touch machine ~cpu
          ~va:(addr + (cpu * stripe) + (p * ps))
          ~write:true
      done
    done
  in
  sweep ();
  for _ = 1 to 2 do
    for cpu = 0 to 3 do
      Mach_pmap.Pmap_domain.set_current_cpu kernel.Kernel.domain cpu;
      pmap.Mach_pmap.Pmap.remove
        ~start_va:(addr + (cpu * stripe))
        ~end_va:(addr + ((cpu + 1) * stripe))
    done;
    sweep ()
  done;
  let clocks = List.init 4 (fun cpu -> Machine.cycles machine ~cpu) in
  let conserved =
    List.for_all
      (fun cpu -> Obs.attr_cpu_total tr ~cpu = Machine.cycles machine ~cpu)
      [ 0; 1; 2; 3 ]
  in
  let s = sys.Vm_sys.stats in
  ( s.Vm_stats.vs_lock_stalls, s.Vm_stats.vs_lock_stall_cycles, clocks,
    conserved,
    Obs.attr_grand_total tr Obs.Lock_wait,
    match fp with None -> "" | Some f -> f () )

let test_contention_deterministic () =
  let stalls1, cyc1, clocks1, conserved1, attr1, _ = contention_run () in
  let stalls2, cyc2, clocks2, _, _, _ = contention_run () in
  Alcotest.(check bool) "locks contended" true (stalls1 > 0);
  Alcotest.(check int) "replay-identical stalls" stalls1 stalls2;
  Alcotest.(check int) "replay-identical stall cycles" cyc1 cyc2;
  Alcotest.(check (list int)) "replay-identical clocks" clocks1 clocks2;
  Alcotest.(check bool) "attribution conserved per CPU" true conserved1;
  Alcotest.(check int) "Lock_wait attribution equals the stat" cyc1 attr1

let test_contention_chaos_replay () =
  let run () = contention_run ~chaos_seed:9 ~frames:1280 () in
  let stalls1, cyc1, clocks1, conserved1, _, fp1 = run () in
  let stalls2, cyc2, clocks2, _, _, fp2 = run () in
  Alcotest.(check bool) "locks contended under chaos" true (stalls1 > 0);
  Alcotest.(check int) "replay-identical stalls" stalls1 stalls2;
  Alcotest.(check int) "replay-identical stall cycles" cyc1 cyc2;
  Alcotest.(check (list int)) "replay-identical clocks" clocks1 clocks2;
  Alcotest.(check string) "chaos fingerprint stable" fp1 fp2;
  Alcotest.(check bool) "attribution conserved under chaos" true conserved1

(* No release stamp outlives a clock reset.  CPU 0 holds an object's
   lock a million cycles ahead of CPU 1, whose next acquisition stalls;
   CPU 0 holds it again further ahead, the clocks reset, and CPU 1's
   acquisition stalls for nothing. *)
let test_lock_stamp_expires () =
  let machine, kernel, sys = boot ~cpus:2 () in
  let o = Vm_object.create_anonymous sys ~size:sys.Vm_sys.page_size in
  let hold cpu =
    Mach_pmap.Pmap_domain.set_current_cpu kernel.Kernel.domain cpu;
    Vm_object.lock_write sys o ignore
  in
  let stalls () = sys.Vm_sys.stats.Vm_stats.vs_lock_stalls in
  Machine.charge machine ~cpu:0 1_000_000;
  hold 0;
  hold 1;
  Alcotest.(check int) "CPU 1 stalls behind CPU 0" 1 (stalls ());
  Machine.charge machine ~cpu:0 2_000_000;
  hold 0;
  Machine.reset_clocks machine;
  hold 1;
  Alcotest.(check int) "no stall after a clock reset" 1 (stalls ());
  Alcotest.(check int) "and no cycles" 0 (Machine.cycles machine ~cpu:1)

let () =
  Alcotest.run "mpfault"
    [ ( "burst",
        [ Alcotest.test_case "neighbour accounting" `Quick test_burst_counts;
          Alcotest.test_case "dropped neighbours are not hits" `Quick
            test_dropped_neighbours_not_hits ] );
      ( "window",
        [ Alcotest.test_case "shrinks when neighbours are dropped" `Quick
            test_window_shrinks_on_drops;
          Alcotest.test_case "regrows from the floor" `Quick
            test_window_regrows_from_floor;
          Alcotest.test_case "holds on interleaved stripes" `Quick
            test_window_holds_on_stripes;
          Alcotest.test_case "another task's touch credits nobody" `Quick
            test_other_task_touch_not_credited;
          Alcotest.test_case "one record per page, settled by any frame"
            `Quick test_burst_records_per_page ] );
      ( "contention",
        [ Alcotest.test_case "4-CPU stalls replay identically" `Quick
            test_contention_deterministic;
          Alcotest.test_case "replay holds under chaos" `Quick
            test_contention_chaos_replay;
          Alcotest.test_case "a clock reset expires the lock stamp" `Quick
            test_lock_stamp_expires ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ burst1_is_legacy; burst_transparent ] ) ]

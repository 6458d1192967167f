(* End-to-end fault-path tests through the whole stack: machine accesses
   drive the kernel fault handler, which drives Vm_fault, objects, the
   resident table and the pmap.  Every test checks *data*, not just
   counters: copy-on-write must isolate exactly the right bytes. *)

open Mach_hw
open Mach_core

let kb = 1024

let boot ?(arch = Arch.uvax2) ?(page_multiple = 8) ?(frames = 2048)
    ?(cpus = 1) () =
  let machine = Machine.create ~arch ~memory_frames:frames ~cpus () in
  let kernel = Kernel.create ~page_multiple machine in
  (machine, kernel, Kernel.sys kernel)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Kr.to_string e)

let new_task kernel ~cpu =
  let t = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu t;
  t

let alloc sys task size =
  ok (Vm_user.allocate sys task ~size ~anywhere:true ())

let read_str machine ~cpu ~va ~len =
  Bytes.to_string (Machine.read machine ~cpu ~va ~len)

let write_str machine ~cpu ~va s =
  Machine.write machine ~cpu ~va (Bytes.of_string s)

(* ---- basic demand paging ---------------------------------------------- *)

let test_demand_zero () =
  let machine, kernel, sys = boot () in
  let t = new_task kernel ~cpu:0 in
  let a = alloc sys t (16 * kb) in
  (* Freshly allocated memory reads as zeros even if the frame was dirty
     before. *)
  for i = 0 to (16 * kb) - 1 do
    if Machine.read_byte machine ~cpu:0 ~va:(a + i) <> '\000' then
      Alcotest.fail "non-zero fill"
  done;
  Alcotest.(check int) "zero fills counted" 4
    sys.Vm_sys.stats.Vm_stats.vs_zero_fills

let test_zero_fill_fresh_after_free () =
  let machine, kernel, sys = boot ~frames:64 () in
  (* 64 frames / multiple 8 = 8 pages; write garbage, free, reallocate:
     must read zero again. *)
  let t = new_task kernel ~cpu:0 in
  let a = alloc sys t (4 * kb) in
  write_str machine ~cpu:0 ~va:a "garbage";
  ok (Vm_user.deallocate sys t ~addr:a ~size:(4 * kb));
  let b = alloc sys t (4 * kb) in
  Alcotest.(check char) "zeroed again" '\000'
    (Machine.read_byte machine ~cpu:0 ~va:b)

let test_unallocated_faults () =
  let machine, kernel, _sys = boot () in
  let t = new_task kernel ~cpu:0 in
  ignore t;
  (try
     ignore (Machine.read_byte machine ~cpu:0 ~va:(100 * 1024 * 1024));
     Alcotest.fail "expected violation"
   with Machine.Memory_violation reason ->
     Alcotest.(check string) "invalid address" "KERN_INVALID_ADDRESS" reason)

let test_data_spans_hw_frames () =
  (* page_multiple 8 on the VAX: one machine-independent page is eight
     512-byte frames; data written across their boundaries must
     round-trip. *)
  let machine, kernel, sys = boot ~page_multiple:8 () in
  let t = new_task kernel ~cpu:0 in
  let a = alloc sys t (8 * kb) in
  let pattern =
    String.init 3000 (fun i -> Char.chr (32 + (i mod 90)))
  in
  write_str machine ~cpu:0 ~va:(a + 400) pattern;
  Alcotest.(check string) "round trip" pattern
    (read_str machine ~cpu:0 ~va:(a + 400) ~len:3000)

let test_page_multiple_one_and_two () =
  List.iter
    (fun multiple ->
       let machine, kernel, sys = boot ~page_multiple:multiple () in
       let t = new_task kernel ~cpu:0 in
       let a = alloc sys t (4 * kb) in
       write_str machine ~cpu:0 ~va:a "multi";
       Alcotest.(check string)
         (Printf.sprintf "multiple=%d" multiple)
         "multi"
         (read_str machine ~cpu:0 ~va:a ~len:5))
    [ 1; 2; 4 ]

(* ---- copy-on-write ------------------------------------------------------ *)

let test_cow_child_isolated () =
  let machine, kernel, sys = boot () in
  let parent = new_task kernel ~cpu:0 in
  let a = alloc sys parent (8 * kb) in
  write_str machine ~cpu:0 ~va:a "parent data";
  let child = Kernel.fork_task kernel ~cpu:0 parent in
  Kernel.run_task kernel ~cpu:0 child;
  Alcotest.(check string) "child inherits" "parent data"
    (read_str machine ~cpu:0 ~va:a ~len:11);
  write_str machine ~cpu:0 ~va:a "child data!";
  Alcotest.(check string) "child sees own" "child data!"
    (read_str machine ~cpu:0 ~va:a ~len:11);
  Kernel.run_task kernel ~cpu:0 parent;
  Alcotest.(check string) "parent unchanged" "parent data"
    (read_str machine ~cpu:0 ~va:a ~len:11);
  Alcotest.(check bool) "cow copy happened" true
    (sys.Vm_sys.stats.Vm_stats.vs_cow_copies >= 1)

let test_cow_parent_write_isolated () =
  let machine, kernel, _sys = boot () in
  let parent = new_task kernel ~cpu:0 in
  let sys = Kernel.sys kernel in
  let a = alloc sys parent (8 * kb) in
  write_str machine ~cpu:0 ~va:a "original";
  let child = Kernel.fork_task kernel ~cpu:0 parent in
  (* Parent writes first this time. *)
  write_str machine ~cpu:0 ~va:a "mutated!";
  Kernel.run_task kernel ~cpu:0 child;
  Alcotest.(check string) "child sees snapshot" "original"
    (read_str machine ~cpu:0 ~va:a ~len:8)

let test_cow_untouched_pages_share_frames () =
  let machine, kernel, sys = boot () in
  let parent = new_task kernel ~cpu:0 in
  let a = alloc sys parent (16 * kb) in
  write_str machine ~cpu:0 ~va:a "page0";
  write_str machine ~cpu:0 ~va:(a + (4 * kb)) "page1";
  let used_before =
    Resident.total_pages sys.Vm_sys.resident
    - Resident.free_count sys.Vm_sys.resident
  in
  let child = Kernel.fork_task kernel ~cpu:0 parent in
  Kernel.run_task kernel ~cpu:0 child;
  (* Reading does not copy. *)
  Alcotest.(check string) "reads shared" "page1"
    (read_str machine ~cpu:0 ~va:(a + (4 * kb)) ~len:5);
  let used_after_reads =
    Resident.total_pages sys.Vm_sys.resident
    - Resident.free_count sys.Vm_sys.resident
  in
  Alcotest.(check int) "no page copied by reads" used_before
    used_after_reads;
  (* One write copies exactly one page. *)
  write_str machine ~cpu:0 ~va:a "child";
  let used_after_write =
    Resident.total_pages sys.Vm_sys.resident
    - Resident.free_count sys.Vm_sys.resident
  in
  Alcotest.(check int) "one page copied" (used_before + 1)
    used_after_write

let test_fork_grandchildren_chain () =
  let machine, kernel, sys = boot () in
  let gen0 = new_task kernel ~cpu:0 in
  let a = alloc sys gen0 (4 * kb) in
  write_str machine ~cpu:0 ~va:a "gen0";
  let gen1 = Kernel.fork_task kernel ~cpu:0 gen0 in
  Kernel.run_task kernel ~cpu:0 gen1;
  write_str machine ~cpu:0 ~va:a "gen1";
  let gen2 = Kernel.fork_task kernel ~cpu:0 gen1 in
  Kernel.run_task kernel ~cpu:0 gen2;
  Alcotest.(check string) "grandchild inherits latest" "gen1"
    (read_str machine ~cpu:0 ~va:a ~len:4);
  write_str machine ~cpu:0 ~va:a "gen2";
  (* All three generations see their own values. *)
  Kernel.run_task kernel ~cpu:0 gen0;
  Alcotest.(check string) "gen0" "gen0" (read_str machine ~cpu:0 ~va:a ~len:4);
  Kernel.run_task kernel ~cpu:0 gen1;
  Alcotest.(check string) "gen1" "gen1" (read_str machine ~cpu:0 ~va:a ~len:4);
  Kernel.run_task kernel ~cpu:0 gen2;
  Alcotest.(check string) "gen2" "gen2" (read_str machine ~cpu:0 ~va:a ~len:4)

let test_fork_after_deallocate_hole () =
  let machine, kernel, sys = boot () in
  let parent = new_task kernel ~cpu:0 in
  let a = alloc sys parent (12 * kb) in
  write_str machine ~cpu:0 ~va:a "X";
  ok (Vm_user.deallocate sys parent ~addr:(a + (4 * kb)) ~size:(4 * kb));
  let child = Kernel.fork_task kernel ~cpu:0 parent in
  Kernel.run_task kernel ~cpu:0 child;
  (try
     ignore (Machine.read_byte machine ~cpu:0 ~va:(a + (4 * kb)));
     Alcotest.fail "hole should be unallocated in child"
   with Machine.Memory_violation _ -> ())

(* ---- sharing maps -------------------------------------------------------- *)

let test_shared_inheritance_rw () =
  let machine, kernel, sys = boot () in
  let parent = new_task kernel ~cpu:0 in
  let a = alloc sys parent (8 * kb) in
  ok (Vm_user.inherit_ sys parent ~addr:a ~size:(8 * kb) Inheritance.Shared);
  write_str machine ~cpu:0 ~va:a "before";
  let child = Kernel.fork_task kernel ~cpu:0 parent in
  Kernel.run_task kernel ~cpu:0 child;
  Alcotest.(check string) "child reads" "before"
    (read_str machine ~cpu:0 ~va:a ~len:6);
  write_str machine ~cpu:0 ~va:a "child!";
  Kernel.run_task kernel ~cpu:0 parent;
  Alcotest.(check string) "parent sees child write" "child!"
    (read_str machine ~cpu:0 ~va:a ~len:6);
  write_str machine ~cpu:0 ~va:(a + 100) "more";
  Kernel.run_task kernel ~cpu:0 child;
  Alcotest.(check string) "child sees parent write" "more"
    (read_str machine ~cpu:0 ~va:(a + 100) ~len:4)

let test_shared_inheritance_transitive () =
  (* The sharing map also covers the grandchild. *)
  let machine, kernel, sys = boot () in
  let parent = new_task kernel ~cpu:0 in
  let a = alloc sys parent (4 * kb) in
  ok (Vm_user.inherit_ sys parent ~addr:a ~size:(4 * kb) Inheritance.Shared);
  write_str machine ~cpu:0 ~va:a "v0";
  let child = Kernel.fork_task kernel ~cpu:0 parent in
  let grandchild = Kernel.fork_task kernel ~cpu:0 child in
  Kernel.run_task kernel ~cpu:0 grandchild;
  write_str machine ~cpu:0 ~va:a "v2";
  Kernel.run_task kernel ~cpu:0 parent;
  Alcotest.(check string) "grandparent sees it" "v2"
    (read_str machine ~cpu:0 ~va:a ~len:2)

let test_shared_and_cow_mixed () =
  (* A region shared read/write between parent and child can at the same
     time be copied copy-on-write to a third task via vm_copy-style
     extraction. *)
  let machine, kernel, sys = boot () in
  let parent = new_task kernel ~cpu:0 in
  let a = alloc sys parent (4 * kb) in
  ok (Vm_user.inherit_ sys parent ~addr:a ~size:(4 * kb) Inheritance.Shared);
  write_str machine ~cpu:0 ~va:a "snap";
  let child = Kernel.fork_task kernel ~cpu:0 parent in
  (* Extract a COW copy of the shared region from the parent... *)
  let copy = ok (Vm_map.extract_copy sys (Task.map parent) ~addr:a ~size:(4 * kb)) in
  let third = Kernel.create_task kernel () in
  let b = ok (Vm_map.insert_copy sys (Task.map third) copy ()) in
  (* ...then the sharers keep writing. *)
  Kernel.run_task kernel ~cpu:0 child;
  write_str machine ~cpu:0 ~va:a "live";
  Kernel.run_task kernel ~cpu:0 third;
  Alcotest.(check string) "third kept the snapshot" "snap"
    (read_str machine ~cpu:0 ~va:b ~len:4);
  Kernel.run_task kernel ~cpu:0 parent;
  Alcotest.(check string) "sharers see live data" "live"
    (read_str machine ~cpu:0 ~va:a ~len:4)

(* ---- protection ----------------------------------------------------------- *)

let test_protection_enforced () =
  let machine, kernel, sys = boot () in
  let t = new_task kernel ~cpu:0 in
  let a = alloc sys t (4 * kb) in
  write_str machine ~cpu:0 ~va:a "locked";
  ok
    (Vm_user.protect sys t ~addr:a ~size:(4 * kb) ~set_max:false
       ~prot:Prot.read_only);
  Alcotest.(check string) "read ok" "locked"
    (read_str machine ~cpu:0 ~va:a ~len:6);
  (try
     Machine.write_byte machine ~cpu:0 ~va:a 'X';
     Alcotest.fail "write should fail"
   with Machine.Memory_violation reason ->
     Alcotest.(check string) "protection" "KERN_PROTECTION_FAILURE" reason);
  (* Restoring write access makes it work again (lazily, via fault). *)
  ok
    (Vm_user.protect sys t ~addr:a ~size:(4 * kb) ~set_max:false
       ~prot:Prot.read_write);
  Machine.write_byte machine ~cpu:0 ~va:a 'X';
  Alcotest.(check string) "writable again" "Xocked"
    (read_str machine ~cpu:0 ~va:a ~len:6)

let test_protection_none_blocks_read () =
  let machine, kernel, sys = boot () in
  let t = new_task kernel ~cpu:0 in
  let a = alloc sys t (4 * kb) in
  write_str machine ~cpu:0 ~va:a "hidden";
  ok
    (Vm_user.protect sys t ~addr:a ~size:(4 * kb) ~set_max:false
       ~prot:(Prot.make ~read:false ~write:false ~execute:false));
  (try
     ignore (Machine.read_byte machine ~cpu:0 ~va:a);
     Alcotest.fail "read should fail"
   with Machine.Memory_violation _ -> ())

(* ---- wiring ---------------------------------------------------------------- *)

let test_wire_unwire () =
  let machine, kernel, sys = boot () in
  let t = new_task kernel ~cpu:0 in
  let a = alloc sys t (4 * kb) in
  ok (Vm_fault.wire sys (Task.map t) ~va:a);
  write_str machine ~cpu:0 ~va:a "pinned";
  (* Wired pages are on no paging queue, so pageout cannot touch them. *)
  Vm_pageout.deactivate_some sys ~count:10_000;
  Vm_pageout.run sys ~wanted:10_000;
  Alcotest.(check string) "survives pageout" "pinned"
    (read_str machine ~cpu:0 ~va:a ~len:6);
  Alcotest.(check int) "no disk traffic for wired page" 0
    (Machine.stats machine).Machine.disk_ops;
  ok (Vm_fault.unwire sys (Task.map t) ~va:a);
  ok (Vm_user.deallocate sys t ~addr:a ~size:(4 * kb))

(* ---- pmap dropping and reloading ------------------------------------------ *)

let test_fast_reload_after_collect () =
  let machine, kernel, sys = boot () in
  let t = new_task kernel ~cpu:0 in
  let a = alloc sys t (16 * kb) in
  write_str machine ~cpu:0 ~va:a "persistent";
  (* Simulate the pmap discarding everything (as a SUN 3 context steal
     would). *)
  (Task.pmap t).Mach_pmap.Pmap.collect ();
  let reloads_before = sys.Vm_sys.stats.Vm_stats.vs_fast_reloads in
  Alcotest.(check string) "data intact" "persistent"
    (read_str machine ~cpu:0 ~va:a ~len:10);
  Alcotest.(check bool) "fast reload counted" true
    (sys.Vm_sys.stats.Vm_stats.vs_fast_reloads > reloads_before)

let test_fork_prewarm_pmap_copy () =
  let machine, kernel, sys = boot () in
  sys.Vm_sys.pmap_prewarm_on_fork <- true;
  let parent = new_task kernel ~cpu:0 in
  let a = alloc sys parent (32 * kb) in
  for i = 0 to 7 do
    write_str machine ~cpu:0 ~va:(a + (i * 4 * kb)) (Printf.sprintf "pg%d" i)
  done;
  let child = Kernel.fork_task kernel ~cpu:0 parent in
  Kernel.run_task kernel ~cpu:0 child;
  (* The child's pmap was pre-loaded: reading causes no faults at all. *)
  let faults_before = (Machine.stats machine).Machine.faults in
  for i = 0 to 7 do
    Alcotest.(check string)
      (Printf.sprintf "page %d" i)
      (Printf.sprintf "pg%d" i)
      (read_str machine ~cpu:0 ~va:(a + (i * 4 * kb)) ~len:3)
  done;
  Alcotest.(check int) "no read faults after prewarm" faults_before
    (Machine.stats machine).Machine.faults;
  (* Copy-on-write still holds: the prewarmed mappings are read-only. *)
  write_str machine ~cpu:0 ~va:a "CHD";
  Kernel.run_task kernel ~cpu:0 parent;
  Alcotest.(check string) "isolation intact" "pg0"
    (read_str machine ~cpu:0 ~va:a ~len:3)

(* ---- the NS32082 r-m-w bug -------------------------------------------------- *)

let test_rmw_bug_workaround_cow () =
  (* A write to a COW page on the NS32082 arrives as a *read* protection
     fault; the kernel must recognise the bug and still copy. *)
  let machine, kernel, sys = boot ~arch:Arch.ns32082 ~page_multiple:8 () in
  let parent = new_task kernel ~cpu:0 in
  let a = alloc sys parent (4 * kb) in
  write_str machine ~cpu:0 ~va:a "original";
  let child = Kernel.fork_task kernel ~cpu:0 parent in
  Kernel.run_task kernel ~cpu:0 child;
  (* Fault the page in for read first so the write is a protection (not
     invalid) fault — the bug's trigger condition. *)
  ignore (read_str machine ~cpu:0 ~va:a ~len:8);
  write_str machine ~cpu:0 ~va:a "child-ed";
  Alcotest.(check bool) "bug upgrade counted" true
    (sys.Vm_sys.stats.Vm_stats.vs_rmw_bug_upgrades >= 1);
  Kernel.run_task kernel ~cpu:0 parent;
  Alcotest.(check string) "isolation preserved" "original"
    (read_str machine ~cpu:0 ~va:a ~len:8)

(* ---- vm_read / vm_write / vm_copy ------------------------------------------- *)

let test_vm_read_write () =
  let machine, kernel, sys = boot () in
  let t = new_task kernel ~cpu:0 in
  let a = alloc sys t (8 * kb) in
  ok (Vm_user.write sys t ~addr:(a + 1000) ~data:(Bytes.of_string "kernel copy"));
  Alcotest.(check string) "visible via MMU" "kernel copy"
    (read_str machine ~cpu:0 ~va:(a + 1000) ~len:11);
  write_str machine ~cpu:0 ~va:(a + 5000) "user data";
  let b = ok (Vm_user.read sys t ~addr:(a + 5000) ~size:9) in
  Alcotest.(check string) "vm_read" "user data" (Bytes.to_string b)

let test_vm_copy_is_cow () =
  let machine, kernel, sys = boot () in
  let t = new_task kernel ~cpu:0 in
  let src = alloc sys t (8 * kb) in
  let dst = alloc sys t (8 * kb) in
  write_str machine ~cpu:0 ~va:src "copy me";
  ok (Vm_user.copy sys t ~src ~dst ~size:(8 * kb));
  Alcotest.(check string) "copied" "copy me"
    (read_str machine ~cpu:0 ~va:dst ~len:7);
  (* Writing the copy does not disturb the source, and vice versa. *)
  write_str machine ~cpu:0 ~va:dst "altered";
  Alcotest.(check string) "src safe" "copy me"
    (read_str machine ~cpu:0 ~va:src ~len:7);
  write_str machine ~cpu:0 ~va:src "changed";
  Alcotest.(check string) "dst safe" "altered"
    (read_str machine ~cpu:0 ~va:dst ~len:7)

let test_statistics_reporting () =
  let machine, kernel, sys = boot () in
  let t = new_task kernel ~cpu:0 in
  let a = alloc sys t (8 * kb) in
  write_str machine ~cpu:0 ~va:a "x";
  let st = Vm_user.statistics sys in
  Alcotest.(check int) "page size" 4096 st.Vm_user.vs_page_size;
  Alcotest.(check bool) "faults counted" true (st.Vm_user.vs_faults >= 1);
  Alcotest.(check bool) "zero fill counted" true
    (st.Vm_user.vs_zero_fills >= 1);
  Alcotest.(check bool) "free tracked" true
    (st.Vm_user.vs_pages_free < st.Vm_user.vs_pages_total)

(* ---- multiprocessor coherence ------------------------------------------------ *)

let test_two_cpus_share_task () =
  let machine, kernel, sys = boot ~cpus:2 () in
  let t = new_task kernel ~cpu:0 in
  Kernel.run_task kernel ~cpu:1 t;
  let a = alloc sys t (4 * kb) in
  write_str machine ~cpu:0 ~va:a "from cpu0";
  Alcotest.(check string) "cpu1 reads" "from cpu0"
    (read_str machine ~cpu:1 ~va:a ~len:9);
  write_str machine ~cpu:1 ~va:(a + 100) "from cpu1";
  Alcotest.(check string) "cpu0 reads" "from cpu1"
    (read_str machine ~cpu:0 ~va:(a + 100) ~len:9)

let test_protect_shoots_remote_tlb () =
  let machine, kernel, sys = boot ~cpus:2 () in
  let t = new_task kernel ~cpu:0 in
  Kernel.run_task kernel ~cpu:1 t;
  let a = alloc sys t (4 * kb) in
  (* Warm CPU 1's TLB with a writable mapping. *)
  write_str machine ~cpu:1 ~va:a "warm";
  (* CPU 0 revokes write permission; CPU 1's next write must fault. *)
  Mach_pmap.Pmap_domain.set_current_cpu kernel.Kernel.domain 0;
  ok
    (Vm_user.protect sys t ~addr:a ~size:(4 * kb) ~set_max:false
       ~prot:Prot.read_only);
  Alcotest.(check bool) "IPIs sent" true ((Machine.stats machine).Machine.ipis >= 1);
  (try
     Machine.write_byte machine ~cpu:1 ~va:a 'X';
     Alcotest.fail "stale writable TLB entry survived"
   with Machine.Memory_violation _ -> ())

(* ---- a fault that raises ------------------------------------------------- *)

(* A pager whose request raises: the exception leaves [Vm_fault.fault],
   and on the way out the OOM exemption the fault took for its map is
   given back, as it is on every other exit. *)
let test_raising_fault_restores_exemption () =
  let _machine, kernel, sys = boot () in
  let t = new_task kernel ~cpu:0 in
  let pager =
    { Types.pgr_id = Vm_sys.fresh_pager_id sys;
      pgr_name = "raises";
      pgr_request = (fun ~offset:_ ~length:_ -> failwith "pager raised");
      pgr_write = (fun ~offset:_ ~data:_ -> Types.Write_error);
      pgr_should_cache = ref false }
  in
  let a =
    ok
      (Vm_user.allocate_with_pager sys t ~pager ~offset:0 ~size:(4 * kb))
  in
  Alcotest.(check (option int)) "no exemption before" None
    sys.Vm_sys.oom_exempt_map;
  (match Vm_fault.fault sys (Task.map t) ~va:a ~write:false with
   | _ -> Alcotest.fail "expected the pager's exception"
   | exception Failure msg ->
     Alcotest.(check string) "the pager's exception" "pager raised" msg);
  Alcotest.(check (option int)) "exemption restored" None
    sys.Vm_sys.oom_exempt_map

(* ---- qcheck: fork trees preserve data isolation ------------------------------- *)

let fork_isolation_qcheck =
  let open QCheck2 in
  (* A random interleaving of writes in a parent/child pair after fork;
     each task's final view must equal a sequential model of its own
     writes over the snapshot. *)
  Test.make ~name:"fork isolation under random write interleavings"
    ~count:40
    Gen.(list (pair bool (int_range 0 7)))
    (fun writes ->
       let machine, kernel, sys = boot ~frames:4096 () in
       let parent = new_task kernel ~cpu:0 in
       let a = alloc sys parent (8 * 4096) in
       for i = 0 to 7 do
         write_str machine ~cpu:0 ~va:(a + (i * 4096))
           (Printf.sprintf "base%d" i)
       done;
       let child = Kernel.fork_task kernel ~cpu:0 parent in
       let model_parent = Array.init 8 (fun i -> Printf.sprintf "base%d" i) in
       let model_child = Array.copy model_parent in
       List.iteri
         (fun n (to_child, page) ->
            let v = Printf.sprintf "wr%02d%d" (n mod 100) page in
            let task, model =
              if to_child then (child, model_child)
              else (parent, model_parent)
            in
            Kernel.run_task kernel ~cpu:0 task;
            write_str machine ~cpu:0 ~va:(a + (page * 4096)) v;
            model.(page) <- v)
         writes;
       let agrees task model =
         Kernel.run_task kernel ~cpu:0 task;
         let okv = ref true in
         for i = 0 to 7 do
           let v =
             read_str machine ~cpu:0 ~va:(a + (i * 4096))
               ~len:(String.length model.(i))
           in
           if v <> model.(i) then okv := false
         done;
         !okv
       in
       agrees parent model_parent && agrees child model_child)

let () =
  Alcotest.run "vm_fault"
    [ ( "demand paging",
        [ Alcotest.test_case "demand zero" `Quick test_demand_zero;
          Alcotest.test_case "zero after free" `Quick
            test_zero_fill_fresh_after_free;
          Alcotest.test_case "unallocated faults" `Quick
            test_unallocated_faults;
          Alcotest.test_case "data spans hw frames" `Quick
            test_data_spans_hw_frames;
          Alcotest.test_case "page multiples" `Quick
            test_page_multiple_one_and_two ] );
      ( "copy-on-write",
        [ Alcotest.test_case "child isolated" `Quick test_cow_child_isolated;
          Alcotest.test_case "parent write isolated" `Quick
            test_cow_parent_write_isolated;
          Alcotest.test_case "untouched pages share" `Quick
            test_cow_untouched_pages_share_frames;
          Alcotest.test_case "grandchildren chain" `Quick
            test_fork_grandchildren_chain;
          Alcotest.test_case "fork after deallocate" `Quick
            test_fork_after_deallocate_hole ] );
      ( "sharing maps",
        [ Alcotest.test_case "read/write sharing" `Quick
            test_shared_inheritance_rw;
          Alcotest.test_case "transitive sharing" `Quick
            test_shared_inheritance_transitive;
          Alcotest.test_case "shared and cow mixed" `Quick
            test_shared_and_cow_mixed ] );
      ( "protection",
        [ Alcotest.test_case "enforced and restored" `Quick
            test_protection_enforced;
          Alcotest.test_case "none blocks reads" `Quick
            test_protection_none_blocks_read ] );
      ( "wiring",
        [ Alcotest.test_case "wire/unwire" `Quick test_wire_unwire ] );
      ( "exceptions",
        [ Alcotest.test_case "raising fault restores the OOM exemption"
            `Quick test_raising_fault_restores_exemption ] );
      ( "pmap cache",
        [ Alcotest.test_case "fast reload after collect" `Quick
            test_fast_reload_after_collect;
          Alcotest.test_case "fork prewarm via pmap_copy" `Quick
            test_fork_prewarm_pmap_copy ] );
      ( "ns32082",
        [ Alcotest.test_case "rmw bug workaround" `Quick
            test_rmw_bug_workaround_cow ] );
      ( "vm_user data ops",
        [ Alcotest.test_case "vm_read/vm_write" `Quick test_vm_read_write;
          Alcotest.test_case "vm_copy is cow" `Quick test_vm_copy_is_cow;
          Alcotest.test_case "statistics" `Quick test_statistics_reporting ]
      );
      ( "multiprocessor",
        [ Alcotest.test_case "two cpus share task" `Quick
            test_two_cpus_share_task;
          Alcotest.test_case "protect shoots remote TLB" `Quick
            test_protect_shoots_remote_tlb ] );
      ("isolation", [ QCheck_alcotest.to_alcotest fork_isolation_qcheck ]) ]

(* Tests for memory-pressure resilience: the free-page reserves,
   allocation backpressure against the pageout daemon, swap exhaustion,
   the OOM policy's victim choice and its KERN_MEMORY_ERROR surface, and
   the KERN_NO_SPACE paths of the address map. *)

open Mach_hw
open Mach_core

let boot ?(frames = 256) ?(cpus = 1) () =
  (* 256 frames x 512 B, multiple 8 => 16 machine-independent pages. *)
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:frames ~cpus () in
  let kernel = Kernel.create ~page_multiple:8 machine in
  (machine, kernel, Kernel.sys kernel)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Kr.to_string e)

(* ---- watermarks and the reserve floor --------------------------------- *)

let test_reserve_floor () =
  let _machine, _kernel, sys = boot () in
  Alcotest.(check bool) "watermarks ordered" true
    (sys.Vm_sys.free_reserved <= sys.Vm_sys.free_target);
  let free0 = Resident.free_count sys.Vm_sys.resident in
  (* No tasks exist, so nothing is reclaimable and no OOM victim is
     registered: normal allocations must hand out exactly the pages
     above the reserve, then fail rather than touch it. *)
  for _ = 1 to free0 - sys.Vm_sys.free_reserved do
    ignore (Vm_sys.grab_page sys)
  done;
  Alcotest.(check int) "stopped at the reserve" sys.Vm_sys.free_reserved
    (Resident.free_count sys.Vm_sys.resident);
  (match Vm_sys.grab_page sys with
   | _ -> Alcotest.fail "normal allocation dipped into the reserve"
   | exception Vm_sys.Out_of_memory -> ());
  Alcotest.(check int) "the reserve is untouched" sys.Vm_sys.free_reserved
    (Resident.free_count sys.Vm_sys.resident);
  Alcotest.(check bool) "the wait was counted" true
    (sys.Vm_sys.stats.Vm_stats.vs_alloc_waits >= 1)

(* ---- swap exhaustion and requeue escalation --------------------------- *)

let test_swap_exhaustion_escalates () =
  let _machine, kernel, sys = boot () in
  let machine = Kernel.machine kernel in
  let task = Kernel.create_task kernel ~name:"dirty" () in
  Kernel.run_task kernel ~cpu:0 task;
  let ps = sys.Vm_sys.page_size in
  let a = ok (Vm_user.allocate sys task ~size:(4 * ps) ~anywhere:true ()) in
  for i = 0 to 3 do
    Machine.write_byte machine ~cpu:0 ~va:(a + (i * ps)) 'd'
  done;
  (* A zero-byte swap pool: every pageout write is refused, the page
     stays dirty and bounces, and each bounce past the requeue limit
     re-asserts the pressure state. *)
  Vm_sys.set_swap_capacity sys (Some 0);
  let p =
    match Vm_map.resolve_object_at sys (Task.map task) ~va:a with
    | Some (o, _) -> Option.get (Vm_object.lookup_resident sys o ~offset:0)
    | None -> Alcotest.fail "no object"
  in
  for _ = 1 to 2 + Vm_sys.pageout_requeue_limit do
    Vm_pageout.deactivate_some sys ~count:16;
    Vm_pageout.run sys ~wanted:16
  done;
  Alcotest.(check bool) "swap-full failures counted" true
    (sys.Vm_sys.stats.Vm_stats.vs_swap_full_failures >= 1);
  Alcotest.(check bool) "pressure state entered" true sys.Vm_sys.mem_pressure;
  Alcotest.(check bool) "requeues accumulated" true
    (p.Types.pg_requeues >= 1);
  (* Give the pool room again: the next daemon pass cleans the page,
     resets its requeue count and clears the pressure state. *)
  Vm_sys.set_swap_capacity sys (Some (64 * ps));
  Vm_pageout.deactivate_some sys ~count:16;
  Vm_pageout.run sys ~wanted:16;
  Alcotest.(check bool) "pageout succeeded" true
    (sys.Vm_sys.stats.Vm_stats.vs_pageouts >= 1);
  Alcotest.(check bool) "pressure cleared" false sys.Vm_sys.mem_pressure;
  Alcotest.(check int) "requeue count reset" 0 p.Types.pg_requeues

(* ---- swap accounting --------------------------------------------------- *)

let test_swap_released_at_terminate () =
  let _machine, kernel, sys = boot () in
  let machine = Kernel.machine kernel in
  let task = Kernel.create_task kernel ~name:"swapper" () in
  Kernel.run_task kernel ~cpu:0 task;
  let ps = sys.Vm_sys.page_size in
  Vm_sys.set_swap_capacity sys (Some (64 * ps));
  (* Dirty more than memory, so eviction pushes pages to the pool. *)
  let size = (Resident.free_count sys.Vm_sys.resident + 16) * ps in
  let a = ok (Vm_user.allocate sys task ~size ~anywhere:true ()) in
  for i = 0 to (size / ps) - 1 do
    Machine.write_byte machine ~cpu:0 ~va:(a + (i * ps)) 'd'
  done;
  Alcotest.(check bool) "swap pool in use"
    true (sys.Vm_sys.stats.Vm_stats.vs_swap_used > 0);
  Kernel.terminate_task kernel ~cpu:0 task;
  Alcotest.(check int) "pool credited back at termination" 0
    sys.Vm_sys.stats.Vm_stats.vs_swap_used

(* Unbounded swap (the default) still counts what it commits: after
   dirtying more than memory, the pool's usage is exactly the bytes the
   anonymous object's default pager holds, and the auditor agrees. *)
let test_unbounded_swap_counted () =
  let machine, kernel, sys = boot () in
  let task = Kernel.create_task kernel ~name:"unbounded" () in
  Kernel.run_task kernel ~cpu:0 task;
  let ps = sys.Vm_sys.page_size in
  let size = (Resident.free_count sys.Vm_sys.resident + 16) * ps in
  let a = ok (Vm_user.allocate sys task ~size ~anywhere:true ()) in
  for i = 0 to (size / ps) - 1 do
    Machine.write_byte machine ~cpu:0 ~va:(a + (i * ps)) 'u'
  done;
  (match Vm_map.resolve_object_at sys (Task.map task) ~va:a with
   | Some ({ Types.obj_pager = Some _; _ }, _) -> ()
   | _ -> Alcotest.fail "no default pager behind the allocation");
  Alcotest.(check bool) "pages were swapped" true
    (sys.Vm_sys.stats.Vm_stats.vs_swap_used > 0);
  (* The auditor's swap check: swap_used = the stored chunk bytes. *)
  Vm_debug.assert_ok sys ~maps:[ Task.map task ];
  Kernel.terminate_task kernel ~cpu:0 task;
  Alcotest.(check int) "pool credited back at termination" 0
    sys.Vm_sys.stats.Vm_stats.vs_swap_used

(* ---- the OOM policy ---------------------------------------------------- *)

let test_oom_kills_largest_spares_faulter () =
  let machine, kernel, sys = boot ~cpus:2 () in
  let ps = sys.Vm_sys.page_size in
  (* Nearly no swap: once memory fills with dirty anonymous pages the
     daemon cannot clean and the OOM policy is the only way forward. *)
  Vm_sys.set_swap_capacity sys (Some (2 * ps));
  (* The hog dirties most of memory first — everything above the free
     target, so its own setup never even triggers reclaim... *)
  let hog_pages =
    Resident.free_count sys.Vm_sys.resident - sys.Vm_sys.free_target - 2
  in
  let hog = Kernel.create_task kernel ~name:"hog" () in
  Kernel.run_task kernel ~cpu:1 hog;
  let ha =
    ok (Vm_user.allocate sys hog ~size:(hog_pages * ps) ~anywhere:true ())
  in
  for i = 0 to hog_pages - 1 do
    Machine.write_byte machine ~cpu:1 ~va:(ha + (i * ps)) 'H'
  done;
  Alcotest.(check bool) "hog is the big anonymous holder" true
    ((Task.pmap hog).Mach_pmap.Pmap.resident_count () >= 10);
  (* ...then a small task needs memory.  Its faults are exempt from
     victim choice, so the policy must kill the hog, not the faulter. *)
  let small = Kernel.create_task kernel ~name:"small" () in
  Kernel.run_task kernel ~cpu:0 small;
  let sa = ok (Vm_user.allocate sys small ~size:(8 * ps) ~anywhere:true ()) in
  for i = 0 to 7 do
    Machine.write_byte machine ~cpu:0 ~va:(sa + (i * ps))
      (Char.chr (Char.code 'a' + i))
  done;
  Alcotest.(check int) "exactly one kill"
    1 sys.Vm_sys.stats.Vm_stats.vs_oom_kills;
  Alcotest.(check bool) "the hog was the victim" true
    hog.Task.task_oom_killed;
  Alcotest.(check bool) "the faulter survived" false
    small.Task.task_oom_killed;
  (* The survivor's data is intact and the kernel still serves it. *)
  for i = 0 to 7 do
    Alcotest.(check char)
      (Printf.sprintf "survivor page %d" i)
      (Char.chr (Char.code 'a' + i))
      (Machine.read_byte machine ~cpu:0 ~va:(sa + (i * ps)))
  done;
  (* The corpse answers KERN_MEMORY_ERROR end to end: through Vm_user... *)
  (match Vm_user.write sys hog ~addr:ha ~data:(Bytes.of_string "x") with
   | Error Kr.Memory_error -> ()
   | Ok () -> Alcotest.fail "write to an OOM-killed task succeeded"
   | Error e -> Alcotest.fail ("expected KERN_MEMORY_ERROR, got " ^ Kr.to_string e));
  (match Vm_user.allocate sys hog ~size:ps ~anywhere:true () with
   | Error Kr.Memory_error -> ()
   | Ok _ -> Alcotest.fail "allocate on an OOM-killed task succeeded"
   | Error e -> Alcotest.fail ("expected KERN_MEMORY_ERROR, got " ^ Kr.to_string e));
  (* ...and through the hardware fault path: the hog is still current on
     CPU 1, and its next touch traps with the same code. *)
  (match Machine.touch machine ~cpu:1 ~va:ha ~write:true with
   | () -> Alcotest.fail "touch on an OOM-killed task succeeded"
   | exception Machine.Memory_violation reason ->
     Alcotest.(check string) "fault reason" (Kr.to_string Kr.Memory_error)
       reason);
  (* Statistics surface the episode. *)
  let st = Vm_user.statistics sys in
  Alcotest.(check int) "vs_oom_kills" 1 st.Vm_user.vs_oom_kills;
  Alcotest.(check bool) "vs_swap_full_failures" true
    (st.Vm_user.vs_swap_full_failures >= 1);
  Alcotest.(check (option int)) "vs_swap_capacity" (Some (2 * ps))
    st.Vm_user.vs_swap_capacity

(* ---- KERN_NO_SPACE from the address map -------------------------------- *)

let test_map_no_space () =
  let _machine, kernel, sys = boot () in
  let task = Kernel.create_task kernel ~name:"mapper" () in
  Kernel.run_task kernel ~cpu:0 task;
  let ps = sys.Vm_sys.page_size in
  let a = ok (Vm_user.allocate sys task ~size:(4 * ps) ~anywhere:true ()) in
  (* A fixed-address allocation over an occupied range. *)
  (match Vm_user.allocate sys task ~at:a ~size:ps ~anywhere:false () with
   | Error Kr.No_space -> ()
   | Ok _ -> Alcotest.fail "overlapping fixed allocation succeeded"
   | Error e -> Alcotest.fail ("expected KERN_NO_SPACE, got " ^ Kr.to_string e));
  (* find_space exhaustion: no hole can hold the whole user space. *)
  let arch = Machine.arch (Kernel.machine kernel) in
  (match
     Vm_user.allocate sys task ~size:arch.Arch.user_va_limit ~anywhere:true ()
   with
   | Error Kr.No_space -> ()
   | Ok _ -> Alcotest.fail "impossible allocation succeeded"
   | Error e -> Alcotest.fail ("expected KERN_NO_SPACE, got " ^ Kr.to_string e));
  (* insert_copy into an occupied range. *)
  let c = ok (Vm_map.extract_copy sys (Task.map task) ~addr:a ~size:ps) in
  (match Vm_map.insert_copy sys (Task.map task) c ~at:a () with
   | Error Kr.No_space -> Vm_map.discard_copy sys c
   | Ok _ -> Alcotest.fail "insert_copy over an occupied range succeeded"
   | Error e -> Alcotest.fail ("expected KERN_NO_SPACE, got " ^ Kr.to_string e))

(* KERN_NO_SPACE survives the syscall wire format: the code crosses the
   message boundary and decodes back to the same value. *)
let test_no_space_over_ipc () =
  let _machine, kernel, sys = boot () in
  let task = Kernel.create_task kernel ~name:"wire" () in
  Kernel.run_task kernel ~cpu:0 task;
  let ps = sys.Vm_sys.page_size in
  let port =
    Mach_ipc.Syscall_server.task_port
      (Mach_ipc.Syscall_server.create kernel) task
  in
  let reply =
    Mach_ipc.Syscall_server.call sys port
      (Mach_ipc.Ipc.message "vm_allocate" ~ints:[ 4 * ps; 1; 0 ])
  in
  let a =
    match reply.Mach_ipc.Ipc.msg_ints with
    | [ 0; addr ] -> addr
    | _ -> Alcotest.fail "vm_allocate over IPC failed"
  in
  let reply =
    Mach_ipc.Syscall_server.call sys port
      (Mach_ipc.Ipc.message "vm_allocate" ~ints:[ ps; 0; a ])
  in
  (match Mach_ipc.Syscall_server.kr_of_reply reply with
   | Error Kr.No_space -> ()
   | Ok () -> Alcotest.fail "overlapping allocation succeeded over IPC"
   | Error e ->
     Alcotest.fail ("expected KERN_NO_SPACE over IPC, got " ^ Kr.to_string e));
  (* The wire code for KERN_NO_SPACE is pinned: a peer built against
     this protocol reads 2, and 2 only, as no-space. *)
  match reply.Mach_ipc.Ipc.msg_ints with
  | 2 :: _ -> ()
  | ints ->
    Alcotest.fail
      (Printf.sprintf "KERN_NO_SPACE no longer rides wire code 2 (got %s)"
         (String.concat "," (List.map string_of_int ints)))

let () =
  Alcotest.run "pressure"
    [ ("reserves",
       [ Alcotest.test_case "grab_page honours the reserve floor" `Quick
           test_reserve_floor ]);
      ("swap",
       [ Alcotest.test_case "exhaustion escalates to the pressure state"
           `Quick test_swap_exhaustion_escalates;
         Alcotest.test_case "pool credited back at task termination" `Quick
           test_swap_released_at_terminate;
         Alcotest.test_case "unbounded pool still counts" `Quick
           test_unbounded_swap_counted ]);
      ("oom",
       [ Alcotest.test_case "kills the largest task, spares the faulter"
           `Quick test_oom_kills_largest_spares_faulter ]);
      ("no_space",
       [ Alcotest.test_case "map allocation paths report KERN_NO_SPACE"
           `Quick test_map_no_space;
         Alcotest.test_case "KERN_NO_SPACE decodes across the syscall wire"
           `Quick test_no_space_over_ipc ]) ]

(* Tests for threads and the multiprocessor scheduler: shared address
   space within a task, isolation and context switching across tasks,
   suspend/resume, and deterministic round-robin dispatch. *)

open Mach_hw
open Mach_core

let kb = 1024

let boot ?(cpus = 1) () =
  let machine =
    Machine.create ~arch:Arch.uvax2 ~memory_frames:2048 ~cpus ()
  in
  let kernel = Kernel.create ~page_multiple:8 machine in
  (machine, kernel, Kernel.sys kernel)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Kr.to_string e)

let test_threads_share_task_memory () =
  let machine, kernel, sys = boot ~cpus:2 () in
  let task = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:0 task;
  let a = ok (Vm_user.allocate sys task ~size:(8 * kb) ~anywhere:true ()) in
  let sched = Sched.create kernel in
  let seen = ref "" in
  let writer =
    Sched.spawn sched ~task
      [ (fun ~cpu ->
           Machine.write machine ~cpu ~va:a (Bytes.of_string "thread data")) ]
  in
  let reader =
    Sched.spawn sched ~task
      [ (* first round: idle while the writer runs in parallel *)
        (fun ~cpu:_ -> ());
        (fun ~cpu ->
           seen :=
             Bytes.to_string (Machine.read machine ~cpu ~va:a ~len:11)) ]
  in
  Sched.run sched;
  Alcotest.(check string) "reader saw writer's data" "thread data" !seen;
  List.iter
    (fun (name, th) ->
       Alcotest.(check bool) (name ^ " terminated") true
         (Kthread.status th = Kthread.Terminated))
    [ ("writer", writer); ("reader", reader) ]

let test_threads_different_tasks_isolated () =
  let machine, kernel, sys = boot ~cpus:1 () in
  let t1 = Kernel.create_task kernel () in
  let t2 = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:0 t1;
  let a1 = ok (Vm_user.allocate sys t1 ~size:(4 * kb) ~anywhere:true ()) in
  Kernel.run_task kernel ~cpu:0 t2;
  let a2 = ok (Vm_user.allocate sys t2 ~size:(4 * kb) ~anywhere:true ()) in
  Alcotest.(check int) "same va in both tasks" a1 a2;
  let sched = Sched.create kernel in
  let r1 = ref ' ' and r2 = ref ' ' in
  let _th1 =
    Sched.spawn sched ~task:t1
      [ (fun ~cpu -> Machine.write_byte machine ~cpu ~va:a1 '1');
        (fun ~cpu -> r1 := Machine.read_byte machine ~cpu ~va:a1) ]
  in
  let _th2 =
    Sched.spawn sched ~task:t2
      [ (fun ~cpu -> Machine.write_byte machine ~cpu ~va:a2 '2');
        (fun ~cpu -> r2 := Machine.read_byte machine ~cpu ~va:a2) ]
  in
  Sched.run sched;
  (* The threads interleaved on one CPU (task switch each round), yet
     each saw only its own task's memory. *)
  Alcotest.(check char) "t1 view" '1' !r1;
  Alcotest.(check char) "t2 view" '2' !r2

let test_round_robin_order () =
  let _machine, kernel, _sys = boot ~cpus:1 () in
  let task = Kernel.create_task kernel () in
  let sched = Sched.create kernel in
  let log = ref [] in
  let mk tag =
    List.init 3 (fun i ->
        fun ~cpu:_ -> log := Printf.sprintf "%s%d" tag i :: !log)
  in
  let _a = Sched.spawn sched ~task (mk "A") in
  let _b = Sched.spawn sched ~task (mk "B") in
  Sched.run sched;
  Alcotest.(check (list string)) "strict alternation"
    [ "A0"; "B0"; "A1"; "B1"; "A2"; "B2" ]
    (List.rev !log)

let test_suspend_resume () =
  let _machine, kernel, _sys = boot () in
  let task = Kernel.create_task kernel () in
  let sched = Sched.create kernel in
  let progress = ref 0 in
  let th =
    Sched.spawn sched ~task
      (List.init 4 (fun _ -> fun ~cpu:_ -> incr progress))
  in
  (* One CPU: [th] runs its first step, then a second thread suspends
     it. *)
  ignore (Sched.spawn sched ~task [ (fun ~cpu:_ -> Kthread.suspend th) ]);
  Sched.run sched;
  Alcotest.(check int) "stopped after suspension" 1 !progress;
  Alcotest.(check bool) "still alive" true
    (Kthread.status th <> Kthread.Terminated);
  Kthread.resume th;
  Sched.run sched;
  Alcotest.(check int) "finished after resume" 4 !progress;
  Alcotest.(check bool) "terminated" true
    (Kthread.status th = Kthread.Terminated)

let test_self_suspension () =
  let _machine, kernel, _sys = boot () in
  let task = Kernel.create_task kernel () in
  let sched = Sched.create kernel in
  let th_ref = ref None in
  let progress = ref 0 in
  let th =
    Sched.spawn sched ~task
      [ (fun ~cpu:_ ->
           incr progress;
           Kthread.suspend (Option.get !th_ref));
        (fun ~cpu:_ -> incr progress) ]
  in
  th_ref := Some th;
  Sched.run sched;
  Alcotest.(check int) "suspended itself mid-program" 1 !progress;
  Kthread.resume th;
  Sched.run sched;
  Alcotest.(check int) "completed" 2 !progress

let test_multiprocessor_parallel_faults () =
  (* Four threads of one task sweep disjoint regions on four CPUs;
     everything lands and per-CPU clocks all advanced. *)
  let machine, kernel, sys = boot ~cpus:4 () in
  let task = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:0 task;
  let size = 64 * kb in
  let a = ok (Vm_user.allocate sys task ~size ~anywhere:true ()) in
  let sched = Sched.create kernel in
  let quarter = size / 4 in
  for q = 0 to 3 do
    let base = a + (q * quarter) in
    ignore
      (Sched.spawn sched ~task
         (List.init (quarter / (4 * kb)) (fun i ->
              fun ~cpu ->
                Machine.write machine ~cpu ~va:(base + (i * 4 * kb))
                  (Bytes.of_string (Printf.sprintf "q%dp%02d" q i)))))
  done;
  Sched.run sched;
  for q = 0 to 3 do
    for i = 0 to (quarter / (4 * kb)) - 1 do
      Alcotest.(check string)
        (Printf.sprintf "q%d page %d" q i)
        (Printf.sprintf "q%dp%02d" q i)
        (Bytes.to_string
           (Machine.read machine ~cpu:0 ~va:(a + (q * quarter) + (i * 4 * kb))
              ~len:5))
    done
  done;
  for cpu = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "cpu %d worked" cpu)
      true
      (Machine.cycles machine ~cpu > 0)
  done

let test_suspend_by_message () =
  (* "A thread can suspend another thread by sending a suspend message
     to that thread's thread port." *)
  let _machine, kernel, sys = boot () in
  let task = Kernel.create_task kernel () in
  let sched = Sched.create kernel in
  let progress = ref 0 in
  let victim =
    Sched.spawn sched ~task (List.init 4 (fun _ -> fun ~cpu:_ -> incr progress))
  in
  let port =
    Mach_ipc.Syscall_server.thread_port
      (Mach_ipc.Syscall_server.create kernel) victim
  in
  (* One CPU: the victim runs its first step, then a second thread sends
     the suspend message. *)
  let suspend ~cpu:_ =
    let reply =
      Mach_ipc.Syscall_server.call sys port
        (Mach_ipc.Ipc.message "thread_suspend")
    in
    match Mach_ipc.Syscall_server.kr_of_reply reply with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Kr.to_string e)
  in
  ignore (Sched.spawn sched ~task [ suspend ]);
  Sched.run sched;
  Alcotest.(check int) "suspended by message" 1 !progress;
  ignore
    (Mach_ipc.Syscall_server.call sys port
       (Mach_ipc.Ipc.message "thread_resume"));
  Sched.run sched;
  Alcotest.(check int) "resumed by message" 4 !progress

let () =
  Alcotest.run "threads"
    [ ( "sched",
        [ Alcotest.test_case "threads share task memory" `Quick
            test_threads_share_task_memory;
          Alcotest.test_case "tasks isolated under timeslicing" `Quick
            test_threads_different_tasks_isolated;
          Alcotest.test_case "round robin order" `Quick
            test_round_robin_order;
          Alcotest.test_case "suspend/resume" `Quick test_suspend_resume;
          Alcotest.test_case "self suspension" `Quick test_self_suspension;
          Alcotest.test_case "parallel faults on 4 cpus" `Quick
            test_multiprocessor_parallel_faults;
          Alcotest.test_case "suspend via thread port" `Quick
            test_suspend_by_message ] ) ]

(* Tests for ports and messages: queueing, inline data, out-of-line
   copy-on-write transfer and its isolation guarantees. *)

open Mach_hw
open Mach_core
open Mach_ipc

let kb = 1024

let boot () =
  let machine = Machine.create ~arch:Arch.vax8200 ~memory_frames:8192 () in
  let kernel = Kernel.create ~page_multiple:8 machine in
  (machine, kernel, Kernel.sys kernel)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Kr.to_string e)

let new_task kernel ~cpu =
  let t = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu t;
  t

let test_port_fifo () =
  let _, _, sys = boot () in
  let p = Ipc.create_port () in
  Ipc.send sys p (Ipc.message "first");
  Ipc.send sys p (Ipc.message "second");
  (match Ipc.receive sys p with
   | Some m -> Alcotest.(check string) "fifo order" "first" m.Ipc.msg_tag
   | None -> Alcotest.fail "expected message");
  (match Ipc.receive sys p with
   | Some m -> Alcotest.(check string) "then second" "second" m.Ipc.msg_tag
   | None -> Alcotest.fail "expected message");
  Alcotest.(check bool) "empty" true (Ipc.receive sys p = None)

let test_message_fields () =
  let _, _, sys = boot () in
  let p = Ipc.create_port () in
  let reply = Ipc.create_port () in
  Ipc.send sys p
    (Ipc.message "op" ~ints:[ 1; 2; 3 ]
       ~items:[ Ipc.Inline (Bytes.of_string "payload") ]
       ~reply_to:reply);
  (match Ipc.receive sys p with
   | Some m ->
     Alcotest.(check (list int)) "ints" [ 1; 2; 3 ] m.Ipc.msg_ints;
     (match m.Ipc.msg_items with
      | [ Ipc.Inline b ] ->
        Alcotest.(check string) "inline" "payload" (Bytes.to_string b)
      | _ -> Alcotest.fail "bad items");
     (match m.Ipc.msg_reply_to with
      | Some r -> Alcotest.(check bool) "reply port" true (r == reply)
      | None -> Alcotest.fail "no reply port")
   | None -> Alcotest.fail "expected message")

let test_inline_costs_per_byte () =
  let machine, _, sys = boot () in
  let p = Ipc.create_port () in
  Machine.reset_clocks machine;
  Ipc.send sys p (Ipc.message "small" ~items:[ Ipc.Inline (Bytes.create 64) ]);
  let small = Machine.max_cycles machine in
  Machine.reset_clocks machine;
  Ipc.send sys p
    (Ipc.message "big" ~items:[ Ipc.Inline (Bytes.create (256 * kb)) ]);
  let big = Machine.max_cycles machine in
  Alcotest.(check bool) "bytes cost" true (big > 10 * small)

let test_ool_transfer_data () =
  let machine, kernel, sys = boot () in
  let sender = new_task kernel ~cpu:0 in
  let receiver = Kernel.create_task kernel () in
  let a = ok (Vm_user.allocate sys sender ~size:(16 * kb) ~anywhere:true ()) in
  Machine.write machine ~cpu:0 ~va:a (Bytes.of_string "bulk contents");
  Machine.write machine ~cpu:0 ~va:(a + (12 * kb)) (Bytes.of_string "tail");
  let p = Ipc.create_port () in
  ok (Ipc.send_region sys sender p ~tag:"bulk" ~addr:a ~size:(16 * kb));
  let raddr, rsize = ok (Ipc.receive_region sys receiver p) in
  Alcotest.(check int) "size" (16 * kb) rsize;
  Kernel.run_task kernel ~cpu:0 receiver;
  Alcotest.(check string) "head" "bulk contents"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:raddr ~len:13));
  Alcotest.(check string) "tail" "tail"
    (Bytes.to_string
       (Machine.read machine ~cpu:0 ~va:(raddr + (12 * kb)) ~len:4))

let test_ool_is_cow_isolated () =
  let machine, kernel, sys = boot () in
  let sender = new_task kernel ~cpu:0 in
  let receiver = Kernel.create_task kernel () in
  let a = ok (Vm_user.allocate sys sender ~size:(4 * kb) ~anywhere:true ()) in
  Machine.write machine ~cpu:0 ~va:a (Bytes.of_string "shared?");
  let p = Ipc.create_port () in
  ok (Ipc.send_region sys sender p ~tag:"x" ~addr:a ~size:(4 * kb));
  let raddr, _ = ok (Ipc.receive_region sys receiver p) in
  (* Receiver edits; sender must not see it, and vice versa. *)
  Kernel.run_task kernel ~cpu:0 receiver;
  Machine.write machine ~cpu:0 ~va:raddr (Bytes.of_string "mine!!!");
  Kernel.run_task kernel ~cpu:0 sender;
  Alcotest.(check string) "sender intact" "shared?"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:a ~len:7));
  Machine.write machine ~cpu:0 ~va:a (Bytes.of_string "edited!");
  Kernel.run_task kernel ~cpu:0 receiver;
  Alcotest.(check string) "receiver intact" "mine!!!"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:raddr ~len:7))

let test_ool_with_dealloc_moves () =
  let machine, kernel, sys = boot () in
  let sender = new_task kernel ~cpu:0 in
  let receiver = Kernel.create_task kernel () in
  let a = ok (Vm_user.allocate sys sender ~size:(4 * kb) ~anywhere:true ()) in
  Machine.write machine ~cpu:0 ~va:a (Bytes.of_string "moved");
  let p = Ipc.create_port () in
  (* A move is a send followed by the sender's vm_deallocate. *)
  ok (Ipc.send_region sys sender p ~tag:"mv" ~addr:a ~size:(4 * kb));
  ok (Vm_user.deallocate sys sender ~addr:a ~size:(4 * kb));
  (* The sender's range is gone. *)
  (try
     ignore (Machine.read_byte machine ~cpu:0 ~va:a);
     Alcotest.fail "sender range should be deallocated"
   with Machine.Memory_violation _ -> ());
  let raddr, _ = ok (Ipc.receive_region sys receiver p) in
  Kernel.run_task kernel ~cpu:0 receiver;
  Alcotest.(check string) "data arrived" "moved"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:raddr ~len:5))

let test_ool_copy_cheaper_than_inline () =
  let machine, kernel, sys = boot () in
  let sender = new_task kernel ~cpu:0 in
  let size = 1024 * kb in
  let a = ok (Vm_user.allocate sys sender ~size ~anywhere:true ()) in
  let ps = Kernel.page_size kernel in
  let rec dirty va =
    if va < a + size then begin
      Machine.write_byte machine ~cpu:0 ~va 'd';
      dirty (va + ps)
    end
  in
  dirty a;
  let p = Ipc.create_port () in
  Machine.reset_clocks machine;
  ok (Ipc.send_region sys sender p ~tag:"fast" ~addr:a ~size);
  let ool = Machine.max_cycles machine in
  Machine.reset_clocks machine;
  let data = ok (Vm_user.read sys sender ~addr:a ~size) in
  Ipc.send sys p (Ipc.message "slow" ~items:[ Ipc.Inline data ]);
  let inline = Machine.max_cycles machine in
  Alcotest.(check bool) "remap beats copy by 10x" true (inline > 10 * ool)

let test_discard_releases_references () =
  let machine, kernel, sys = boot () in
  let sender = new_task kernel ~cpu:0 in
  let a = ok (Vm_user.allocate sys sender ~size:(4 * kb) ~anywhere:true ()) in
  Machine.write_byte machine ~cpu:0 ~va:a 'x';
  let o =
    match Vm_map.resolve_object_at sys (Task.map sender) ~va:a with
    | Some (o, _) -> o
    | None -> Alcotest.fail "no object"
  in
  let p = Ipc.create_port () in
  ok (Ipc.send_region sys sender p ~tag:"dropme" ~addr:a ~size:(4 * kb));
  Alcotest.(check int) "message holds a ref" 2 o.Types.obj_ref;
  (match Ipc.receive sys p with
   | Some m -> Ipc.discard_message sys m
   | None -> Alcotest.fail "expected message");
  Alcotest.(check int) "released" 1 o.Types.obj_ref

let test_receive_region_without_ool_fails () =
  let _, kernel, sys = boot () in
  let receiver = Kernel.create_task kernel () in
  let p = Ipc.create_port () in
  Ipc.send sys p (Ipc.message "plain");
  (match Ipc.receive_region sys receiver p with
   | Error Kr.Invalid_argument -> ()
   | Error e -> Alcotest.fail (Kr.to_string e)
   | Ok _ -> Alcotest.fail "expected failure")

(* ---- the kernel as a message server (Table 2-1 over ports) --------------- *)

let call_ok sys port msg =
  let reply = Syscall_server.call sys port msg in
  (match Syscall_server.kr_of_reply reply with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Kr.to_string e));
  reply

let test_msg_vm_allocate_and_touch () =
  let machine, kernel, sys = boot () in
  let task = new_task kernel ~cpu:0 in
  let port = Syscall_server.task_port (Syscall_server.create kernel) task in
  let reply =
    call_ok sys port
      (Ipc.message "vm_allocate" ~ints:[ 16 * kb; 1; 0 ])
  in
  let addr = List.nth reply.Ipc.msg_ints 1 in
  Machine.write machine ~cpu:0 ~va:addr (Bytes.of_string "via messages");
  Alcotest.(check string) "memory usable" "via messages"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:addr ~len:12))

let test_msg_read_write_roundtrip () =
  let _, kernel, sys = boot () in
  let task = new_task kernel ~cpu:0 in
  let port = Syscall_server.task_port (Syscall_server.create kernel) task in
  let reply =
    call_ok sys port (Ipc.message "vm_allocate" ~ints:[ 8 * kb; 1; 0 ])
  in
  let addr = List.nth reply.Ipc.msg_ints 1 in
  ignore
    (call_ok sys port
       (Ipc.message "vm_write" ~ints:[ addr ]
          ~items:[ Ipc.Inline (Bytes.of_string "remote write") ]));
  let reply =
    call_ok sys port (Ipc.message "vm_read" ~ints:[ addr; 12 ])
  in
  (match reply.Ipc.msg_items with
   | [ Ipc.Inline b ] ->
     Alcotest.(check string) "roundtrip" "remote write" (Bytes.to_string b)
   | _ -> Alcotest.fail "expected inline data")

let test_msg_protect_enforced () =
  let machine, kernel, sys = boot () in
  let task = new_task kernel ~cpu:0 in
  let port = Syscall_server.task_port (Syscall_server.create kernel) task in
  let reply =
    call_ok sys port (Ipc.message "vm_allocate" ~ints:[ 4 * kb; 1; 0 ])
  in
  let addr = List.nth reply.Ipc.msg_ints 1 in
  Machine.write_byte machine ~cpu:0 ~va:addr 'x';
  let ro = Syscall_server.prot_bits Mach_hw.Prot.read_only in
  ignore
    (call_ok sys port
       (Ipc.message "vm_protect" ~ints:[ addr; 4 * kb; 0; ro ]));
  (try
     Machine.write_byte machine ~cpu:0 ~va:addr 'y';
     Alcotest.fail "write should fail"
   with Machine.Memory_violation _ -> ())

let test_msg_regions_and_statistics () =
  let _, kernel, sys = boot () in
  let task = new_task kernel ~cpu:0 in
  let port = Syscall_server.task_port (Syscall_server.create kernel) task in
  ignore (call_ok sys port (Ipc.message "vm_allocate" ~ints:[ 4 * kb; 1; 0 ]));
  ignore (call_ok sys port (Ipc.message "vm_allocate" ~ints:[ 8 * kb; 1; 0 ]));
  let reply = call_ok sys port (Ipc.message "vm_regions") in
  (match reply.Ipc.msg_ints with
   | _kr :: n :: rest ->
     Alcotest.(check int) "two regions" 2 n;
     Alcotest.(check int) "7 ints per region" (7 * n) (List.length rest)
   | _ -> Alcotest.fail "bad reply");
  let reply = call_ok sys port (Ipc.message "vm_statistics") in
  Alcotest.(check int) "16 fields" 16 (List.length reply.Ipc.msg_ints);
  (* kr, then 10 paging fields, then the 5 failure counters — all zero on
     a freshly booted kernel with a healthy pager. *)
  let failure_counters =
    match reply.Ipc.msg_ints with
    | _kr :: rest -> List.filteri (fun i _ -> i >= 10) rest
    | [] -> []
  in
  Alcotest.(check (list int))
    "no failures on a healthy kernel" [ 0; 0; 0; 0; 0 ] failure_counters

let test_msg_errors_travel_back () =
  let _, kernel, sys = boot () in
  let task = new_task kernel ~cpu:0 in
  let port = Syscall_server.task_port (Syscall_server.create kernel) task in
  let reply =
    Syscall_server.call sys port
      (Ipc.message "vm_protect" ~ints:[ 4096; 4096; 0;
                                        Syscall_server.prot_bits Mach_hw.Prot.all ])
  in
  (* protect on unallocated space succeeds as a no-op in Mach; use a bad
     request instead: unknown operation. *)
  ignore reply;
  let reply = Syscall_server.call sys port (Ipc.message "vm_frobnicate") in
  (match Syscall_server.kr_of_reply reply with
   | Error Kr.Invalid_argument -> ()
   | Ok () | Error _ -> Alcotest.fail "expected invalid argument")

let test_msg_vm_copy () =
  let machine, kernel, sys = boot () in
  let task = new_task kernel ~cpu:0 in
  let port = Syscall_server.task_port (Syscall_server.create kernel) task in
  let addr_of r = List.nth r.Ipc.msg_ints 1 in
  let src = addr_of (call_ok sys port (Ipc.message "vm_allocate" ~ints:[ 4 * kb; 1; 0 ])) in
  let dst = addr_of (call_ok sys port (Ipc.message "vm_allocate" ~ints:[ 4 * kb; 1; 0 ])) in
  Machine.write machine ~cpu:0 ~va:src (Bytes.of_string "payload");
  ignore (call_ok sys port (Ipc.message "vm_copy" ~ints:[ src; dst; 4 * kb ]));
  Alcotest.(check string) "copied" "payload"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:dst ~len:7))

let test_task_lifecycle_by_message () =
  (* "The act of creating a task ... returns access rights to a port
     which represents the new object and can be used to manipulate
     it." *)
  let machine, kernel, sys = boot () in
  let port = Syscall_server.task_create (Syscall_server.create kernel) in
  let reply =
    call_ok sys port (Ipc.message "vm_allocate" ~ints:[ 8 * kb; 1; 0 ])
  in
  let addr = List.nth reply.Ipc.msg_ints 1 in
  ignore
    (call_ok sys port
       (Ipc.message "vm_write" ~ints:[ addr ]
          ~items:[ Ipc.Inline (Bytes.of_string "inherit me") ]));
  (* Fork by message: the child arrives as a port capability. *)
  let reply = call_ok sys port (Ipc.message "task_fork") in
  let child_port =
    match reply.Ipc.msg_items with
    | [ Ipc.Port_right p ] -> p
    | _ -> Alcotest.fail "expected the child's port capability"
  in
  let reply =
    call_ok sys child_port (Ipc.message "vm_read" ~ints:[ addr; 10 ])
  in
  (match reply.Ipc.msg_items with
   | [ Ipc.Inline b ] ->
     Alcotest.(check string) "child inherited" "inherit me"
       (Bytes.to_string b)
   | _ -> Alcotest.fail "expected data");
  (* Child writes; parent unaffected (all through messages). *)
  ignore
    (call_ok sys child_port
       (Ipc.message "vm_write" ~ints:[ addr ]
          ~items:[ Ipc.Inline (Bytes.of_string "child-data") ]));
  let reply = call_ok sys port (Ipc.message "vm_read" ~ints:[ addr; 10 ]) in
  (match reply.Ipc.msg_items with
   | [ Ipc.Inline b ] ->
     Alcotest.(check string) "parent isolated" "inherit me"
       (Bytes.to_string b)
   | _ -> Alcotest.fail "expected data");
  ignore (call_ok sys child_port (Ipc.message "task_terminate"));
  ignore machine

(* A port from [task_port] is the port [task_create] would have handed
   back: the task's lifecycle works through it too. *)
let test_task_port_forks_and_terminates () =
  let _, kernel, sys = boot () in
  let srv = Syscall_server.create kernel in
  let task = new_task kernel ~cpu:0 in
  let port = Syscall_server.task_port srv task in
  Alcotest.(check bool) "memoized" true
    (Syscall_server.task_port srv task == port);
  let reply = call_ok sys port (Ipc.message "task_fork") in
  let child_port =
    match reply.Ipc.msg_items with
    | [ Ipc.Port_right p ] -> p
    | _ -> Alcotest.fail "expected the child's port capability"
  in
  ignore
    (call_ok sys child_port (Ipc.message "vm_allocate" ~ints:[ 4 * kb; 1; 0 ]));
  ignore (call_ok sys child_port (Ipc.message "task_terminate"));
  ignore (call_ok sys port (Ipc.message "task_terminate"));
  Alcotest.(check bool) "terminated" true task.Task.task_dead

(* A terminated task's port is refused: allocate, fork and a second
   terminate each answer KERN_INVALID_ARGUMENT and leave the kernel
   alone. *)
let check_dead_port sys kernel port =
  let last_task = (Kernel.sys kernel).Vm_sys.last_task_id in
  let refused what msg =
    match Syscall_server.kr_of_reply (Syscall_server.call sys port msg) with
    | Error Kr.Invalid_argument -> ()
    | Ok () -> Alcotest.failf "%s on a dead task answered ok" what
    | Error e -> Alcotest.failf "%s on a dead task: %s" what (Kr.to_string e)
  in
  refused "vm_allocate" (Ipc.message "vm_allocate" ~ints:[ 4 * kb; 1; 0 ]);
  refused "task_fork" (Ipc.message "task_fork");
  refused "task_terminate" (Ipc.message "task_terminate");
  Alcotest.(check int) "no task made" last_task
    (Kernel.sys kernel).Vm_sys.last_task_id

let test_dead_task_port_refuses () =
  let _, kernel, sys = boot () in
  let srv = Syscall_server.create kernel in
  let task = new_task kernel ~cpu:0 in
  let port = Syscall_server.task_port srv task in
  ignore (call_ok sys port (Ipc.message "task_terminate"));
  check_dead_port sys kernel port

let test_dead_created_port_refuses () =
  let _, kernel, sys = boot () in
  let srv = Syscall_server.create kernel in
  let port = Syscall_server.task_create srv in
  ignore (call_ok sys port (Ipc.message "vm_allocate" ~ints:[ 4 * kb; 1; 0 ]));
  ignore (call_ok sys port (Ipc.message "task_terminate"));
  check_dead_port sys kernel port

(* ---- two kernels in one process ------------------------------------------ *)

(* The ids of a kernel's first task, map, object and pager. *)
let first_ids kernel =
  let sys = Kernel.sys kernel in
  let t = new_task kernel ~cpu:0 in
  let a = ok (Vm_user.allocate sys t ~size:(4 * kb) ~anywhere:true ()) in
  Machine.touch (Kernel.machine kernel) ~cpu:0 ~va:a ~write:true;
  let o, _ = Option.get (Vm_map.resolve_object_at sys (Task.map t) ~va:a) in
  let pager = Swap_pager.make sys ~name:"ids" in
  [ t.Task.task_id; (Task.map t).Types.map_id; o.Types.obj_id;
    pager.Types.pgr_id ]

let test_ids_are_per_kernel () =
  let _, kernel_a, _ = boot () in
  let ids_a = first_ids kernel_a in
  let _, kernel_b, _ = boot () in
  Alcotest.(check (list int)) "task, map, object, pager ids" ids_a
    (first_ids kernel_b);
  Alcotest.(check (list int)) "numbered from 1" [ 1; 1; 1; 1 ] ids_a

let test_ports_route_to_their_kernel () =
  let _, kernel_a, sys_a = boot () in
  let _, kernel_b, sys_b = boot () in
  let task_a = new_task kernel_a ~cpu:0 and task_b = new_task kernel_b ~cpu:0 in
  Alcotest.(check int) "same task id" task_a.Task.task_id task_b.Task.task_id;
  let port kernel task =
    Syscall_server.task_port (Syscall_server.create kernel) task
  in
  let port_a = port kernel_a task_a and port_b = port kernel_b task_b in
  (* The port, not the sender, names the kernel that does the work. *)
  ignore
    (call_ok sys_a port_b (Ipc.message "vm_allocate" ~ints:[ 16 * kb; 1; 0 ]));
  Alcotest.(check int) "allocated in B" 1
    (List.length (Vm_user.regions sys_b task_b));
  Alcotest.(check int) "not in A" 0
    (List.length (Vm_user.regions sys_a task_a));
  let reply = call_ok sys_b port_a (Ipc.message "task_fork") in
  (match reply.Ipc.msg_items with
   | [ Ipc.Port_right child ] ->
     let regions = call_ok sys_b child (Ipc.message "vm_regions") in
     Alcotest.(check (list int)) "a child of A's empty task" [ 0; 0 ]
       regions.Ipc.msg_ints
   | _ -> Alcotest.fail "expected the child's port capability");
  Alcotest.(check int) "forked in A" 2 sys_a.Vm_sys.last_task_id;
  Alcotest.(check int) "not in B" 1 sys_b.Vm_sys.last_task_id

(* A short workload as a list of steps: allocate and touch [pages],
   fork by message, write in the child through its port (copy on write),
   terminate the child by message. *)
let workload kernel ~pages =
  let sys = Kernel.sys kernel in
  let ps = Kernel.page_size kernel in
  let srv = Syscall_server.create kernel in
  let task = ref None and addr = ref 0 and child = ref None in
  let get r = Option.get !r in
  [ (fun () -> task := Some (new_task kernel ~cpu:0));
    (fun () ->
       addr :=
         ok
           (Vm_user.allocate sys (get task) ~size:(pages * ps) ~anywhere:true
              ()));
    (fun () ->
       for i = 0 to pages - 1 do
         Machine.touch (Kernel.machine kernel) ~cpu:0 ~va:(!addr + (i * ps))
           ~write:true
       done);
    (fun () ->
       let reply =
         call_ok sys (Syscall_server.task_port srv (get task))
           (Ipc.message "task_fork")
       in
       match reply.Ipc.msg_items with
       | [ Ipc.Port_right p ] -> child := Some p
       | _ -> Alcotest.fail "expected the child's port capability");
    (fun () ->
       ignore
         (call_ok sys (get child)
            (Ipc.message "vm_write" ~ints:[ !addr ]
               ~items:[ Ipc.Inline (Bytes.make ps 'c') ])));
    (fun () -> ignore (call_ok sys (get child) (Ipc.message "task_terminate")))
  ]

let solo_statistics ~pages =
  let _, kernel, sys = boot () in
  List.iter (fun step -> step ()) (workload kernel ~pages);
  Vm_user.statistics sys

let test_interleaved_kernels_match_solo () =
  let solo_a = solo_statistics ~pages:3 and solo_b = solo_statistics ~pages:5 in
  let _, kernel_a, sys_a = boot () in
  let _, kernel_b, sys_b = boot () in
  List.iter2
    (fun step_a step_b -> step_a (); step_b ())
    (workload kernel_a ~pages:3) (workload kernel_b ~pages:5);
  Alcotest.(check bool) "A's vm_statistics as alone" true
    (Vm_user.statistics sys_a = solo_a);
  Alcotest.(check bool) "B's vm_statistics as alone" true
    (Vm_user.statistics sys_b = solo_b);
  Alcotest.(check bool) "the workloads differ" true (solo_a <> solo_b)

let test_port_capability_in_message () =
  (* A message can carry a capability for another port; the receiver
     replies through it. *)
  let _, _, sys = boot () in
  let service = Ipc.create_port () in
  let own_reply = Ipc.create_port () in
  Ipc.send sys service
    (Ipc.message "request" ~items:[ Ipc.Port_right own_reply ]);
  (match Ipc.receive sys service with
   | Some m ->
     (match m.Ipc.msg_items with
      | [ Ipc.Port_right p ] -> Ipc.send sys p (Ipc.message "response")
      | _ -> Alcotest.fail "expected port capability")
   | None -> Alcotest.fail "expected request");
  (match Ipc.receive sys own_reply with
   | Some m -> Alcotest.(check string) "routed" "response" m.Ipc.msg_tag
   | None -> Alcotest.fail "expected routed reply")

(* A reply whose code the decoder does not know, or with no code at
   all, reads as a failed call, never as success. *)
let test_unknown_reply_code () =
  List.iter
    (fun (name, ints) ->
       match Syscall_server.kr_of_reply (Ipc.message "vm_allocate_reply" ~ints)
       with
       | Error Kr.Invalid_argument -> ()
       | Ok () | Error _ -> Alcotest.fail (name ^ ": not invalid argument"))
    [ ("unknown code", [ 99 ]); ("negative code", [ -1 ]); ("no ints", []) ]

let test_prot_bits_roundtrip () =
  List.iter
    (fun p ->
       Alcotest.(check string) "roundtrip" (Mach_hw.Prot.to_string p)
         (Mach_hw.Prot.to_string
            (Syscall_server.prot_of_bits (Syscall_server.prot_bits p))))
    [ Mach_hw.Prot.make ~read:false ~write:false ~execute:false;
      Mach_hw.Prot.read_only; Mach_hw.Prot.read_write;
      Mach_hw.Prot.read_execute; Mach_hw.Prot.all ]

let () =
  Alcotest.run "mach_ipc"
    [ ( "ports",
        [ Alcotest.test_case "fifo" `Quick test_port_fifo;
          Alcotest.test_case "message fields" `Quick test_message_fields;
          Alcotest.test_case "inline costs per byte" `Quick
            test_inline_costs_per_byte ] );
      ( "out-of-line",
        [ Alcotest.test_case "data transfer" `Quick test_ool_transfer_data;
          Alcotest.test_case "cow isolation" `Quick test_ool_is_cow_isolated;
          Alcotest.test_case "move with dealloc" `Quick
            test_ool_with_dealloc_moves;
          Alcotest.test_case "remap beats copy" `Quick
            test_ool_copy_cheaper_than_inline;
          Alcotest.test_case "discard releases refs" `Quick
            test_discard_releases_references;
          Alcotest.test_case "receive without ool fails" `Quick
            test_receive_region_without_ool_fails ] );
      ( "kernel as server",
        [ Alcotest.test_case "vm_allocate by message" `Quick
            test_msg_vm_allocate_and_touch;
          Alcotest.test_case "vm_read/vm_write roundtrip" `Quick
            test_msg_read_write_roundtrip;
          Alcotest.test_case "vm_protect enforced" `Quick
            test_msg_protect_enforced;
          Alcotest.test_case "vm_regions + vm_statistics" `Quick
            test_msg_regions_and_statistics;
          Alcotest.test_case "errors travel back" `Quick
            test_msg_errors_travel_back;
          Alcotest.test_case "unknown reply code" `Quick
            test_unknown_reply_code;
          Alcotest.test_case "vm_copy" `Quick test_msg_vm_copy;
          Alcotest.test_case "prot bits roundtrip" `Quick
            test_prot_bits_roundtrip;
          Alcotest.test_case "task lifecycle by message" `Quick
            test_task_lifecycle_by_message;
          Alcotest.test_case "port capability in message" `Quick
            test_port_capability_in_message;
          Alcotest.test_case "task_port forks and terminates" `Quick
            test_task_port_forks_and_terminates;
          Alcotest.test_case "dead task_port refuses" `Quick
            test_dead_task_port_refuses;
          Alcotest.test_case "dead task_create port refuses" `Quick
            test_dead_created_port_refuses ] );
      ( "two kernels",
        [ Alcotest.test_case "ids are per kernel" `Quick
            test_ids_are_per_kernel;
          Alcotest.test_case "ports route to their kernel" `Quick
            test_ports_route_to_their_kernel;
          Alcotest.test_case "interleaved kernels match solo runs" `Quick
            test_interleaved_kernels_match_solo ] ) ]

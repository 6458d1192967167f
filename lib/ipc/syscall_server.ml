open Mach_hw
open Mach_core

(* ---- wire encodings ---------------------------------------------------- *)

let prot_bits p =
  (if Prot.allows p ~write:false then 1 else 0)
  lor (if Prot.allows p ~write:true then 2 else 0)
  lor (if p.Prot.execute then 4 else 0)

let prot_of_bits b =
  Prot.make ~read:(b land 1 <> 0) ~write:(b land 2 <> 0)
    ~execute:(b land 4 <> 0)

let inherit_code = function
  | Inheritance.Shared -> 0
  | Inheritance.Copy -> 1
  | Inheritance.None_ -> 2

let inherit_of_code = function
  | 0 -> Inheritance.Shared
  | 1 -> Inheritance.Copy
  | _ -> Inheritance.None_

let kr_code = function
  | Ok () -> 0
  | Error Kr.Invalid_address -> 1
  | Error Kr.No_space -> 2
  | Error Kr.Protection_failure -> 3
  | Error Kr.Invalid_argument -> 4
  | Error Kr.Resource_shortage -> 5
  | Error Kr.Memory_error -> 6

let kr_of_code = function
  | 0 -> Ok ()
  | 1 -> Error Kr.Invalid_address
  | 2 -> Error Kr.No_space
  | 3 -> Error Kr.Protection_failure
  | 4 -> Error Kr.Invalid_argument
  | 5 -> Error Kr.Resource_shortage
  | 6 -> Error Kr.Memory_error
  | _ ->
    (* A code this decoder does not know is a protocol skew, not a value
       a correct peer can send: the call failed, whatever the peer
       meant, so it reads as a bad request rather than success. *)
    Error Kr.Invalid_argument

let kr_of_reply (m : Ipc.message) =
  match m.Ipc.msg_ints with
  | code :: _ -> kr_of_code code
  | [] -> Error Kr.Invalid_argument

(* ---- task and thread ports ---------------------------------------------- *)

(* The ports one kernel has handed out, so each task and thread keeps a
   single port.  Made on first use of IPC: a kernel that never sends a
   message has none. *)
type t = {
  kernel : Kernel.t;
  task_ports : (int, Ipc.port) Hashtbl.t;       (* task id -> its port *)
  mutable thread_ports : (Kthread.t * Ipc.port) list;
}

(* What a task or thread port stands for: the port names its object, so
   a message to it needs no lookup. *)
type Ipc.kobject += Task_object of t * Task.t | Thread_object of Kthread.t

let create kernel = { kernel; task_ports = Hashtbl.create 8; thread_ports = [] }

let task_port srv task =
  let id = task.Task.task_id in
  match Hashtbl.find_opt srv.task_ports id with
  | Some p -> p
  | None ->
    let p = Ipc.object_port (Task_object (srv, task)) in
    Hashtbl.add srv.task_ports id p;
    p

let task_create srv = task_port srv (Kernel.create_task srv.kernel ())

let thread_port srv th =
  match List.assq_opt th srv.thread_ports with
  | Some p -> p
  | None ->
    let p = Ipc.object_port (Thread_object th) in
    srv.thread_ports <- (th, p) :: srv.thread_ports;
    p

let serve_thread th (m : Ipc.message) =
  match m.Ipc.msg_tag with
  | "thread_suspend" ->
    Kthread.suspend th;
    Ipc.message "thread_suspend_reply" ~ints:[ 0 ]
  | "thread_resume" ->
    Kthread.resume th;
    Ipc.message "thread_resume_reply" ~ints:[ 0 ]
  | tag ->
    Ipc.message (tag ^ "_reply") ~ints:[ kr_code (Error Kr.Invalid_argument) ]

(* ---- the server --------------------------------------------------------- *)

let reply_simple tag r = Ipc.message (tag ^ "_reply") ~ints:[ kr_code r ]

(* A terminated task's port still names it, but the task has no map
   left to act on: every request, a second terminate too, is refused
   without a kernel call. *)
let serve srv task (m : Ipc.message) =
  let kernel = srv.kernel in
  let sys = Kernel.sys kernel in
  match m.Ipc.msg_tag, m.Ipc.msg_ints with
  | tag, _ when task.Task.task_dead ->
    reply_simple tag (Error Kr.Invalid_argument)
  | "vm_allocate", [ size; anywhere; hint ] ->
    (match
       Vm_user.allocate sys task
         ?at:(if hint = 0 then None else Some hint)
         ~size ~anywhere:(anywhere <> 0) ()
     with
     | Ok addr -> Ipc.message "vm_allocate_reply" ~ints:[ 0; addr ]
     | Error e ->
       Ipc.message "vm_allocate_reply" ~ints:[ kr_code (Error e); 0 ])
  | "vm_deallocate", [ addr; size ] ->
    reply_simple "vm_deallocate" (Vm_user.deallocate sys task ~addr ~size)
  | "vm_protect", [ addr; size; set_max; bits ] ->
    reply_simple "vm_protect"
      (Vm_user.protect sys task ~addr ~size ~set_max:(set_max <> 0)
         ~prot:(prot_of_bits bits))
  | "vm_inherit", [ addr; size; code ] ->
    reply_simple "vm_inherit"
      (Vm_user.inherit_ sys task ~addr ~size (inherit_of_code code))
  | "vm_copy", [ src; dst; size ] ->
    reply_simple "vm_copy" (Vm_user.copy sys task ~src ~dst ~size)
  | "vm_read", [ addr; size ] ->
    (match Vm_user.read sys task ~addr ~size with
     | Ok data ->
       Ipc.message "vm_read_reply" ~ints:[ 0 ] ~items:[ Ipc.Inline data ]
     | Error e -> Ipc.message "vm_read_reply" ~ints:[ kr_code (Error e) ])
  | "vm_write", [ addr ] ->
    (match m.Ipc.msg_items with
     | [ Ipc.Inline data ] ->
       reply_simple "vm_write" (Vm_user.write sys task ~addr ~data)
     | _ -> Ipc.message "vm_write_reply" ~ints:[ kr_code (Error Kr.Invalid_argument) ])
  | "vm_regions", [] ->
    let rows =
      List.concat_map
        (fun r ->
           [ r.Vm_map.ri_start; r.Vm_map.ri_end;
             prot_bits r.Vm_map.ri_prot; prot_bits r.Vm_map.ri_max_prot;
             inherit_code r.Vm_map.ri_inherit;
             (if r.Vm_map.ri_shared then 1 else 0);
             (if r.Vm_map.ri_needs_copy then 1 else 0) ])
        (Vm_user.regions sys task)
    in
    Ipc.message "vm_regions_reply"
      ~ints:(0 :: (List.length rows / 7) :: rows)
  | "vm_statistics", [] ->
    let s = Vm_user.statistics sys in
    Ipc.message "vm_statistics_reply"
      ~ints:
        [ 0; s.Vm_user.vs_page_size; s.Vm_user.vs_pages_total;
          s.Vm_user.vs_pages_free; s.Vm_user.vs_pages_active;
          s.Vm_user.vs_pages_inactive; s.Vm_user.vs_faults;
          s.Vm_user.vs_zero_fills; s.Vm_user.vs_cow_copies;
          s.Vm_user.vs_pager_reads; s.Vm_user.vs_pageouts;
          s.Vm_user.vs_pager_retries; s.Vm_user.vs_pager_deaths;
          s.Vm_user.vs_rescued_pages; s.Vm_user.vs_pageout_failures;
          s.Vm_user.vs_memory_errors ]
  | "task_fork", [] ->
    let cpu = Vm_sys.current_cpu sys in
    let child = Kernel.fork_task kernel ~cpu task in
    Ipc.message "task_fork_reply" ~ints:[ 0 ]
      ~items:[ Ipc.Port_right (task_port srv child) ]
  | "task_terminate", [] ->
    Kernel.terminate_task kernel ~cpu:(Vm_sys.current_cpu sys) task;
    Hashtbl.remove srv.task_ports task.Task.task_id;
    Ipc.message "task_terminate_reply" ~ints:[ 0 ]
  | tag, _ ->
    Ipc.message (tag ^ "_reply")
      ~ints:[ kr_code (Error Kr.Invalid_argument) ]

let call sys port request =
  let reply_port = Ipc.create_port () in
  Ipc.send sys port { request with Ipc.msg_reply_to = Some reply_port };
  (* The kernel task services the queue, dispatching on what kind of
     object the port represents. *)
  (match Ipc.receive sys port with
   | Some m ->
     let reply =
       match Ipc.port_object port with
       | Task_object (srv, task) -> serve srv task m
       | Thread_object th -> serve_thread th m
       | _ -> invalid_arg "Syscall_server: not a task or thread port"
     in
     (match m.Ipc.msg_reply_to with
      | Some rp -> Ipc.send sys rp reply
      | None -> ())
   | None -> assert false);
  match Ipc.receive sys reply_port with
  | Some reply -> reply
  | None -> failwith "Syscall_server.call: no reply"

open Mach_hw
open Mach_pmap

type t = {
  machine : Machine.t;
  domain : Pmap_domain.t;
  sys : Vm_sys.t;
  current : Task.t option array;
}

(* Decide whether a hardware fault is really a write.  On the NS32082 a
   read-modify-write access that faults for protection is reported as a
   read (Section 5.1); if the entry already permits reading, a protection
   fault reported as a read can only be the bug, so treat it as a write. *)
let effective_write t task (f : Machine.fault) =
  if f.Machine.fault_write then true
  else if
    f.Machine.fault_kind = `Protection
    && (Machine.arch t.machine).Arch.reports_rmw_as_read
  then begin
    match Vm_map.find (Task.map task) ~va:f.Machine.fault_va with
    | Some e when e.Types.e_prot.Prot.read ->
      t.sys.Vm_sys.stats.Vm_stats.vs_rmw_bug_upgrades <-
        t.sys.Vm_sys.stats.Vm_stats.vs_rmw_bug_upgrades + 1;
      true
    | Some _ | None -> false
  end
  else false

let handle_fault t ~cpu (f : Machine.fault) =
  Pmap_domain.set_current_cpu t.domain cpu;
  match t.current.(cpu) with
  | None ->
    raise (Machine.Memory_violation "fault with no current task")
  | Some task when task.Task.task_oom_killed ->
    (* The OOM policy killed this task: its address space is gone, and
       every touch from here on is KERN_MEMORY_ERROR, end to end. *)
    t.sys.Vm_sys.stats.Vm_stats.vs_memory_errors <-
      t.sys.Vm_sys.stats.Vm_stats.vs_memory_errors + 1;
    raise (Machine.Memory_violation (Kr.to_string Kr.Memory_error))
  | Some task ->
    let write = effective_write t task f in
    (match Vm_fault.fault t.sys (Task.map task) ~va:f.Machine.fault_va ~write with
     | Ok _ -> ()
     | Error kr -> raise (Machine.Memory_violation (Kr.to_string kr)))

let create ?(page_multiple = 1) machine =
  let domain = Pmap_domain.create ~page_multiple machine in
  let sys = Vm_sys.create ~machine ~domain ~reclaim:Vm_pageout.run in
  let t =
    { machine; domain; sys;
      current = Array.make (Machine.cpu_count machine) None }
  in
  Machine.set_fault_handler machine (fun ~cpu f -> handle_fault t ~cpu f);
  t

let sys t = t.sys
let machine t = t.machine
let page_size t = t.sys.Vm_sys.page_size

let create_task t ?name () = Task.create t.sys ?name ()

let fork_task t ~cpu parent =
  Pmap_domain.set_current_cpu t.domain cpu;
  Vm_sys.charge t.sys (Vm_sys.cost t.sys).Arch.proc_work;
  Task.fork t.sys parent

let run_task t ~cpu task =
  Pmap_domain.set_current_cpu t.domain cpu;
  let switching =
    match t.current.(cpu) with
    | Some prev when prev == task -> false
    | Some prev ->
      (Task.pmap prev).Pmap.deactivate ~cpu;
      true
    | None -> true
  in
  t.current.(cpu) <- Some task;
  (Task.pmap task).Pmap.activate ~cpu;
  if switching && Mach_obs.Obs.enabled (Machine.tracer t.machine) then
    Mach_obs.Obs.record (Machine.tracer t.machine)
      ~ts:(Machine.cycles t.machine ~cpu) ~cpu
      (Mach_obs.Obs.Task_switch { task = task.Task.task_name })

(* No task on [cpu] ([pmap_deactivate]). *)
let idle t ~cpu =
  (match t.current.(cpu) with
   | Some prev -> (Task.pmap prev).Pmap.deactivate ~cpu
   | None -> ());
  t.current.(cpu) <- None

let terminate_task t ~cpu task =
  Pmap_domain.set_current_cpu t.domain cpu;
  Array.iteri
    (fun i cur ->
       match cur with
       | Some running when running == task -> idle t ~cpu:i
       | Some _ | None -> ())
    t.current;
  Task.terminate t.sys task

let elapsed_ms t = Machine.elapsed_ms t.machine

let reset_clocks t = Machine.reset_clocks t.machine

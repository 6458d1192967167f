open Mach_hw
open Mach_core
open Mach_pagers

let make kernel ~fs =
  let machine = Kernel.machine kernel in
  let sys = Kernel.sys kernel in
  let tasks : (int, Task.t) Hashtbl.t = Hashtbl.create 32 in
  let next = ref 0 in
  let register task =
    incr next;
    Hashtbl.add tasks !next task;
    Os_iface.make_proc !next
  in
  let task p = Hashtbl.find tasks (Os_iface.proc_id p) in
  let ps = Kernel.page_size kernel in
  let touch ~cpu p ~addr ~size ~write =
    let t = task p in
    Kernel.run_task kernel ~cpu t;
    let rec loop va =
      if va < addr + size then begin
        Machine.touch machine ~cpu ~va ~write;
        loop (va + ps)
      end
    in
    loop addr
  in
  {
    Os_iface.os_name = "Mach";
    machine;
    proc_create = (fun ~name -> register (Kernel.create_task kernel ~name ()));
    proc_fork =
      (fun ~cpu p -> register (Kernel.fork_task kernel ~cpu (task p)));
    proc_exit =
      (fun ~cpu p ->
         Kernel.terminate_task kernel ~cpu (task p);
         Hashtbl.remove tasks (Os_iface.proc_id p));
    proc_run = (fun ~cpu p -> Kernel.run_task kernel ~cpu (task p));
    alloc =
      (fun ~cpu p ~size ->
         Mach_pmap.Pmap_domain.set_current_cpu kernel.Kernel.domain cpu;
         match Vm_user.allocate sys (task p) ~size ~anywhere:true () with
         | Ok addr -> addr
         | Error e -> failwith (Kr.to_string e));
    touch = (fun ~cpu p ~addr ~size ~write -> touch ~cpu p ~addr ~size ~write);
    exec =
      (fun ~cpu p ~text ->
         let t = task p in
         Kernel.run_task kernel ~cpu t;
         match Vnode_pager.map_file sys fs t ~name:text () with
         | Error e -> failwith (Kr.to_string e)
         | Ok (addr, size) ->
           (* Demand-page the whole text in, as running it would. *)
           touch ~cpu p ~addr ~size ~write:false);
    read_file =
      (fun ~cpu ~name ~offset ~len ->
         Mach_pmap.Pmap_domain.set_current_cpu kernel.Kernel.domain cpu;
         Vm_sys.charge sys (Vm_sys.cost sys).Arch.syscall;
         Bytes.length
           (Vnode_pager.read_through_object sys fs ~name ~offset ~len));
    write_file =
      (fun ~cpu ~name ~offset ~data ->
         Mach_pmap.Pmap_domain.set_current_cpu kernel.Kernel.domain cpu;
         Vm_sys.charge sys (Vm_sys.cost sys).Arch.syscall;
         Simfs.write fs ~cpu ~name ~offset ~data:(Lent.of_bytes data));
    install_file = (fun ~name ~data -> Simfs.install_file fs ~name ~data);
    elapsed_ms = (fun () -> Machine.elapsed_ms machine);
    reset =
      (fun () ->
         Machine.reset_clocks machine;
         Simdisk.reset_counters (Simfs.disk fs));
  }

open Mach_hw
open Mach_bsd
open Mach_pagers

let make bsd ~fs =
  let machine = Bsd_vm.machine bsd in
  let procs : (int, Bsd_vm.proc) Hashtbl.t = Hashtbl.create 32 in
  let next = ref 0 in
  let register p =
    incr next;
    Hashtbl.add procs !next p;
    Os_iface.make_proc !next
  in
  let proc p = Hashtbl.find procs (Os_iface.proc_id p) in
  let page = Phys_mem.page_size (Machine.phys machine) in
  {
    Os_iface.os_name =
      (Bsd_vm.variant_for (Machine.arch machine)).Bsd_vm.v_name;
    machine;
    proc_create =
      (fun ~name -> register (Bsd_vm.create_proc bsd ~name ()));
    proc_fork = (fun ~cpu p -> register (Bsd_vm.fork bsd ~cpu (proc p)));
    proc_exit =
      (fun ~cpu p ->
         Bsd_vm.exit bsd ~cpu (proc p);
         Hashtbl.remove procs (Os_iface.proc_id p));
    proc_run = (fun ~cpu p -> Bsd_vm.run_proc bsd ~cpu (proc p));
    alloc = (fun ~cpu p ~size -> Bsd_vm.sbrk bsd ~cpu (proc p) ~size);
    touch =
      (fun ~cpu p ~addr ~size ~write ->
         Bsd_vm.run_proc bsd ~cpu (proc p);
         let rec loop va =
           if va < addr + size then begin
             Machine.touch machine ~cpu ~va ~write;
             loop (va + page)
           end
         in
         loop addr);
    exec =
      (fun ~cpu p ~text -> ignore (Bsd_vm.exec bsd ~cpu (proc p) ~text));
    read_file =
      (fun ~cpu ~name ~offset ~len ->
         Bytes.length (Bsd_vm.read_file bsd ~cpu ~name ~offset ~len));
    write_file =
      (fun ~cpu ~name ~offset ~data ->
         Bsd_vm.write_file bsd ~cpu ~name ~offset ~data);
    install_file = (fun ~name ~data -> Simfs.install_file fs ~name ~data);
    elapsed_ms = (fun () -> Machine.elapsed_ms machine);
    reset =
      (fun () ->
         Machine.reset_clocks machine;
         Simdisk.reset_counters (Simfs.disk fs));
  }

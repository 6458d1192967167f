(* Quickstart: boot a simulated VAX, create a task, allocate memory,
   touch it through the MMU, fork copy-on-write, and read the paper-style
   statistics.

     dune exec examples/quickstart.exe *)

open Mach_hw
open Mach_core

let check = function
  | Ok v -> v
  | Error e -> failwith (Kr.to_string e)

let () =
  (* A MicroVAX II with 8 MB of memory and a Mach kernel using 4 KB
     machine-independent pages over the VAX's 512-byte hardware pages. *)
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:16384 () in
  let kernel = Kernel.create ~page_multiple:8 machine in
  let sys = Kernel.sys kernel in
  Printf.printf "booted Mach on %s: page size %d (hardware %d)\n"
    (Machine.arch machine).Arch.name (Kernel.page_size kernel)
    (Machine.arch machine).Arch.hw_page_size;

  (* vm_allocate 256 KB of zero-filled memory. *)
  let task = Kernel.create_task kernel ~name:"demo" () in
  Kernel.run_task kernel ~cpu:0 task;
  let addr = check (Vm_user.allocate sys task ~size:(256 * 1024) ~anywhere:true ()) in
  Printf.printf "vm_allocate: 256K at 0x%x\n" addr;

  (* Touch it through the simulated MMU: each page demand-zero faults. *)
  Machine.write machine ~cpu:0 ~va:addr (Bytes.of_string "hello, mach");
  Printf.printf "read back: %s\n"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:addr ~len:11));

  (* Fork: the child is a copy-on-write copy of the parent. *)
  let child = Kernel.fork_task kernel ~cpu:0 task in
  Kernel.run_task kernel ~cpu:0 child;
  Printf.printf "child sees: %s\n"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:addr ~len:11));
  Machine.write machine ~cpu:0 ~va:addr (Bytes.of_string "child edit!");
  Kernel.run_task kernel ~cpu:0 task;
  Printf.printf "after child wrote, parent still sees: %s\n"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:addr ~len:11));

  (* vm_protect: make the region read-only and watch a write fail. *)
  check
    (Vm_user.protect sys task ~addr ~size:4096 ~set_max:false
       ~prot:Prot.read_only);
  (try
     Machine.write_byte machine ~cpu:0 ~va:addr 'X';
     print_endline "BUG: write succeeded"
   with Machine.Memory_violation reason ->
     Printf.printf "write to read-only page rejected: %s\n" reason);

  (* vm_regions and vm_statistics, as in Table 2-1. *)
  List.iter
    (fun r ->
       Printf.printf "region 0x%x-0x%x %s inherit=%s%s\n"
         r.Vm_map.ri_start r.Vm_map.ri_end
         (Prot.to_string r.Vm_map.ri_prot)
         (Inheritance.to_string r.Vm_map.ri_inherit)
         (if r.Vm_map.ri_needs_copy then " (copy-on-write)" else ""))
    (Vm_user.regions sys task);
  let st = Vm_user.statistics sys in
  Printf.printf
    "faults=%d zero_fills=%d cow_copies=%d (%.2f simulated ms)\n"
    st.Vm_user.vs_faults st.Vm_user.vs_zero_fills st.Vm_user.vs_cow_copies
    (Kernel.elapsed_ms kernel);
  Kernel.terminate_task kernel ~cpu:0 child;
  Kernel.terminate_task kernel ~cpu:0 task;
  print_endline "quickstart done"

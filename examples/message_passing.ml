(* The duality of memory and communication (Section 2): a 4 MB region is
   sent between tasks in a single message.  Out of line, the transfer is
   copy-on-write remapping — no data moves until someone writes; inline it
   is two full copies.  The example prints the simulated cost of both.

     dune exec examples/message_passing.exe *)

open Mach_hw
open Mach_core
open Mach_ipc

let check = function
  | Ok v -> v
  | Error e -> failwith (Kr.to_string e)

let mb = 1024 * 1024

let () =
  let machine = Machine.create ~arch:Arch.vax8650 ~memory_frames:32768 () in
  let kernel = Kernel.create ~page_multiple:8 machine in
  let sys = Kernel.sys kernel in
  let ps = Kernel.page_size kernel in
  let sender = Kernel.create_task kernel ~name:"sender" () in
  let receiver = Kernel.create_task kernel ~name:"receiver" () in
  Kernel.run_task kernel ~cpu:0 sender;

  let size = 4 * mb in
  let addr = check (Vm_user.allocate sys sender ~size ~anywhere:true ()) in
  let rec dirty va =
    if va < addr + size then begin
      Machine.write machine ~cpu:0 ~va (Bytes.of_string "payload!");
      dirty (va + ps)
    end
  in
  dirty addr;
  Printf.printf "sender dirtied %d MB\n" (size / mb);

  let port = Ipc.create_port () in
  Machine.reset_clocks machine;
  check (Ipc.send_region sys sender port ~tag:"bulk-transfer" ~addr ~size);
  let send_ms = Kernel.elapsed_ms kernel in
  let raddr, rsize = check (Ipc.receive_region sys receiver port) in
  Printf.printf
    "sent %d MB out-of-line in %.2f simulated ms (COW remap, no copy)\n"
    (size / mb) send_ms;

  (* The receiver reads the data lazily; pages materialise on touch. *)
  Kernel.run_task kernel ~cpu:0 receiver;
  Printf.printf "receiver mapped it at 0x%x (%d bytes); first page: %s\n"
    raddr rsize
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:raddr ~len:8));

  (* Writes by the receiver do not disturb the sender (copy-on-write). *)
  Machine.write machine ~cpu:0 ~va:raddr (Bytes.of_string "EDITED!!");
  Kernel.run_task kernel ~cpu:0 sender;
  Printf.printf "sender's copy still reads: %s\n"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:addr ~len:8));

  (* Same transfer inline, for contrast. *)
  Machine.reset_clocks machine;
  let data = check (Vm_user.read sys sender ~addr ~size) in
  Ipc.send sys port (Ipc.message "bulk-inline" ~items:[ Ipc.Inline data ]);
  (match Ipc.receive sys port with
   | Some m -> Ipc.discard_message sys m
   | None -> assert false);
  Printf.printf "the same transfer inline costs %.2f simulated ms\n"
    (Kernel.elapsed_ms kernel);
  Kernel.terminate_task kernel ~cpu:0 receiver;
  Kernel.terminate_task kernel ~cpu:0 sender;
  print_endline "message_passing done"

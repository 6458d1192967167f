(* A user-state external pager (Section 3.3, Tables 3-1/3-2): page faults
   on the mapped object become pager_data_request messages on the pager's
   port; the pager task answers with pager_data_provided /
   pager_data_unavailable; pageouts arrive as pager_data_write messages.

     dune exec examples/external_pager.exe *)

open Mach_hw
open Mach_core
open Mach_pagers

let check = function
  | Ok v -> v
  | Error e -> failwith (Kr.to_string e)

let () =
  let machine = Machine.create ~arch:Arch.rt_pc ~memory_frames:2048 () in
  let kernel = Kernel.create ~page_multiple:2 machine in
  let sys = Kernel.sys kernel in
  let ps = Kernel.page_size kernel in

  (* The "trivial read/write object mechanism" the paper mentions: a
     store indexed by offset, driven entirely by messages. *)
  let pager, store, served =
    Port_pager.trivial_store sys ~name:"demo-pager" ()
  in
  Hashtbl.replace store 0 (Bytes.of_string "data served by a user-state pager");
  Hashtbl.replace store ps (Bytes.make ps 'B');

  let task = Kernel.create_task kernel ~name:"client" () in
  Kernel.run_task kernel ~cpu:0 task;
  let addr =
    check
      (Vm_user.allocate_with_pager sys task ~pager ~offset:0 ~size:(4 * ps))
  in
  Printf.printf "mapped external-pager object at 0x%x\n" addr;

  (* Fault in page 0: one pager_data_request/pager_data_provided round. *)
  Printf.printf "page 0 reads: %s\n"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:addr ~len:33));
  (* Page 2 has no data: the pager answers unavailable and the kernel
     zero fills. *)
  Printf.printf "page 2 first byte: %d (zero filled)\n"
    (Char.code (Machine.read_byte machine ~cpu:0 ~va:(addr + (2 * ps))));
  Printf.printf "pager served %d data requests so far\n"
    (served ());

  (* Dirty page 1 and force pageout: the pager receives a
     pager_data_write message and its store is updated. *)
  Machine.write machine ~cpu:0 ~va:(addr + ps) (Bytes.of_string "MODIFIED");
  Vm_pageout.deactivate_some sys ~count:1000;
  Vm_pageout.run sys ~wanted:1000;
  let written = Hashtbl.find store ps in
  Printf.printf "pager's store for page 1 now begins: %s\n"
    (Bytes.to_string (Bytes.sub written 0 8));

  (* And the evicted page comes back from the pager on the next touch. *)
  Printf.printf "page 1 re-faulted reads: %s\n"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:(addr + ps) ~len:8));
  Kernel.terminate_task kernel ~cpu:0 task;
  print_endline "external_pager done"

(* Section 6 — integrating loosely-coupled systems: a task maps a memory
   object whose pager lives on another machine.  Pages cross the network
   only when referenced (copy-on-reference), writes propagate back, and a
   second mapping on the client is served from the local page cache.

     dune exec examples/network_memory.exe *)

open Mach_hw
open Mach_core
open Mach_net
open Mach_pagers

let check = function
  | Ok v -> v
  | Error e -> failwith (Kr.to_string e)

let kb = 1024

let () =
  (* Two VAX 8200s on 10 Mbit Ethernet: a file server and a client. *)
  let server_machine = Machine.create ~arch:Arch.vax8200 ~memory_frames:8192 () in
  let client_machine = Machine.create ~arch:Arch.vax8200 ~memory_frames:8192 () in
  let server_kernel = Kernel.create ~page_multiple:8 server_machine in
  let client_kernel = Kernel.create ~page_multiple:8 client_machine in
  let link = Netlink.create [ server_machine; client_machine ] in
  let server_fs = Simfs.create server_machine () in
  Simfs.install_file server_fs ~name:"/export/dataset"
    ~data:(Bytes.init (256 * kb) (fun i -> Char.chr (65 + (i / 4096 mod 26))));
  let server =
    Net_pager.serve ~node:0 (Kernel.sys server_kernel) server_fs
  in

  (* The client maps the remote file; nothing crosses the wire yet. *)
  let sys = Kernel.sys client_kernel in
  let task = Kernel.create_task client_kernel ~name:"client" () in
  Kernel.run_task client_kernel ~cpu:0 task;
  let addr, size =
    check (Net_pager.map_remote link ~node:1 sys task server
             ~name:"/export/dataset" ())
  in
  Printf.printf "mapped remote /export/dataset (%dK) at 0x%x; %d bytes moved\n"
    (size / kb) addr (Netlink.bytes_moved link);

  (* Touch three pages: exactly three pages cross the network. *)
  let ps = Kernel.page_size client_kernel in
  List.iter
    (fun page ->
       let c = Machine.read_byte client_machine ~cpu:0 ~va:(addr + (page * ps)) in
       Printf.printf "page %2d first byte: %c\n" page c)
    [ 0; 17; 40 ];
  Printf.printf "after 3 touches: %d exchanges, %d bytes (copy-on-reference)\n"
    (Netlink.messages link) (Netlink.bytes_moved link);

  (* A second task on the client reuses the locally cached pages. *)
  let task2 = Kernel.create_task client_kernel ~name:"client2" () in
  Kernel.run_task client_kernel ~cpu:0 task2;
  let addr2, _ =
    check (Net_pager.map_remote link ~node:1 sys task2 server
             ~name:"/export/dataset" ())
  in
  let before = Netlink.messages link in
  ignore (Machine.read_byte client_machine ~cpu:0 ~va:addr2);
  Printf.printf "second client task touched page 0 with %d network messages\n"
    (Netlink.messages link - before);

  (* Dirty a page and push it back to the server. *)
  Kernel.run_task client_kernel ~cpu:0 task;
  Machine.write client_machine ~cpu:0 ~va:addr (Bytes.of_string "CLIENT-EDIT");
  Kernel.terminate_task client_kernel ~cpu:0 task;
  Kernel.terminate_task client_kernel ~cpu:0 task2;
  Vm_pageout.deactivate_some sys ~count:10_000;
  Vm_pageout.run sys ~wanted:10_000;
  Vm_object.drain_cache sys;
  Printf.printf "server file now begins: %s\n"
    (Bytes.to_string
       (Simfs.read server_fs ~cpu:0 ~name:"/export/dataset" ~offset:0 ~len:11));

  (* Contrast with eagerly fetching the whole file. *)
  Netlink.reset_counters link;
  Machine.reset_clocks client_machine;
  ignore (Net_pager.fetch_whole link ~node:1 sys server ~name:"/export/dataset");
  Printf.printf "eager whole-file fetch: %d bytes, %.2f simulated ms\n"
    (Netlink.bytes_moved link) (Machine.elapsed_ms client_machine);
  print_endline "network_memory done"

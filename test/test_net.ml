(* Tests for the Section 6 extension: remote memory objects over a
   simulated network — copy-on-reference transfer, local caching,
   write-back, and the cost model. *)

open Mach_hw
open Mach_core
open Mach_net
open Mach_pagers

let kb = 1024

let boot_pair () =
  let server_machine =
    Machine.create ~arch:Arch.vax8200 ~memory_frames:4096 ()
  in
  let client_machine =
    Machine.create ~arch:Arch.vax8200 ~memory_frames:4096 ()
  in
  let server_kernel = Kernel.create ~page_multiple:8 server_machine in
  let client_kernel = Kernel.create ~page_multiple:8 client_machine in
  let link = Netlink.create [ server_machine; client_machine ] in
  let server_fs = Simfs.create server_machine () in
  let server = Net_pager.serve ~node:0 (Kernel.sys server_kernel) server_fs in
  (link, server_fs, server, client_machine, client_kernel)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Kr.to_string e)

let test_link_charges_both_sides () =
  let a = Machine.create ~arch:Arch.vax8200 ~memory_frames:64 () in
  let b = Machine.create ~arch:Arch.uvax2 ~memory_frames:64 () in
  let link = Netlink.create [ a; b ] in
  let r =
    Netlink.rpc link ~from_node:0 ~from_cpu:0 ~to_node:1 ~to_cpu:0
      ~request_bytes:100 ~reply_bytes:5000 (fun () -> 42)
  in
  Alcotest.(check int) "result" 42 r;
  Alcotest.(check bool) "caller charged" true (Machine.max_cycles a > 0);
  Alcotest.(check bool) "server charged" true (Machine.max_cycles b > 0);
  Alcotest.(check int) "bytes" 5100 (Netlink.bytes_moved link);
  Alcotest.(check int) "messages" 2 (Netlink.messages link)

let test_rpc_mirrors_service_time () =
  let a = Machine.create ~arch:Arch.vax8200 ~memory_frames:64 () in
  let b = Machine.create ~arch:Arch.vax8200 ~memory_frames:64 () in
  let link = Netlink.create [ a; b ] in
  let small =
    Netlink.rpc link ~from_node:0 ~from_cpu:0 ~to_node:1 ~to_cpu:0
      ~request_bytes:10 ~reply_bytes:10 (fun () -> ());
    Machine.max_cycles a
  in
  Machine.reset_clocks a;
  Machine.reset_clocks b;
  Netlink.rpc link ~from_node:0 ~from_cpu:0 ~to_node:1 ~to_cpu:0
    ~request_bytes:10 ~reply_bytes:10 (fun () ->
        Machine.charge b ~cpu:0 1_000_000);
  Alcotest.(check bool) "caller waits for remote work" true
    (Machine.max_cycles a > small + 500_000)

let test_remote_map_data () =
  let link, server_fs, server, client_machine, client_kernel = boot_pair () in
  ignore link;
  Simfs.install_file server_fs ~name:"/r"
    ~data:(Bytes.of_string (String.concat "" (List.init 1000 (fun i -> Printf.sprintf "%04d" i))));
  let sys = Kernel.sys client_kernel in
  let t = Kernel.create_task client_kernel () in
  Kernel.run_task client_kernel ~cpu:0 t;
  let addr, size =
    ok (Net_pager.map_remote link ~node:1 sys t server ~name:"/r" ())
  in
  Alcotest.(check int) "size" 4000 size;
  Alcotest.(check string) "front" "0000"
    (Bytes.to_string (Machine.read client_machine ~cpu:0 ~va:addr ~len:4));
  Alcotest.(check string) "mid" "0500"
    (Bytes.to_string (Machine.read client_machine ~cpu:0 ~va:(addr + 2000) ~len:4))

let test_copy_on_reference_traffic () =
  let link, server_fs, server, client_machine, client_kernel = boot_pair () in
  Simfs.install_file server_fs ~name:"/big" ~data:(Bytes.make (64 * kb) 'B');
  let sys = Kernel.sys client_kernel in
  let t = Kernel.create_task client_kernel () in
  Kernel.run_task client_kernel ~cpu:0 t;
  let addr, _ =
    ok (Net_pager.map_remote link ~node:1 sys t server ~name:"/big" ())
  in
  Netlink.reset_counters link;
  (* Touch two of sixteen pages: traffic ~ 2 pages, not the file. *)
  ignore (Machine.read_byte client_machine ~cpu:0 ~va:addr);
  ignore (Machine.read_byte client_machine ~cpu:0 ~va:(addr + (32 * kb)));
  Alcotest.(check bool) "only touched pages moved" true
    (Netlink.bytes_moved link < 3 * 4096 + 512);
  (* Retouching is free: pages are locally resident. *)
  let m = Netlink.messages link in
  ignore (Machine.read_byte client_machine ~cpu:0 ~va:addr);
  Alcotest.(check int) "no extra traffic" m (Netlink.messages link)

let test_write_back_to_server () =
  let link, server_fs, server, client_machine, client_kernel = boot_pair () in
  Simfs.install_file server_fs ~name:"/w" ~data:(Bytes.make (4 * kb) 'w');
  let sys = Kernel.sys client_kernel in
  let t = Kernel.create_task client_kernel () in
  Kernel.run_task client_kernel ~cpu:0 t;
  let addr, _ =
    ok (Net_pager.map_remote link ~node:1 sys t server ~name:"/w" ())
  in
  Machine.write client_machine ~cpu:0 ~va:addr (Bytes.of_string "REMOTE");
  Kernel.terminate_task client_kernel ~cpu:0 t;
  Vm_pageout.deactivate_some sys ~count:1000;
  Vm_pageout.run sys ~wanted:1000;
  Vm_object.drain_cache sys;
  Alcotest.(check string) "server updated" "REMOTE"
    (Bytes.to_string (Simfs.read server_fs ~cpu:0 ~name:"/w" ~offset:0 ~len:6))

let test_private_remote_mapping () =
  let link, server_fs, server, client_machine, client_kernel = boot_pair () in
  Simfs.install_file server_fs ~name:"/p" ~data:(Bytes.make (4 * kb) 'p');
  let sys = Kernel.sys client_kernel in
  let t = Kernel.create_task client_kernel () in
  Kernel.run_task client_kernel ~cpu:0 t;
  (* A private mapping is vm_copy of a shared one. *)
  let shared, size =
    ok (Net_pager.map_remote link ~node:1 sys t server ~name:"/p" ())
  in
  let addr = ok (Vm_user.allocate sys t ~size ~anywhere:true ()) in
  ok (Vm_user.copy sys t ~src:shared ~dst:addr ~size);
  Machine.write_byte client_machine ~cpu:0 ~va:addr 'X';
  Alcotest.(check char) "private edit" 'X'
    (Machine.read_byte client_machine ~cpu:0 ~va:addr);
  Kernel.terminate_task client_kernel ~cpu:0 t;
  Vm_pageout.deactivate_some sys ~count:1000;
  Vm_pageout.run sys ~wanted:1000;
  Vm_object.drain_cache sys;
  Alcotest.(check char) "server untouched by private mapping" 'p'
    (Bytes.get (Simfs.read server_fs ~cpu:0 ~name:"/p" ~offset:0 ~len:1) 0)

let test_missing_remote_file () =
  let link, _server_fs, server, _client_machine, client_kernel = boot_pair () in
  let sys = Kernel.sys client_kernel in
  let t = Kernel.create_task client_kernel () in
  (match Net_pager.map_remote link ~node:1 sys t server ~name:"/none" () with
   | Error Kr.Invalid_argument -> ()
   | Error e -> Alcotest.fail (Kr.to_string e)
   | Ok _ -> Alcotest.fail "expected failure")

let test_fetch_whole_moves_everything () =
  let link, server_fs, server, _client_machine, client_kernel = boot_pair () in
  Simfs.install_file server_fs ~name:"/all" ~data:(Bytes.make (32 * kb) 'a');
  Netlink.reset_counters link;
  let data =
    Net_pager.fetch_whole link ~node:1 (Kernel.sys client_kernel) server
      ~name:"/all"
  in
  Alcotest.(check int) "all bytes" (32 * kb) (Bytes.length data);
  Alcotest.(check bool) "wire carried the file" true
    (Netlink.bytes_moved link >= 32 * kb)

let () =
  Alcotest.run "mach_net"
    [ ( "link",
        [ Alcotest.test_case "charges both sides" `Quick
            test_link_charges_both_sides;
          Alcotest.test_case "mirrors service time" `Quick
            test_rpc_mirrors_service_time ] );
      ( "remote objects",
        [ Alcotest.test_case "mapped data" `Quick test_remote_map_data;
          Alcotest.test_case "copy-on-reference traffic" `Quick
            test_copy_on_reference_traffic;
          Alcotest.test_case "write-back" `Quick test_write_back_to_server;
          Alcotest.test_case "private mapping" `Quick
            test_private_remote_mapping;
          Alcotest.test_case "missing file" `Quick test_missing_remote_file;
          Alcotest.test_case "fetch whole" `Quick
            test_fetch_whole_moves_everything ] ) ]

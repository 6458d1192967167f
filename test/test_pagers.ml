(* Tests for the pager substrate: the simulated disk, the file system,
   the vnode pager (mapped files), and the message-driven external
   pager. *)

open Mach_hw
open Mach_core
open Mach_pagers

let kb = 1024

let boot () =
  let machine = Machine.create ~arch:Arch.vax8200 ~memory_frames:8192 () in
  let kernel = Kernel.create ~page_multiple:8 machine in
  let fs = Simfs.create machine () in
  (machine, kernel, Kernel.sys kernel, fs)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Kr.to_string e)

let new_task kernel ~cpu =
  let t = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu t;
  t

(* ---- simdisk ------------------------------------------------------------ *)

let test_disk_rw_and_costs () =
  let machine = Machine.create ~arch:Arch.vax8200 ~memory_frames:64 () in
  let d = Simdisk.create machine ~block_size:4096 in
  let read block =
    let data, io = Simdisk.lend_run d ~cpu:0 ~first:block ~count:1 in
    Machine.wait_io machine ~cpu:0 io;
    Lent.to_bytes data
  in
  let block = Bytes.make 4096 '\000' in
  Bytes.blit_string "disk block" 0 block 0 10;
  Simdisk.write_run d ~cpu:0 ~first:5 ~pos:0 ~len:4096 (Lent.of_bytes block);
  Alcotest.(check string) "read back" "disk block"
    (Bytes.to_string (Bytes.sub (read 5) 0 10));
  Alcotest.(check int) "counters" 1 (Simdisk.reads d);
  Alcotest.(check int) "writes" 1
    ((Machine.stats machine).Machine.disk_ops - Simdisk.reads d);
  Alcotest.(check bool) "time charged" true (Machine.max_cycles machine > 0);
  (* Unwritten blocks read as zeros. *)
  Alcotest.(check char) "zero block" '\000'
    (Bytes.get (read 99) 0)

let test_disk_install_uncharged () =
  let machine = Machine.create ~arch:Arch.vax8200 ~memory_frames:64 () in
  let d = Simdisk.create machine ~block_size:512 in
  Simdisk.install d ~block:1 ~pos:0 ~len:5 (Bytes.of_string "setup");
  Alcotest.(check int) "no ops counted" 0
    (Machine.stats machine).Machine.disk_ops;
  Alcotest.(check int) "no time" 0 (Machine.max_cycles machine)

(* ---- simfs --------------------------------------------------------------- *)

let test_fs_roundtrip () =
  let _, _, _, fs = boot () in
  Simfs.install_file fs ~name:"/a" ~data:(Bytes.of_string "contents of a");
  Alcotest.(check bool) "exists" true (Simfs.exists fs ~name:"/a");
  Alcotest.(check int) "size" 13 (Simfs.file_size fs ~name:"/a");
  Alcotest.(check string) "read all" "contents of a"
    (Bytes.to_string (Simfs.read fs ~cpu:0 ~name:"/a" ~offset:0 ~len:13));
  Alcotest.(check string) "read middle" "tents"
    (Bytes.to_string (Simfs.read fs ~cpu:0 ~name:"/a" ~offset:3 ~len:5))

let test_fs_short_reads () =
  let _, _, _, fs = boot () in
  Simfs.install_file fs ~name:"/s" ~data:(Bytes.of_string "short");
  Alcotest.(check int) "clamped" 5
    (Bytes.length (Simfs.read fs ~cpu:0 ~name:"/s" ~offset:0 ~len:100));
  Alcotest.(check int) "past eof" 0
    (Bytes.length (Simfs.read fs ~cpu:0 ~name:"/s" ~offset:50 ~len:10))

let test_fs_write_extends () =
  let _, _, _, fs = boot () in
  Simfs.install_file fs ~name:"/w" ~data:(Bytes.of_string "12345");
  Simfs.write fs ~cpu:0 ~name:"/w" ~offset:3
    ~data:(Lent.of_bytes (Bytes.of_string "ABCDEF"));
  Alcotest.(check int) "extended" 9 (Simfs.file_size fs ~name:"/w");
  Alcotest.(check string) "merged" "123ABCDEF"
    (Bytes.to_string (Simfs.read fs ~cpu:0 ~name:"/w" ~offset:0 ~len:9))

let test_fs_spanning_blocks () =
  let _, _, _, fs = boot () in
  let big = Bytes.init (10 * kb) (fun i -> Char.chr (65 + (i mod 26))) in
  Simfs.install_file fs ~name:"/big" ~data:big;
  let r = Simfs.read fs ~cpu:0 ~name:"/big" ~offset:4000 ~len:1000 in
  Alcotest.(check string) "cross-block read"
    (Bytes.to_string (Bytes.sub big 4000 1000))
    (Bytes.to_string r)

(* ---- vnode pager ---------------------------------------------------------- *)

let test_map_file_data () =
  let machine, kernel, sys, fs = boot () in
  let data = Bytes.init (20 * kb) (fun i -> Char.chr (33 + (i mod 80))) in
  Simfs.install_file fs ~name:"/data" ~data;
  let t = new_task kernel ~cpu:0 in
  let a, size = ok (Vnode_pager.map_file sys fs t ~name:"/data" ()) in
  Alcotest.(check int) "size" (20 * kb) size;
  Alcotest.(check string) "front" (Bytes.to_string (Bytes.sub data 0 50))
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:a ~len:50));
  Alcotest.(check string) "deep"
    (Bytes.to_string (Bytes.sub data (17 * kb) 100))
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:(a + (17 * kb)) ~len:100))

let test_map_file_eof_zero_fill () =
  let machine, kernel, sys, fs = boot () in
  (* 5000-byte file: the second 4 KB page exists but its tail past EOF is
     zero filled. *)
  Simfs.install_file fs ~name:"/f" ~data:(Bytes.make 5000 'F');
  let t = new_task kernel ~cpu:0 in
  let a, _ = ok (Vnode_pager.map_file sys fs t ~name:"/f" ()) in
  Alcotest.(check char) "data" 'F' (Machine.read_byte machine ~cpu:0 ~va:(a + 4999));
  Alcotest.(check char) "tail zero" '\000'
    (Machine.read_byte machine ~cpu:0 ~va:(a + 5001))

let test_two_mappings_one_object () =
  let machine, kernel, sys, fs = boot () in
  Simfs.install_file fs ~name:"/shared" ~data:(Bytes.make (8 * kb) 'S');
  let t1 = new_task kernel ~cpu:0 in
  let a1, _ = ok (Vnode_pager.map_file sys fs t1 ~name:"/shared" ()) in
  ignore (Machine.read_byte machine ~cpu:0 ~va:a1);
  let reads = Simdisk.reads (Simfs.disk fs) in
  let t2 = new_task kernel ~cpu:0 in
  let a2, _ = ok (Vnode_pager.map_file sys fs t2 ~name:"/shared" ()) in
  ignore (Machine.read_byte machine ~cpu:0 ~va:a2);
  Alcotest.(check int) "no extra disk reads" reads
    (Simdisk.reads (Simfs.disk fs));
  (* Shared mapping: a write by t2 is seen by t1. *)
  Machine.write_byte machine ~cpu:0 ~va:a2 'W';
  Kernel.run_task kernel ~cpu:0 t1;
  Alcotest.(check char) "write visible" 'W'
    (Machine.read_byte machine ~cpu:0 ~va:a1)

let test_private_file_mapping () =
  let machine, kernel, sys, fs = boot () in
  Simfs.install_file fs ~name:"/text" ~data:(Bytes.make (4 * kb) 'T');
  let t = new_task kernel ~cpu:0 in
  (* A private mapping is vm_copy of a shared one. *)
  let shared, size = ok (Vnode_pager.map_file sys fs t ~name:"/text" ()) in
  let a = ok (Vm_user.allocate sys t ~size ~anywhere:true ()) in
  ok (Vm_user.copy sys t ~src:shared ~dst:a ~size);
  Machine.write_byte machine ~cpu:0 ~va:a 'X';
  Alcotest.(check char) "private edit" 'X'
    (Machine.read_byte machine ~cpu:0 ~va:a);
  Alcotest.(check char) "shared mapping intact" 'T'
    (Machine.read_byte machine ~cpu:0 ~va:shared);
  (* The file itself is untouched. *)
  Alcotest.(check char) "file intact" 'T'
    (Bytes.get (Simfs.read fs ~cpu:0 ~name:"/text" ~offset:0 ~len:1) 0)

let test_dirty_mapping_written_back () =
  let machine, kernel, sys, fs = boot () in
  Simfs.install_file fs ~name:"/log" ~data:(Bytes.make (4 * kb) 'L');
  let t = new_task kernel ~cpu:0 in
  let a, _ = ok (Vnode_pager.map_file sys fs t ~name:"/log" ()) in
  Machine.write machine ~cpu:0 ~va:a (Bytes.of_string "UPDATED");
  Kernel.terminate_task kernel ~cpu:0 t;
  Vm_pageout.deactivate_some sys ~count:10_000;
  Vm_pageout.run sys ~wanted:10_000;
  Vm_object.drain_cache sys;
  Alcotest.(check string) "written back" "UPDATED"
    (Bytes.to_string (Simfs.read fs ~cpu:0 ~name:"/log" ~offset:0 ~len:7))

let test_writeback_never_grows_file () =
  let machine, kernel, sys, fs = boot () in
  (* 5000-byte file: its second 4 KB page is mostly past EOF. *)
  Simfs.install_file fs ~name:"/short" ~data:(Bytes.make 5000 's');
  let t = new_task kernel ~cpu:0 in
  let a, _ = ok (Vnode_pager.map_file sys fs t ~name:"/short" ()) in
  Machine.write_byte machine ~cpu:0 ~va:(a + 4999) 'E';
  Machine.write_byte machine ~cpu:0 ~va:(a + 6000) 'X'; (* past EOF *)
  Kernel.terminate_task kernel ~cpu:0 t;
  Vm_pageout.deactivate_some sys ~count:10_000;
  Vm_pageout.run sys ~wanted:10_000;
  Vm_object.drain_cache sys;
  Alcotest.(check int) "size unchanged" 5000
    (Simfs.file_size fs ~name:"/short");
  Alcotest.(check char) "in-file byte written back" 'E'
    (Bytes.get (Simfs.read fs ~cpu:0 ~name:"/short" ~offset:4999 ~len:1) 0)

let test_read_through_object_cache () =
  let _, _, sys, fs = boot () in
  Simfs.install_file fs ~name:"/r" ~data:(Bytes.make (64 * kb) 'R');
  let d = Simfs.disk fs in
  let b1 =
    Vnode_pager.read_through_object sys fs ~name:"/r" ~offset:0 ~len:(64 * kb)
  in
  let cold = Simdisk.reads d in
  let b2 =
    Vnode_pager.read_through_object sys fs ~name:"/r" ~offset:0 ~len:(64 * kb)
  in
  Alcotest.(check int) "warm read hits cache" cold (Simdisk.reads d);
  Alcotest.(check bytes) "same data" b1 b2;
  Alcotest.(check int) "correct length" (64 * kb) (Bytes.length b1)

let test_map_missing_file () =
  let _, kernel, sys, fs = boot () in
  let t = new_task kernel ~cpu:0 in
  (match Vnode_pager.map_file sys fs t ~name:"/nope" () with
   | Error Kr.Invalid_argument -> ()
   | Error e -> Alcotest.fail (Kr.to_string e)
   | Ok _ -> Alcotest.fail "expected failure")

(* ---- external pager over messages ----------------------------------------- *)

let test_external_pager_protocol () =
  let machine, kernel, sys, _fs = boot () in
  let ps = Kernel.page_size kernel in
  let pager, store, served = Port_pager.trivial_store sys ~name:"xp" () in
  Hashtbl.replace store 0 (Bytes.of_string "external data");
  let t = new_task kernel ~cpu:0 in
  let a =
    ok
      (Vm_user.allocate_with_pager sys t ~pager ~offset:0 ~size:(2 * ps))
  in
  Alcotest.(check string) "served" "external data"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:a ~len:13));
  Alcotest.(check int) "one request" 1 (served ());
  (* Missing offsets zero fill. *)
  Alcotest.(check char) "zero" '\000'
    (Machine.read_byte machine ~cpu:0 ~va:(a + ps));
  Alcotest.(check int) "two requests" 2 (served ())

let test_external_pager_writeback () =
  let machine, kernel, sys, _fs = boot () in
  let ps = Kernel.page_size kernel in
  let pager, store, _ = Port_pager.trivial_store sys ~name:"wb" () in
  let t = new_task kernel ~cpu:0 in
  let a =
    ok
      (Vm_user.allocate_with_pager sys t ~pager ~offset:0 ~size:ps)
  in
  Machine.write machine ~cpu:0 ~va:a (Bytes.of_string "dirty page");
  Vm_pageout.deactivate_some sys ~count:10_000;
  Vm_pageout.run sys ~wanted:10_000;
  (match Hashtbl.find_opt store 0 with
   | Some b ->
     Alcotest.(check string) "pager_data_write delivered" "dirty page"
       (Bytes.to_string (Bytes.sub b 0 10))
   | None -> Alcotest.fail "no write message reached the pager")

(* ---- Table 3-2 pager control operations ----------------------------------- *)

let test_clean_request () =
  let machine, kernel, sys, fs = boot () in
  Simfs.install_file fs ~name:"/c" ~data:(Bytes.make (8 * kb) 'c');
  let t = new_task kernel ~cpu:0 in
  let a, _ = ok (Vnode_pager.map_file sys fs t ~name:"/c" ()) in
  Machine.write machine ~cpu:0 ~va:a (Bytes.of_string "DIRTY");
  let o =
    match Mach_core.Vm_map.resolve_object_at sys (Mach_core.Task.map t) ~va:a with
    | Some (o, _) -> o
    | None -> Alcotest.fail "no object"
  in
  let written = Pager_ops.clean_request sys o ~offset:0 ~length:(8 * kb) in
  Alcotest.(check int) "one dirty page written" 1 written;
  Alcotest.(check string) "file updated without unmapping" "DIRTY"
    (Bytes.to_string (Simfs.read fs ~cpu:0 ~name:"/c" ~offset:0 ~len:5));
  (* The page is clean now: a second clean writes nothing. *)
  Alcotest.(check int) "now clean" 0
    (Pager_ops.clean_request sys o ~offset:0 ~length:(8 * kb))

let test_flush_request_destroys () =
  let machine, kernel, sys, fs = boot () in
  Simfs.install_file fs ~name:"/f2" ~data:(Bytes.make (4 * kb) 'q');
  let t = new_task kernel ~cpu:0 in
  let a, _ = ok (Vnode_pager.map_file sys fs t ~name:"/f2" ()) in
  Machine.write machine ~cpu:0 ~va:a (Bytes.of_string "LOST");
  (* Offset 512 is the second hardware frame of the VAX's 4 KB page. *)
  Machine.write_byte machine ~cpu:0 ~va:(a + 512) 'L';
  let o =
    match Mach_core.Vm_map.resolve_object_at sys (Mach_core.Task.map t) ~va:a with
    | Some (o, _) -> o
    | None -> Alcotest.fail "no object"
  in
  let flushed = Pager_ops.flush_request sys o ~offset:0 ~length:(4 * kb) in
  Alcotest.(check int) "one page flushed" 1 flushed;
  (* Every frame of the freed page lost its mappings, not just the
     first. *)
  Alcotest.(check (list string)) "no freed frame stays mapped" []
    (Vm_debug.check_resident sys);
  (* The dirty data was destroyed, not written back: re-fault reads the
     original file contents, on every frame. *)
  Alcotest.(check char) "modification discarded" 'q'
    (Machine.read_byte machine ~cpu:0 ~va:a);
  Alcotest.(check char) "modification discarded on frame 1" 'q'
    (Machine.read_byte machine ~cpu:0 ~va:(a + 512))

let test_readonly_forces_copy () =
  let machine, kernel, sys, fs = boot () in
  Simfs.install_file fs ~name:"/ro" ~data:(Bytes.make (4 * kb) 'R');
  let t = new_task kernel ~cpu:0 in
  let a, _ = ok (Vnode_pager.map_file sys fs t ~name:"/ro" ()) in
  ignore (Machine.read_byte machine ~cpu:0 ~va:a);
  let o =
    match Mach_core.Vm_map.resolve_object_at sys (Mach_core.Task.map t) ~va:a with
    | Some (o, _) -> o
    | None -> Alcotest.fail "no object"
  in
  Pager_ops.readonly sys o;
  Alcotest.(check bool) "marked" true (Pager_ops.is_readonly o);
  (* The write succeeds for the task (a shadow is interposed)... *)
  Machine.write machine ~cpu:0 ~va:a (Bytes.of_string "EDIT");
  Alcotest.(check string) "task sees its edit" "EDIT"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:a ~len:4));
  (* ...but the object and its file never see the modification. *)
  Kernel.terminate_task kernel ~cpu:0 t;
  Vm_pageout.deactivate_some sys ~count:1000;
  Vm_pageout.run sys ~wanted:1000;
  Alcotest.(check char) "file untouched" 'R'
    (Bytes.get (Simfs.read fs ~cpu:0 ~name:"/ro" ~offset:0 ~len:1) 0)

let test_set_caching_withdraws () =
  let _, kernel, sys, fs = boot () in
  Simfs.install_file fs ~name:"/cc" ~data:(Bytes.make kb 'c');
  let t = new_task kernel ~cpu:0 in
  let _ = ok (Vnode_pager.map_file sys fs t ~name:"/cc" ()) in
  let o =
    Hashtbl.fold (fun _ o _ -> Some o) sys.Mach_core.Vm_sys.pager_objects None
    |> Option.get
  in
  Kernel.terminate_task kernel ~cpu:0 t;
  Alcotest.(check bool) "cached after unmap" true o.Mach_core.Types.obj_cached;
  Pager_ops.set_caching sys o false;
  Alcotest.(check bool) "pushed out" true o.Mach_core.Types.obj_dead;
  Alcotest.(check int) "cache empty" 0 
    (List.length sys.Mach_core.Vm_sys.object_cache)

let test_lock_request_write () =
  let machine, kernel, sys, fs = boot () in
  Simfs.install_file fs ~name:"/lk" ~data:(Bytes.make (4 * kb) 'l');
  let t = new_task kernel ~cpu:0 in
  let a, _ = ok (Vnode_pager.map_file sys fs t ~name:"/lk" ()) in
  Machine.write_byte machine ~cpu:0 ~va:a 'w';
  let o =
    match Mach_core.Vm_map.resolve_object_at sys (Mach_core.Task.map t) ~va:a with
    | Some (o, _) -> o
    | None -> Alcotest.fail "no object"
  in
  let faults_before = (Machine.stats machine).Machine.faults in
  Pager_ops.lock_request sys o ~offset:0 ~length:(4 * kb)
    ~lock:(Prot.make ~read:false ~write:true ~execute:false);
  (* The next write must re-fault (and then succeed, since the entry
     still permits writing). *)
  Machine.write_byte machine ~cpu:0 ~va:a 'x';
  Alcotest.(check bool) "write re-faulted" true
    ((Machine.stats machine).Machine.faults > faults_before)

let test_external_pager_receives_init () =
  let _machine, _kernel, sys, _fs = boot () in
  let tags = ref [] in
  let handler (m : Mach_ipc.Ipc.message) =
    tags := m.Mach_ipc.Ipc.msg_tag :: !tags;
    match m.Mach_ipc.Ipc.msg_tag with
    | "pager_init" -> None
    | "pager_data_request" ->
      Some (Mach_ipc.Ipc.message "pager_data_unavailable")
    | _ -> None
  in
  let pager, _ = Port_pager.make sys ~name:"init-test" ~handler in
  ignore (pager.Mach_core.Types.pgr_request ~offset:0 ~length:4096);
  Alcotest.(check (list string)) "init arrives before data traffic"
    [ "pager_init"; "pager_data_request" ]
    (List.rev !tags)

(* ---- lent page data ------------------------------------------------------ *)

(* Write a 4-page file through a mapping, force every page out, then
   read it back through [read_through_object] and through a fresh
   mapping, each paging in from the disk.  On the VAX a 4 KB page is one
   4 KB block; on the SUN 3 an 8 KB page spans two, so a written frame
   span is split over blocks and a pagein fills a page from two lent
   blocks. *)
let round_trip ~arch ~page_multiple ~memory_frames () =
  let machine = Machine.create ~arch ~memory_frames () in
  let kernel = Kernel.create ~page_multiple machine in
  let sys = Kernel.sys kernel in
  let fs = Simfs.create machine () in
  let ps = sys.Vm_sys.page_size in
  let size = 4 * ps in
  let pattern = Bytes.init size (fun i -> Char.chr (33 + (i * 7 mod 90))) in
  Simfs.install_file fs ~name:"/rt" ~data:(Bytes.make size '.');
  let evict () =
    Vm_pageout.deactivate_some sys ~count:10_000;
    Vm_pageout.run sys ~wanted:10_000
  in
  let t = new_task kernel ~cpu:0 in
  let a, _ = ok (Vnode_pager.map_file sys fs t ~name:"/rt" ()) in
  Machine.write machine ~cpu:0 ~va:a pattern;
  Kernel.terminate_task kernel ~cpu:0 t;
  let pageouts = sys.Vm_sys.stats.Vm_stats.vs_pageouts in
  evict ();
  Alcotest.(check int) "every page written out" 4
    (sys.Vm_sys.stats.Vm_stats.vs_pageouts - pageouts);
  Alcotest.(check bool) "on disk" true
    (Bytes.equal pattern
       (Simfs.read fs ~cpu:0 ~name:"/rt" ~offset:0 ~len:size));
  let reads = Simdisk.reads (Simfs.disk fs) in
  Alcotest.(check bool) "read_through_object" true
    (Bytes.equal pattern
       (Vnode_pager.read_through_object sys fs ~name:"/rt" ~offset:0
          ~len:size));
  Alcotest.(check bool) "paged in from the disk" true
    (Simdisk.reads (Simfs.disk fs) > reads);
  evict ();
  let reads = Simdisk.reads (Simfs.disk fs) in
  let t2 = new_task kernel ~cpu:0 in
  let a2, _ = ok (Vnode_pager.map_file sys fs t2 ~name:"/rt" ()) in
  Alcotest.(check bool) "fresh mapping" true
    (Bytes.equal pattern (Machine.read machine ~cpu:0 ~va:a2 ~len:size));
  Alcotest.(check bool) "faulted in from the disk" true
    (Simdisk.reads (Simfs.disk fs) > reads)

let test_round_trip_vax =
  round_trip ~arch:Arch.vax8200 ~page_multiple:8 ~memory_frames:8192

let test_round_trip_sun3 =
  round_trip ~arch:Arch.sun3_160 ~page_multiple:1 ~memory_frames:256

(* The kernel lends a page's frames to [pgr_write]: once it returns,
   zeroing the frame or reusing it for other data leaves the disk block
   as written, both the first time and when the block is rewritten. *)
let test_vnode_write_copies_the_frame () =
  let _, _, sys, fs = boot () in
  let ps = sys.Vm_sys.page_size in
  Simfs.install_file fs ~name:"/lend" ~data:(Bytes.make (2 * ps) '.');
  let pager = Vnode_pager.for_file sys fs ~name:"/lend" in
  let p = Vm_sys.grab_page sys in
  let write_frame ~offset c =
    Page_io.blit_in sys p ~off:0 (Bytes.make ps c) ~pos:0 ~len:ps;
    match pager.Types.pgr_write ~offset ~data:[ Page_io.lend sys p ] with
    | Types.Write_completed -> ()
    | Types.Write_error | Types.Write_no_space -> Alcotest.fail "write refused"
  in
  let on_disk what ~offset c =
    Alcotest.(check bool) what true
      (Bytes.equal (Bytes.make ps c)
         (Simfs.read fs ~cpu:0 ~name:"/lend" ~offset ~len:ps))
  in
  write_frame ~offset:0 'a';
  Page_io.zero sys p;
  on_disk "block survives a zeroed frame" ~offset:0 'a';
  write_frame ~offset:ps 'b';
  write_frame ~offset:0 'c';
  Page_io.blit_in sys p ~off:0 (Bytes.make ps 'z') ~pos:0 ~len:ps;
  on_disk "reused frame: rewritten block kept" ~offset:0 'c';
  on_disk "reused frame: other block kept" ~offset:ps 'b'

(* A chaos decorator that truncates or scrambles a reply changes what
   the kernel is handed, never the pager's store it was lent. *)
let test_chaos_reply_leaves_the_store () =
  let _, _, sys, _ = boot () in
  let ps = sys.Vm_sys.page_size in
  let swap = Swap_pager.make sys ~name:"chaos-store" in
  let stored = Bytes.init ps (fun i -> Char.chr (65 + (i mod 26))) in
  (match
     swap.Types.pgr_write ~offset:0 ~data:(Lent.of_bytes (Bytes.copy stored))
   with
   | Types.Write_completed -> ()
   | Types.Write_error | Types.Write_no_space -> Alcotest.fail "write refused");
  let chunk =
    Hashtbl.find (Hashtbl.find sys.Vm_sys.swap_stores swap.Types.pgr_id) 0
  in
  let reply decision =
    let inj = Mach_fail.Fail.create ~seed:1 in
    Mach_fail.Fail.attach inj ~site:"pager.request"
      [ Mach_fail.Fail.Always decision ];
    let pg = Chaos_pager.wrap sys inj swap in
    match pg.Types.pgr_request ~offset:0 ~length:ps with
    | Types.Data_provided (d, _) -> Lent.to_bytes d
    | Types.Data_unavailable | Types.Data_error -> Alcotest.fail "no data"
  in
  Alcotest.(check bool) "short reply is the head" true
    (Bytes.equal (Bytes.sub stored 0 100) (reply (Mach_fail.Fail.Short 100)));
  Alcotest.(check bool) "store unchanged by Short" true
    (Bytes.equal stored chunk);
  Alcotest.(check bool) "garbage reply is scrambled" true
    (Bytes.equal (Mach_fail.Fail.scramble stored)
       (reply Mach_fail.Fail.Garbage));
  Alcotest.(check bool) "store unchanged by Garbage" true
    (Bytes.equal stored chunk);
  Alcotest.(check bool) "still the stored chunk" true
    (chunk
     == Hashtbl.find (Hashtbl.find sys.Vm_sys.swap_stores swap.Types.pgr_id) 0)

let () =
  Alcotest.run "mach_pagers"
    [ ( "simdisk",
        [ Alcotest.test_case "rw and costs" `Quick test_disk_rw_and_costs;
          Alcotest.test_case "install uncharged" `Quick
            test_disk_install_uncharged ] );
      ( "simfs",
        [ Alcotest.test_case "roundtrip" `Quick test_fs_roundtrip;
          Alcotest.test_case "short reads" `Quick test_fs_short_reads;
          Alcotest.test_case "write extends" `Quick test_fs_write_extends;
          Alcotest.test_case "spanning blocks" `Quick
            test_fs_spanning_blocks ] );
      ( "vnode",
        [ Alcotest.test_case "mapped data" `Quick test_map_file_data;
          Alcotest.test_case "eof zero fill" `Quick
            test_map_file_eof_zero_fill;
          Alcotest.test_case "two mappings one object" `Quick
            test_two_mappings_one_object;
          Alcotest.test_case "private mapping" `Quick
            test_private_file_mapping;
          Alcotest.test_case "dirty write-back" `Quick
            test_dirty_mapping_written_back;
          Alcotest.test_case "write-back never grows file" `Quick
            test_writeback_never_grows_file;
          Alcotest.test_case "read through object" `Quick
            test_read_through_object_cache;
          Alcotest.test_case "missing file" `Quick test_map_missing_file ] );
      ( "external",
        [ Alcotest.test_case "message protocol" `Quick
            test_external_pager_protocol;
          Alcotest.test_case "writeback messages" `Quick
            test_external_pager_writeback;
          Alcotest.test_case "pager_init delivered first" `Quick
            test_external_pager_receives_init ] );
      ( "pager ops (Table 3-2)",
        [ Alcotest.test_case "clean_request" `Quick test_clean_request;
          Alcotest.test_case "flush_request destroys" `Quick
            test_flush_request_destroys;
          Alcotest.test_case "readonly forces copy" `Quick
            test_readonly_forces_copy;
          Alcotest.test_case "set_caching withdraws" `Quick
            test_set_caching_withdraws;
          Alcotest.test_case "lock_request write" `Quick
            test_lock_request_write ] );
      ( "lent data",
        [ Alcotest.test_case "VAX round trip" `Quick test_round_trip_vax;
          Alcotest.test_case "SUN 3 round trip" `Quick test_round_trip_sun3;
          Alcotest.test_case "vnode write copies the lent frame" `Quick
            test_vnode_write_copies_the_frame;
          Alcotest.test_case "chaos reply leaves the store" `Quick
            test_chaos_reply_leaves_the_store ] ) ]

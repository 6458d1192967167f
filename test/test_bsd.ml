(* Tests for the traditional-UNIX baseline: demand zero, eager and
   copy-on-write fork variants, exec text loading, buffer-cache file I/O
   and eviction to swap. *)

open Mach_hw
open Mach_bsd
open Mach_pagers

let kb = 1024

(* The baseline boots as the comparator the paper ran on [arch]
   ({!Bsd_vm.variant_for}): 4.3bsd's eager fork on the uVAX II, SunOS
   3.2's copy-on-write fork on the SUN 3. *)
let boot ?(arch = Arch.uvax2) ?(frames = 2048) ?(buffers = 64) () =
  let machine = Machine.create ~arch ~memory_frames:frames () in
  let fs = Simfs.create machine () in
  let bsd = Bsd_vm.create machine ~fs ~buffers in
  (machine, fs, bsd)

let test_demand_zero () =
  let machine, _, bsd = boot () in
  let p = Bsd_vm.create_proc bsd () in
  Bsd_vm.run_proc bsd ~cpu:0 p;
  let a = Bsd_vm.sbrk bsd ~cpu:0 p ~size:(4 * kb) in
  Alcotest.(check char) "zero" '\000' (Machine.read_byte machine ~cpu:0 ~va:a);
  Machine.write machine ~cpu:0 ~va:a (Bytes.of_string "bsd data");
  Alcotest.(check string) "rw" "bsd data"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:a ~len:8))

let test_out_of_region_faults () =
  let machine, _, bsd = boot () in
  let p = Bsd_vm.create_proc bsd () in
  Bsd_vm.run_proc bsd ~cpu:0 p;
  (try
     ignore (Machine.read_byte machine ~cpu:0 ~va:(50 * 1024 * 1024));
     Alcotest.fail "expected segmentation violation"
   with Machine.Memory_violation reason ->
     Alcotest.(check string) "segv" "segmentation violation" reason)

let test_eager_fork_copies () =
  let machine, _, bsd = boot () in
  let p = Bsd_vm.create_proc bsd () in
  Bsd_vm.run_proc bsd ~cpu:0 p;
  let a = Bsd_vm.sbrk bsd ~cpu:0 p ~size:(8 * kb) in
  Machine.write machine ~cpu:0 ~va:a (Bytes.of_string "parent");
  let c = Bsd_vm.fork bsd ~cpu:0 p in
  Bsd_vm.run_proc bsd ~cpu:0 c;
  let faults = (Machine.stats machine).Machine.faults in
  Alcotest.(check string) "child inherits" "parent"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:a ~len:6));
  (* Eager: the child has its own frames for every resident page. *)
  Alcotest.(check int) "child resident immediately: no fault" faults
    (Machine.stats machine).Machine.faults;
  Machine.write machine ~cpu:0 ~va:a (Bytes.of_string "child!");
  Bsd_vm.run_proc bsd ~cpu:0 p;
  Alcotest.(check string) "parent isolated" "parent"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:a ~len:6))

let test_sunos_cow_fork () =
  let machine, _, bsd = boot ~arch:Arch.sun3_160 () in
  let p = Bsd_vm.create_proc bsd () in
  Bsd_vm.run_proc bsd ~cpu:0 p;
  let a = Bsd_vm.sbrk bsd ~cpu:0 p ~size:(16 * kb) in
  Machine.write machine ~cpu:0 ~va:a (Bytes.of_string "parent");
  let c = Bsd_vm.fork bsd ~cpu:0 p in
  Bsd_vm.run_proc bsd ~cpu:0 c;
  (* Reading shares the frame; writing copies. *)
  Alcotest.(check string) "shared read" "parent"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:a ~len:6));
  Machine.write machine ~cpu:0 ~va:a (Bytes.of_string "child!");
  Bsd_vm.run_proc bsd ~cpu:0 p;
  Alcotest.(check string) "isolated after write" "parent"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:a ~len:6));
  (* Parent write also isolated. *)
  Machine.write machine ~cpu:0 ~va:(a + 100) (Bytes.of_string "pp");
  Bsd_vm.run_proc bsd ~cpu:0 c;
  Alcotest.(check char) "child unaffected" '\000'
    (Machine.read_byte machine ~cpu:0 ~va:(a + 100))

let test_exit_frees_memory () =
  let machine, _, bsd = boot ~frames:128 () in
  (* 128 frames; each proc dirties 64; two sequential procs only fit if
     exit frees. *)
  for _ = 1 to 3 do
    let p = Bsd_vm.create_proc bsd () in
    Bsd_vm.run_proc bsd ~cpu:0 p;
    let a = Bsd_vm.sbrk bsd ~cpu:0 p ~size:(32 * kb) in
    for i = 0 to 63 do
      Machine.write_byte machine ~cpu:0 ~va:(a + (i * 512)) 'm'
    done;
    Bsd_vm.exit bsd ~cpu:0 p
  done;
  Alcotest.(check bool) "no eviction needed" true
    ((Machine.stats machine).Machine.disk_ops = 0)

let test_eviction_to_swap () =
  let machine, _, bsd = boot ~frames:64 () in
  (* 64 frames of 512B = 32 KB of memory; dirty 64 KB. *)
  let p = Bsd_vm.create_proc bsd () in
  Bsd_vm.run_proc bsd ~cpu:0 p;
  let a = Bsd_vm.sbrk bsd ~cpu:0 p ~size:(64 * kb) in
  for i = 0 to 127 do
    Machine.write machine ~cpu:0 ~va:(a + (i * 512))
      (Bytes.of_string (Printf.sprintf "pg%03d" i))
  done;
  (* Everything reads back despite eviction. *)
  for i = 0 to 127 do
    Alcotest.(check string)
      (Printf.sprintf "page %d" i)
      (Printf.sprintf "pg%03d" i)
      (Bytes.to_string (Machine.read machine ~cpu:0 ~va:(a + (i * 512)) ~len:5))
  done;
  Alcotest.(check bool) "swap used" true
    ((Machine.stats machine).Machine.disk_ops > 0)

let test_exec_loads_text () =
  let machine, fs, bsd = boot () in
  Simfs.install_file fs ~name:"/bin/prog" ~data:(Bytes.make (8 * kb) 'P');
  let p = Bsd_vm.create_proc bsd () in
  Bsd_vm.run_proc bsd ~cpu:0 p;
  let base = Bsd_vm.exec bsd ~cpu:0 p ~text:"/bin/prog" in
  let faults = (Machine.stats machine).Machine.faults in
  Alcotest.(check char) "text loaded" 'P'
    (Machine.read_byte machine ~cpu:0 ~va:base);
  Alcotest.(check char) "text end" 'P'
    (Machine.read_byte machine ~cpu:0 ~va:(base + (8 * kb) - 1));
  for page = 1 to (8 * kb / 512) - 2 do
    ignore (Machine.read_byte machine ~cpu:0 ~va:(base + (page * 512)))
  done;
  Alcotest.(check int) "resident eagerly: no fault" faults
    (Machine.stats machine).Machine.faults

let test_buffer_cache_hits () =
  let _, fs, bsd = boot ~buffers:32 () in
  Simfs.install_file fs ~name:"/file" ~data:(Bytes.make (16 * kb) 'f');
  let disk_reads () = Simdisk.reads (Simfs.disk fs) in
  ignore (Bsd_vm.read_file bsd ~cpu:0 ~name:"/file" ~offset:0 ~len:(16 * kb));
  let cold = disk_reads () in
  Alcotest.(check bool) "cold read goes to disk" true (cold > 0);
  ignore (Bsd_vm.read_file bsd ~cpu:0 ~name:"/file" ~offset:0 ~len:(16 * kb));
  Alcotest.(check int) "warm read all hits" cold (disk_reads ())

let test_buffer_cache_capacity_evicts () =
  let _, fs, bsd = boot ~buffers:2 () in
  (* Two 4 KB buffers; an 16 KB file cannot stay cached. *)
  Simfs.install_file fs ~name:"/big" ~data:(Bytes.make (16 * kb) 'b');
  let disk_reads () = Simdisk.reads (Simfs.disk fs) in
  ignore (Bsd_vm.read_file bsd ~cpu:0 ~name:"/big" ~offset:0 ~len:(16 * kb));
  let m1 = disk_reads () in
  ignore (Bsd_vm.read_file bsd ~cpu:0 ~name:"/big" ~offset:0 ~len:(16 * kb));
  Alcotest.(check bool) "second pass misses again" true (disk_reads () > m1)

let test_write_through () =
  let _, fs, bsd = boot () in
  Simfs.install_file fs ~name:"/w" ~data:(Bytes.make (4 * kb) 'o');
  ignore (Bsd_vm.read_file bsd ~cpu:0 ~name:"/w" ~offset:0 ~len:10);
  Bsd_vm.write_file bsd ~cpu:0 ~name:"/w" ~offset:0
    ~data:(Bytes.of_string "NEW");
  (* The cache stays coherent and the disk is updated. *)
  Alcotest.(check string) "cached read coherent" "NEW"
    (Bytes.to_string (Bsd_vm.read_file bsd ~cpu:0 ~name:"/w" ~offset:0 ~len:3));
  Alcotest.(check string) "on disk" "NEW"
    (Bytes.to_string (Simfs.read fs ~cpu:0 ~name:"/w" ~offset:0 ~len:3))

let test_variant_selection () =
  Alcotest.(check string) "sun gets SunOS" "SunOS 3.2"
    (Bsd_vm.variant_for Arch.sun3_160).Bsd_vm.v_name;
  Alcotest.(check string) "rt gets ACIS" "ACIS 4.2a"
    (Bsd_vm.variant_for Arch.rt_pc).Bsd_vm.v_name;
  Alcotest.(check string) "vax gets 4.3bsd" "4.3bsd"
    (Bsd_vm.variant_for Arch.uvax2).Bsd_vm.v_name

let () =
  Alcotest.run "mach_bsd"
    [ ( "vm",
        [ Alcotest.test_case "demand zero" `Quick test_demand_zero;
          Alcotest.test_case "segv outside regions" `Quick
            test_out_of_region_faults;
          Alcotest.test_case "exit frees" `Quick test_exit_frees_memory;
          Alcotest.test_case "eviction to swap" `Quick test_eviction_to_swap
        ] );
      ( "fork",
        [ Alcotest.test_case "eager copies" `Quick test_eager_fork_copies;
          Alcotest.test_case "sunos cow" `Quick test_sunos_cow_fork ] );
      ( "exec/files",
        [ Alcotest.test_case "exec loads text" `Quick test_exec_loads_text;
          Alcotest.test_case "buffer cache hits" `Quick
            test_buffer_cache_hits;
          Alcotest.test_case "capacity evicts" `Quick
            test_buffer_cache_capacity_evicts;
          Alcotest.test_case "write-through" `Quick test_write_through;
          Alcotest.test_case "variant selection" `Quick
            test_variant_selection ] ) ]

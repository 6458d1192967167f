(* Tests for the benchmark workload layer: the two OS implementations
   behave identically at the data level behind the common surface, the
   compile workload is deterministic, and the headline paper comparisons
   hold as inequalities. *)

open Mach_hw
open Mach_workload

let kb = 1024
let mb = 1024 * 1024

let boot_mach ?(arch = Arch.uvax2) ?(mem = 8 * mb) () =
  let machine =
    Machine.create ~arch ~memory_frames:(mem / arch.Arch.hw_page_size) ()
  in
  let multiple = max 1 (4096 / arch.Arch.hw_page_size) in
  let kernel = Mach_core.Kernel.create ~page_multiple:multiple machine in
  let fs = Mach_pagers.Simfs.create machine () in
  Mach_os.make kernel ~fs

let boot_bsd ?(arch = Arch.uvax2) ?(mem = 8 * mb) ?(buffers = 400) () =
  let machine =
    Machine.create ~arch ~memory_frames:(mem / arch.Arch.hw_page_size) ()
  in
  let fs = Mach_pagers.Simfs.create machine () in
  let bsd = Mach_bsd.Bsd_vm.create machine ~fs ~buffers in
  Bsd_os.make bsd ~fs

let both_oses () = [ boot_mach (); boot_bsd () ]

(* Every OS behind the surface must satisfy the same behavioural
   contract. *)
let test_surface_alloc_touch () =
  List.iter
    (fun (os : Os_iface.t) ->
       let p = os.Os_iface.proc_create ~name:"t" in
       os.Os_iface.proc_run ~cpu:0 p;
       let a = os.Os_iface.alloc ~cpu:0 p ~size:(64 * kb) in
       os.Os_iface.touch ~cpu:0 p ~addr:a ~size:(64 * kb) ~write:true;
       Alcotest.(check bool)
         (os.Os_iface.os_name ^ ": time advanced")
         true
         (os.Os_iface.elapsed_ms () > 0.0);
       os.Os_iface.proc_exit ~cpu:0 p)
    (both_oses ())

let test_surface_fork_and_files () =
  List.iter
    (fun (os : Os_iface.t) ->
       os.Os_iface.install_file ~name:"/bin/x"
         ~data:(Bytes.make (32 * kb) 'x');
       os.Os_iface.install_file ~name:"/src" ~data:(Bytes.make (8 * kb) 's');
       let p = os.Os_iface.proc_create ~name:"sh" in
       os.Os_iface.proc_run ~cpu:0 p;
       let c = os.Os_iface.proc_fork ~cpu:0 p in
       os.Os_iface.proc_run ~cpu:0 c;
       os.Os_iface.exec ~cpu:0 c ~text:"/bin/x";
       let n = os.Os_iface.read_file ~cpu:0 ~name:"/src" ~offset:0 ~len:(8 * kb) in
       Alcotest.(check int) (os.Os_iface.os_name ^ ": read len") (8 * kb) n;
       os.Os_iface.write_file ~cpu:0 ~name:"/out" ~offset:0
         ~data:(Bytes.make 100 'o');
       os.Os_iface.proc_exit ~cpu:0 c;
       os.Os_iface.proc_exit ~cpu:0 p)
    (both_oses ())

let test_reset_zeroes_clock () =
  List.iter
    (fun (os : Os_iface.t) ->
       let p = os.Os_iface.proc_create ~name:"t" in
       os.Os_iface.proc_run ~cpu:0 p;
       let a = os.Os_iface.alloc ~cpu:0 p ~size:(8 * kb) in
       os.Os_iface.touch ~cpu:0 p ~addr:a ~size:(8 * kb) ~write:true;
       os.Os_iface.reset ();
       Alcotest.(check (float 0.0001))
         (os.Os_iface.os_name ^ ": reset")
         0.0
         (os.Os_iface.elapsed_ms ()))
    (both_oses ())

let test_compile_workload_runs_on_both () =
  let cfg = Compile_workload.fork_test in
  List.iter
    (fun (os : Os_iface.t) ->
       Compile_workload.setup os cfg;
       let ms = Compile_workload.run os cfg in
       Alcotest.(check bool)
         (os.Os_iface.os_name ^ ": positive time")
         true (ms > 0.0))
    (both_oses ())

let test_compile_workload_deterministic () =
  let cfg = Compile_workload.fork_test in
  let run () =
    let os = boot_mach () in
    Compile_workload.setup os cfg;
    Compile_workload.run os cfg
  in
  let a = run () and b = run () in
  Alcotest.(check (float 0.0001)) "identical runs" a b

(* The headline inequalities of Tables 7-1/7-2: Mach never slower on
   fork, and compile at least as fast. *)
let test_mach_fork_beats_eager_unix () =
  let fork_cost (os : Os_iface.t) =
    let p = os.Os_iface.proc_create ~name:"f" in
    os.Os_iface.proc_run ~cpu:0 p;
    let a = os.Os_iface.alloc ~cpu:0 p ~size:(256 * kb) in
    os.Os_iface.touch ~cpu:0 p ~addr:a ~size:(256 * kb) ~write:true;
    os.Os_iface.reset ();
    let c = os.Os_iface.proc_fork ~cpu:0 p in
    os.Os_iface.proc_exit ~cpu:0 c;
    os.Os_iface.elapsed_ms ()
  in
  let mach = fork_cost (boot_mach ()) in
  let unix = fork_cost (boot_bsd ()) in
  Alcotest.(check bool) "mach fork cheaper" true (mach < unix)

let test_mach_rereads_beat_small_buffer_cache () =
  let reread (os : Os_iface.t) =
    os.Os_iface.install_file ~name:"/big" ~data:(Bytes.make (2 * mb) 'b');
    ignore (os.Os_iface.read_file ~cpu:0 ~name:"/big" ~offset:0 ~len:(2 * mb));
    os.Os_iface.reset ();
    ignore (os.Os_iface.read_file ~cpu:0 ~name:"/big" ~offset:0 ~len:(2 * mb));
    os.Os_iface.elapsed_ms ()
  in
  let mach = reread (boot_mach ~arch:Arch.vax8200 ()) in
  let unix = reread (boot_bsd ~arch:Arch.vax8200 ~buffers:400 ()) in
  (* 2 MB exceeds 400 x 4 KB of buffers, so UNIX re-reads from disk. *)
  Alcotest.(check bool) "mach page cache wins rereads" true
    (mach *. 3.0 < unix)

let test_trace_generation_deterministic () =
  let a = Workload.generate ~seed:5 ~ops:100 in
  let b = Workload.generate ~seed:5 ~ops:100 in
  Alcotest.(check int) "same length" (List.length a.Workload.wl_ops)
    (List.length b.Workload.wl_ops);
  Alcotest.(check bool) "same trace" true (a = b);
  let c = Workload.generate ~seed:6 ~ops:100 in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_trace_runs_on_both_oses () =
  let trace = Workload.generate ~seed:9 ~ops:200 in
  List.iter
    (fun (os : Os_iface.t) ->
       Workload.setup os trace;
       let ms = Workload.run os trace in
       Alcotest.(check bool)
         (os.Os_iface.os_name ^ ": ran") true (ms > 0.0);
       (* Replaying the same trace on the same OS is deterministic too
          (warm caches may make it cheaper, never free). *)
       let ms2 = Workload.run os trace in
       Alcotest.(check bool)
         (os.Os_iface.os_name ^ ": replay ran") true (ms2 > 0.0))
    (both_oses ())

let () =
  Alcotest.run "mach_workload"
    [ ( "surface",
        [ Alcotest.test_case "alloc/touch" `Quick test_surface_alloc_touch;
          Alcotest.test_case "fork and files" `Quick
            test_surface_fork_and_files;
          Alcotest.test_case "reset" `Quick test_reset_zeroes_clock ] );
      ( "compile",
        [ Alcotest.test_case "runs on both" `Quick
            test_compile_workload_runs_on_both;
          Alcotest.test_case "deterministic" `Quick
            test_compile_workload_deterministic ] );
      ( "traces",
        [ Alcotest.test_case "generation deterministic" `Quick
            test_trace_generation_deterministic;
          Alcotest.test_case "runs on both OSes" `Quick
            test_trace_runs_on_both_oses ] );
      ( "paper shapes",
        [ Alcotest.test_case "fork: cow beats eager" `Quick
            test_mach_fork_beats_eager_unix;
          Alcotest.test_case "rereads: page cache beats buffers" `Quick
            test_mach_rereads_beat_small_buffer_cache ] ) ]

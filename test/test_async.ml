(* The asynchronous disk model (submit/wait with per-device queues).

   The contract under test: with the model off, every path is byte- and
   cycle-identical to the classical blocking charge; with it on, a
   blocking submit-then-wait still costs exactly the synchronous
   service, overlap shows up only when the CPU does work between submit
   and wait, device queues serialize, the whole thing is deterministic
   under replay (chaos decides at submit), and data is never affected
   either way.  Pagers implement each transfer once and the kernel
   decides from the reply's stamp whether to wait, so the paths where
   the two models share code — pagers with no device, refused pageouts,
   dead pagers — must behave as with the model off. *)

open Mach_hw
open Mach_core
open Mach_pagers
module Fail = Mach_fail.Fail

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Kr.to_string e)

let boot ?(frames = 2048) ?(async = false) () =
  (* uVAX II, 512 B hardware pages, multiple 8 => 4 KB system pages. *)
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:frames () in
  Machine.set_disk_async machine async;
  let kernel = Kernel.create ~page_multiple:8 machine in
  (machine, kernel, Kernel.sys kernel)

let new_task kernel =
  let t = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:0 t;
  t

(* ---- device-level cost identities ---------------------------------------- *)

(* Submit followed by an immediate wait is the degenerate case with no
   work to overlap: it must cost exactly what the blocking model
   charges, in both modes. *)
let test_submit_wait_equals_sync () =
  let cost async =
    let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:64 () in
    Machine.set_disk_async machine async;
    let disk = Simdisk.create machine ~block_size:4096 in
    for b = 0 to 7 do
      Simdisk.install disk ~block:b (Bytes.make 4096 'x')
    done;
    ignore
      (Simdisk.wait disk ~cpu:0
         (Simdisk.submit_read_run disk ~cpu:0 ~first:0 ~count:8));
    Machine.cycles machine ~cpu:0
  in
  let sync = cost false in
  Alcotest.(check bool) "blocking read actually costs" true (sync > 0);
  Alcotest.(check int) "same cost in both models" sync (cost true)

(* CPU work between submit and wait is overlapped: the wait charges only
   the residue, and the hidden cycles land in disk_overlap_cycles. *)
let test_overlap_charges_residue () =
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:64 () in
  Machine.set_disk_async machine true;
  let disk = Simdisk.create machine ~block_size:4096 in
  Simdisk.install disk ~block:0 (Bytes.make 4096 'x');
  let service = Machine.disk_service_cycles machine ~bytes:4096 in
  let h = Simdisk.submit_read_run disk ~cpu:0 ~first:0 ~count:1 in
  let compute = service / 2 in
  Machine.charge machine ~cpu:0 compute;
  let before = Machine.cycles machine ~cpu:0 in
  ignore (Simdisk.wait disk ~cpu:0 h);
  Alcotest.(check int) "wait charges only the residue" (service - compute)
    (Machine.cycles machine ~cpu:0 - before);
  let s = Machine.stats machine in
  Alcotest.(check int) "hidden cycles counted as overlap" compute
    s.Machine.disk_overlap_cycles;
  (* Waiting the same handle again is free: the service was consumed. *)
  let before = Machine.cycles machine ~cpu:0 in
  ignore (Simdisk.wait disk ~cpu:0 h);
  Alcotest.(check int) "second wait is free" before
    (Machine.cycles machine ~cpu:0)

(* One queue serializes back-to-back requests; separate queues do not. *)
let test_queues_serialize () =
  let completions queues =
    let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:64 ~cpus:2 () in
    Machine.set_disk_async machine true;
    let disk = Simdisk.create ~queues machine ~block_size:4096 in
    Simdisk.install disk ~block:0 (Bytes.make 4096 'x');
    Simdisk.install disk ~block:1 (Bytes.make 4096 'x');
    (* CPUs hash onto queues, so cpu 0 and cpu 1 share the single queue
       but land on distinct ones when there are two. *)
    let h0 = Simdisk.submit_read_run disk ~cpu:0 ~first:0 ~count:1 in
    let h1 = Simdisk.submit_read_run disk ~cpu:1 ~first:1 ~count:1 in
    ((Simdisk.handle_io h0).Machine.io_completion,
     (Simdisk.handle_io h1).Machine.io_completion)
  in
  let c0, c1 = completions 1 in
  let service =
    Machine.disk_service_cycles
      (Machine.create ~arch:Arch.uvax2 ~memory_frames:64 ())
      ~bytes:4096
  in
  Alcotest.(check int) "one queue: second request waits for the first"
    (c0 + service) c1;
  let d0, d1 = completions 2 in
  Alcotest.(check int) "two queues: both complete together" d0 d1

(* ---- kernel-level equivalence --------------------------------------------- *)

(* Clustered pageout with async writes: every byte survives the
   submit/reap round trip exactly as in the blocking model. *)
let test_async_pageout_roundtrip () =
  let machine, kernel, sys = boot ~frames:1024 ~async:true () in
  let task = new_task kernel in
  let ps = sys.Vm_sys.page_size in
  let n = 16 in
  let addr = ok (Vm_user.allocate sys task ~size:(n * ps) ~anywhere:true ()) in
  let pat i = Printf.sprintf "async-%02d" i in
  for i = 0 to n - 1 do
    Machine.write machine ~cpu:0 ~va:(addr + (i * ps))
      (Bytes.of_string (pat i))
  done;
  for _ = 1 to 6 do
    Vm_pageout.deactivate_some sys ~count:128;
    Vm_pageout.run sys ~wanted:128
  done;
  let s = sys.Vm_sys.stats in
  Alcotest.(check bool) "writes were clustered" true
    (s.Vm_stats.vs_clustered_pageouts >= 2);
  Alcotest.(check bool) "all pages paged out"
    true (s.Vm_stats.vs_pageouts >= n);
  for i = 0 to n - 1 do
    let got =
      Bytes.to_string
        (Machine.read machine ~cpu:0 ~va:(addr + (i * ps))
           ~len:(String.length (pat i)))
    in
    Alcotest.(check string) (Printf.sprintf "page %d" i) (pat i) got
  done

(* An in-memory store pager: no device behind it, every reply stamped
   [io_none].  Writes are split at page size (the range contract). *)
let store_pager ~ps ?(requests = ref []) () =
  let store : (int, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
  { Types.pgr_id = Types.fresh_pager_id ();
    pgr_name = "store";
    pgr_request =
      (fun ~offset ~length ->
         requests := length :: !requests;
         let rec gather off acc =
           if off >= offset + length then acc
           else
             match Hashtbl.find_opt store off with
             | Some d -> gather (off + ps) (d :: acc)
             | None -> acc
         in
         match List.rev (gather offset []) with
         | [] -> Types.Data_unavailable
         | chunks ->
           Types.Data_provided
             (Bytes.concat Bytes.empty chunks, Types.io_none));
    pgr_write =
      (fun ~offset ~data ->
         for i = 0 to (Bytes.length data / ps) - 1 do
           Hashtbl.replace store (offset + (i * ps))
             (Bytes.sub data (i * ps) ps)
         done;
         Types.Write_completed Types.io_none);
    pgr_should_cache = ref false }

(* A pager with no device under the async model: its reply has already
   landed, so each cluster is one request and no page rides an inflight
   record or waits on the disk. *)
let test_no_device_pager_async () =
  let machine, _, sys = boot ~async:true () in
  let ps = sys.Vm_sys.page_size in
  let n = 16 in
  let requests = ref [] in
  let pager = store_pager ~ps ~requests () in
  for i = 0 to n - 1 do
    ignore
      (pager.Types.pgr_write ~offset:(i * ps)
         ~data:(Bytes.make ps (Char.chr (0x41 + i))))
  done;
  requests := [];
  let obj = Vm_object.create_with_pager sys pager ~size:(n * ps) in
  let pagein page =
    match Vm_cluster.pagein sys obj ~offset:(page * ps) ~limit:max_int with
    | `Data (p, _) -> p
    | `Absent | `Error -> Alcotest.fail "pagein failed"
  in
  (* Misses at pages 0, 1 and 3 (page 2 arrives as the second miss's
     tail and is touched in between): the window ramps 1, 2, 4, so the
     last miss asks for pages 3-6 in one request. *)
  ignore (pagein 0);
  ignore (pagein 1);
  (match Vm_object.lookup_resident sys obj ~offset:(2 * ps) with
   | Some p -> Vm_cluster.note_hit sys p
   | None -> Alcotest.fail "page 2 was not prefetched");
  ignore (pagein 3);
  Alcotest.(check (list int)) "one request per cluster"
    [ ps; 2 * ps; 4 * ps ] (List.rev !requests);
  List.iter
    (fun p ->
       let i = p.Types.pg_offset / ps in
       Alcotest.(check bool) (Printf.sprintf "page %d not inflight" i) true
         (p.Types.pg_inflight = None && not p.Types.pg_busy);
       Alcotest.(check char) (Printf.sprintf "page %d bytes" i)
         (Char.chr (0x41 + i)) (Bytes.get (Page_io.contents sys p) 0))
    (Resident.object_pages obj);
  Alcotest.(check int) "pages resident" 7
    (List.length (Resident.object_pages obj));
  Alcotest.(check int) "no disk waits" 0
    (Machine.stats machine).Machine.disk_waits

(* A page riding its stamp across [Kernel.reset_clocks] has landed: the
   clocks its stamp was measured against are gone, so touching it after
   the reset must not charge the pre-reset time as a phantom wait. *)
let test_stamp_across_reset () =
  let machine, kernel, sys = boot ~async:true () in
  let fs = Simfs.create machine () in
  let ps = sys.Vm_sys.page_size in
  Simfs.install_file fs ~name:"/reset" ~data:(Bytes.make (8 * ps) 'r');
  let obj =
    Vm_object.create_with_pager sys
      (Vnode_pager.for_file sys fs ~name:"/reset")
      ~size:(8 * ps)
  in
  Machine.charge machine ~cpu:0 10_000_000;
  let miss page =
    match Vm_cluster.pagein sys obj ~offset:(page * ps) ~limit:max_int with
    | `Data _ -> ()
    | `Absent | `Error -> Alcotest.fail "pagein failed"
  in
  (* The second miss is sequential: it reads pages 1-2, and page 2 rides
     the transfer. *)
  miss 0;
  miss 1;
  let tail =
    match Vm_object.lookup_resident sys obj ~offset:(2 * ps) with
    | Some p -> p
    | None -> Alcotest.fail "page 2 was not prefetched"
  in
  Alcotest.(check bool) "tail page rides its stamp" true
    (Option.is_some tail.Types.pg_inflight);
  Kernel.reset_clocks kernel;
  let before = Machine.cycles machine ~cpu:0 in
  Vm_cluster.note_hit sys tail;
  let charged = Machine.cycles machine ~cpu:0 - before in
  let service = Machine.disk_service_cycles machine ~bytes:(2 * ps) in
  Alcotest.(check bool)
    (Printf.sprintf "charge %d within the transfer's service %d" charged
       service)
    true (charged <= service);
  Alcotest.(check bool) "page no longer busy" false tail.Types.pg_busy

(* Async pageout into a swap pool with room for one page: the clustered
   write is refused for space, the per-page fallback cleans the one page
   that fits and then escalates, the rest stay dirty, and every counter
   and the clock match the model off. *)
let full_swap_pageout async =
  let machine, kernel, sys = boot ~frames:1024 ~async () in
  let task = new_task kernel in
  let ps = sys.Vm_sys.page_size in
  let n = 8 in
  let addr = ok (Vm_user.allocate sys task ~size:(n * ps) ~anywhere:true ()) in
  for i = 0 to n - 1 do
    Machine.write machine ~cpu:0 ~va:(addr + (i * ps))
      (Bytes.of_string (Printf.sprintf "full-%02d" i))
  done;
  Vm_sys.set_swap_capacity sys (Some ps);
  Vm_pageout.deactivate_some sys ~count:64;
  Vm_pageout.run sys ~wanted:n;
  let obj =
    match Vm_map.resolve_object_at sys (Task.map task) ~va:addr with
    | Some (o, _) -> o
    | None -> Alcotest.fail "no object"
  in
  let dirty =
    List.length
      (List.filter (Vm_sys.page_modified sys) (Resident.object_pages obj))
  in
  let s = sys.Vm_sys.stats in
  let counters =
    ( (s.Vm_stats.vs_pageouts, s.Vm_stats.vs_clustered_pageouts,
       s.Vm_stats.vs_swap_full_failures, s.Vm_stats.vs_pageout_failures),
      (sys.Vm_sys.mem_pressure, sys.Vm_sys.stats.Vm_stats.vs_swap_used, dirty),
      Machine.cycles machine ~cpu:0 )
  in
  let bytes =
    List.init n (fun i ->
        Bytes.to_string
          (Machine.read machine ~cpu:0 ~va:(addr + (i * ps)) ~len:7))
  in
  (counters, bytes)

let test_async_pageout_swap_full () =
  let ((pageouts, clustered, full, _), (pressure, used, dirty), _) as c, b =
    full_swap_pageout true
  in
  let ps = 4096 (* boot's system page *) in
  Alcotest.(check int) "no clustered write fit" 0 clustered;
  Alcotest.(check int) "the fallback cleaned the page that fits" 1 pageouts;
  Alcotest.(check int) "swap holds exactly that page" ps used;
  Alcotest.(check bool) "refusals counted" true (full >= 1);
  Alcotest.(check bool) "pressure state entered" true pressure;
  Alcotest.(check int) "the rest stay dirty" 7 dirty;
  let c_off, b_off = full_swap_pageout false in
  Alcotest.(check bool) "counters and clock match async off" true (c = c_off);
  Alcotest.(check (list string)) "bytes match async off" b_off b

(* A pager that dies under the async model: every write to it fails, the
   kernel declares it dead and rescues the dirty pages to a default
   pager, and the pages evicted afterwards come back from that rescue
   pager — through its blocking wait — with the same bytes as the model
   off. *)
let dead_pager_run async =
  let machine, kernel, sys = boot ~frames:256 ~async () in
  let t = new_task kernel in
  let ps = sys.Vm_sys.page_size in
  let n = 12 in
  let inj = Fail.create ~seed:11 in
  Fail.attach inj ~site:"pager.write" [ Fail.Always Fail.Fail ];
  let addr =
    fst
      (ok
         (Chaos_pager.map_wrapped sys t inj ~pager:(store_pager ~ps ())
            ~size:(n * ps) ()))
  in
  for i = 0 to n - 1 do
    Machine.write machine ~cpu:0 ~va:(addr + (i * ps))
      (Bytes.of_string (Printf.sprintf "dead-%02d" i))
  done;
  for _ = 1 to 8 do
    Vm_pageout.deactivate_some sys ~count:64;
    Vm_pageout.run sys ~wanted:64
  done;
  let stats = sys.Vm_sys.stats in
  Alcotest.(check int) "pager died" 1 stats.Vm_stats.vs_pager_deaths;
  let rescue =
    match Vm_map.resolve_object_at sys (Task.map t) ~va:addr with
    | Some (o, _) -> o.Types.obj_rescue
    | None -> Alcotest.fail "no object behind the mapping"
  in
  (match rescue with
   | Some r ->
     Alcotest.(check bool) "rescue pager holds the data" true
       (Swap_pager.stored_bytes sys r > 0)
   | None -> Alcotest.fail "expected a rescue pager");
  let reads_before = stats.Vm_stats.vs_pager_reads in
  let bytes =
    List.init n (fun i ->
        Bytes.to_string
          (Machine.read machine ~cpu:0 ~va:(addr + (i * ps)) ~len:7))
  in
  Alcotest.(check bool) "evicted pages were read back" true
    (stats.Vm_stats.vs_pager_reads > reads_before);
  Alcotest.(check int) "task never saw a memory error" 0
    stats.Vm_stats.vs_memory_errors;
  bytes

let test_dead_pager_async () =
  let expect = List.init 12 (Printf.sprintf "dead-%02d") in
  Alcotest.(check (list string)) "bytes intact under async" expect
    (dead_pager_run true);
  Alcotest.(check (list string)) "bytes match async off" (dead_pager_run false)
    (dead_pager_run true)

(* Chaos under the async model replays identically: injection is decided
   at submit time, so the fingerprint, the data and the clock cannot
   depend on when completions are reaped. *)
let chaos_async_run seed =
  let machine, _, sys = boot ~async:true () in
  let fs = Simfs.create machine () in
  let inj = Fail.create ~seed in
  Fail.attach inj ~site:"disk.read"
    [ Fail.With_probability (0.1, Fail.Fail);
      Fail.With_probability (0.15, Fail.Delay 750) ];
  Simdisk.set_injector (Simfs.disk fs) (Some inj);
  let ps = sys.Vm_sys.page_size in
  let n = 32 in
  let data = Bytes.init (n * ps) (fun i -> Char.chr (i * 5 land 0xff)) in
  Simfs.install_file fs ~name:"/chaos" ~data;
  let got =
    Vnode_pager.read_through_object sys fs ~name:"/chaos" ~offset:0
      ~len:(n * ps)
  in
  let ms = Machine.stats machine in
  ( Digest.bytes got,
    Machine.cycles machine ~cpu:0,
    Fail.injections inj,
    Fail.fingerprint inj,
    (ms.Machine.disk_waits, ms.Machine.disk_wait_cycles,
     ms.Machine.disk_overlap_cycles) )

let test_async_chaos_replays () =
  let d1, c1, i1, f1, s1 = chaos_async_run 42 in
  let d2, c2, i2, f2, s2 = chaos_async_run 42 in
  Alcotest.(check bool) "injections fired" true (i1 >= 1);
  Alcotest.(check string) "same data" (Digest.to_hex d1) (Digest.to_hex d2);
  Alcotest.(check int) "same clock" c1 c2;
  Alcotest.(check int) "same injections" i1 i2;
  Alcotest.(check string) "same fingerprint" f1 f2;
  Alcotest.(check bool) "same wait/overlap stats" true (s1 = s2)

(* ---- qcheck: the model is invisible to data ------------------------------- *)

(* Any read workload returns the same bytes with the async model on or
   off; and with it off, the clock is identical to the classical
   blocking model too (the submit protocol is free when unused). *)
let async_invisible =
  let open QCheck2 in
  Test.make ~name:"async disk byte-identical, and cycle-identical when off"
    ~count:30
    Gen.(
      list_size (int_range 1 12)
        (pair (int_range 0 ((16 * 4096) - 1)) (int_range 1 (3 * 4096))))
    (fun ops ->
       let run async =
         let machine, _, sys = boot ~async () in
         let fs = Simfs.create machine () in
         let size = 16 * sys.Vm_sys.page_size in
         let data = Bytes.init size (fun i -> Char.chr (i * 11 land 0xff)) in
         Simfs.install_file fs ~name:"/prop" ~data;
         let reads =
           List.map
             (fun (off, len) ->
                Bytes.to_string
                  (Vnode_pager.read_through_object sys fs ~name:"/prop"
                     ~offset:off ~len))
             ((0, size) :: ops)
         in
         (reads, Machine.cycles machine ~cpu:0)
       in
       let sync_reads, sync_cycles = run false in
       let async_reads, _ = run true in
       (* A second async-off run doubles as the cycle-identity witness:
          determinism means equality with the first is the whole claim. *)
       let off_reads, off_cycles = run false in
       sync_reads = async_reads && off_reads = sync_reads
       && off_cycles = sync_cycles)

let () =
  Alcotest.run "async"
    [ ( "device",
        [ Alcotest.test_case "submit+wait equals sync" `Quick
            test_submit_wait_equals_sync;
          Alcotest.test_case "overlap charges the residue" `Quick
            test_overlap_charges_residue;
          Alcotest.test_case "queues serialize" `Quick test_queues_serialize ]
      );
      ( "kernel",
        [ Alcotest.test_case "async pageout round trip" `Quick
            test_async_pageout_roundtrip;
          Alcotest.test_case "chaos replays under async" `Quick
            test_async_chaos_replays;
          Alcotest.test_case "pager with no device" `Quick
            test_no_device_pager_async;
          Alcotest.test_case "stamp across a clock reset" `Quick
            test_stamp_across_reset;
          Alcotest.test_case "pageout into a full swap pool" `Quick
            test_async_pageout_swap_full;
          Alcotest.test_case "dead pager rescued under async" `Quick
            test_dead_pager_async ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ async_invisible ] ) ]

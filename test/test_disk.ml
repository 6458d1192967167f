(* The disk model: each transfer is submitted and returns a stamp.

   The contract under test: a read charges nothing at submit and its
   waiter pays only the device time still outstanding, so submit then
   wait costs exactly the blocking charge and CPU work in between shows
   up as overlap; injected delays and wasted retries are charged at
   submit; chaos replays exactly; and data is never affected.  Pagers
   implement each transfer once and the kernel decides from the reply's
   stamp whether to wait, so pagers with no device, refused pageouts
   and dead pagers must all keep their bytes. *)

open Mach_hw
open Mach_core
open Mach_pagers
module Fail = Mach_fail.Fail
module Obs = Mach_obs.Obs

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Kr.to_string e)

let boot ?(frames = 2048) () =
  (* uVAX II, 512 B hardware pages, multiple 8 => 4 KB system pages. *)
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:frames () in
  let kernel = Kernel.create ~page_multiple:8 machine in
  (machine, kernel, Kernel.sys kernel)

let new_task kernel =
  let t = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:0 t;
  t

let small_disk ?(blocks = 1) () =
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:64 () in
  let disk = Simdisk.create machine ~block_size:4096 in
  for b = 0 to blocks - 1 do
    Simdisk.install disk ~block:b ~pos:0 ~len:4096 (Bytes.make 4096 'x')
  done;
  (machine, disk)

(* ---- device-level cost identities ---------------------------------------- *)

(* Submit followed by an immediate wait is the degenerate case with no
   work to overlap: it must cost exactly the blocking charge. *)
let test_submit_wait_equals_sync () =
  let machine, disk = small_disk ~blocks:8 () in
  let _, io = Simdisk.lend_run disk ~cpu:0 ~first:0 ~count:8 in
  Alcotest.(check int) "nothing charged at submit" 0
    (Machine.cycles machine ~cpu:0);
  Machine.wait_io machine ~cpu:0 io;
  let blocking = Machine.create ~arch:Arch.uvax2 ~memory_frames:64 () in
  Machine.charge_disk blocking ~cpu:0 ~write:false ~bytes:(8 * 4096);
  Alcotest.(check bool) "blocking read actually costs" true
    (Machine.cycles blocking ~cpu:0 > 0);
  Alcotest.(check int) "submit+wait costs the blocking charge"
    (Machine.cycles blocking ~cpu:0) (Machine.cycles machine ~cpu:0)

(* CPU work between submit and wait is overlapped: the wait charges only
   the residue, and the hidden cycles land in disk_overlap_cycles. *)
let test_overlap_charges_residue () =
  let machine, disk = small_disk () in
  let _, io = Simdisk.lend_run disk ~cpu:0 ~first:0 ~count:1 in
  let service = io.Machine.io_service in
  let compute = service / 2 in
  Machine.charge machine ~cpu:0 compute;
  let before = Machine.cycles machine ~cpu:0 in
  Machine.wait_io machine ~cpu:0 io;
  Alcotest.(check int) "wait charges only the residue" (service - compute)
    (Machine.cycles machine ~cpu:0 - before);
  let s = Machine.stats machine in
  Alcotest.(check int) "hidden cycles counted as overlap" compute
    s.Machine.disk_overlap_cycles;
  (* Waiting on a stamp that has landed charges nothing. *)
  let before = Machine.cycles machine ~cpu:0 in
  Machine.wait_io machine ~cpu:0 io;
  Alcotest.(check int) "second wait is free" before
    (Machine.cycles machine ~cpu:0)

(* Chaos at the device is charged at submit, before the request's stamp
   is taken: one wasted transfer (the first attempt fails) to Disk_wait,
   then a [Delay c] on the retry to whatever the CPU is doing.  The
   wait that follows pays only the request's own service, so
   disk_wait_cycles counts neither. *)
let test_chaos_charged_at_submit () =
  let machine, disk = small_disk () in
  let tr = Obs.create ~capacity:64 () in
  Obs.set_enabled tr true;
  Machine.set_tracer machine tr;
  let c = 750 in
  let inj = Fail.create ~seed:1 in
  Fail.attach inj ~site:"disk.read"
    [ Fail.Fail_n_then_recover (1, Fail.Fail);
      Fail.After (1, Fail.Fail_n_then_recover (2, Fail.Delay c)) ];
  Simdisk.set_injector disk (Some inj);
  let total cat = Obs.attr_total tr ~cpu:0 cat in
  let io =
    Machine.with_category machine ~cpu:0 Obs.Pager_wait (fun () ->
        snd (Simdisk.lend_run disk ~cpu:0 ~first:0 ~count:1))
  in
  let service = io.Machine.io_service in
  Alcotest.(check int) "delay plus wasted transfer charged at submit"
    (c + service) (Machine.cycles machine ~cpu:0);
  Alcotest.(check int) "the delay goes to the open frame" c
    (total Obs.Pager_wait);
  Alcotest.(check int) "the wasted transfer goes to Disk_wait" service
    (total Obs.Disk_wait);
  let s = Machine.stats machine in
  Alcotest.(check (list int)) "errors, retries, ops" [ 1; 1; 2 ]
    [ s.Machine.disk_errors; s.Machine.disk_retries; s.Machine.disk_ops ];
  Alcotest.(check int) "the stamp starts after the charges"
    (c + (2 * service)) io.Machine.io_completion;
  Machine.wait_io machine ~cpu:0 io;
  Alcotest.(check int) "the wait pays only the request's own service"
    service s.Machine.disk_wait_cycles;
  Alcotest.(check int) "clock" (c + (2 * service))
    (Machine.cycles machine ~cpu:0)

(* A write into part of a block reads the block back, patches it and
   writes it back; the write starts once the read-back lands, so the
   pair is one wait on both services and nothing overlaps.  On the
   uVAX II a 4 KB transfer is 8,100 cycles.  Once directly, once as a
   vnode pager's write under the kernel's failure policy. *)
let test_partial_block_write_waits_once () =
  let check name machine write =
    Machine.reset_clocks machine;
    write ();
    let s = Machine.stats machine in
    Alcotest.(check (list int))
      (name ^ ": clock, waits, wait cycles, overlap")
      [ 16_200; 1; 16_200; 0 ]
      [ Machine.cycles machine ~cpu:0; s.Machine.disk_waits;
        s.Machine.disk_wait_cycles; s.Machine.disk_overlap_cycles ]
  in
  let file = Bytes.make (8 * 1024) 'f' and patch = Bytes.make 512 'p' in
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:64 () in
  let fs = Simfs.create machine () in
  Simfs.install_file fs ~name:"/f" ~data:file;
  check "Simfs.write" machine (fun () ->
      Simfs.write fs ~cpu:0 ~name:"/f" ~offset:0 ~data:(Lent.of_bytes patch));
  Alcotest.(check string) "patched, the rest kept"
    ("ppp" ^ String.make 3 'f')
    (Bytes.to_string (Simfs.read fs ~cpu:0 ~name:"/f" ~offset:509 ~len:6));
  let machine, _, sys = boot () in
  let fs = Simfs.create machine () in
  Simfs.install_file fs ~name:"/f" ~data:file;
  let pager = Vnode_pager.for_file sys fs ~name:"/f" in
  let obj = Vm_object.create_with_pager sys pager ~size:(Bytes.length file) in
  check "Pager_guard.write" machine (fun () ->
      match
        Pager_guard.write sys obj ~offset:0 ~data:(Lent.of_bytes patch)
      with
      | `Ok -> ()
      | `Failed | `No_space -> Alcotest.fail "write refused")

(* ---- kernel-level behaviour ------------------------------------------------ *)

(* Clustered pageout: every byte survives the write and the read
   back. *)
let test_clustered_pageout_roundtrip () =
  let machine, kernel, sys = boot ~frames:1024 () in
  let task = new_task kernel in
  let ps = sys.Vm_sys.page_size in
  let n = 16 in
  let addr = ok (Vm_user.allocate sys task ~size:(n * ps) ~anywhere:true ()) in
  let pat i = Printf.sprintf "pgout-%02d" i in
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

let first_byte sys p =
  let b = Bytes.create 1 in
  Page_io.blit_out sys p ~off:0 ~len:1 b ~pos:0;
  Bytes.get b 0

(* An in-memory store pager: no device behind it, every reply stamped
   [io_none].  Writes are split at page size (the range contract). *)
let store_pager sys ~ps ?(requests = ref []) () =
  let store : (int, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
  { Types.pgr_id = Vm_sys.fresh_pager_id sys;
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
             (List.concat_map Lent.of_bytes chunks, Types.io_none));
    pgr_write =
      (fun ~offset ~data ->
         for i = 0 to (Lent.length data / ps) - 1 do
           Hashtbl.replace store (offset + (i * ps))
             (Lent.sub data ~pos:(i * ps) ~len:ps)
         done;
         Types.Write_completed);
    pgr_should_cache = ref false }

(* A pager with no device: its reply has already landed, so each
   cluster is one request and no page rides an inflight record or waits
   on the disk. *)
let test_no_device_pager () =
  let machine, _, sys = boot () in
  let ps = sys.Vm_sys.page_size in
  let n = 16 in
  let requests = ref [] in
  let pager = store_pager sys ~ps ~requests () in
  for i = 0 to n - 1 do
    ignore
      (pager.Types.pgr_write ~offset:(i * ps)
         ~data:(Lent.of_bytes (Bytes.make ps (Char.chr (0x41 + i)))))
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
         (Char.chr (0x41 + i)) (first_byte sys p))
    (Resident.object_pages obj);
  Alcotest.(check int) "pages resident" 7
    (List.length (Resident.object_pages obj));
  Alcotest.(check int) "no disk waits" 0
    (Machine.stats machine).Machine.disk_waits

(* A page riding its stamp across [Kernel.reset_clocks] has landed: the
   clocks its stamp was measured against are gone, so touching it after
   the reset must not charge the pre-reset time as a phantom wait. *)
let test_stamp_across_reset () =
  let machine, kernel, sys = boot () in
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
  let service = (Option.get tail.Types.pg_inflight).Types.if_service in
  Kernel.reset_clocks kernel;
  let before = Machine.cycles machine ~cpu:0 in
  Vm_cluster.note_hit sys tail;
  let charged = Machine.cycles machine ~cpu:0 - before in
  Alcotest.(check bool)
    (Printf.sprintf "charge %d within the page's share %d of the service"
       charged service)
    true (charged <= service);
  Alcotest.(check bool) "page no longer busy" false tail.Types.pg_busy

(* Pageout into a swap pool with room for one page: the clustered write
   is refused for space, the per-page fallback cleans the one page that
   fits and then escalates, the rest stay dirty, and every byte reads
   back. *)
let test_pageout_swap_full () =
  let machine, kernel, sys = boot ~frames:1024 () in
  let task = new_task kernel in
  let ps = sys.Vm_sys.page_size in
  let n = 8 in
  let addr = ok (Vm_user.allocate sys task ~size:(n * ps) ~anywhere:true ()) in
  let pat = Printf.sprintf "full-%02d" in
  for i = 0 to n - 1 do
    Machine.write machine ~cpu:0 ~va:(addr + (i * ps))
      (Bytes.of_string (pat i))
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
      (List.filter
         (fun p ->
            Mach_pmap.Pmap_domain.is_modified sys.Vm_sys.domain
              ~pfn:p.Types.pfn)
         (Resident.object_pages obj))
  in
  let s = sys.Vm_sys.stats in
  Alcotest.(check int) "no clustered write fit" 0
    s.Vm_stats.vs_clustered_pageouts;
  Alcotest.(check int) "the fallback cleaned the page that fits" 1
    s.Vm_stats.vs_pageouts;
  Alcotest.(check int) "swap holds exactly that page" ps
    s.Vm_stats.vs_swap_used;
  Alcotest.(check bool) "refusals counted" true
    (s.Vm_stats.vs_swap_full_failures >= 1);
  Alcotest.(check bool) "pressure state entered" true sys.Vm_sys.mem_pressure;
  Alcotest.(check int) "the rest stay dirty" 7 dirty;
  Alcotest.(check (list string)) "bytes intact" (List.init n pat)
    (List.init n (fun i ->
         Bytes.to_string
           (Machine.read machine ~cpu:0 ~va:(addr + (i * ps)) ~len:7)))

(* A pager that dies: every write to it fails, the kernel declares it
   dead and rescues the dirty pages to a default pager, and the pages
   evicted afterwards come back from that rescue pager — through its
   blocking wait — with their bytes intact. *)
let test_dead_pager () =
  let machine, kernel, sys = boot ~frames:256 () in
  let t = new_task kernel in
  let ps = sys.Vm_sys.page_size in
  let n = 12 in
  let inj = Fail.create ~seed:11 in
  Fail.attach inj ~site:"pager.write" [ Fail.Always Fail.Fail ];
  let addr =
    fst
      (ok
         (Chaos_pager.map_wrapped sys t inj ~pager:(store_pager sys ~ps ())
            ~size:(n * ps) ()))
  in
  let pat = Printf.sprintf "dead-%02d" in
  for i = 0 to n - 1 do
    Machine.write machine ~cpu:0 ~va:(addr + (i * ps))
      (Bytes.of_string (pat i))
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
       (Mach_util.Int_tbl.mem sys.Vm_sys.swap_stores r.Types.pgr_id
        && sys.Vm_sys.stats.Vm_stats.vs_swap_used > 0)
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
  Alcotest.(check (list string)) "bytes intact" (List.init n pat) bytes

(* Chaos replays identically: injection is decided at submit time, so
   the fingerprint, the data and the clock cannot depend on when
   completions are reaped. *)
let chaos_run seed =
  let machine, _, sys = boot () in
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
    Digest.bytes data,
    Machine.cycles machine ~cpu:0,
    Fail.injections inj,
    Fail.fingerprint inj,
    (ms.Machine.disk_waits, ms.Machine.disk_wait_cycles,
     ms.Machine.disk_overlap_cycles) )

let test_chaos_replays () =
  let d1, want, c1, i1, f1, s1 = chaos_run 42 in
  let d2, _, c2, i2, f2, s2 = chaos_run 42 in
  Alcotest.(check bool) "injections fired" true (i1 >= 1);
  Alcotest.(check string) "the file's data" (Digest.to_hex want)
    (Digest.to_hex d1);
  Alcotest.(check string) "same data" (Digest.to_hex d1) (Digest.to_hex d2);
  Alcotest.(check int) "same clock" c1 c2;
  Alcotest.(check int) "same injections" i1 i2;
  Alcotest.(check string) "same fingerprint" f1 f2;
  Alcotest.(check bool) "same wait/overlap stats" true (s1 = s2)

let () =
  Alcotest.run "disk"
    [ ( "device",
        [ Alcotest.test_case "submit+wait equals sync" `Quick
            test_submit_wait_equals_sync;
          Alcotest.test_case "overlap charges the residue" `Quick
            test_overlap_charges_residue;
          Alcotest.test_case "chaos charged at submit" `Quick
            test_chaos_charged_at_submit;
          Alcotest.test_case "partial-block write waits once" `Quick
            test_partial_block_write_waits_once ] );
      ( "kernel",
        [ Alcotest.test_case "clustered pageout round trip" `Quick
            test_clustered_pageout_roundtrip;
          Alcotest.test_case "chaos replays" `Quick test_chaos_replays;
          Alcotest.test_case "pager with no device" `Quick
            test_no_device_pager;
          Alcotest.test_case "stamp across a clock reset" `Quick
            test_stamp_across_reset;
          Alcotest.test_case "pageout into a full swap pool" `Quick
            test_pageout_swap_full;
          Alcotest.test_case "dead pager rescued" `Quick test_dead_pager ] ) ]

(* Tests for the paging daemon: queue balancing, second chance, write-back
   to the default pager and to external pagers, and data survival under
   genuine memory pressure. *)

open Mach_hw
open Mach_core

let kb = 1024

let boot ?(frames = 256) () =
  (* 256 frames x 512 B, multiple 8 => 16 machine-independent pages. *)
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:frames () in
  let kernel = Kernel.create ~page_multiple:8 machine in
  (machine, kernel, Kernel.sys kernel)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Kr.to_string e)

let new_task kernel ~cpu =
  let t = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu t;
  t

let test_deactivation_moves_pages () =
  let machine, kernel, sys = boot () in
  let t = new_task kernel ~cpu:0 in
  let a = ok (Vm_user.allocate sys t ~size:(16 * kb) ~anywhere:true ()) in
  for i = 0 to 3 do
    Machine.write_byte machine ~cpu:0 ~va:(a + (i * 4 * kb)) 'd'
  done;
  Alcotest.(check int) "active" 4 (Resident.active_count sys.Vm_sys.resident);
  Vm_pageout.deactivate_some sys ~count:2;
  Alcotest.(check int) "two moved" 2
    (Resident.inactive_count sys.Vm_sys.resident);
  Alcotest.(check int) "two left" 2
    (Resident.active_count sys.Vm_sys.resident)

let test_second_chance () =
  let machine, kernel, sys = boot () in
  let t = new_task kernel ~cpu:0 in
  let a = ok (Vm_user.allocate sys t ~size:(8 * kb) ~anywhere:true ()) in
  Machine.write_byte machine ~cpu:0 ~va:a 'x';
  Vm_pageout.deactivate_some sys ~count:10;
  (* Touch the page again: its reference bit comes back on. *)
  ignore (Machine.read_byte machine ~cpu:0 ~va:a);
  Vm_pageout.run sys ~wanted:1;
  Alcotest.(check bool) "reactivated, not evicted" true
    (sys.Vm_sys.stats.Vm_stats.vs_reactivations >= 1)

let test_clean_page_dropped_without_io () =
  let machine, kernel, sys = boot () in
  let t = new_task kernel ~cpu:0 in
  let a = ok (Vm_user.allocate sys t ~size:(4 * kb) ~anywhere:true ()) in
  Machine.write_byte machine ~cpu:0 ~va:a 'x';
  (* Clean the page by hand, then evict: no disk write may happen. *)
  Vm_pageout.deactivate_some sys ~count:10;
  let p =
    match Vm_map.resolve_object_at sys (Task.map t) ~va:a with
    | Some (o, _) -> Option.get (Vm_object.lookup_resident sys o ~offset:0)
    | None -> Alcotest.fail "no object"
  in
  ignore p;
  (* First round: referenced (we just created it) -> second chance;
     second round: clear and evictable. *)
  Vm_pageout.run sys ~wanted:16;
  Vm_pageout.deactivate_some sys ~count:16;
  Machine.reset_clocks machine;
  Vm_pageout.run sys ~wanted:16;
  Alcotest.(check bool) "dirty page written exactly once" true
    ((Machine.stats machine).Machine.disk_ops <= 1)

let test_eviction_data_survives () =
  let machine, kernel, sys = boot () in
  let t = new_task kernel ~cpu:0 in
  (* Only 16 machine-independent pages exist; dirty 32 pages worth. *)
  let size = 32 * 4 * kb in
  let a = ok (Vm_user.allocate sys t ~size ~anywhere:true ()) in
  for i = 0 to 31 do
    Machine.write machine ~cpu:0 ~va:(a + (i * 4 * kb))
      (Bytes.of_string (Printf.sprintf "block-%02d" i))
  done;
  (* Everything still reads back even though most pages were evicted to
     the default pager. *)
  for i = 0 to 31 do
    Alcotest.(check string)
      (Printf.sprintf "block %d" i)
      (Printf.sprintf "block-%02d" i)
      (Bytes.to_string
         (Machine.read machine ~cpu:0 ~va:(a + (i * 4 * kb)) ~len:8))
  done;
  Alcotest.(check bool) "pageouts happened" true
    (sys.Vm_sys.stats.Vm_stats.vs_pageouts > 0);
  Alcotest.(check bool) "swap traffic happened" true
    ((Machine.stats machine).Machine.disk_ops > 0)

let test_rewrite_evicted_page () =
  let machine, kernel, sys = boot () in
  let t = new_task kernel ~cpu:0 in
  let size = 32 * 4 * kb in
  let a = ok (Vm_user.allocate sys t ~size ~anywhere:true ()) in
  (* Write, force eviction by dirtying everything else, rewrite, check. *)
  Machine.write machine ~cpu:0 ~va:a (Bytes.of_string "version-1");
  for i = 1 to 31 do
    Machine.write_byte machine ~cpu:0 ~va:(a + (i * 4 * kb)) 'f'
  done;
  Machine.write machine ~cpu:0 ~va:a (Bytes.of_string "version-2");
  for i = 1 to 31 do
    ignore (Machine.read_byte machine ~cpu:0 ~va:(a + (i * 4 * kb)))
  done;
  Alcotest.(check string) "latest version" "version-2"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:a ~len:9))

(* ---- swap store ownership ------------------------------------------------ *)

let swap_chunk sys pg ~offset =
  Mach_util.Int_tbl.find
    (Mach_util.Int_tbl.find sys.Vm_sys.swap_stores pg.Types.pgr_id)
    offset

let provided = function
  | Types.Data_provided (d, _) -> d
  | Types.Data_unavailable | Types.Data_error ->
    Alcotest.fail "expected data"

(* Whole pages compare as one bool, so a failure prints no 4 KB strings. *)
let same_bytes what expected got =
  Alcotest.(check bool) what true (Bytes.equal expected got)

let written = function
  | Types.Write_completed -> ()
  | Types.Write_error | Types.Write_no_space -> Alcotest.fail "write refused"

(* A page paged out, paged in, rewritten and paged out again reads back
   its latest bytes: the second pageout overwrites the first copy in
   place while the first pagein's reply was that very copy. *)
let test_swap_rewrite_round_trip () =
  let machine, kernel, sys = boot () in
  let t = new_task kernel ~cpu:0 in
  let ps = 4 * kb in
  let a = ok (Vm_user.allocate sys t ~size:(32 * ps) ~anywhere:true ()) in
  Machine.write machine ~cpu:0 ~va:a (Bytes.of_string "version-1");
  let o, _ = Option.get (Vm_map.resolve_object_at sys (Task.map t) ~va:a) in
  let resident () = Vm_object.lookup_resident sys o ~offset:0 <> None in
  let evict_page_0 () =
    for i = 1 to 31 do
      Machine.write_byte machine ~cpu:0 ~va:(a + (i * ps)) 'f'
    done;
    Alcotest.(check bool) "page 0 paged out" false (resident ())
  in
  let stored_prefix n =
    Bytes.sub_string (swap_chunk sys (Option.get o.Types.obj_pager) ~offset:0) 0 n
  in
  evict_page_0 ();
  Alcotest.(check string) "first copy" "version-1" (stored_prefix 9);
  let chunk = swap_chunk sys (Option.get o.Types.obj_pager) ~offset:0 in
  Alcotest.(check string) "paged in" "version-1"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:a ~len:9));
  Machine.write machine ~cpu:0 ~va:a (Bytes.of_string "version-2");
  evict_page_0 ();
  Alcotest.(check string) "second copy" "version-2" (stored_prefix 9);
  Alcotest.(check bool) "overwritten in place" true
    (swap_chunk sys (Option.get o.Types.obj_pager) ~offset:0 == chunk);
  Alcotest.(check string) "latest bytes" "version-2"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:a ~len:9))

(* The whole page as bytes, copied out of its frames. *)
let page_bytes sys p =
  let ps = sys.Vm_sys.page_size in
  let b = Bytes.create ps in
  Page_io.blit_out sys p ~off:0 ~len:ps b ~pos:0;
  b

(* The rule on [pgr_request]/[pgr_write], checked on the default pager
   itself: a reply lends the stored chunks, one slice a chunk and a head
   of the last one, and the kernel leaves them alone; a write is copied
   when it lands on a new offset and overwrites in place on an old
   one. *)
let test_swap_lends_and_overwrites () =
  let _, _, sys = boot () in
  let ps = sys.Vm_sys.page_size in
  let pg = Swap_pager.make sys ~name:"lend" in
  let page c = Bytes.make ps c in
  written (pg.Types.pgr_write ~offset:0 ~data:(Lent.of_bytes (page 'a')));
  let b = page 'b' in
  written (pg.Types.pgr_write ~offset:ps ~data:(Lent.of_bytes b));
  Bytes.fill b 0 ps 'x';
  let lends what ~offset ~len (s : Lent.slice) =
    Alcotest.(check bool) what true
      (s.Lent.buf == swap_chunk sys pg ~offset && s.Lent.pos = 0
       && s.Lent.len = len)
  in
  let one = provided (pg.Types.pgr_request ~offset:0 ~length:ps) in
  (match one with
   | [ s ] -> lends "single chunk is lent" ~offset:0 ~len:ps s
   | _ -> Alcotest.fail "one slice expected");
  let p = Vm_sys.grab_page sys in
  Page_io.fill sys p one;
  same_bytes "frame filled" (page 'a') (page_bytes sys p);
  same_bytes "lent chunk unchanged by the fill" (page 'a')
    (swap_chunk sys pg ~offset:0);
  (match provided (pg.Types.pgr_request ~offset:0 ~length:(2 * ps)) with
   | [ s0; s1 ] ->
     lends "cluster lends the first chunk" ~offset:0 ~len:ps s0;
     lends "cluster lends the second chunk" ~offset:ps ~len:ps s1
   | _ -> Alcotest.fail "two slices expected");
  (match provided (pg.Types.pgr_request ~offset:0 ~length:(ps + 10)) with
   | [ s0; s1 ] ->
     lends "head: first chunk whole" ~offset:0 ~len:ps s0;
     lends "head: ten bytes of the second" ~offset:ps ~len:10 s1
   | _ -> Alcotest.fail "two slices expected");
  let used = sys.Vm_sys.stats.Vm_stats.vs_swap_used in
  let chunk = swap_chunk sys pg ~offset:0 in
  let c = page 'c' in
  written (pg.Types.pgr_write ~offset:0 ~data:(Lent.of_bytes c));
  Bytes.fill c 0 ps 'y';
  Alcotest.(check bool) "rewrite keeps the chunk" true
    (chunk == swap_chunk sys pg ~offset:0);
  same_bytes "rewrite landed, copied from the lent data"
    (page 'c') (swap_chunk sys pg ~offset:0);
  Alcotest.(check int) "swap_used unchanged" used
    sys.Vm_sys.stats.Vm_stats.vs_swap_used;
  Alcotest.(check (list string)) "stored bytes still equal swap_used" []
    (Vm_debug.check_all sys ~maps:[]);
  same_bytes "new offset was copied" (page 'b')
    (Lent.to_bytes (provided (pg.Types.pgr_request ~offset:ps ~length:ps)))

(* The kernel lends a page's frames to the write: once [pgr_write] has
   returned, zeroing the frame or handing it to other data leaves the
   swap store as it was written, for a new offset (copied into a chunk
   of its own) and for an old one (copied over the chunk in place). *)
let test_swap_write_copies_the_frame () =
  let _, _, sys = boot () in
  let ps = sys.Vm_sys.page_size in
  let pg = Swap_pager.make sys ~name:"frames" in
  let p = Vm_sys.grab_page sys in
  let stored what ~offset c =
    same_bytes what (Bytes.make ps c) (swap_chunk sys pg ~offset)
  in
  let write_frame ~offset c =
    Page_io.blit_in sys p ~off:0 (Bytes.make ps c) ~pos:0 ~len:ps;
    written (pg.Types.pgr_write ~offset ~data:[ Page_io.lend sys p ])
  in
  write_frame ~offset:0 'a';
  Page_io.zero sys p;
  stored "new offset survives a zeroed frame" ~offset:0 'a';
  write_frame ~offset:ps 'b';
  write_frame ~offset:0 'c';
  Page_io.blit_in sys p ~off:0 (Bytes.make ps 'z') ~pos:0 ~len:ps;
  stored "reused frame: old offset keeps its rewrite" ~offset:0 'c';
  stored "reused frame: new offset keeps its copy" ~offset:ps 'b'

let test_default_pager_attached_once () =
  let machine, kernel, sys = boot () in
  let t = new_task kernel ~cpu:0 in
  let a = ok (Vm_user.allocate sys t ~size:(4 * kb) ~anywhere:true ()) in
  Machine.write_byte machine ~cpu:0 ~va:a 'x';
  let o =
    match Vm_map.resolve_object_at sys (Task.map t) ~va:a with
    | Some (o, _) -> o
    | None -> Alcotest.fail "no object"
  in
  Alcotest.(check bool) "anonymous object starts pagerless" true
    (o.Types.obj_pager = None);
  Vm_pageout.deactivate_some sys ~count:16;
  Vm_pageout.run sys ~wanted:16;
  Vm_pageout.deactivate_some sys ~count:16;
  Vm_pageout.run sys ~wanted:16;
  (match o.Types.obj_pager with
   | Some pg ->
     Alcotest.(check string) "default pager" "default-pager"
       pg.Types.pgr_name;
     Alcotest.(check char) "holds the page" 'x'
       (Bytes.get
          (Lent.to_bytes
             (provided (pg.Types.pgr_request ~offset:0 ~length:(4 * kb))))
          0)
   | None -> Alcotest.fail "expected a default pager")

let test_reclaim_triggered_by_allocation () =
  let machine, kernel, sys = boot () in
  let t = new_task kernel ~cpu:0 in
  (* Touch more pages than physical memory outright: grab_page must
     reclaim transparently rather than raising. *)
  let size = 64 * 4 * kb in
  let a = ok (Vm_user.allocate sys t ~size ~anywhere:true ()) in
  for i = 0 to 63 do
    Machine.write_byte machine ~cpu:0 ~va:(a + (i * 4 * kb)) 'y'
  done;
  Alcotest.(check bool) "free list maintained" true
    (Resident.free_count sys.Vm_sys.resident >= 0);
  Alcotest.(check bool) "pageout ran" true
    (sys.Vm_sys.stats.Vm_stats.vs_pageouts > 0)

let test_pageout_waits_for_tlb_flush () =
  (* The pageout path removes mappings and ticks the machine before
     recycling frames (case 2 of Section 5.2); after eviction the victim
     task's pmap has no mapping and its TLB no usable entry. *)
  let machine, kernel, sys = boot () in
  let t = new_task kernel ~cpu:0 in
  let a = ok (Vm_user.allocate sys t ~size:(4 * kb) ~anywhere:true ()) in
  Machine.write_byte machine ~cpu:0 ~va:a 'z';
  Vm_pageout.deactivate_some sys ~count:16;
  Vm_pageout.run sys ~wanted:16;
  Vm_pageout.deactivate_some sys ~count:16;
  Vm_pageout.run sys ~wanted:16;
  Alcotest.(check (option int)) "mapping removed" None
    ((Task.pmap t).Mach_pmap.Pmap.extract a);
  let deferred () = (Machine.stats machine).Machine.deferred_flushes in
  let before = deferred () in
  Machine.tick machine;
  Alcotest.(check int) "no pending flushes" before (deferred ())

let test_cached_object_pages_reclaimable () =
  (* Pages of a cached (ref 0) object are fair game for the daemon; the
     object survives in the cache and refills from its pager. *)
  let machine, kernel, sys = boot () in
  let counting = ref 0 in
  let pager =
    {
      Types.pgr_id = Vm_sys.fresh_pager_id sys;
      pgr_name = "refill";
      pgr_request =
        (fun ~offset:_ ~length ->
           incr counting;
           Types.Data_provided
             (Lent.of_bytes (Bytes.make length 'C'), Types.io_none));
      pgr_write =
        (fun ~offset:_ ~data:_ -> Types.Write_completed);
      pgr_should_cache = ref true;
    }
  in
  let t = new_task kernel ~cpu:0 in
  let a =
    ok
      (Vm_user.allocate_with_pager sys t ~pager ~offset:0 ~size:(4 * kb))
  in
  Alcotest.(check char) "filled" 'C' (Machine.read_byte machine ~cpu:0 ~va:a);
  Kernel.terminate_task kernel ~cpu:0 t;
  Alcotest.(check int) "object cached" 1 (List.length sys.Vm_sys.object_cache);
  Vm_pageout.deactivate_some sys ~count:100;
  Vm_pageout.run sys ~wanted:100;
  Vm_pageout.deactivate_some sys ~count:100;
  Vm_pageout.run sys ~wanted:100;
  Alcotest.(check int) "still cached after page reclaim" 1
    (List.length sys.Vm_sys.object_cache);
  (* Remapping revives the object; its page refills from the pager. *)
  let t2 = new_task kernel ~cpu:0 in
  let a2 =
    ok
      (Vm_user.allocate_with_pager sys t2 ~pager ~offset:0 ~size:(4 * kb))
  in
  Alcotest.(check char) "refilled" 'C'
    (Machine.read_byte machine ~cpu:0 ~va:a2)

let test_pageout_skips_busy_free_correctly () =
  let _machine, kernel, sys = boot () in
  ignore kernel;
  (* Empty queues: running the daemon must be a safe no-op. *)
  Vm_pageout.run sys ~wanted:10;
  Alcotest.(check int) "nothing happened" 0
    sys.Vm_sys.stats.Vm_stats.vs_pageouts

(* ---- paging allocates no page buffer ------------------------------------ *)

(* Words the OCaml runtime allocated straight into the major heap while
   [f] ran: a page-sized [Bytes.t] (4 KB, 512 words) is one such
   allocation, small blocks are not. *)
let direct_major_words f =
  let _, promoted0, major0 = Gc.counters () in
  f ();
  let _, promoted1, major1 = Gc.counters () in
  int_of_float ((major1 -. major0) -. (promoted1 -. promoted0))

(* A fixed pagein and pageout loop on a 32-page machine: a 96-page
   mapped file scanned and dirtied (vnode pagein clusters, clustered
   pageouts to the disk) and 96 anonymous pages dirtied (pushed to swap
   and paged back).  A first pass makes every swap chunk and object; on
   the passes after it, bytes move between frames and the stores they
   already hold, so what the heap sees per transferred page must stay
   far below the page's own 512 words. *)
let test_paging_allocates_no_page_buffer () =
  let machine, kernel, sys = boot ~frames:256 () in
  let ps = sys.Vm_sys.page_size in
  let pages = 96 in
  let fs = Mach_pagers.Simfs.create machine () in
  Mach_pagers.Simfs.install_file fs ~name:"/scan"
    ~data:(Bytes.make (pages * ps) 'f');
  let t = new_task kernel ~cpu:0 in
  let file, _ =
    ok (Mach_pagers.Vnode_pager.map_file sys fs t ~name:"/scan" ())
  in
  let anon = ok (Vm_user.allocate sys t ~size:(pages * ps) ~anywhere:true ()) in
  let pass () =
    for i = 0 to pages - 1 do
      let c = Machine.read_byte machine ~cpu:0 ~va:(file + (i * ps)) in
      Machine.write_byte machine ~cpu:0 ~va:(file + (i * ps) + 1) c;
      Machine.write_byte machine ~cpu:0 ~va:(anon + (i * ps)) 'a'
    done
  in
  pass ();
  let stats = Machine.stats machine in
  let bytes0 = stats.Machine.disk_bytes in
  let words = direct_major_words (fun () -> pass (); pass ()) in
  let transferred = (stats.Machine.disk_bytes - bytes0) / ps in
  Alcotest.(check bool) "pages moved both ways" true
    (transferred >= 4 * pages
     && sys.Vm_sys.stats.Vm_stats.vs_pageouts >= 2 * pages);
  let per_page = words / transferred in
  if per_page >= 32 then
    Alcotest.failf "%d direct-major words per transferred page (%d pages)"
      per_page transferred

let () =
  Alcotest.run "vm_pageout"
    [ ( "queues",
        [ Alcotest.test_case "deactivation" `Quick
            test_deactivation_moves_pages;
          Alcotest.test_case "second chance" `Quick test_second_chance ] );
      ( "write-back",
        [ Alcotest.test_case "clean pages skip io" `Quick
            test_clean_page_dropped_without_io;
          Alcotest.test_case "default pager attached" `Quick
            test_default_pager_attached_once;
          Alcotest.test_case "swap lends and overwrites" `Quick
            test_swap_lends_and_overwrites;
          Alcotest.test_case "swap write copies the lent frame" `Quick
            test_swap_write_copies_the_frame;
          Alcotest.test_case "swap rewrite round trip" `Quick
            test_swap_rewrite_round_trip;
          Alcotest.test_case "paging allocates no page buffer" `Quick
            test_paging_allocates_no_page_buffer ] );
      ( "objects",
        [ Alcotest.test_case "cached object pages reclaimable" `Quick
            test_cached_object_pages_reclaimable;
          Alcotest.test_case "empty queues safe" `Quick
            test_pageout_skips_busy_free_correctly ] );
      ( "pressure",
        [ Alcotest.test_case "data survives eviction" `Quick
            test_eviction_data_survives;
          Alcotest.test_case "rewrite evicted page" `Quick
            test_rewrite_evicted_page;
          Alcotest.test_case "reclaim on allocation" `Quick
            test_reclaim_triggered_by_allocation;
          Alcotest.test_case "waits for TLB flush" `Quick
            test_pageout_waits_for_tlb_flush ] ) ]

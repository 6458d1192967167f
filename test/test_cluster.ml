(* Clustered pagein/pageout and adaptive read-ahead.

   The contract under test: clustering is an optimisation that must be
   invisible to data — any workload reads the same bytes whether
   [cluster_max] is 1 (clustering off) or wide open; truncated cluster
   replies degrade to the guarded single-page path; and the map-hint
   fast path keeps range operations O(distance-from-hint). *)

open Mach_hw
open Mach_core
open Mach_pagers
module Fail = Mach_fail.Fail

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Kr.to_string e)

let boot ?(frames = 1024) () =
  (* uVAX II, 512 B hardware pages, multiple 8 => 4 KB system pages. *)
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:frames () in
  let kernel = Kernel.create ~page_multiple:8 machine in
  (machine, kernel, Kernel.sys kernel)

let new_task kernel =
  let t = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:0 t;
  t

(* A per-offset hash store, like a simple external pager.  Writes are
   split at page size — the range contract: a clustered write must land
   so that later single-page reads find every page. *)
let store_pager sys ~ps () =
  let store : (int, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
  {
    Types.pgr_id = Vm_sys.fresh_pager_id sys;
    pgr_name = "cluster-store";
    pgr_request =
      (fun ~offset ~length ->
         match Hashtbl.find_opt store offset with
         | Some d ->
           Types.Data_provided
             (Lent.truncate (Lent.of_bytes d) length, Types.io_none)
         | None -> Types.Data_unavailable);
    pgr_write =
      (fun ~offset ~data ->
         let len = Lent.length data in
         let rec chunk pos =
           if pos < len then begin
             Hashtbl.replace store (offset + pos)
               (Lent.sub data ~pos ~len:(min ps (len - pos)));
             chunk (pos + ps)
           end
         in
         chunk 0;
         Types.Write_completed);
    pgr_should_cache = ref false;
  }

(* ---- adaptive window ramp ----------------------------------------------- *)

(* A cold sequential read of 16 pages must ramp the window 1, 2, 4, 8
   and cost exactly 5 pager requests: pages 0 | 1-2 | 3-6 | 7-14 | 15.
   Every prefetched page is referenced before the read ends. *)
let test_window_ramp () =
  let machine, _, sys = boot ~frames:2048 () in
  let fs = Simfs.create machine () in
  let ps = sys.Vm_sys.page_size in
  let n = 16 in
  let data = Bytes.init (n * ps) (fun i -> Char.chr (i land 0xff)) in
  Simfs.install_file fs ~name:"/ramp" ~data;
  let got =
    Vnode_pager.read_through_object sys fs ~name:"/ramp" ~offset:0
      ~len:(n * ps)
  in
  Alcotest.(check bool) "bytes intact" true (Bytes.equal got data);
  let s = sys.Vm_sys.stats in
  Alcotest.(check int) "pager requests" 5 s.Vm_stats.vs_pager_reads;
  Alcotest.(check int) "prefetch issued" 11 s.Vm_stats.vs_prefetch_issued;
  Alcotest.(check int) "prefetch hits" 11 s.Vm_stats.vs_prefetch_hits;
  Alcotest.(check int) "prefetch wasted" 0 s.Vm_stats.vs_prefetch_wasted

(* A random access pattern must keep the window shut. *)
let test_random_keeps_window_shut () =
  let machine, _, sys = boot ~frames:2048 () in
  let fs = Simfs.create machine () in
  let ps = sys.Vm_sys.page_size in
  let n = 16 in
  Simfs.install_file fs ~name:"/rnd" ~data:(Bytes.make (n * ps) 'r');
  (* Stride-2 touches: no miss ever lands where the last cluster ended. *)
  for i = 0 to (n / 2) - 1 do
    ignore
      (Vnode_pager.read_through_object sys fs ~name:"/rnd"
         ~offset:(2 * i * ps) ~len:1)
  done;
  let s = sys.Vm_sys.stats in
  Alcotest.(check int) "one request per touch"
    (n / 2) s.Vm_stats.vs_pager_reads;
  Alcotest.(check int) "nothing prefetched" 0 s.Vm_stats.vs_prefetch_issued

(* ---- concurrent streams on one shared object ----------------------------- *)

(* Two readers alternate single-page sequential reads over disjoint
   halves of ONE shared file.  With per-(map,entry) stream slots each
   ramps 1, 2, 4, 8 independently: 5 pager requests and 11 prefetched
   pages apiece, every sequential miss matching its own slot.  This is
   the regression for the seed's single shared cursor, where each
   reader's miss landed where the *other* reader's cluster ended, reset
   the window to one page on every fault, and nobody ever ramped. *)
let test_two_readers_both_ramp () =
  let machine, _, sys = boot ~frames:4096 () in
  let fs = Simfs.create machine () in
  let ps = sys.Vm_sys.page_size in
  let half = 16 in
  let data =
    Bytes.init (2 * half * ps) (fun i -> Char.chr (i * 13 land 0xff))
  in
  Simfs.install_file fs ~name:"/shared" ~data;
  let buf = Bytes.create (2 * half * ps) in
  let read_chunk reader page =
    let off = ((reader * half) + page) * ps in
    Bytes.blit
      (Vnode_pager.read_through_object sys ~stream:(reader + 1, 0) fs
         ~name:"/shared" ~offset:off ~len:ps)
      0 buf off ps
  in
  for page = 0 to half - 1 do
    read_chunk 0 page;
    read_chunk 1 page
  done;
  Alcotest.(check bool) "bytes intact" true (Bytes.equal buf data);
  let s = sys.Vm_sys.stats in
  (* 5 requests each: 1 + 2 + 4 + 8 pages, then the last page alone
     (reader 0's final cluster is clipped at reader 1's first resident
     page; reader 1's at end of file). *)
  Alcotest.(check int) "pager requests" 10 s.Vm_stats.vs_pager_reads;
  Alcotest.(check int) "prefetch issued" 22 s.Vm_stats.vs_prefetch_issued;
  Alcotest.(check int) "prefetch hits" 22 s.Vm_stats.vs_prefetch_hits;
  Alcotest.(check int) "sequential misses matched their slot" 8
    s.Vm_stats.vs_stream_hits;
  Alcotest.(check int) "no slot was stolen" 0 s.Vm_stats.vs_stream_resets

(* Nine readers alternate over disjoint stripes of one shared file, one
   more than an object has slots.  Every slot carries a live stream once
   eight readers have started, so the ninth reader's misses recycle the
   least recently used slot: the LRU steal is counted in
   [stream_resets], and the bytes still arrive intact. *)
let test_slot_exhaustion () =
  let machine, _, sys = boot ~frames:4096 () in
  let fs = Simfs.create machine () in
  let ps = sys.Vm_sys.page_size in
  let readers = Vm_cluster.slot_count + 1 and stripe = 4 in
  let data =
    Bytes.init (readers * stripe * ps) (fun i -> Char.chr (i * 11 land 0xff))
  in
  Simfs.install_file fs ~name:"/nine" ~data;
  let buf = Bytes.create (Bytes.length data) in
  for page = 0 to stripe - 1 do
    for r = 0 to readers - 1 do
      let off = ((r * stripe) + page) * ps in
      Bytes.blit
        (Vnode_pager.read_through_object sys ~stream:(r + 1, 0) fs
           ~name:"/nine" ~offset:off ~len:ps)
        0 buf off ps;
      Vm_debug.assert_ok sys ~maps:[]
    done
  done;
  Alcotest.(check bool) "bytes intact" true (Bytes.equal buf data);
  Alcotest.(check bool) "slots were stolen" true
    (sys.Vm_sys.stats.Vm_stats.vs_stream_resets > 0)

(* The auditor checks every slot array it can reach: hand-corrupting one
   live slot's cursor off a page boundary, or giving the object a slot
   array of the wrong length, is flagged. *)
let test_slot_audit () =
  let machine, _, sys = boot ~frames:4096 () in
  let fs = Simfs.create machine () in
  let ps = sys.Vm_sys.page_size in
  Simfs.install_file fs ~name:"/audit" ~data:(Bytes.make (8 * ps) 'a');
  for i = 0 to 3 do
    ignore
      (Vnode_pager.read_through_object sys fs ~name:"/audit" ~offset:(i * ps)
         ~len:ps)
  done;
  Alcotest.(check (list string)) "healthy" [] (Vm_debug.check_all sys ~maps:[]);
  let o =
    match
      Seq.find
        (fun o -> Array.length o.Types.obj_streams > 0)
        (Hashtbl.to_seq_values sys.Vm_sys.pager_objects)
    with
    | Some o -> o
    | None -> Alcotest.fail "no object holds stream slots"
  in
  let live =
    List.find
      (fun st -> Machine.stamp_live machine st.Types.st_stamp)
      (Array.to_list o.Types.obj_streams)
  in
  live.Types.st_next <- live.Types.st_next + 1;
  Alcotest.(check bool) "unaligned cursor flagged" true
    (Vm_debug.check_all sys ~maps:[] <> []);
  live.Types.st_next <- live.Types.st_next - 1;
  let slots = o.Types.obj_streams in
  o.Types.obj_streams <- Array.sub slots 0 3;
  Alcotest.(check bool) "short slot array flagged" true
    (Vm_debug.check_all sys ~maps:[] <> []);
  o.Types.obj_streams <- slots;
  Alcotest.(check (list string)) "healthy again" []
    (Vm_debug.check_all sys ~maps:[])

(* No slot outlives a clock reset: a miss at the cursor of a slot
   committed before the reset starts a new stream instead of continuing
   the old one. *)
let test_slot_expires_on_reset () =
  let machine, _, sys = boot ~frames:4096 () in
  let fs = Simfs.create machine () in
  let ps = sys.Vm_sys.page_size in
  Simfs.install_file fs ~name:"/reset" ~data:(Bytes.make (64 * ps) 'r');
  let read offset =
    ignore
      (Vnode_pager.read_through_object sys fs ~name:"/reset" ~offset ~len:ps)
  in
  let hits () = sys.Vm_sys.stats.Vm_stats.vs_stream_hits in
  read 0;
  let o =
    match
      Seq.find
        (fun o -> Array.length o.Types.obj_streams > 0)
        (Hashtbl.to_seq_values sys.Vm_sys.pager_objects)
    with
    | Some o -> o
    | None -> Alcotest.fail "no object holds stream slots"
  in
  let cursor () =
    match
      List.find_opt
        (fun st -> Machine.stamp_live machine st.Types.st_stamp)
        (Array.to_list o.Types.obj_streams)
    with
    | Some st -> st.Types.st_next
    | None -> Alcotest.fail "no live slot"
  in
  read (cursor ());
  Alcotest.(check int) "a miss at the cursor is a stream hit" 1 (hits ());
  let next = cursor () in
  Machine.reset_clocks machine;
  read next;
  Alcotest.(check int) "not after a clock reset" 1 (hits ())

(* ---- free-behind ---------------------------------------------------------- *)

(* A ramped stream deactivates the clean pages behind its cursor to the
   head of the inactive queue; a dirty page in its wake is skipped (its
   data exists nowhere else).  Memory is ample, so the pageout daemon
   never runs: any page on the inactive queue that the prefetch tail did
   not put there was moved by free-behind. *)
let test_free_behind_skips_dirty () =
  let machine, kernel, sys = boot ~frames:4096 () in
  let fs = Simfs.create machine () in
  let ps = sys.Vm_sys.page_size in
  let n = 32 in
  Simfs.install_file fs ~name:"/fb" ~data:(Bytes.make (n * ps) 'f');
  let task = new_task kernel in
  let addr =
    match Vnode_pager.map_file sys fs task ~name:"/fb" () with
    | Ok (a, _) -> a
    | Error e -> Alcotest.fail (Kr.to_string e)
  in
  (* Dirty page 1 before the stream sweeps past it. *)
  Machine.write machine ~cpu:0 ~va:(addr + ps) (Bytes.of_string "dirty");
  for i = 0 to n - 1 do
    Machine.touch machine ~cpu:0 ~va:(addr + (i * ps)) ~write:false
  done;
  let s = sys.Vm_sys.stats in
  Alcotest.(check bool) "free-behind moved pages" true
    (s.Vm_stats.vs_free_behind_pages > 0);
  let o =
    match Vm_map.resolve_object_at sys (Task.map task) ~va:addr with
    | Some (o, _) -> o
    | None -> Alcotest.fail "no object behind the mapping"
  in
  let queue_of i =
    match Vm_object.lookup_resident sys o ~offset:(i * ps) with
    | Some p -> p.Types.pg_queue
    | None -> Alcotest.fail (Printf.sprintf "page %d not resident" i)
  in
  Alcotest.(check bool) "dirty page stays active" true
    (queue_of 1 = Types.Q_active);
  (* A clean page well behind the final cursor was demoted. *)
  Alcotest.(check bool) "clean page behind the cursor went inactive" true
    (queue_of 4 = Types.Q_inactive);
  (* And the data is untouched. *)
  let got = Machine.read machine ~cpu:0 ~va:(addr + ps) ~len:5 in
  Alcotest.(check string) "dirty bytes intact" "dirty" (Bytes.to_string got)

(* ---- clustered pageout round trip ---------------------------------------- *)

(* Dirty 16 contiguous anonymous pages, evict everything, fault it all
   back: pageout must coalesce the runs into clustered writes, the swap
   pager must serve the clustered reads back, and every byte must
   survive the round trip. *)
let test_clustered_pageout_roundtrip () =
  let machine, kernel, sys = boot ~frames:1024 () in
  let task = new_task kernel in
  let ps = sys.Vm_sys.page_size in
  let n = 16 in
  let addr = ok (Vm_user.allocate sys task ~size:(n * ps) ~anywhere:true ()) in
  let pat i = Printf.sprintf "cluster-%02d" i in
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

(* ---- pager-less objects step over the read-ahead path -------------------- *)

(* Every object on the shadow chain behind [va] in [task]'s map, top
   first. *)
let chain_at sys task ~va =
  let rec walk acc = function
    | None -> List.rev acc
    | Some o -> walk (o :: acc) o.Types.obj_shadow
  in
  match Vm_map.resolve_object_at sys (Task.map task) ~va with
  | Some (o, _) -> walk [] (Some o)
  | None -> []

(* Fork twice and write through the copy-on-write chains: each write
   misses in a fresh shadow and finds its source one or two pager-less
   levels down.  Those levels are stepped over without asking for a
   cluster, so none of them ever gets stream slots; the bytes every
   generation sees are its own and the audit is clean. *)
let test_pagerless_chain_has_no_slots () =
  let machine, kernel, sys = boot ~frames:1024 () in
  let ps = sys.Vm_sys.page_size in
  let n = 6 in
  let parent = new_task kernel in
  let addr =
    ok (Vm_user.allocate sys parent ~size:(n * ps) ~anywhere:true ())
  in
  let pat tag i = Printf.sprintf "%s-%02d" tag i in
  let write tag i =
    Machine.write machine ~cpu:0 ~va:(addr + (i * ps))
      (Bytes.of_string (pat tag i))
  in
  let read i =
    Bytes.to_string
      (Machine.read machine ~cpu:0 ~va:(addr + (i * ps)) ~len:4)
  in
  for i = 0 to n - 1 do write "p" i done;
  let child = Kernel.fork_task kernel ~cpu:0 parent in
  Kernel.run_task kernel ~cpu:0 child;
  for i = 0 to n - 1 do write "c" i done;
  let grand = Kernel.fork_task kernel ~cpu:0 child in
  Kernel.run_task kernel ~cpu:0 grand;
  for i = 0 to n - 1 do if i mod 2 = 0 then write "g" i done;
  for i = 0 to n - 1 do
    Alcotest.(check string) (Printf.sprintf "grandchild page %d" i)
      (pat (if i mod 2 = 0 then "g" else "c") i) (read i)
  done;
  Kernel.run_task kernel ~cpu:0 child;
  for i = 0 to n - 1 do
    Alcotest.(check string) (Printf.sprintf "child page %d" i) (pat "c" i)
      (read i)
  done;
  Kernel.run_task kernel ~cpu:0 parent;
  for i = 0 to n - 1 do
    Alcotest.(check string) (Printf.sprintf "parent page %d" i) (pat "p" i)
      (read i)
  done;
  Alcotest.(check bool) "copy-on-write copies made" true
    (sys.Vm_sys.stats.Vm_stats.vs_cow_copies >= n + (n / 2));
  let deepest = ref 0 in
  List.iter
    (fun task ->
       for i = 0 to n - 1 do
         let chain = chain_at sys task ~va:(addr + (i * ps)) in
         deepest := max !deepest (List.length chain);
         List.iter
           (fun o ->
              Alcotest.(check bool) "no pager" true
                (Option.is_none o.Types.obj_pager);
              Alcotest.(check int) "no stream slots" 0
                (Array.length o.Types.obj_streams))
           chain
       done)
    [ parent; child; grand ];
  Alcotest.(check bool) "a chain of pager-less shadows" true (!deepest >= 2);
  Alcotest.(check (list string)) "audit clean" []
    (Vm_debug.check_all sys
       ~maps:(List.map Task.map [ parent; child; grand ]))

(* The shortcut keys on the pager, not on the kind of object: an
   anonymous object that has paged out holds the default pager, and
   faulting its pages back goes through the read-ahead path — it gets
   its stream slots and the pager is read. *)
let test_paged_out_anonymous_reads_its_pager () =
  let machine, kernel, sys = boot ~frames:1024 () in
  let ps = sys.Vm_sys.page_size in
  let n = 8 in
  let task = new_task kernel in
  let addr = ok (Vm_user.allocate sys task ~size:(n * ps) ~anywhere:true ()) in
  let pat i = Printf.sprintf "anon-%02d" i in
  for i = 0 to n - 1 do
    Machine.write machine ~cpu:0 ~va:(addr + (i * ps))
      (Bytes.of_string (pat i))
  done;
  let obj =
    match chain_at sys task ~va:addr with
    | o :: _ -> o
    | [] -> Alcotest.fail "no object behind the region"
  in
  Alcotest.(check bool) "temporary, no pager yet" true
    (obj.Types.obj_temporary && Option.is_none obj.Types.obj_pager);
  Alcotest.(check int) "no slots yet" 0 (Array.length obj.Types.obj_streams);
  for _ = 1 to 6 do
    Vm_pageout.deactivate_some sys ~count:128;
    Vm_pageout.run sys ~wanted:128
  done;
  Alcotest.(check bool) "default pager after pageout" true
    (Option.is_some obj.Types.obj_pager);
  let reads = sys.Vm_sys.stats.Vm_stats.vs_pager_reads in
  for i = 0 to n - 1 do
    Alcotest.(check string) (Printf.sprintf "page %d" i) (pat i)
      (Bytes.to_string
         (Machine.read machine ~cpu:0 ~va:(addr + (i * ps))
            ~len:(String.length (pat i))))
  done;
  Alcotest.(check int) "stream slots" Vm_cluster.slot_count
    (Array.length obj.Types.obj_streams);
  Alcotest.(check bool) "pager read" true
    (sys.Vm_sys.stats.Vm_stats.vs_pager_reads > reads);
  Alcotest.(check (list string)) "audit clean" []
    (Vm_debug.check_all sys ~maps:[ Task.map task ])

(* ---- truncated clusters degrade, deterministically ----------------------- *)

(* Page out 8 pages through a chaos-wrapped store pager, then fault them
   back sequentially with a [Short 64] injected on the first *cluster*
   request: the reply is below one page, so the kernel must fall back to
   the guarded single-page path and still return perfect data.  Run the
   scenario twice: same seed, same fingerprint. *)
(* [pager] with each request it answers counted in [requests]: the chaos
   wrapper takes one decision per request. *)
let counted requests (pager : Types.pager) =
  { pager with
    Types.pgr_request =
      (fun ~offset ~length ->
         incr requests;
         pager.Types.pgr_request ~offset ~length) }

let short_cluster_run seed =
  let machine, kernel, sys = boot ~frames:1024 () in
  let ps = sys.Vm_sys.page_size in
  let inj = Fail.create ~seed in
  let task = new_task kernel in
  let requests = ref 0 in
  let pager = counted requests (store_pager sys ~ps ()) in
  let n = 8 in
  let addr =
    match Chaos_pager.map_wrapped sys task inj ~pager ~size:(n * ps) () with
    | Ok (a, _) -> a
    | Error e -> Alcotest.fail (Kr.to_string e)
  in
  let pat i = Printf.sprintf "short-%02d" i in
  for i = 0 to n - 1 do
    Machine.write machine ~cpu:0 ~va:(addr + (i * ps))
      (Bytes.of_string (pat i))
  done;
  for _ = 1 to 6 do
    Vm_pageout.deactivate_some sys ~count:128;
    Vm_pageout.run sys ~wanted:128
  done;
  let corrupt = ref 0 in
  let check i =
    let got =
      Bytes.to_string
        (Machine.read machine ~cpu:0 ~va:(addr + (i * ps))
           ~len:(String.length (pat i)))
    in
    if got <> pat i then incr corrupt
  in
  (* Single-page read that arms the sequential window... *)
  check 0;
  (* ...then truncate the cluster request that follows it. *)
  let k = !requests in
  Fail.attach inj ~site:"pager.request"
    [ Fail.After (k, Fail.Fail_n_then_recover (k + 1, Fail.Short 64)) ];
  for i = 1 to n - 1 do
    check i
  done;
  (!corrupt, Fail.injections inj, Fail.fingerprint inj)

let test_short_cluster_degrades () =
  let c1, i1, fp1 = short_cluster_run 77 in
  let c2, i2, fp2 = short_cluster_run 77 in
  Alcotest.(check int) "no corruption" 0 c1;
  Alcotest.(check int) "replay no corruption" 0 c2;
  Alcotest.(check bool) "short injection taken" true (i1 >= 1);
  Alcotest.(check int) "replay same injections" i1 i2;
  Alcotest.(check string) "fingerprint stable" fp1 fp2

(* Like [store_pager], but range requests gather consecutive per-page
   entries, so a successful cluster really returns multiple pages (and
   prefetch actually issues). *)
let range_store_pager sys ~ps () =
  let base = store_pager sys ~ps () in
  { base with
    Types.pgr_request =
      (fun ~offset ~length ->
         let n = max 1 (length / ps) in
         let rec gather i acc =
           if i >= n then List.rev acc
           else
             match base.Types.pgr_request ~offset:(offset + (i * ps)) ~length:ps with
             | Types.Data_provided (d, _) -> gather (i + 1) (d :: acc)
             | _ -> List.rev acc
         in
         match gather 0 [] with
         | [] -> base.Types.pgr_request ~offset ~length
         | chunks -> Types.Data_provided (List.concat chunks, Types.io_none)) }

(* A degraded cluster must not kill read-ahead for good: the successful
   single-page fallback still advances the sequence point, so the very
   next sequential fault clusters again.  Regression for the bug where
   the fallback skipped the window commit, making every later fault
   look random. *)
let test_degraded_cluster_resumes_ramp () =
  let machine, kernel, sys = boot ~frames:1024 () in
  let ps = sys.Vm_sys.page_size in
  let inj = Fail.create ~seed:3 in
  let task = new_task kernel in
  let requests = ref 0 in
  let pager = counted requests (range_store_pager sys ~ps ()) in
  let n = 8 in
  let addr =
    match Chaos_pager.map_wrapped sys task inj ~pager ~size:(n * ps) () with
    | Ok (a, _) -> a
    | Error e -> Alcotest.fail (Kr.to_string e)
  in
  let pat i = Printf.sprintf "resume-%02d" i in
  for i = 0 to n - 1 do
    Machine.write machine ~cpu:0 ~va:(addr + (i * ps))
      (Bytes.of_string (pat i))
  done;
  for _ = 1 to 6 do
    Vm_pageout.deactivate_some sys ~count:128;
    Vm_pageout.run sys ~wanted:128
  done;
  let check i =
    let got =
      Bytes.to_string
        (Machine.read machine ~cpu:0 ~va:(addr + (i * ps))
           ~len:(String.length (pat i)))
    in
    Alcotest.(check string) (Printf.sprintf "page %d" i) (pat i) got
  in
  let s = sys.Vm_sys.stats in
  (* Arm the sequential window, then fail exactly the cluster request
     that follows (one bad transfer, then the pager recovers). *)
  check 0;
  let k = !requests in
  Fail.attach inj ~site:"pager.request"
    [ Fail.After (k, Fail.Fail_n_then_recover (k + 1, Fail.Short 64)) ];
  let issued0 = s.Vm_stats.vs_prefetch_issued in
  check 1;
  Alcotest.(check int) "short cluster prefetched nothing" issued0
    s.Vm_stats.vs_prefetch_issued;
  (* Page 2 is sequential after the fallback: the ramp must resume. *)
  check 2;
  Alcotest.(check bool) "next sequential fault clusters again" true
    (s.Vm_stats.vs_prefetch_issued > issued0);
  for i = 3 to n - 1 do
    check i
  done

(* [plan] must not mutate the window before the range request succeeds:
   against a pager that refuses every multi-page request, each
   sequential fault asks for exactly the un-ramped two pages — under the
   old pre-commit the refused attempts would phantom-ramp 2→4→8 — and
   the committed window stays at 1. *)
let test_failed_cluster_does_not_ramp () =
  let machine, kernel, sys = boot ~frames:2048 () in
  let ps = sys.Vm_sys.page_size in
  let task = new_task kernel in
  let lengths = ref [] in
  let pager =
    {
      Types.pgr_id = Vm_sys.fresh_pager_id sys;
      pgr_name = "single-only";
      pgr_request =
        (fun ~offset ~length ->
           lengths := length :: !lengths;
           if length > ps then Types.Data_error
           else
             Types.Data_provided
               (Lent.of_bytes (Bytes.make ps (Char.chr (0x41 + (offset / ps)))),
                Types.io_none));
      pgr_write =
        (fun ~offset:_ ~data:_ -> Types.Write_completed);
      pgr_should_cache = ref false;
    }
  in
  let n = 8 in
  let inj = Fail.create ~seed:1 in
  (* Pass-through wrapper: no rules attached, just the mapping helper. *)
  let addr =
    match Chaos_pager.map_wrapped sys task inj ~pager ~size:(n * ps) () with
    | Ok (a, _) -> a
    | Error e -> Alcotest.fail (Kr.to_string e)
  in
  for i = 0 to n - 1 do
    let got = Machine.read machine ~cpu:0 ~va:(addr + (i * ps)) ~len:1 in
    Alcotest.(check char)
      (Printf.sprintf "page %d" i)
      (Char.chr (0x41 + i))
      (Bytes.get got 0)
  done;
  let clusters = List.filter (fun l -> l > ps) !lengths in
  Alcotest.(check bool) "clusters were attempted" true (clusters <> []);
  List.iter
    (fun l ->
       Alcotest.(check int) "attempt stayed at the un-ramped size" (2 * ps) l)
    clusters;
  match Vm_map.resolve_object_at sys (Task.map task) ~va:addr with
  | Some (o, _) ->
    Alcotest.(check bool) "stream slots exist" true
      (Array.length o.Types.obj_streams > 0);
    Array.iter
      (fun st ->
         Alcotest.(check int) "committed window is still 1" 1
           st.Types.st_window)
      o.Types.obj_streams
  | None -> Alcotest.fail "no object behind the mapping"

(* ---- per-page completion stamps ----------------------------------------- *)

(* A w = 8 cluster: the miss waits for the demand page alone — exactly
   one page's device time — and tail page [k] lands on its own stamp,
   the latency plus [k + 1] pages' transfer time after the request
   started.  Touching tail page [k] at once charges that stamp minus the
   clock, and nothing more. *)
let test_per_page_stamps () =
  let machine, _, sys = boot ~frames:2048 () in
  let tr = Mach_obs.Obs.create ~capacity:4096 () in
  Mach_obs.Obs.set_enabled tr true;
  Machine.set_tracer machine tr;
  let fs = Simfs.create machine () in
  let ps = sys.Vm_sys.page_size in
  Simfs.install_file fs ~name:"/stamps" ~data:(Bytes.make (16 * ps) 's');
  let obj =
    Vm_object.create_with_pager sys
      (Vnode_pager.for_file sys fs ~name:"/stamps")
      ~size:(16 * ps)
  in
  let miss page =
    match Vm_cluster.pagein sys obj ~offset:(page * ps) ~limit:max_int with
    | `Data (_, bytes) -> bytes
    | `Absent | `Error -> Alcotest.fail "pagein failed"
  in
  (* Misses at pages 0, 1 and 3 ramp the window 1, 2, 4; the miss at
     page 7 asks for pages 7-14. *)
  List.iter (fun page -> ignore (miss page)) [ 0; 1; 3 ];
  let disk_wait () =
    Mach_obs.Obs.attr_total tr ~cpu:0 Mach_obs.Obs.Disk_wait
  in
  let before = disk_wait () in
  Alcotest.(check int) "one request for 8 pages" (8 * ps) (miss 7);
  let submitted = ref [] in
  Mach_obs.Ring.iter
    (fun (r : Mach_obs.Obs.record) ->
       match r.Mach_obs.Obs.ev with
       | Mach_obs.Obs.Disk_submit { bytes; latency; _ } when bytes = 8 * ps ->
         submitted := (r.Mach_obs.Obs.ts, latency) :: !submitted
       | _ -> ())
    (Mach_obs.Obs.ring tr);
  let start, service =
    match !submitted with
    | [ submit ] -> submit
    | _ -> Alcotest.fail "expected one 8-page disk request"
  in
  (* The fixed latency, then each page's transfer in turn. *)
  let cost = (Machine.arch machine).Arch.cost in
  let per_page = (service - cost.Arch.disk_latency) / 8 in
  Alcotest.(check int) "the demand page waits one page's device time"
    (cost.Arch.disk_latency + per_page)
    (disk_wait () - before);
  let stamp k = start + cost.Arch.disk_latency + ((k + 1) * per_page) in
  let tail k =
    match Vm_object.lookup_resident sys obj ~offset:((7 + k) * ps) with
    | Some p -> p
    | None -> Alcotest.fail (Printf.sprintf "tail page %d missing" k)
  in
  for k = 1 to 7 do
    match (tail k).Types.pg_inflight with
    | Some r ->
      Alcotest.(check bool) (Printf.sprintf "tail page %d stamp" k) true
        (r.Types.if_stamp = Machine.stamp machine (stamp k))
    | None -> Alcotest.fail (Printf.sprintf "tail page %d not in flight" k)
  done;
  let k = 3 in
  let clock = Machine.cycles machine ~cpu:0 in
  Vm_cluster.note_hit sys (tail k);
  Alcotest.(check int) "touching tail page 3 charges its own residue"
    (stamp k - clock)
    (Machine.cycles machine ~cpu:0 - clock);
  Alcotest.(check bool) "and lands it" true
    (Option.is_none (tail k).Types.pg_inflight && not (tail k).Types.pg_busy)

(* ---- map-hint fast path for range operations ----------------------------- *)

(* With 64 one-page entries, a range op far from the hint walks the map;
   the same op with the hint parked on the target must examine only a
   handful of nodes.  Regression guard for the [first_node_beyond] hint
   start. *)
let test_hint_accelerates_range_ops () =
  let machine, kernel, sys = boot ~frames:2048 () in
  let task = new_task kernel in
  let m = Task.map task in
  let ps = sys.Vm_sys.page_size in
  let addrs =
    List.init 64 (fun _ ->
        ok (Vm_user.allocate sys task ~size:ps ~anywhere:true ()))
  in
  let first = List.hd addrs in
  let last = List.nth addrs 63 in
  (* Park the hint at the far end, then operate on the last entry. *)
  Machine.touch machine ~cpu:0 ~va:first ~write:true;
  sys.Vm_sys.map_scan_steps <- 0;
  ok
    (Vm_map.protect sys m ~addr:last ~size:ps ~set_max:false
       ~prot:Prot.read_only);
  let cold = sys.Vm_sys.map_scan_steps in
  (* Park the hint on the target: same operation, few steps. *)
  Machine.touch machine ~cpu:0 ~va:last ~write:false;
  sys.Vm_sys.map_scan_steps <- 0;
  ok
    (Vm_map.protect sys m ~addr:last ~size:ps ~set_max:false
       ~prot:Prot.read_write);
  let warm = sys.Vm_sys.map_scan_steps in
  Alcotest.(check bool)
    (Printf.sprintf "cold scan walks the map (%d)" cold)
    true (cold >= 32);
  Alcotest.(check bool)
    (Printf.sprintf "warm scan starts at the hint (%d)" warm)
    true (warm <= 8)

(* ---- qcheck: read-ahead is invisible to read() ---------------------------- *)

(* Two configurations: a 16-page file in plenty of memory, and a
   64-page file in 32 pages of memory, where the sequential pass must
   still read whole clusters — at most one pager request per two pages,
   with prefetch issued — by reclaiming for its window.  The auditor runs
   after every read. *)
let read_ahead_transparent =
  let open QCheck2 in
  Test.make ~name:"read-ahead run byte-identical to cluster_max=1"
    ~count:40
    Gen.(
      list_size (int_range 1 16)
        (pair (int_range 0 ((16 * 4096) - 1)) (int_range 1 (3 * 4096))))
    (fun ops ->
       let run ~frames ~pages w =
         let machine =
           Machine.create ~arch:Arch.uvax2 ~memory_frames:frames ()
         in
         let kernel = Kernel.create ~page_multiple:8 machine in
         let sys = Kernel.sys kernel in
         sys.Vm_sys.cluster_max <- w;
         let fs = Simfs.create machine () in
         let size = pages * sys.Vm_sys.page_size in
         let data = Bytes.init size (fun i -> Char.chr (i * 7 land 0xff)) in
         Simfs.install_file fs ~name:"/prop" ~data;
         let read (off, len) =
           let got =
             Bytes.to_string
               (Vnode_pager.read_through_object sys fs ~name:"/prop"
                  ~offset:off ~len)
           in
           Vm_debug.assert_ok sys ~maps:[];
           got
         in
         (* Always start with a sequential pass, a page per read, so the
            window ramps and the auditor sees tail pages in flight. *)
         let ps = sys.Vm_sys.page_size in
         let pass =
           String.concat "" (List.init pages (fun i -> read (i * ps, ps)))
         in
         let s = sys.Vm_sys.stats in
         let reads = s.Vm_stats.vs_pager_reads in
         let prefetched = s.Vm_stats.vs_prefetch_issued in
         (pass :: List.map read ops, reads, prefetched)
       in
       let roomy w = run ~frames:2048 ~pages:16 w in
       (* 256 x 512 B hardware frames = 32 system pages. *)
       let tight w = run ~frames:256 ~pages:64 w in
       let roomy8, _, _ = roomy 8 and roomy1, _, _ = roomy 1 in
       let tight8, reads, prefetched = tight 8 and tight1, _, _ = tight 1 in
       roomy8 = roomy1 && tight8 = tight1 && 2 * reads <= 64 && prefetched > 0)

(* Free-behind must be invisible to data even when the file dwarfs
   memory: random reads over a file ~4x physical memory, with the
   pageout daemon reclaiming all the while, return the file's own bytes
   — free-behind only reorders the inactive queue, and only with clean
   pages whose contents the pager can reproduce. *)
let free_behind_transparent =
  let open QCheck2 in
  Test.make ~name:"free-behind run byte-identical to the file's bytes"
    ~count:25
    Gen.(
      list_size (int_range 1 10)
        (pair (int_range 0 ((256 * 4096) - 1)) (int_range 1 (4 * 4096))))
    (fun ops ->
       let machine =
         (* 512 x 512 B hardware frames = 64 system pages; the file
            below is 256 pages. *)
         Machine.create ~arch:Arch.uvax2 ~memory_frames:512 ()
       in
       let kernel = Kernel.create ~page_multiple:8 machine in
       let sys = Kernel.sys kernel in
       let fs = Simfs.create machine () in
       let size = 256 * sys.Vm_sys.page_size in
       let data = Bytes.init size (fun i -> Char.chr (i * 31 land 0xff)) in
       Simfs.install_file fs ~name:"/fbprop" ~data;
       (* A long sequential pass ramps a stream and lets free-behind eat
          its wake; then the random mix. *)
       List.for_all
         (fun (off, len) ->
            let got =
              Vnode_pager.read_through_object sys fs ~name:"/fbprop"
                ~offset:off ~len
            in
            Bytes.equal got (Bytes.sub data off (Bytes.length got)))
         ((0, size) :: ops)
       && sys.Vm_sys.stats.Vm_stats.vs_free_behind_pages > 0)

(* With ample memory the daemon never runs, so the only thing that can
   put a page of the mapped object on the inactive queue is read-ahead
   or free-behind — and neither may ever park a dirty or wired page
   there.  A page CAN become dirty *after* free-behind demoted it clean
   (its writable mapping is still live, so the write never faults), so
   the invariant exempts pages the workload wrote: every other inactive
   page must be clean, every inactive page unwired, and the memory
   image must equal the file's bytes ([Machine.touch ~write] writes
   back the byte it read). *)
let free_behind_never_eats_dirty =
  let open QCheck2 in
  Test.make ~name:"free-behind never deactivates a dirty or wired page"
    ~count:30
    Gen.(list_size (int_range 1 40) (pair (int_range 0 31) bool))
    (fun ops ->
       let n = 32 in
       let written =
         List.filter_map (fun (p, w) -> if w then Some p else None) ops
       in
       let machine, kernel, sys = boot ~frames:4096 () in
       let fs = Simfs.create machine () in
       let ps = sys.Vm_sys.page_size in
       let data = Bytes.init (n * ps) (fun i -> Char.chr (i * 7 land 0xff)) in
       Simfs.install_file fs ~name:"/fbdirty" ~data;
       let task = new_task kernel in
       let addr =
         match Vnode_pager.map_file sys fs task ~name:"/fbdirty" () with
         | Ok (a, _) -> a
         | Error e -> Alcotest.fail (Kr.to_string e)
       in
       (* Sequential sweep to ramp, then the random read/write mix. *)
       for i = 0 to n - 1 do
         Machine.touch machine ~cpu:0 ~va:(addr + (i * ps)) ~write:false
       done;
       List.iter
         (fun (page, write) ->
            Machine.touch machine ~cpu:0 ~va:(addr + (page * ps)) ~write)
         ops;
       let image = Machine.read machine ~cpu:0 ~va:addr ~len:(n * ps) in
       let clean =
         match Vm_map.resolve_object_at sys (Task.map task) ~va:addr with
         | None -> false
         | Some (o, _) ->
           let m = Mach_pmap.Pmap_domain.page_multiple kernel.Kernel.domain in
           List.for_all
             (fun p ->
                p.Types.pg_queue <> Types.Q_inactive
                || (p.Types.pg_wire_count = 0
                    && (List.mem (p.Types.pg_offset / ps) written
                        || not
                             (List.exists
                                (fun f ->
                                   Mach_pmap.Pmap_domain.is_modified
                                     kernel.Kernel.domain
                                     ~pfn:(p.Types.pfn + f))
                                (List.init m Fun.id)))))
             (Resident.object_pages o)
       in
       clean && Bytes.equal image data)

let () =
  Alcotest.run "cluster"
    [ ( "read-ahead",
        [ Alcotest.test_case "window ramp" `Quick test_window_ramp;
          Alcotest.test_case "random access" `Quick
            test_random_keeps_window_shut;
          Alcotest.test_case "per-page stamps" `Quick test_per_page_stamps ] );
      ( "streams",
        [ Alcotest.test_case "two readers both ramp" `Quick
            test_two_readers_both_ramp;
          Alcotest.test_case "slot exhaustion" `Quick test_slot_exhaustion;
          Alcotest.test_case "slot audit" `Quick test_slot_audit;
          Alcotest.test_case "a clock reset expires every slot" `Quick
            test_slot_expires_on_reset;
          Alcotest.test_case "free-behind skips dirty pages" `Quick
            test_free_behind_skips_dirty ] );
      ( "pageout",
        [ Alcotest.test_case "clustered round trip" `Quick
            test_clustered_pageout_roundtrip ] );
      ( "pager-less",
        [ Alcotest.test_case "shadow chain gets no slots" `Quick
            test_pagerless_chain_has_no_slots;
          Alcotest.test_case "paged-out anonymous reads its pager" `Quick
            test_paged_out_anonymous_reads_its_pager ] );
      ( "degrade",
        [ Alcotest.test_case "short cluster" `Quick
            test_short_cluster_degrades;
          Alcotest.test_case "fallback resumes the ramp" `Quick
            test_degraded_cluster_resumes_ramp;
          Alcotest.test_case "failed cluster does not ramp" `Quick
            test_failed_cluster_does_not_ramp ] );
      ( "map-hint",
        [ Alcotest.test_case "range ops start at the hint" `Quick
            test_hint_accelerates_range_ops ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ read_ahead_transparent; free_behind_transparent;
            free_behind_never_eats_dirty ] ) ]

(* Tests for Vm_object and Resident: reference counting, the object
   cache, shadow chains and collapsing, and the resident page table's
   queues and hash. *)

open Mach_hw
open Mach_core

let ps = 4096

let setup () =
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:2048 () in
  let kernel = Kernel.create ~page_multiple:8 machine in
  (machine, kernel, Kernel.sys kernel)

(* A pager over a Hashtbl, counting requests. *)
let counting_pager sys ~name =
  let requests = ref 0 in
  let store : (int, Bytes.t) Hashtbl.t = Hashtbl.create 8 in
  let pager =
    {
      Types.pgr_id = Vm_sys.fresh_pager_id sys;
      pgr_name = name;
      pgr_request =
        (fun ~offset ~length ->
           incr requests;
           match Hashtbl.find_opt store offset with
           | Some b ->
             Types.Data_provided
               (Lent.truncate (Lent.of_bytes b) length, Types.io_none)
           | None -> Types.Data_unavailable);
      pgr_write =
        (fun ~offset ~data ->
           (* Per-offset store: clustered writes must land as page-size
              chunks or later single-page reads would miss the tail. *)
           let ps = sys.Vm_sys.page_size in
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
      pgr_should_cache = ref true;
    }
  in
  (pager, store, requests)

(* ---- resident page table ------------------------------------------------ *)

let test_resident_alloc_free () =
  let _, _, sys = setup () in
  let res = sys.Vm_sys.resident in
  let total = Resident.total_pages res in
  Alcotest.(check int) "all free initially" total (Resident.free_count res);
  let p = Option.get (Resident.alloc res) in
  Alcotest.(check int) "one taken" (total - 1) (Resident.free_count res);
  Resident.free_page res p;
  Alcotest.(check int) "back" total (Resident.free_count res)

let test_resident_hash_lookup () =
  let _, _, sys = setup () in
  let res = sys.Vm_sys.resident in
  let o = Vm_object.create_anonymous sys ~size:(4 * ps) in
  let p = Option.get (Resident.alloc res) in
  Resident.insert res p ~obj:o ~offset:ps;
  let same_page expected found =
    match found with Some q -> q == expected | None -> false
  in
  Alcotest.(check bool) "found" true
    (same_page p (Resident.lookup res ~obj:o ~offset:ps));
  Alcotest.(check bool) "other offset absent" true
    (Resident.lookup res ~obj:o ~offset:0 = None);
  Resident.remove_from_object res p;
  Alcotest.(check bool) "gone after remove" true
    (Resident.lookup res ~obj:o ~offset:ps = None);
  Resident.free_page res p

let test_resident_queues () =
  let _, _, sys = setup () in
  let res = sys.Vm_sys.resident in
  let p = Option.get (Resident.alloc res) in
  Resident.enqueue res p Types.Q_active;
  Alcotest.(check int) "active" 1 (Resident.active_count res);
  Resident.enqueue res p Types.Q_inactive;
  Alcotest.(check int) "moved" 0 (Resident.active_count res);
  Alcotest.(check int) "inactive" 1 (Resident.inactive_count res);
  (match Resident.take_inactive res with
   | Some q -> Alcotest.(check bool) "same page" true (q == p)
   | None -> Alcotest.fail "expected a page");
  Alcotest.(check int) "empty" 0 (Resident.inactive_count res);
  Resident.free_page res p

let test_resident_page_multiple () =
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:64 () in
  (* 64 frames of 512 bytes in pages of 4 frames = 16 pages of 2 KB. *)
  let res =
    Resident.create ~machine ~stats:(Vm_stats.zero ()) ~multiple:4 ()
  in
  Alcotest.(check int) "page size" 2048 (Resident.page_size res);
  Alcotest.(check int) "pages" 16 (Resident.total_pages res);
  let p = Option.get (Resident.alloc res) in
  Alcotest.(check int) "aligned frame group" 0 (p.Types.pfn mod 4)

let test_resident_respects_holes () =
  let machine =
    Machine.create ~arch:Arch.sun3_160 ~memory_frames:32
      ~holes:[ (10, 19) ] ()
  in
  let res =
    Resident.create ~machine ~stats:(Vm_stats.zero ()) ~multiple:1 ()
  in
  Alcotest.(check int) "holes excluded" 22 (Resident.total_pages res)

(* ---- objects and the cache ---------------------------------------------- *)

let test_object_refcounting () =
  let _, _, sys = setup () in
  let o = Vm_object.create_anonymous sys ~size:ps in
  Alcotest.(check int) "initial" 1 o.Types.obj_ref;
  Vm_object.reference o;
  Alcotest.(check int) "incremented" 2 o.Types.obj_ref;
  Vm_object.deallocate sys o;
  Alcotest.(check bool) "still alive" false o.Types.obj_dead;
  Vm_object.deallocate sys o;
  Alcotest.(check bool) "terminated" true o.Types.obj_dead

let test_object_termination_frees_pages () =
  let _, _, sys = setup () in
  let res = sys.Vm_sys.resident in
  let free0 = Resident.free_count res in
  let o = Vm_object.create_anonymous sys ~size:(4 * ps) in
  let p = Option.get (Resident.alloc res) in
  Resident.insert res p ~obj:o ~offset:0;
  Alcotest.(check int) "page held" (free0 - 1) (Resident.free_count res);
  Vm_object.deallocate sys o;
  Alcotest.(check int) "page freed" free0 (Resident.free_count res)

let test_object_cache_revive () =
  let _, _, sys = setup () in
  let pager, _, requests = counting_pager sys ~name:"cached" in
  let o1 = Vm_object.create_with_pager sys pager ~size:(2 * ps) in
  (* Give it a resident page so revival is observable. *)
  let p = Vm_sys.grab_page sys in
  Resident.insert sys.Vm_sys.resident p ~obj:o1 ~offset:0;
  Vm_object.deallocate sys o1;
  Alcotest.(check bool) "cached, not dead" false o1.Types.obj_dead;
  Alcotest.(check int) "in cache" 1 (List.length sys.Vm_sys.object_cache);
  let o2 = Vm_object.create_with_pager sys pager ~size:(2 * ps) in
  Alcotest.(check bool) "same object revived" true (o1 == o2);
  Alcotest.(check int) "cache hit counted"
    1 sys.Vm_sys.stats.Vm_stats.vs_object_cache_hits;
  Alcotest.(check bool) "page kept" true
    (Vm_object.lookup_resident sys o2 ~offset:0 <> None);
  Alcotest.(check int) "no pager traffic" 0 !requests;
  Vm_object.deallocate sys o2

let test_object_cache_disabled () =
  let _, _, sys = setup () in
  sys.Vm_sys.cache_enabled <- false;
  let pager, _, _ = counting_pager sys ~name:"uncached" in
  let o = Vm_object.create_with_pager sys pager ~size:ps in
  Vm_object.deallocate sys o;
  Alcotest.(check bool) "terminated immediately" true o.Types.obj_dead;
  Alcotest.(check int) "cache empty" 0 (List.length sys.Vm_sys.object_cache)

let test_object_cache_lru_eviction () =
  let _, _, sys = setup () in
  let limit = sys.Vm_sys.object_cache_limit in
  let objects =
    List.init (limit + 1) (fun i ->
        let pager, _, _ =
          counting_pager sys ~name:(Printf.sprintf "file%d" i)
        in
        Vm_object.create_with_pager sys pager ~size:ps)
  in
  List.iter (Vm_object.deallocate sys) objects;
  Alcotest.(check int) "bounded" limit (List.length sys.Vm_sys.object_cache);
  Alcotest.(check bool) "oldest evicted" true (List.hd objects).Types.obj_dead;
  Alcotest.(check bool) "newest kept" false
    (List.nth objects limit).Types.obj_dead;
  Alcotest.(check int) "only the oldest evicted" 1
    (List.length (List.filter (fun o -> o.Types.obj_dead) objects))

let test_live_object_shared_not_cached () =
  let _, _, sys = setup () in
  let pager, _, _ = counting_pager sys ~name:"live" in
  let o1 = Vm_object.create_with_pager sys pager ~size:ps in
  let o2 = Vm_object.create_with_pager sys pager ~size:ps in
  Alcotest.(check bool) "same live object" true (o1 == o2);
  Alcotest.(check int) "two references" 2 o1.Types.obj_ref;
  Vm_object.deallocate sys o1;
  Vm_object.deallocate sys o2

let test_drain_cache () =
  let _, _, sys = setup () in
  let pager, _, _ = counting_pager sys ~name:"drained" in
  let o = Vm_object.create_with_pager sys pager ~size:ps in
  Vm_object.deallocate sys o;
  Alcotest.(check int) "cached" 1 (List.length sys.Vm_sys.object_cache);
  Vm_object.drain_cache sys;
  Alcotest.(check int) "empty" 0 (List.length sys.Vm_sys.object_cache);
  Alcotest.(check bool) "terminated" true o.Types.obj_dead

(* ---- shadows and chains -------------------------------------------------- *)

let test_shadow_geometry () =
  let _, _, sys = setup () in
  let bottom = Vm_object.create_anonymous sys ~size:(8 * ps) in
  let s = Vm_object.shadow sys bottom ~offset:(2 * ps) ~size:(4 * ps) in
  Alcotest.(check int) "chain" 2 (Vm_object.chain_length s);
  (* A page resident at bottom offset 3*ps is found at shadow offset ps. *)
  let p = Vm_sys.grab_page sys in
  Resident.insert sys.Vm_sys.resident p ~obj:bottom ~offset:(3 * ps);
  (match Vm_object.chain_lookup sys s ~offset:ps with
   | `Found (owner, q, off) ->
     Alcotest.(check bool) "in bottom" true (owner == bottom);
     Alcotest.(check bool) "same page" true (q == p);
     Alcotest.(check int) "offset translated" (3 * ps) off
   | `Absent _ -> Alcotest.fail "expected found");
  (* Outside the resident page the chain bottoms out. *)
  (match Vm_object.chain_lookup sys s ~offset:0 with
   | `Absent (b, off) ->
     Alcotest.(check bool) "bottom object" true (b == bottom);
     Alcotest.(check int) "offset" (2 * ps) off
   | `Found _ -> Alcotest.fail "expected absent")

let test_shadow_page_obscures () =
  let _, _, sys = setup () in
  let bottom = Vm_object.create_anonymous sys ~size:(2 * ps) in
  let s = Vm_object.shadow sys bottom ~offset:0 ~size:(2 * ps) in
  let pb = Vm_sys.grab_page sys in
  Resident.insert sys.Vm_sys.resident pb ~obj:bottom ~offset:0;
  let pt = Vm_sys.grab_page sys in
  Resident.insert sys.Vm_sys.resident pt ~obj:s ~offset:0;
  (match Vm_object.chain_lookup sys s ~offset:0 with
   | `Found (owner, q, _) ->
     Alcotest.(check bool) "shadow wins" true (owner == s && q == pt)
   | `Absent _ -> Alcotest.fail "expected found")

let test_collapse_merges_single_ref () =
  let _, _, sys = setup () in
  let bottom = Vm_object.create_anonymous sys ~size:(2 * ps) in
  let s = Vm_object.shadow sys bottom ~offset:0 ~size:(2 * ps) in
  (* bottom page at offset ps is visible through s; bottom page at 0 is
     obscured by s's own page. *)
  let hidden = Vm_sys.grab_page sys in
  Resident.insert sys.Vm_sys.resident hidden ~obj:bottom ~offset:0;
  let visible = Vm_sys.grab_page sys in
  Resident.insert sys.Vm_sys.resident visible ~obj:bottom ~offset:ps;
  let own = Vm_sys.grab_page sys in
  Resident.insert sys.Vm_sys.resident own ~obj:s ~offset:0;
  let free0 = Resident.free_count sys.Vm_sys.resident in
  Vm_object.collapse sys s;
  Alcotest.(check int) "chain collapsed" 1 (Vm_object.chain_length s);
  Alcotest.(check bool) "bottom dead" true bottom.Types.obj_dead;
  (* The visible page moved up; the hidden one was freed. *)
  let same_page expected found =
    match found with Some q -> q == expected | None -> false
  in
  Alcotest.(check bool) "visible moved" true
    (same_page visible (Vm_object.lookup_resident sys s ~offset:ps));
  Alcotest.(check bool) "own page kept" true
    (same_page own (Vm_object.lookup_resident sys s ~offset:0));
  Alcotest.(check int) "hidden freed" (free0 + 1)
    (Resident.free_count sys.Vm_sys.resident);
  Alcotest.(check int) "collapse counted"
    1 sys.Vm_sys.stats.Vm_stats.vs_collapses

let test_collapse_blocked_by_sharing () =
  let _, _, sys = setup () in
  let bottom = Vm_object.create_anonymous sys ~size:ps in
  Vm_object.reference bottom; (* someone else holds it *)
  let s = Vm_object.shadow sys bottom ~offset:0 ~size:ps in
  Vm_object.collapse sys s;
  Alcotest.(check int) "not collapsed" 2 (Vm_object.chain_length s);
  Alcotest.(check bool) "bottom alive" false bottom.Types.obj_dead

let test_collapse_blocked_by_pager () =
  let _, _, sys = setup () in
  let pager, _, _ = counting_pager sys ~name:"perm" in
  let bottom = Vm_object.create_with_pager sys pager ~size:ps in
  let s = Vm_object.shadow sys bottom ~offset:0 ~size:ps in
  Vm_object.collapse sys s;
  Alcotest.(check int) "pager-backed never merges" 2
    (Vm_object.chain_length s)

let test_collapse_walks_past_blocked_level () =
  let _, _, sys = setup () in
  (* top -> mid (shared) -> deep -> bottom; deep and bottom have single
     references, so they merge even though mid is blocked. *)
  let bottom = Vm_object.create_anonymous sys ~size:ps in
  let deep = Vm_object.shadow sys bottom ~offset:0 ~size:ps in
  let mid = Vm_object.shadow sys deep ~offset:0 ~size:ps in
  Vm_object.reference mid;
  let top = Vm_object.shadow sys mid ~offset:0 ~size:ps in
  Alcotest.(check int) "chain of four" 4 (Vm_object.chain_length top);
  Vm_object.collapse sys top;
  Alcotest.(check int) "tail merged below the shared level" 2
    (Vm_object.chain_length top)

let test_collapse_disabled () =
  let _, _, sys = setup () in
  sys.Vm_sys.collapse_enabled <- false;
  let bottom = Vm_object.create_anonymous sys ~size:ps in
  let s = Vm_object.shadow sys bottom ~offset:0 ~size:ps in
  Vm_object.collapse sys s;
  Alcotest.(check int) "ablation: untouched" 2 (Vm_object.chain_length s)

let test_terminate_releases_chain () =
  let _, _, sys = setup () in
  let bottom = Vm_object.create_anonymous sys ~size:ps in
  let s = Vm_object.shadow sys bottom ~offset:0 ~size:ps in
  Vm_object.deallocate sys s;
  Alcotest.(check bool) "shadow dead" true s.Types.obj_dead;
  Alcotest.(check bool) "bottom dead too" true bottom.Types.obj_dead

let () =
  Alcotest.run "vm_object"
    [ ( "resident",
        [ Alcotest.test_case "alloc/free" `Quick test_resident_alloc_free;
          Alcotest.test_case "hash lookup" `Quick test_resident_hash_lookup;
          Alcotest.test_case "queues" `Quick test_resident_queues;
          Alcotest.test_case "page multiple" `Quick
            test_resident_page_multiple;
          Alcotest.test_case "respects holes" `Quick
            test_resident_respects_holes ] );
      ( "objects",
        [ Alcotest.test_case "refcounting" `Quick test_object_refcounting;
          Alcotest.test_case "termination frees pages" `Quick
            test_object_termination_frees_pages;
          Alcotest.test_case "live object shared" `Quick
            test_live_object_shared_not_cached ] );
      ( "cache",
        [ Alcotest.test_case "revive" `Quick test_object_cache_revive;
          Alcotest.test_case "disabled" `Quick test_object_cache_disabled;
          Alcotest.test_case "LRU eviction" `Quick
            test_object_cache_lru_eviction;
          Alcotest.test_case "drain" `Quick test_drain_cache ] );
      ( "shadows",
        [ Alcotest.test_case "geometry" `Quick test_shadow_geometry;
          Alcotest.test_case "page obscures" `Quick
            test_shadow_page_obscures;
          Alcotest.test_case "collapse merges" `Quick
            test_collapse_merges_single_ref;
          Alcotest.test_case "blocked by sharing" `Quick
            test_collapse_blocked_by_sharing;
          Alcotest.test_case "blocked by pager" `Quick
            test_collapse_blocked_by_pager;
          Alcotest.test_case "walks past blocked level" `Quick
            test_collapse_walks_past_blocked_level;
          Alcotest.test_case "ablation switch" `Quick test_collapse_disabled;
          Alcotest.test_case "terminate releases chain" `Quick
            test_terminate_releases_chain ] ) ]

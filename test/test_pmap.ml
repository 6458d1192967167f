(* Tests for the machine-dependent pmap layer: the Table 3-3 contract
   across all five architectures, the pmap-as-cache property, and the
   architecture-specific behaviours of Section 5.1. *)

open Mach_hw
open Mach_pmap

let archs =
  [ Arch.uvax2; Arch.rt_pc; Arch.sun3_160; Arch.ns32082; Arch.rp3_tlb ]

let setup ?page_multiple ?(frames = 256) arch =
  let machine = Machine.create ~arch ~memory_frames:frames ~cpus:2 () in
  let domain = Pmap_domain.create ?page_multiple machine in
  (machine, domain)

let page arch = arch.Arch.hw_page_size

(* Run [f] once per architecture, as separate alcotest cases. *)
let per_arch name f =
  List.map
    (fun arch ->
       Alcotest.test_case
         (Printf.sprintf "%s [%s]" name arch.Arch.name)
         `Quick
         (fun () -> f arch))
    archs

(* ---- the common Table 3-3 contract ------------------------------------- *)

let test_enter_extract arch =
  let _m, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  let ps = page arch in
  p.Pmap.enter ~va:(3 * ps) ~pfn:7 ~prot:Prot.read_write ~wired:false;
  Alcotest.(check (option int)) "extract" (Some 7) (p.Pmap.extract (3 * ps));
  Alcotest.(check (option int)) "extract mid-page" (Some 7)
    (p.Pmap.extract ((3 * ps) + (ps / 2)));
  Alcotest.(check (option int)) "unmapped" None (p.Pmap.extract (9 * ps));
  Alcotest.(check int) "resident" 1 (p.Pmap.resident_count ())

let test_remove_range arch =
  let _m, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  let ps = page arch in
  for i = 0 to 9 do
    p.Pmap.enter ~va:(i * ps) ~pfn:(10 + i) ~prot:Prot.read_write
      ~wired:false
  done;
  p.Pmap.remove ~start_va:(2 * ps) ~end_va:(5 * ps);
  Alcotest.(check (option int)) "below kept" (Some 11) (p.Pmap.extract ps);
  Alcotest.(check (option int)) "removed" None (p.Pmap.extract (3 * ps));
  Alcotest.(check (option int)) "above kept" (Some 15)
    (p.Pmap.extract (5 * ps));
  Alcotest.(check int) "resident" 7 (p.Pmap.resident_count ())

let test_replace_mapping arch =
  let _m, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  p.Pmap.enter ~va:0 ~pfn:1 ~prot:Prot.read_write ~wired:false;
  p.Pmap.enter ~va:0 ~pfn:2 ~prot:Prot.read_only ~wired:false;
  Alcotest.(check (option int)) "replaced" (Some 2) (p.Pmap.extract 0);
  Alcotest.(check int) "one mapping" 1 (p.Pmap.resident_count ());
  (* The pv layer tracks the replacement too. *)
  Alcotest.(check int) "old frame unmapped" 0
    (Pmap_domain.mapping_count domain ~pfn:1);
  Alcotest.(check int) "new frame mapped" 1
    (Pmap_domain.mapping_count domain ~pfn:2)

let test_destroy_clears_pv arch =
  let _m, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  let ps = page arch in
  p.Pmap.enter ~va:0 ~pfn:5 ~prot:Prot.read_write ~wired:false;
  p.Pmap.enter ~va:ps ~pfn:6 ~prot:Prot.read_write ~wired:false;
  p.Pmap.destroy ();
  Alcotest.(check int) "pv empty 5" 0 (Pmap_domain.mapping_count domain ~pfn:5);
  Alcotest.(check int) "pv empty 6" 0 (Pmap_domain.mapping_count domain ~pfn:6);
  Alcotest.(check bool) "unregistered" true
    (Pmap_domain.find_pmap domain ~asid:p.Pmap.asid = None)

let test_remove_all arch =
  let _m, domain = setup arch in
  let p1 = Pmap_domain.create_pmap domain in
  let p2 = Pmap_domain.create_pmap domain in
  let ps = page arch in
  (* On the RT PC two pmaps cannot both map frame 9 (one mapping per
     physical page), so only p1 maps there and the common contract is
     checked: remove_all empties the pv list. *)
  p1.Pmap.enter ~va:0 ~pfn:9 ~prot:Prot.read_write ~wired:false;
  if arch.Arch.kind <> Arch.Rt_pc then
    p2.Pmap.enter ~va:(4 * ps) ~pfn:9 ~prot:Prot.read_write ~wired:false;
  Alcotest.(check bool) "mapped" true
    (Pmap_domain.mapping_count domain ~pfn:9 >= 1);
  Pmap_domain.remove_all domain ~pfn:9 ~urgent:true;
  Alcotest.(check int) "all gone" 0 (Pmap_domain.mapping_count domain ~pfn:9);
  Alcotest.(check (option int)) "p1 dropped" None (p1.Pmap.extract 0);
  Alcotest.(check (option int)) "p2 dropped" None (p2.Pmap.extract (4 * ps))

let test_protect_lowers arch =
  let machine, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  let ps = page arch in
  p.Pmap.activate ~cpu:0;
  p.Pmap.enter ~va:0 ~pfn:3 ~prot:Prot.read_write ~wired:false;
  (* The handler reloads dropped mappings at the currently intended
     protection (the fast-reload path on TLB-only machines) and records
     genuine protection faults. *)
  let cur_prot = ref Prot.read_write in
  let prot_faults = ref 0 in
  Machine.set_fault_handler machine (fun ~cpu:_ f ->
      (match f.Machine.fault_kind with
       | `Protection -> incr prot_faults
       | `Invalid -> ());
      p.Pmap.enter ~va:0 ~pfn:3 ~prot:!cur_prot ~wired:false);
  ignore (Machine.read_byte machine ~cpu:0 ~va:0);
  Machine.write_byte machine ~cpu:0 ~va:0 'x';
  Alcotest.(check int) "no protection faults before" 0 !prot_faults;
  p.Pmap.protect ~start_va:0 ~end_va:ps ~prot:Prot.read_only;
  cur_prot := Prot.read_only;
  (* Reads still work; a write now protection-faults. *)
  ignore (Machine.read_byte machine ~cpu:0 ~va:0);
  Alcotest.(check int) "read needs no protection fault" 0 !prot_faults;
  cur_prot := Prot.read_write;
  Machine.write_byte machine ~cpu:0 ~va:0 'y';
  Alcotest.(check bool) "write faulted after protect" true (!prot_faults >= 1)

let test_copy_on_write_all_maps arch =
  let machine, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  p.Pmap.enter ~va:0 ~pfn:3 ~prot:Prot.read_write ~wired:false;
  p.Pmap.activate ~cpu:0;
  Pmap_domain.copy_on_write domain ~pfn:3;
  let faulted = ref false in
  Machine.set_fault_handler machine (fun ~cpu:_ _ ->
      faulted := true;
      p.Pmap.enter ~va:0 ~pfn:3 ~prot:Prot.read_write ~wired:false);
  Machine.write_byte machine ~cpu:0 ~va:0 'y';
  Alcotest.(check bool) "write faulted after pmap_copy_on_write" true
    !faulted

(* The central property: a pmap may drop any non-wired mapping at any
   time, because machine-independent state can rebuild it at fault time.
   Here the rebuild is simulated by a fault handler that re-enters from a
   model table; memory contents must be unaffected. *)
let test_pmap_is_a_cache arch =
  let machine, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  let ps = page arch in
  let model = Hashtbl.create 16 in
  for i = 0 to 7 do
    Hashtbl.replace model i (20 + i);
    p.Pmap.enter ~va:(i * ps) ~pfn:(20 + i) ~prot:Prot.read_write
      ~wired:false
  done;
  p.Pmap.activate ~cpu:0;
  Machine.set_fault_handler machine (fun ~cpu:_ f ->
      let vpn = f.Machine.fault_va / ps in
      match Hashtbl.find_opt model vpn with
      | Some pfn ->
        p.Pmap.enter ~va:(vpn * ps) ~pfn ~prot:Prot.read_write ~wired:false
      | None -> Alcotest.fail "fault outside model");
  for i = 0 to 7 do
    Machine.write machine ~cpu:0 ~va:(i * ps)
      (Bytes.of_string (Printf.sprintf "page%03d" i))
  done;
  (* Drop everything, then observe identical contents. *)
  p.Pmap.collect ();
  Alcotest.(check int) "all dropped" 0 (p.Pmap.resident_count ());
  for i = 0 to 7 do
    Alcotest.(check string)
      (Printf.sprintf "contents %d" i)
      (Printf.sprintf "page%03d" i)
      (Bytes.to_string (Machine.read machine ~cpu:0 ~va:(i * ps) ~len:7))
  done;
  Alcotest.(check bool) "drops counted" true
    (p.Pmap.stats.Pmap.cache_drops >= 8)

let test_modify_reference_bits arch =
  let machine, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  p.Pmap.activate ~cpu:0;
  p.Pmap.enter ~va:0 ~pfn:4 ~prot:Prot.read_write ~wired:false;
  Alcotest.(check bool) "initially clean" false
    (Pmap_domain.is_modified domain ~pfn:4);
  ignore (Machine.read_byte machine ~cpu:0 ~va:0);
  Alcotest.(check bool) "referenced" true
    (Pmap_domain.is_referenced domain ~pfn:4);
  Alcotest.(check bool) "not modified by read" false
    (Pmap_domain.is_modified domain ~pfn:4);
  Machine.write_byte machine ~cpu:0 ~va:0 'm';
  Alcotest.(check bool) "modified" true
    (Pmap_domain.is_modified domain ~pfn:4);
  Pmap_domain.clear_modified domain ~pfn:4;
  Pmap_domain.clear_referenced domain ~pfn:4;
  Alcotest.(check bool) "cleared" false
    (Pmap_domain.is_modified domain ~pfn:4
     || Pmap_domain.is_referenced domain ~pfn:4)

let test_activate_switches arch =
  let machine, domain = setup arch in
  let p1 = Pmap_domain.create_pmap domain in
  let p2 = Pmap_domain.create_pmap domain in
  (* Reload handler for architectures whose mappings live only in TLBs. *)
  let active = ref p1 in
  Machine.set_fault_handler machine (fun ~cpu:_ f ->
      let p = !active in
      match p.Pmap.extract f.Machine.fault_va with
      | Some pfn ->
        p.Pmap.enter ~va:f.Machine.fault_va ~pfn ~prot:Prot.read_write
          ~wired:false
      | None -> Alcotest.fail "fault on unmapped address");
  p1.Pmap.enter ~va:0 ~pfn:1 ~prot:Prot.read_write ~wired:false;
  p2.Pmap.enter ~va:0 ~pfn:2 ~prot:Prot.read_write ~wired:false;
  Phys_mem.write (Machine.phys machine) 1 ~offset:0 (Bytes.of_string "one");
  Phys_mem.write (Machine.phys machine) 2 ~offset:0 (Bytes.of_string "two");
  p1.Pmap.activate ~cpu:0;
  Alcotest.(check string) "p1 view" "one"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:0 ~len:3));
  p1.Pmap.deactivate ~cpu:0;
  active := p2;
  p2.Pmap.activate ~cpu:0;
  Alcotest.(check string) "p2 view" "two"
    (Bytes.to_string (Machine.read machine ~cpu:0 ~va:0 ~len:3))

let test_zero_copy_page arch =
  let machine, domain = setup arch in
  let phys = Machine.phys machine in
  Phys_mem.write phys 1 ~offset:0 (Bytes.of_string "zzz");
  Pmap_domain.copy_page domain ~src:1 ~dst:2;
  Alcotest.(check string) "copied" "zzz"
    (Bytes.to_string (Phys_mem.read phys 2 ~offset:0 ~len:3));
  Pmap_domain.zero_page domain ~pfn:1;
  Alcotest.(check char) "zeroed" '\000' (Phys_mem.read_byte phys 1 ~offset:0)

let test_wired_survives_collect arch =
  let _m, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  let ps = page arch in
  p.Pmap.enter ~va:0 ~pfn:3 ~prot:Prot.read_write ~wired:true;
  p.Pmap.enter ~va:ps ~pfn:4 ~prot:Prot.read_write ~wired:false;
  p.Pmap.collect ();
  Alcotest.(check (option int)) "wired kept" (Some 3) (p.Pmap.extract 0);
  Alcotest.(check (option int)) "unwired dropped" None (p.Pmap.extract ps);
  Alcotest.(check int) "one left" 1 (p.Pmap.resident_count ())

let test_remove_empty_range arch =
  let _m, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  let ps = page arch in
  p.Pmap.enter ~va:0 ~pfn:3 ~prot:Prot.read_write ~wired:false;
  (* Removing a range with no mappings is a harmless no-op. *)
  p.Pmap.remove ~start_va:(10 * ps) ~end_va:(20 * ps);
  Alcotest.(check int) "untouched" 1 (p.Pmap.resident_count ())

let test_double_activate_idempotent arch =
  let machine, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  p.Pmap.enter ~va:0 ~pfn:2 ~prot:Prot.read_write ~wired:false;
  p.Pmap.activate ~cpu:0;
  p.Pmap.activate ~cpu:0;
  Machine.set_fault_handler machine (fun ~cpu:_ _ ->
      p.Pmap.enter ~va:0 ~pfn:2 ~prot:Prot.read_write ~wired:false);
  Machine.write_byte machine ~cpu:0 ~va:0 'a';
  Alcotest.(check char) "works" 'a' (Machine.read_byte machine ~cpu:0 ~va:0)

let test_reference_counting arch =
  let _m, domain = setup arch in
  let p = Pmap_domain.create_pmap domain in
  p.Pmap.enter ~va:0 ~pfn:3 ~prot:Prot.read_write ~wired:false;
  (* Two tasks share the pmap: the first destroy only drops a
     reference. *)
  p.Pmap.reference ();
  p.Pmap.destroy ();
  Alcotest.(check (option int)) "still alive" (Some 3) (p.Pmap.extract 0);
  Alcotest.(check bool) "still registered" true
    (Pmap_domain.find_pmap domain ~asid:p.Pmap.asid <> None);
  p.Pmap.destroy ();
  Alcotest.(check bool) "gone after last reference" true
    (Pmap_domain.find_pmap domain ~asid:p.Pmap.asid = None);
  Alcotest.(check int) "pv cleaned" 0 (Pmap_domain.mapping_count domain ~pfn:3)

(* ---- page-granular pv operations --------------------------------------- *)

(* VAX machine-independent pages of four 512-byte frames: pfns 16..19
   are the page under test.  Both pmaps are active, one per CPU, so
   every lost translation has a CPU to shoot. *)
let page_frames = 4

let vax_page_setup () =
  let machine, domain = setup ~page_multiple:page_frames Arch.uvax2 in
  let tr = Mach_obs.Obs.create () in
  Mach_obs.Obs.set_enabled tr true;
  Machine.set_tracer machine tr;
  let p1 = Pmap_domain.create_pmap domain in
  let p2 = Pmap_domain.create_pmap domain in
  p1.Pmap.activate ~cpu:0;
  p2.Pmap.activate ~cpu:1;
  (machine, domain, tr, p1, p2)

(* Map the page at [pfn] from hardware page [vpn]: both start a page. *)
let map_at p ~vpn ~pfn =
  p.Pmap.enter ~va:(vpn * page Arch.uvax2) ~pfn ~prot:Prot.read_write
    ~wired:false

(* The page mapped by both pmaps, at unrelated vpns, next to another
   page of p1's (vpns 12..15, frames 32..35) that a page-wide request
   must not reach.  Returns the hardware mappings of the page. *)
let map_whole p1 p2 =
  map_at p1 ~vpn:8 ~pfn:16;
  map_at p2 ~vpn:40 ~pfn:16;
  map_at p1 ~vpn:12 ~pfn:32;
  2 * page_frames

(* Counters an operation moves: exchanges, pmap removals and protects,
   and the range requests traced for each. *)
let counts machine domain tr =
  let st = Pmap_domain.total_stats domain in
  let removes = ref 0 and protects = ref 0 in
  Mach_obs.Ring.iter
    (fun r ->
       match r.Mach_obs.Obs.ev with
       | Mach_obs.Obs.Pmap_remove _ -> incr removes
       | Mach_obs.Obs.Pmap_protect _ -> incr protects
       | _ -> ())
    (Mach_obs.Obs.ring tr);
  ( (Machine.stats machine).Machine.shootdowns,
    st.Pmap.removals,
    st.Pmap.protect_ops,
    !removes,
    !protects )

let test_remove_all_page () =
  let machine, domain, tr, p1, p2 = vax_page_setup () in
  let mapped = map_whole p1 p2 in
  let x0, r0, _, q0, _ = counts machine domain tr in
  Pmap_domain.remove_all domain ~pfn:16 ~urgent:true;
  let x1, r1, _, q1, _ = counts machine domain tr in
  Alcotest.(check int) "page unmapped" 0
    (Pmap_domain.mapping_count domain ~pfn:16);
  Alcotest.(check int) "removals = hardware mappings" mapped (r1 - r0);
  Alcotest.(check int) "one exchange" 1 (x1 - x0);
  Alcotest.(check int) "range requests" 2 (q1 - q0);
  let ps = page Arch.uvax2 in
  Alcotest.(check (list (option int))) "no frame left in either pmap"
    (List.init (2 * page_frames) (fun _ -> None))
    (List.concat_map
       (fun (p, vpn) ->
          List.init page_frames (fun j -> p.Pmap.extract ((vpn + j) * ps)))
       [ (p1, 8); (p2, 40) ]);
  Alcotest.(check (option int)) "other page kept" (Some 35)
    (p1.Pmap.extract (15 * ps));
  Alcotest.(check int) "only the page's mappings went" page_frames
    (p1.Pmap.resident_count () + p2.Pmap.resident_count ())

(* Writes through p1 on CPU 0 to [vpns]: which of them protection
   fault (the handler restores write access to the whole page). *)
let write_faults machine p1 ~vpns =
  let ps = page Arch.uvax2 in
  let faulted = ref [] in
  Machine.set_fault_handler machine (fun ~cpu:_ f ->
      let vpn = f.Machine.fault_va / ps in
      faulted := vpn :: !faulted;
      let first = vpn land lnot (page_frames - 1) in
      match p1.Pmap.extract (first * ps) with
      | Some pfn -> map_at p1 ~vpn:first ~pfn
      | None -> Alcotest.fail "fault on an unmapped page");
  List.iter (fun vpn -> Machine.write_byte machine ~cpu:0 ~va:(vpn * ps) 'w')
    vpns;
  List.sort_uniq Int.compare !faulted

(* The rights CPU 0's MMU would find at [vpn] through p1's tables. *)
let walked_prot machine vpn =
  match Machine.active_translator machine ~cpu:0 with
  | Some tr ->
    (match tr.Translator.lookup vpn with
     | Translator.Mapped { prot; _ } -> Some prot
     | Translator.Missing -> None)
  | None -> None

let test_copy_on_write_page () =
  let machine, domain, tr, p1, p2 = vax_page_setup () in
  ignore (map_whole p1 p2);
  let x0, r0, o0, _, q0 = counts machine domain tr in
  Pmap_domain.copy_on_write domain ~pfn:16;
  let x1, r1, o1, _, q1 = counts machine domain tr in
  Alcotest.(check int) "nothing removed" 0 (r1 - r0);
  Alcotest.(check int) "one exchange" 1 (x1 - x0);
  Alcotest.(check int) "range requests" 2 (q1 - q0);
  Alcotest.(check int) "protect calls" 2 (o1 - o0);
  Alcotest.(check (list bool)) "every frame of the page read-only"
    [ false; false; false; false; true ]
    (List.map
       (fun vpn ->
          match walked_prot machine vpn with
          | Some prot -> prot.Prot.write
          | None -> Alcotest.fail "frame unmapped")
       [ 8; 9; 10; 11; 12 ]);
  Alcotest.(check (list int))
    "the page's first write faults and restores it whole; the other \
     page's does not"
    [ 8 ]
    (write_faults machine p1 ~vpns:[ 12; 8; 9; 10; 11 ])

(* A write through one frame dirties the page, whichever of its frames
   is asked about; clearing through any frame clears all four. *)
let test_page_bits () =
  let machine, domain, _, p1, p2 = vax_page_setup () in
  ignore (map_whole p1 p2);
  let ps = page Arch.uvax2 in
  let modified pfn = Pmap_domain.is_modified domain ~pfn in
  Alcotest.(check bool) "clean" false (modified 16);
  Machine.write_byte machine ~cpu:0 ~va:(10 * ps) 'w';
  Alcotest.(check bool) "frame 18's write, asked at 16" true (modified 16);
  Alcotest.(check bool) "asked at 18" true (modified 18);
  Alcotest.(check bool) "asked at 19" true (modified 19);
  Alcotest.(check bool) "next page clean" false (modified 20);
  for j = 0 to page_frames - 1 do
    Machine.write_byte machine ~cpu:0 ~va:((8 + j) * ps) 'w'
  done;
  Pmap_domain.clear_modified domain ~pfn:16;
  Pmap_domain.clear_referenced domain ~pfn:19;
  Alcotest.(check bool) "frames 16-19 cleared" false
    (List.exists
       (fun pfn ->
          modified pfn || Pmap_domain.is_referenced domain ~pfn)
       [ 16; 17; 18; 19 ])

(* [pmap_enter] maps all four frames; lowering their rights in a pmap
   active on another CPU is one exchange for the page, not one per
   frame. *)
let test_enter_page () =
  let machine, _, _, _, p2 = vax_page_setup () in
  let ps = page Arch.uvax2 in
  let enter prot =
    p2.Pmap.enter ~va:(40 * ps) ~pfn:16 ~prot ~wired:false
  in
  enter Prot.read_write;
  Alcotest.(check (list (option int))) "four frames mapped"
    [ Some 16; Some 17; Some 18; Some 19 ]
    (List.init page_frames (fun j -> p2.Pmap.extract ((40 + j) * ps)));
  for j = 0 to page_frames - 1 do
    ignore (Machine.read_byte machine ~cpu:1 ~va:((40 + j) * ps))
  done;
  let x0 = (Machine.stats machine).Machine.shootdowns in
  enter Prot.read_only;
  Alcotest.(check int) "one exchange" 1
    ((Machine.stats machine).Machine.shootdowns - x0)

(* pmap_enter maps whole pages, and remove/protect act on whole pages:
   an enter whose va or pfn is not a page's first, or a range that
   cuts a page, is refused and changes nothing. *)
let test_page_boundaries () =
  let machine, domain, _, p1, _ = vax_page_setup () in
  let ps = page Arch.uvax2 in
  map_at p1 ~vpn:8 ~pfn:16;
  let before () =
    ( List.init (2 * page_frames) (fun j -> p1.Pmap.extract ((8 + j) * ps)),
      p1.Pmap.stats.Pmap.enters,
      p1.Pmap.stats.Pmap.removals,
      (Machine.stats machine).Machine.shootdowns,
      Pmap_domain.mappings_of domain ~pfn:16,
      Pmap_domain.mapping_count domain ~pfn:20 )
  in
  let state = before () in
  let refused what msg f =
    Alcotest.check_raises what (Invalid_argument msg) f;
    if before () <> state then Alcotest.failf "%s changed the pmap" what
  in
  let enter_msg = "pmap_enter: va and pfn must start a page" in
  let range_msg = "pmap_remove/pmap_protect: range must cover whole pages" in
  refused "va inside a page" enter_msg (fun () -> map_at p1 ~vpn:13 ~pfn:20);
  refused "pfn inside a page" enter_msg (fun () -> map_at p1 ~vpn:12 ~pfn:22);
  refused "re-enter at the page's second frame" enter_msg (fun () ->
      map_at p1 ~vpn:9 ~pfn:17);
  refused "remove of one frame" range_msg (fun () ->
      p1.Pmap.remove ~start_va:(9 * ps) ~end_va:(10 * ps));
  refused "remove ending inside a page" range_msg (fun () ->
      p1.Pmap.remove ~start_va:(8 * ps) ~end_va:(10 * ps));
  refused "protect starting inside a page" range_msg (fun () ->
      p1.Pmap.protect ~start_va:(10 * ps) ~end_va:(12 * ps)
        ~prot:Prot.read_only);
  Alcotest.(check (list (option int))) "the page is still whole"
    [ Some 16; Some 17; Some 18; Some 19; None; None; None; None ]
    (let l, _, _, _, _, _ = state in l)

(* RT PC pages of two 2 KB frames: its inverted table holds one mapping
   per frame, so entering a page another pmap maps evicts that pmap's
   mapping of both frames, in one exchange to the CPU it runs on. *)
let test_rtpc_page_alias () =
  let machine, domain = setup ~page_multiple:2 Arch.rt_pc in
  let ps = page Arch.rt_pc in
  let p1 = Pmap_domain.create_pmap domain in
  let p2 = Pmap_domain.create_pmap domain in
  p1.Pmap.activate ~cpu:0;
  p2.Pmap.activate ~cpu:1;
  p1.Pmap.enter ~va:(10 * ps) ~pfn:16 ~prot:Prot.read_write ~wired:false;
  ignore (Machine.read_byte machine ~cpu:0 ~va:(10 * ps));
  ignore (Machine.read_byte machine ~cpu:0 ~va:(11 * ps));
  let aliases () = (Pmap_domain.total_stats domain).Pmap.alias_evictions in
  let x0 = (Machine.stats machine).Machine.shootdowns and a0 = aliases () in
  p2.Pmap.enter ~va:(40 * ps) ~pfn:16 ~prot:Prot.read_write ~wired:false;
  Alcotest.(check int) "one exchange" 1
    ((Machine.stats machine).Machine.shootdowns - x0);
  Alcotest.(check int) "two alias evictions" 2 (aliases () - a0);
  Alcotest.(check (list (option int))) "p1 lost both frames, p2 has both"
    [ None; None; Some 16; Some 17 ]
    [ p1.Pmap.extract (10 * ps); p1.Pmap.extract (11 * ps);
      p2.Pmap.extract (40 * ps); p2.Pmap.extract (41 * ps) ];
  Alcotest.(check (list (pair int int))) "one pv record, p2's"
    [ (p2.Pmap.asid, 40) ]
    (Pmap_domain.mappings_of domain ~pfn:17);
  Alcotest.(check (list (pair int int))) "no TLB keeps p1's frames" []
    (List.map (fun (cpu, (e : Tlb.entry)) -> (cpu, e.Tlb.vpn))
       (Machine.tlb_overreach machine))

let test_page_multiple_checked () =
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:64 () in
  List.iter
    (fun page_multiple ->
       Alcotest.check_raises
         (Printf.sprintf "page_multiple %d" page_multiple)
         (Invalid_argument
            "Pmap_domain.create: page_multiple must be a power of two")
         (fun () -> ignore (Pmap_domain.create ~page_multiple machine)))
    [ 3; 0 ]

let page_granular_tests =
  [ Alcotest.test_case "bits answer for the whole page" `Quick test_page_bits;
    Alcotest.test_case "enter_page: one exchange to lower rights" `Quick
      test_enter_page;
    Alcotest.test_case "page_multiple must be a power of two" `Quick
      test_page_multiple_checked;
    Alcotest.test_case "remove_all: whole pages in two pmaps" `Quick
      test_remove_all_page;
    Alcotest.test_case "enter and ranges must sit on page boundaries" `Quick
      test_page_boundaries;
    Alcotest.test_case "copy_on_write: whole pages in two pmaps" `Quick
      test_copy_on_write_page;
    Alcotest.test_case "RT PC: an alias evicts the whole page" `Quick
      test_rtpc_page_alias ]

(* ---- architecture-specific behaviours ----------------------------------- *)

let test_vax_table_gc () =
  let _m, domain = setup Arch.uvax2 in
  let p = Pmap_domain.create_pmap domain in
  let base = p.Pmap.map_bytes () in
  (* Map two pages far apart: two table pages appear; removing the
     mappings garbage collects them. *)
  p.Pmap.enter ~va:0 ~pfn:1 ~prot:Prot.read_write ~wired:false;
  p.Pmap.enter ~va:(100 * 1024 * 1024) ~pfn:2 ~prot:Prot.read_write
    ~wired:false;
  Alcotest.(check bool) "tables grew" true (p.Pmap.map_bytes () > base);
  p.Pmap.remove ~start_va:0 ~end_va:512;
  p.Pmap.remove ~start_va:(100 * 1024 * 1024)
    ~end_va:((100 * 1024 * 1024) + 512);
  Alcotest.(check int) "tables collected" base (p.Pmap.map_bytes ())

let test_rtpc_alias_eviction () =
  let _m, domain = setup Arch.rt_pc in
  let p1 = Pmap_domain.create_pmap domain in
  let p2 = Pmap_domain.create_pmap domain in
  let ps = page Arch.rt_pc in
  p1.Pmap.enter ~va:0 ~pfn:9 ~prot:Prot.read_write ~wired:false;
  (* p2 mapping the same physical page evicts p1's mapping. *)
  p2.Pmap.enter ~va:(5 * ps) ~pfn:9 ~prot:Prot.read_only ~wired:false;
  Alcotest.(check (option int)) "p1 evicted" None (p1.Pmap.extract 0);
  Alcotest.(check (option int)) "p2 mapped" (Some 9)
    (p2.Pmap.extract (5 * ps));
  Alcotest.(check int) "alias eviction counted" 1
    p2.Pmap.stats.Pmap.alias_evictions;
  Alcotest.(check int) "exactly one mapping" 1
    (Pmap_domain.mapping_count domain ~pfn:9);
  (* Bouncing back evicts p2 in turn. *)
  p1.Pmap.enter ~va:0 ~pfn:9 ~prot:Prot.read_write ~wired:false;
  Alcotest.(check (option int)) "p2 evicted back" None
    (p2.Pmap.extract (5 * ps))

let test_rtpc_map_bytes_constant () =
  let _m, domain = setup Arch.rt_pc in
  let p = Pmap_domain.create_pmap domain in
  let before = Pmap_domain.total_map_bytes domain in
  for i = 0 to 19 do
    p.Pmap.enter ~va:(i * 2048 * 1000) ~pfn:i ~prot:Prot.read_write
      ~wired:false
  done;
  (* The inverted table never grows with address-space size. *)
  Alcotest.(check int) "constant" before (Pmap_domain.total_map_bytes domain)

let test_sun3_context_steal () =
  let _m, domain = setup Arch.sun3_160 in
  let ps = page Arch.sun3_160 in
  (* 9 pmaps compete for 8 contexts. *)
  let pmaps = List.init 9 (fun _ -> Pmap_domain.create_pmap domain) in
  List.iteri
    (fun i p ->
       p.Pmap.enter ~va:0 ~pfn:i ~prot:Prot.read_write ~wired:false)
    pmaps;
  (* The 9th enter stole the least-recently-used context (the first
     pmap's); its mappings are gone and will be rebuilt by faults. *)
  let first = List.hd pmaps in
  let ninth = List.nth pmaps 8 in
  Alcotest.(check (option int)) "victim lost mappings" None
    (first.Pmap.extract 0);
  Alcotest.(check (option int)) "thief mapped" (Some 8)
    (ninth.Pmap.extract 0);
  Alcotest.(check int) "steal counted" 1 ninth.Pmap.stats.Pmap.context_steals;
  Alcotest.(check int) "victim pv cleaned" 0
    (Pmap_domain.mapping_count domain ~pfn:0);
  (* The victim coming back steals another context and can re-enter. *)
  first.Pmap.enter ~va:ps ~pfn:20 ~prot:Prot.read_write ~wired:false;
  Alcotest.(check (option int)) "victim recovered" (Some 20)
    (first.Pmap.extract ps)

let test_ns32082_limits () =
  let _m, domain = setup Arch.ns32082 in
  let p = Pmap_domain.create_pmap domain in
  Alcotest.check_raises "VA beyond 16MB"
    (Invalid_argument "pmap_enter: virtual address beyond hardware limit")
    (fun () ->
       p.Pmap.enter ~va:(17 * 1024 * 1024) ~pfn:1 ~prot:Prot.read_write
         ~wired:false);
  (* In-range addresses and frames work normally. *)
  p.Pmap.enter ~va:0 ~pfn:1 ~prot:Prot.read_write ~wired:false;
  Alcotest.(check (option int)) "in range ok" (Some 1) (p.Pmap.extract 0)

let test_ns32082_pa_limit () =
  (* Build a machine larger than 32 MB of physical memory: frames beyond
     the limit must be rejected by pmap_enter. *)
  let arch = Arch.ns32082 in
  let frames = (40 * 1024 * 1024) / arch.Arch.hw_page_size in
  let machine = Machine.create ~arch ~memory_frames:frames () in
  let domain = Pmap_domain.create machine in
  let p = Pmap_domain.create_pmap domain in
  let beyond = (33 * 1024 * 1024) / arch.Arch.hw_page_size in
  Alcotest.check_raises "PA beyond 32MB"
    (Invalid_argument "pmap_enter: physical page beyond hardware limit")
    (fun () ->
       p.Pmap.enter ~va:0 ~pfn:beyond ~prot:Prot.read_write ~wired:false)

let test_tlbonly_no_structures () =
  let machine, domain = setup Arch.rp3_tlb in
  let p = Pmap_domain.create_pmap domain in
  let ps = page Arch.rp3_tlb in
  p.Pmap.activate ~cpu:0;
  p.Pmap.enter ~va:0 ~pfn:3 ~prot:Prot.read_write ~wired:false;
  Alcotest.(check int) "map_bytes 0" 0 (p.Pmap.map_bytes ());
  (* First access hits the TLB that enter filled; no fault. *)
  Machine.set_fault_handler machine (fun ~cpu:_ _ ->
      Alcotest.fail "unexpected fault");
  Machine.write_byte machine ~cpu:0 ~va:8 'q';
  (* Evict by filling the TLB with other translations, then the next
     access must fault to software for reload. *)
  let reloads = ref 0 in
  Machine.set_fault_handler machine (fun ~cpu:_ f ->
      incr reloads;
      let vpn = f.Machine.fault_va / ps in
      match p.Pmap.extract (vpn * ps) with
      | Some pfn ->
        p.Pmap.enter ~va:(vpn * ps) ~pfn ~prot:Prot.read_write ~wired:false
      | None -> Alcotest.fail "no soft mapping");
  for i = 1 to Arch.rp3_tlb.Arch.tlb_entries + 4 do
    p.Pmap.enter ~va:(i * ps) ~pfn:(3 + i) ~prot:Prot.read_write
      ~wired:false
  done;
  Alcotest.(check char) "data survives reload" 'q'
    (Machine.read_byte machine ~cpu:0 ~va:8);
  Alcotest.(check bool) "reload happened" true (!reloads >= 1)

(* ---- qcheck: random op sequences vs a model ----------------------------- *)

(* Apply random enter/wired-enter/remove/protect/collect ops to a pmap
   and a Hashtbl model (vpn -> frame, rights, wired) while CPU 0 reads
   every mapped page between ops, so the TLB caches what the ops must
   flush.  After each op the pmap must agree with the model on extract,
   resident_count and the pv lists; no TLB may hold a translation the
   pmap does not back; and removals, protect_ops and cache_drops must
   move exactly as the model predicts.  The vpns sit on both sides of
   page-table page boundaries (128 ptes on the VAX and NS32082), so
   range ops cross table pages; single-page and whole-space ops take
   the one-lookup and scan-every-table paths.  The frame of vpn [i]'s
   slot is 3 * i + k, so no two live pages share a frame and the RT PC
   evicts no aliases.  With [page_multiple] m the vpns and frames are
   multiplied by m, so each slot is a page of m hardware frames, and
   every frame of every page is checked and touched. *)
let model_vpns =
  [| 0; 1; 2; 126; 127; 128; 129; 130; 254; 255; 256; 257; 383; 384; 385;
     511; 512; 1023; 1024; 1025; 2047; 2048; 8191; 8192; 16383; 32767 |]

let pmap_model_test ?(page_multiple = 1) arch =
  let open QCheck2 in
  let slots = Array.length model_vpns in
  let m = page_multiple in
  Test.make
    ~name:
      (if m = 1 then
         Printf.sprintf "pmap agrees with model [%s]" arch.Arch.name
       else
         Printf.sprintf "pmap agrees with model [%s, pages of %d]"
           arch.Arch.name m)
    ~count:100
    Gen.(
      list
        (quad (int_range 0 11) (int_range 0 (slots - 1))
           (int_range 0 (slots - 1)) (int_range 0 2)))
    (fun ops ->
       let machine, domain =
         setup ~page_multiple:m ~frames:(256 * m) arch
       in
       let p = Pmap_domain.create_pmap domain in
       let ps = page arch in
       let space = arch.Arch.user_va_limit / ps in
       (* first vpn -> first frame, rights, wired *)
       let model = Hashtbl.create 16 in
       (* A TLB-only pmap's misses trap: reload from the model. *)
       Machine.set_fault_handler machine (fun ~cpu:_ f ->
           let vpn = f.Machine.fault_va / ps land lnot (m - 1) in
           match Hashtbl.find_opt model vpn with
           | Some (pfn, prot, wired) ->
             p.Pmap.enter ~va:(vpn * ps) ~pfn ~prot ~wired
           | None -> Alcotest.fail "fault outside model");
       p.Pmap.activate ~cpu:0;
       let in_model lo hi =
         Hashtbl.fold
           (fun vpn (_, _, wired) acc ->
              if vpn >= lo && vpn < hi then (vpn, wired) :: acc else acc)
           model []
       in
       let enter vpn pfn ~wired =
         let replaced =
           match Hashtbl.find_opt model vpn with
           | Some (old, _, _) when old <> pfn -> 1
           | Some _ | None -> 0
         in
         p.Pmap.enter ~va:(vpn * ps) ~pfn ~prot:Prot.read_write ~wired;
         Hashtbl.replace model vpn (pfn, Prot.read_write, wired);
         (replaced * m, 0, 0)
       in
       let remove lo hi =
         let gone = in_model lo hi in
         p.Pmap.remove ~start_va:(lo * ps) ~end_va:(hi * ps);
         List.iter (fun (vpn, _) -> Hashtbl.remove model vpn) gone;
         (List.length gone * m, 0, 0)
       in
       let protect lo hi =
         p.Pmap.protect ~start_va:(lo * ps) ~end_va:(hi * ps)
           ~prot:Prot.read_only;
         List.iter
           (fun (vpn, _) ->
              let pfn, prot, wired = Hashtbl.find model vpn in
              Hashtbl.replace model vpn
                (pfn, Prot.inter prot Prot.read_only, wired))
           (in_model lo hi);
         (0, 1, 0)
       in
       let collect () =
         let dropped = List.filter (fun (_, w) -> not w) (in_model 0 max_int) in
         p.Pmap.collect ();
         List.iter (fun (vpn, _) -> Hashtbl.remove model vpn) dropped;
         let n = List.length dropped * m in
         (n, 0, n)
       in
       let counters () =
         let s = p.Pmap.stats in
         (s.Pmap.removals, s.Pmap.protect_ops, s.Pmap.cache_drops)
       in
       let agrees () =
         let extracts =
           Array.for_all
             (fun v ->
                let vpn = v * m in
                List.for_all
                  (fun j ->
                     p.Pmap.extract ((vpn + j) * ps)
                     = Option.map
                         (fun (pfn, _, _) -> pfn + j)
                         (Hashtbl.find_opt model vpn))
                  (List.init m Fun.id))
             model_vpns
         in
         (* Asked at the page's last frame: lists answer for the page. *)
         let pvs =
           List.for_all
             (fun q ->
                let pfn = q * m and vpn = model_vpns.(q / 3) * m in
                let expected =
                  match Hashtbl.find_opt model vpn with
                  | Some (f, _, _) when f = pfn -> [ (p.Pmap.asid, vpn) ]
                  | Some _ | None -> []
                in
                Pmap_domain.mappings_of domain ~pfn:(pfn + m - 1) = expected)
             (List.init (3 * slots) Fun.id)
         in
         extracts && pvs
         && p.Pmap.resident_count () = m * Hashtbl.length model
         && Machine.tlb_overreach machine = []
       in
       List.for_all
         (fun (op, i, j, k) ->
            let vpn = model_vpns.(i) * m in
            (* [lo, hi) from slot min(i, j) through slot max(i, j) *)
            let lo = model_vpns.(min i j) * m
            and hi = (model_vpns.(max i j) + 1) * m in
            let r0, p0, c0 = counters () in
            let dr, dp, dc =
              match op with
              | 0 | 1 | 2 -> enter vpn (((3 * i) + k) * m) ~wired:false
              | 3 -> enter vpn (((3 * i) + k) * m) ~wired:true
              | 4 -> remove vpn (vpn + m)
              | 5 | 6 -> remove lo hi
              | 7 -> protect vpn (vpn + m)
              | 8 -> protect lo hi
              | 9 -> remove 0 space
              | 10 -> protect 0 space
              | _ -> collect ()
            in
            let r1, p1, c1 = counters () in
            let ok =
              agrees () && r1 - r0 = dr && p1 - p0 = dp && c1 - c0 = dc
            in
            Hashtbl.iter
              (fun vpn _ ->
                 for j = 0 to m - 1 do
                   Machine.touch machine ~cpu:0 ~va:((vpn + j) * ps)
                     ~write:false
                 done)
              model;
            ok)
         ops)

let () =
  Alcotest.run "mach_pmap"
    [ ("enter/extract", per_arch "enter/extract" test_enter_extract);
      ("remove", per_arch "remove range" test_remove_range);
      ("replace", per_arch "replace mapping" test_replace_mapping);
      ("destroy", per_arch "destroy clears pv" test_destroy_clears_pv);
      ("remove_all", per_arch "remove_all" test_remove_all);
      ("protect", per_arch "protect lowers" test_protect_lowers);
      ( "copy_on_write",
        per_arch "pmap_copy_on_write" test_copy_on_write_all_maps );
      ("cache", per_arch "pmap is a cache" test_pmap_is_a_cache);
      ("bits", per_arch "modify/reference bits" test_modify_reference_bits);
      ("activate", per_arch "activate switches" test_activate_switches);
      ("page ops", per_arch "zero/copy page" test_zero_copy_page);
      ("page-granular", page_granular_tests);
      ("wired", per_arch "wired survives collect" test_wired_survives_collect);
      ("empty remove", per_arch "remove empty range" test_remove_empty_range);
      ( "reactivate",
        per_arch "double activate" test_double_activate_idempotent );
      ("refcount", per_arch "pmap_reference" test_reference_counting);
      ( "vax",
        [ Alcotest.test_case "page tables grow and collect" `Quick
            test_vax_table_gc ] );
      ( "rt_pc",
        [ Alcotest.test_case "alias eviction" `Quick test_rtpc_alias_eviction;
          Alcotest.test_case "map bytes constant" `Quick
            test_rtpc_map_bytes_constant ] );
      ( "sun3",
        [ Alcotest.test_case "context steal" `Quick test_sun3_context_steal ]
      );
      ( "ns32082",
        [ Alcotest.test_case "VA limit" `Quick test_ns32082_limits;
          Alcotest.test_case "PA limit" `Quick test_ns32082_pa_limit ] );
      ( "tlb_only",
        [ Alcotest.test_case "no hardware structures" `Quick
            test_tlbonly_no_structures ] );
      ( "model",
        List.map
          (fun arch -> QCheck_alcotest.to_alcotest (pmap_model_test arch))
          archs
        @ List.map
            (fun (arch, page_multiple) ->
               QCheck_alcotest.to_alcotest
                 (pmap_model_test ~page_multiple arch))
            [ (Arch.uvax2, 8); (Arch.rt_pc, 2) ] ) ]

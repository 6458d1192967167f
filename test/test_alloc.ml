(* The colored per-CPU/NUMA free-page allocator.

   The contracts under test: the free hierarchy never loses or invents
   a page no matter how traffic, reconfiguration and magazine drains
   interleave (conservation); a color hint is honoured while its queue
   is stocked and widens — still succeeding — once it runs dry;
   cross-domain borrowing kicks in exactly when the local domain is
   exhausted and replays identically; magazines flush back to the
   shared queues when memory pressure is declared; and the explicit
   flat configuration (one domain, one color, no magazines) is byte-
   and cycle-identical to the untouched seed allocator. *)

open Mach_hw
open Mach_core

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Kr.to_string e)

(* uVAX II, 512 B hardware pages, multiple 8 => 4 KB system pages. *)
let boot ?(frames = 2048) ?(cpus = 1) () =
  let machine =
    Machine.create ~arch:Arch.uvax2 ~memory_frames:frames ~cpus ()
  in
  let kernel = Kernel.create ~page_multiple:8 machine in
  (machine, kernel, Kernel.sys kernel)

(* Machine-independent frame color under [colors] queues. *)
let color_of res p colors = Types.(p.pfn) / Resident.multiple res land (colors - 1)

(* ---- qcheck: conservation ------------------------------------------------ *)

(* Random streams of allocations (any CPU, any color hint), frees (to
   any CPU's magazine), magazine drains and live reconfigurations.
   After every single step the hierarchy must account for exactly
   [total - held] free pages and pass the structural audit. *)
let ops_gen =
  QCheck2.Gen.(
    list_size (int_range 1 120)
      (triple (int_range 0 6) (int_range 0 3) (int_range 0 7)))

let conservation =
  QCheck2.Test.make ~name:"free hierarchy conserved under random traffic"
    ~count:30 ops_gen
    (fun ops ->
       let _, _, sys = boot () in
       let res = sys.Vm_sys.resident in
       Resident.configure res ~colors:4 ~domains:2 ~cpus:4 ~cache:4 ();
       let total = Resident.total_pages res in
       let held = ref [] in
       let nheld = ref 0 in
       List.for_all
         (fun (tag, cpu, k) ->
            (match tag with
             | 0 | 1 | 2 ->
               (match Resident.alloc ~cpu ~color:k res with
                | Some p ->
                  held := p :: !held;
                  incr nheld
                | None -> ())
             | 3 | 4 ->
               (match !held with
                | [] -> ()
                | p :: rest ->
                  held := rest;
                  decr nheld;
                  Resident.free_page ~cpu res p)
             | 5 -> Resident.drain_caches res
             | _ ->
               Resident.configure res ~colors:(1 lsl (k land 3))
                 ~domains:(1 + (cpu land 1)) ~cpus:4
                 ~cache:(if k land 4 = 0 then 0 else 4) ());
            Resident.check_conservation res
            && Resident.free_count res = total - !nheld)
         ops)

(* ---- color affinity ------------------------------------------------------ *)

(* With 8 colors, every page of color 5 is handed out under hint 5
   before the search ever widens; the next hint-5 allocation still
   succeeds, off-color, and is counted as a miss. *)
let test_color_affinity () =
  let _, _, sys = boot () in
  let res = sys.Vm_sys.resident in
  Resident.configure res ~colors:8 ();
  let c = 5 in
  let stock = ref 0 in
  Resident.iter_free res (fun p ->
      if color_of res p 8 = c then incr stock);
  Alcotest.(check bool) "color 5 is stocked" true (!stock > 0);
  for _ = 1 to !stock do
    let p = Option.get (Resident.alloc ~color:c res) in
    Alcotest.(check int) "hint honoured while stocked" c (color_of res p 8)
  done;
  let k = Resident.counters res in
  Alcotest.(check int) "all hits so far" !stock k.Resident.color_hits;
  Alcotest.(check int) "no misses yet" 0 k.Resident.color_misses;
  let p = Option.get (Resident.alloc ~color:c res) in
  Alcotest.(check bool) "widened off-color" true (color_of res p 8 <> c);
  Alcotest.(check int) "counted as a miss" 1 k.Resident.color_misses

(* ---- cross-domain borrowing ---------------------------------------------- *)

(* CPU 0 and CPU 1 home on domains 0 and 1 of a two-domain split.  A
   seeded LCG interleaves allocations and frees on both CPUs until
   domain 0 runs dry and CPU 0 starts borrowing.  The whole run —
   the pfn sequence and every counter — must replay identically. *)
let borrow_run seed =
  let _, _, sys = boot () in
  let res = sys.Vm_sys.resident in
  Resident.configure res ~colors:2 ~domains:2 ~cpus:2 ();
  let rng = ref seed in
  let next bound =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng mod bound
  in
  let held = ref [] in
  let pfns = ref [] in
  for _ = 1 to 400 do
    if next 4 = 0 then (
      match !held with
      | [] -> ()
      | p :: rest ->
        held := rest;
        Resident.free_page ~cpu:(next 2) res p)
    else
      match Resident.alloc ~cpu:0 ~color:(next 2) res with
      | Some p ->
        held := p :: !held;
        pfns := Types.(p.pfn) :: !pfns
      | None -> ()
  done;
  let k = Resident.counters res in
  ( !pfns, k.Resident.numa_local, k.Resident.numa_borrows,
    Resident.domain_free res 0, Resident.domain_free res 1 )

let test_borrow_deterministic () =
  let pfns1, local1, borrows1, d0, _ = borrow_run 42 in
  let pfns2, local2, borrows2, _, _ = borrow_run 42 in
  Alcotest.(check bool) "domain 0 ran dry" true (d0 = 0 || borrows1 > 0);
  Alcotest.(check bool) "borrowing happened" true (borrows1 > 0);
  Alcotest.(check bool) "local allocations happened" true (local1 > 0);
  Alcotest.(check (list int)) "replay-identical pfn sequence" pfns1 pfns2;
  Alcotest.(check int) "replay-identical locals" local1 local2;
  Alcotest.(check int) "replay-identical borrows" borrows1 borrows2

(* ---- magazine drain on pressure ------------------------------------------ *)

let test_pressure_drains_magazines () =
  let _, _, sys = boot () in
  let res = sys.Vm_sys.resident in
  Resident.configure res ~cache:8 ~cpus:1 ();
  let held =
    List.init 8 (fun _ -> Option.get (Resident.alloc ~cpu:0 res))
  in
  List.iter (fun p -> Resident.free_page ~cpu:0 res p) held;
  Alcotest.(check bool) "magazine stocked" true (Resident.cached_count res > 0);
  Vm_sys.set_mem_pressure sys true;
  Alcotest.(check int) "pressure flushed it" 0 (Resident.cached_count res);
  Alcotest.(check bool) "still conserved" true (Resident.check_conservation res)

(* ---- flat configuration is the seed allocator ----------------------------- *)

(* Zero-fill 24 pages, drop the mappings, touch them all again, read
   everything back.  Explicitly configuring the flat topology (--numa 1,
   one color, no magazines) must be indistinguishable — bytes, clock,
   fault count — from never touching the allocator at all. *)
let ident_run ~configure =
  let machine, kernel, sys = boot () in
  if configure then begin
    Machine.set_numa_domains machine 1;
    Vm_sys.configure_allocator ~colors:1 ~cache:0 sys
  end;
  let task = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:0 task;
  let ps = sys.Vm_sys.page_size in
  let n = 24 in
  let addr = ok (Vm_user.allocate sys task ~size:(n * ps) ~anywhere:true ()) in
  for i = 0 to n - 1 do
    Machine.write_byte machine ~cpu:0 ~va:(addr + (i * ps))
      (Char.chr (0x41 + (i mod 26)))
  done;
  let pmap =
    match (Task.map task).Types.map_pmap with
    | Some p -> p
    | None -> assert false
  in
  pmap.Mach_pmap.Pmap.remove ~start_va:addr ~end_va:(addr + (n * ps));
  for i = 0 to n - 1 do
    Machine.touch machine ~cpu:0 ~va:(addr + (i * ps)) ~write:true
  done;
  let bytes =
    Bytes.to_string (Machine.read machine ~cpu:0 ~va:addr ~len:(n * ps))
  in
  (bytes, Machine.cycles machine ~cpu:0, sys.Vm_sys.stats.Vm_stats.vs_faults)

let test_flat_is_seed () =
  let b0, c0, f0 = ident_run ~configure:false in
  let b1, c1, f1 = ident_run ~configure:true in
  Alcotest.(check string) "byte-identical" b0 b1;
  Alcotest.(check int) "cycle-identical" c0 c1;
  Alcotest.(check int) "fault-identical" f0 f1

let () =
  Alcotest.run "alloc"
    [ ( "color",
        [ Alcotest.test_case "affinity holds until the queue is dry" `Quick
            test_color_affinity ] );
      ( "numa",
        [ Alcotest.test_case "borrowing replays identically" `Quick
            test_borrow_deterministic ] );
      ( "magazines",
        [ Alcotest.test_case "pressure drains per-CPU caches" `Quick
            test_pressure_drains_magazines ] );
      ( "identity",
        [ Alcotest.test_case "flat config matches the seed allocator" `Quick
            test_flat_is_seed ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ conservation ] ) ]

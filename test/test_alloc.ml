(* The free-page allocator: one shared FIFO behind per-CPU magazines.

   The contracts under test: the free pool never loses or invents a
   page no matter how traffic, reconfiguration and magazine drains
   interleave (conservation), and the consistency checker reports it
   when it does; magazines flush back to the shared queue when memory
   pressure is declared; a CPU whose magazine and the shared queue are
   both dry steals from another CPU's magazine, so [free_count > 0]
   still means an allocation succeeds; and the explicit magazine-free
   configuration is byte- and cycle-identical to the untouched seed
   allocator. *)

open Mach_hw
open Mach_core
module Obs = Mach_obs.Obs

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

(* ---- qcheck: conservation ------------------------------------------------ *)

(* Random streams of allocations (any CPU), frees (to any CPU's
   magazine), magazine drains and live reconfigurations of the CPU
   count and magazine size.  After every single step the pool must
   account for exactly [total - held] free pages and pass the
   structural audit. *)
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
       Resident.configure res ~cpus:4 ~cache:4 ();
       let total = Resident.total_pages res in
       let held = ref [] in
       let nheld = ref 0 in
       List.for_all
         (fun (tag, cpu, k) ->
            (match tag with
             | 0 | 1 | 2 ->
               (match Resident.alloc ~cpu res with
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
               Resident.configure res ~cpus:(1 + cpu)
                 ~cache:(if k land 4 = 0 then 0 else k) ());
            Resident.check_conservation res
            && Resident.free_count res = total - !nheld)
         ops)

(* ---- the consistency checker audits conservation ------------------------- *)

(* A page on the shared free queue that claims to be inactive is a
   free-accounting leak; [Vm_debug.check_all] must report it. *)
let test_check_all_flags_queue_mismatch () =
  let _, _, sys = boot () in
  let res = sys.Vm_sys.resident in
  Alcotest.(check (list string)) "healthy at boot" []
    (Vm_debug.check_all sys ~maps:[]);
  let victim = ref None in
  Resident.iter_free res (fun p ->
      if Option.is_none !victim then victim := Some p);
  let p = Option.get !victim in
  p.Types.pg_queue <- Types.Q_inactive;
  let errs = Vm_debug.check_all sys ~maps:[] in
  p.Types.pg_queue <- Types.Q_free;
  Alcotest.(check bool) "conservation error reported" true
    (List.mem
       (Printf.sprintf "queued page pfn=%d not marked free" p.Types.pfn)
       errs);
  Alcotest.(check (list string)) "healthy once restored" []
    (Vm_debug.check_all sys ~maps:[])

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

(* ---- cross-CPU steal ----------------------------------------------------- *)

(* CPU 1 stocks its magazine with one refill; CPU 0 then eats the whole
   shared queue (and its own magazine).  CPU 0's next allocation must
   come out of CPU 1's magazine, counted and traced once, and CPU 0 keeps
   succeeding for as long as [free_count] says a page is free. *)
let test_steal_from_other_magazine () =
  let machine, _, sys = boot ~cpus:2 () in
  let res = sys.Vm_sys.resident in
  let tr = Obs.create ~capacity:4096 () in
  Obs.set_enabled tr true;
  Machine.set_tracer machine tr;
  Resident.configure res ~cpus:2 ~cache:8 ();
  ignore (Option.get (Resident.alloc ~cpu:1 res));
  let stocked = Resident.cached_count res in
  Alcotest.(check int) "cpu 1 magazine holds a refill batch" 7 stocked;
  while Resident.free_count res > stocked do
    match Resident.alloc ~cpu:0 res with
    | Some _ -> ()
    | None -> Alcotest.fail "allocation failed with the shared queue stocked"
  done;
  let k = Resident.counters res in
  Alcotest.(check int) "no steal while cpu 0 had pages" 0
    k.Resident.page_steals;
  let stolen = Option.get (Resident.alloc ~cpu:0 res) in
  Alcotest.(check int) "one steal" 1 k.Resident.page_steals;
  let steals =
    List.filter_map
      (fun r ->
         match r.Obs.ev with
         | Obs.Page_steal { victim; pfn } -> Some (r.Obs.cpu, victim, pfn)
         | _ -> None)
      (Mach_obs.Ring.to_list (Obs.ring tr))
  in
  Alcotest.(check (list (triple int int int))) "one Page_steal from cpu 1"
    [ (0, 1, stolen.Types.pfn) ] steals;
  while Resident.free_count res > 0 do
    match Resident.alloc ~cpu:0 res with
    | Some _ -> ()
    | None -> Alcotest.fail "free_count > 0 but allocation failed"
  done;
  Alcotest.(check int) "cpu 1's magazine fully stolen" stocked
    k.Resident.page_steals;
  Alcotest.(check bool) "dry pool fails" true
    (Option.is_none (Resident.alloc ~cpu:0 res));
  Alcotest.(check bool) "still conserved" true (Resident.check_conservation res)

(* ---- no magazines is the seed allocator ---------------------------------- *)

(* Zero-fill 24 pages, drop the mappings, touch them all again, read
   everything back.  Explicitly configuring the allocator without
   magazines must be indistinguishable — bytes, clock, fault count —
   from never touching the allocator at all. *)
let ident_run ~configure =
  let machine, kernel, sys = boot () in
  if configure then Vm_sys.configure_allocator ~cache:0 sys;
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

(* ---- qcheck: the resident page table ------------------------------------ *)

module Key_map = Map.Make (struct
    type t = int * int
    let compare (a, b) (c, d) =
      match Int.compare a c with 0 -> Int.compare b d | n -> n
  end)

(* Random inserts and removals over three objects and eight page offsets
   each (so equal offsets in different objects are the common case):
   after every step [Resident.lookup] must return exactly the page a
   [Map] model keyed by (object, offset) holds, for every pair. *)
let resident_table_model =
  QCheck2.Test.make ~name:"resident table agrees with a map model"
    ~count:50
    QCheck2.Gen.(
      list_size (int_range 1 150)
        (triple bool (int_range 0 2) (int_range 0 7)))
    (fun ops ->
       let _, _, sys = boot () in
       let res = sys.Vm_sys.resident in
       let ps = sys.Vm_sys.page_size in
       let objs =
         Array.init 3 (fun _ -> Vm_object.create_anonymous sys ~size:(8 * ps))
       in
       let model = ref Key_map.empty in
       let agrees () =
         let ok = ref true in
         Array.iteri
           (fun o obj ->
              for i = 0 to 7 do
                let expect = Key_map.find_opt (o, i) !model in
                match Resident.lookup res ~obj ~offset:(i * ps), expect with
                | None, None -> ()
                | Some p, Some q when p == q -> ()
                | _ -> ok := false
              done)
           objs;
         !ok
       in
       List.for_all
         (fun (insert, o, i) ->
            let obj = objs.(o) and offset = i * ps in
            (match insert, Key_map.find_opt (o, i) !model with
             | true, None ->
               (match Resident.alloc ~cpu:0 res with
                | Some p ->
                  Resident.insert res p ~obj ~offset;
                  model := Key_map.add (o, i) p !model
                | None -> ())
             | false, Some p ->
               Resident.free_page res p;
               model := Key_map.remove (o, i) !model
             | true, Some _ | false, None -> ());
            agrees ())
         ops)

let () =
  Alcotest.run "alloc"
    [ ( "magazines",
        [ Alcotest.test_case "pressure drains per-CPU caches" `Quick
            test_pressure_drains_magazines;
          Alcotest.test_case "dry CPU steals from another magazine" `Quick
            test_steal_from_other_magazine ] );
      ( "audit",
        [ Alcotest.test_case "check_all reports a mislabelled free page"
            `Quick test_check_all_flags_queue_mismatch ] );
      ( "identity",
        [ Alcotest.test_case "flat config matches the seed allocator" `Quick
            test_flat_is_seed ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ conservation; resident_table_model ] ) ]

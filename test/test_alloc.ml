(* The free-page allocator: one shared FIFO behind per-CPU magazines.

   The contracts under test: every CPU has a magazine from boot, which
   refills and drains in whole batches; the free pool never loses or
   invents a page no matter how traffic and magazine drains interleave
   (conservation), and the consistency checker reports it when it does;
   magazines flush back to the shared queue when memory pressure is
   declared; and a CPU whose magazine and the shared queue are both dry
   steals from another CPU's magazine, so [free_count > 0] still means
   an allocation succeeds. *)

open Mach_hw
open Mach_core
module Obs = Mach_obs.Obs

(* uVAX II, 512 B hardware pages, multiple 8 => 4 KB system pages. *)
let boot ?(frames = 2048) ?(cpus = 1) () =
  let machine =
    Machine.create ~arch:Arch.uvax2 ~memory_frames:frames ~cpus ()
  in
  let kernel = Kernel.create ~page_multiple:8 machine in
  (machine, kernel, Kernel.sys kernel)

(* ---- qcheck: conservation ------------------------------------------------ *)

(* Random streams of page traffic on a 4-CPU machine: allocations (any
   CPU), frees (to any CPU's magazine, of allocated and of owned pages),
   magazine drains, inserts into three objects of eight pages each,
   renames to another free slot (a collapse moving a page up), queue
   moves, wiring and unwiring.  After every single step the pool must
   account for exactly [total - taken] free pages, every owned page must
   be found at its slot with its wiring, and [Vm_debug.check_all] must
   pass on a sharing map over the three objects, which audits their
   page lists.  The op is (tag, cpu, slot or pick). *)
let ops_gen =
  QCheck2.Gen.(
    list_size (int_range 1 120)
      (triple (int_range 0 11) (int_range 0 3) (int_range 0 23)))

let conservation =
  QCheck2.Test.make ~name:"free hierarchy conserved under random traffic"
    ~count:30 ops_gen
    (fun ops ->
       let _, _, sys = boot ~cpus:4 () in
       let res = sys.Vm_sys.resident and ps = sys.Vm_sys.page_size in
       let total = Resident.total_pages res in
       let objs =
         Array.init 3 (fun _ -> Vm_object.create_anonymous sys ~size:(8 * ps))
       in
       let map = Vm_map.create sys ~pmap:None ~low:ps ~high:(1 lsl 30) in
       Array.iter
         (fun o ->
            match Vm_map.allocate_object sys map o ~offset:0 ~size:(8 * ps) with
            | Ok _ -> ()
            | Error e -> Alcotest.fail (Kr.to_string e))
         objs;
       (* Allocated pages, and owned ones with (slot, wire count). *)
       let held = ref [] and owned = ref [] in
       let slot_free x = not (List.exists (fun (_, (y, _)) -> y = x) !owned) in
       let locate x = (objs.(x / 8), x mod 8 * ps) in
       let pick x = List.nth !owned (x mod List.length !owned) in
       let update p f =
         owned :=
           List.map (fun (q, s) -> if q == p then (q, f s) else (q, s)) !owned
       in
       let step (tag, cpu, x) =
         match tag with
         | 0 | 1 ->
           (match Resident.alloc ~cpu res with
            | Some p -> held := p :: !held
            | None -> ())
         | 2 ->
           (match !held with
            | [] -> ()
            | p :: rest ->
              held := rest;
              Resident.free_page ~cpu res p)
         | 3 -> Resident.drain_caches res
         | 4 ->
           (match !held with
            | p :: rest when slot_free x ->
              held := rest;
              let obj, offset = locate x in
              Resident.insert res p ~obj ~offset;
              owned := (p, (x, 0)) :: !owned
            | _ -> ())
         | _ when !owned = [] -> ()
         | 5 ->
           let p, _ = pick x in
           let y = (x + 1 + cpu) mod 24 in
           if slot_free y then begin
             let obj, offset = locate y in
             Resident.insert res p ~obj ~offset;
             update p (fun (_, w) -> (y, w))
           end
         | 6 -> Resident.activate res (fst (pick x))
         | 7 ->
           let p, (_, w) = pick x in
           if w = 0 then Resident.deactivate res p
         | 8 ->
           let p, _ = pick x in
           Resident.wire res p;
           update p (fun (y, w) -> (y, w + 1))
         | 9 ->
           let p, (_, w) = pick x in
           if w > 0 then begin
             Resident.unwire res p;
             update p (fun (y, w) -> (y, w - 1))
           end
         | _ ->
           let p, _ = pick x in
           owned := List.filter (fun (q, _) -> q != p) !owned;
           Resident.free_page ~cpu res p
       in
       List.for_all
         (fun op ->
            step op;
            Resident.check_conservation res
            && Resident.free_count res
               = total - List.length !held - List.length !owned
            && List.for_all
                 (fun (p, (x, w)) ->
                    let obj, offset = locate x in
                    Resident.lookup res ~obj ~offset == p.Types.pg_found
                    && Resident.wired p = (w > 0))
                 !owned
            && Vm_debug.check_all sys ~maps:[ map ] = [])
         ops)

(* ---- the consistency checker audits conservation ------------------------- *)

(* A page on the shared free queue that is not [Free] is a
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
  p.Types.pg_life <- Types.Allocated;
  let errs = Vm_debug.check_all sys ~maps:[] in
  p.Types.pg_life <- Types.Free;
  Alcotest.(check bool) "conservation error reported" true
    (List.mem
       (Printf.sprintf "queued page pfn=%d not marked free" p.Types.pfn)
       errs);
  Alcotest.(check (list string)) "healthy once restored" []
    (Vm_debug.check_all sys ~maps:[])

(* Free pages held in per-CPU magazines: free, but off the shared
   queue. *)
let in_magazines res =
  let n = ref 0 in
  Resident.iter_free res (fun p ->
      match p.Types.pg_queue_node with
      | Some node when Mach_util.Dlist.linked node -> ()
      | _ -> incr n);
  !n

(* ---- magazines from boot ------------------------------------------------- *)

(* No allocator call after boot: CPU 2's first allocation refills its
   magazine with one batch (the page it takes plus 7 cached), and nine
   frees on CPU 2 overflow the magazine once, sending one batch of 8
   back to the shared queue. *)
let test_magazines_on_at_boot () =
  let _, _, sys = boot ~cpus:4 () in
  let res = sys.Vm_sys.resident in
  let total = Resident.total_pages res in
  let first = Option.get (Resident.alloc ~cpu:2 res) in
  Alcotest.(check int) "first allocation leaves 7 cached" 7
    (in_magazines res);
  let held =
    first :: List.init 8 (fun _ -> Option.get (Resident.alloc ~cpu:0 res))
  in
  Alcotest.(check int) "cpu 0 used up its own refill" 7
    (in_magazines res);
  let queued () = Resident.free_count res - in_magazines res in
  let queued0 = queued () in
  List.iter (fun p -> Resident.free_page ~cpu:2 res p) held;
  Alcotest.(check int) "one batch drained to the queue" (queued0 + 8)
    (queued ());
  Alcotest.(check int) "magazine full again" 8 (in_magazines res);
  Alcotest.(check int) "every page free" total (Resident.free_count res);
  Alcotest.(check bool) "conserved" true (Resident.check_conservation res)

(* ---- magazine drain on pressure ------------------------------------------ *)

let test_pressure_drains_magazines () =
  let _, _, sys = boot () in
  let res = sys.Vm_sys.resident in
  let held =
    List.init 8 (fun _ -> Option.get (Resident.alloc ~cpu:0 res))
  in
  List.iter (fun p -> Resident.free_page ~cpu:0 res p) held;
  Alcotest.(check bool) "magazine stocked" true (in_magazines res > 0);
  Vm_sys.set_mem_pressure sys true;
  Alcotest.(check int) "pressure flushed it" 0 (in_magazines res);
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
  ignore (Option.get (Resident.alloc ~cpu:1 res));
  let stocked = in_magazines res in
  Alcotest.(check int) "cpu 1 magazine holds a refill batch" 7 stocked;
  while Resident.free_count res > stocked do
    match Resident.alloc ~cpu:0 res with
    | Some _ -> ()
    | None -> Alcotest.fail "allocation failed with the shared queue stocked"
  done;
  let stolen_count () = (Vm_user.statistics sys).Vm_stats.vs_page_steals in
  Alcotest.(check int) "no steal while cpu 0 had pages" 0 (stolen_count ());
  let stolen = Option.get (Resident.alloc ~cpu:0 res) in
  Alcotest.(check int) "one steal" 1 (stolen_count ());
  let steals = ref [] in
  Mach_obs.Ring.iter
    (fun r ->
       match r.Obs.ev with
       | Obs.Page_steal { victim; pfn } ->
         steals := (r.Obs.cpu, victim, pfn) :: !steals
       | _ -> ())
    (Obs.ring tr);
  Alcotest.(check (list (triple int int int))) "one Page_steal from cpu 1"
    [ (0, 1, stolen.Types.pfn) ] !steals;
  while Resident.free_count res > 0 do
    match Resident.alloc ~cpu:0 res with
    | Some _ -> ()
    | None -> Alcotest.fail "free_count > 0 but allocation failed"
  done;
  Alcotest.(check int) "cpu 1's magazine fully stolen" stocked
    (stolen_count ());
  Alcotest.(check bool) "dry pool fails" true
    (Option.is_none (Resident.alloc ~cpu:0 res));
  Alcotest.(check bool) "still conserved" true (Resident.check_conservation res)

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

(* ---- the simulated queue lock ------------------------------------------- *)

(* No release stamp outlives a clock reset.  With the queue lock
   simulated, CPU 0 refills a million cycles ahead of CPU 1, whose
   refill stalls; CPU 0 frees to the queue further ahead, the clocks
   reset, and CPU 1's next refill stalls for nothing. *)
let test_queue_lock_stamp_expires () =
  let machine, _, sys = boot ~cpus:2 () in
  let res = sys.Vm_sys.resident in
  Resident.set_lock_sim res true;
  let stalls () = sys.Vm_sys.stats.Vm_stats.vs_lock_stalls in
  Machine.charge machine ~cpu:0 1_000_000;
  let p = Option.get (Resident.alloc ~cpu:0 res) in
  ignore (Option.get (Resident.alloc ~cpu:1 res));
  Alcotest.(check int) "CPU 1 stalls behind CPU 0" 1 (stalls ());
  Machine.charge machine ~cpu:0 2_000_000;
  Resident.free_page res p;
  Machine.reset_clocks machine;
  Resident.drain_caches res;
  ignore (Option.get (Resident.alloc ~cpu:1 res));
  Alcotest.(check int) "no stall after a clock reset" 1 (stalls ());
  Alcotest.(check int) "CPU 1 pays only the hold" 60
    (Machine.cycles machine ~cpu:1)

let () =
  Alcotest.run "alloc"
    [ ( "magazines",
        [ Alcotest.test_case "magazines on at boot" `Quick
            test_magazines_on_at_boot;
          Alcotest.test_case "pressure drains per-CPU caches" `Quick
            test_pressure_drains_magazines;
          Alcotest.test_case "dry CPU steals from another magazine" `Quick
            test_steal_from_other_magazine ] );
      ( "audit",
        [ Alcotest.test_case "check_all reports a mislabelled free page"
            `Quick test_check_all_flags_queue_mismatch ] );
      ( "lock",
        [ Alcotest.test_case "a clock reset expires the queue lock stamp"
            `Quick test_queue_lock_stamp_expires ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ conservation; resident_table_model ] ) ]

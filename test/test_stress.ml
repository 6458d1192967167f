(* Randomised whole-system stress: a deterministic PRNG drives a mixed
   workload (allocate, touch, fork, protect, deallocate, terminate,
   pageout pressure) over several tasks, with the Vm_debug invariant
   checker run between phases and a tracked set of values verified at the
   end.  Exercises interactions no unit test reaches. *)

open Mach_hw
open Mach_core
open Mach_util


(* A region is either private to its task lineage (copy-on-write across
   forks, so each task tracks its own expectations) or shared (writes are
   visible to every task holding the region, so expectations live in a
   table common to the sharing group). *)
type region = {
  r_base : int;
  r_size : int;
  r_shared : (int, char) Hashtbl.t option; (* Some = group expectations *)
}

type live_task = {
  lt_task : Task.t;
  mutable lt_regions : region list;
  (* expected byte at the base of each written page of private regions *)
  lt_expect : (int, char) Hashtbl.t;
}

let run_stress ?(cpus = 1) ?(traced = false) ~seed ~ops ~frames ~arch
    ~page_multiple () =
  let machine = Machine.create ~arch ~memory_frames:frames ~cpus () in
  let tracer =
    if traced then begin
      let tr = Mach_obs.Obs.create ~capacity:4096 () in
      Mach_obs.Obs.set_enabled tr true;
      Machine.set_tracer machine tr;
      Some tr
    end
    else None
  in
  let kernel = Kernel.create ~page_multiple machine in
  let sys = Kernel.sys kernel in
  let rng = Det_rng.create ~seed in
  let tasks : live_task list ref = ref [] in
  let spawn () =
    let t = Kernel.create_task kernel () in
    let lt =
      { lt_task = t; lt_regions = []; lt_expect = Hashtbl.create 16 }
    in
    tasks := lt :: !tasks;
    lt
  in
  let pick_task () =
    match !tasks with
    | [] -> spawn ()
    | ts -> List.nth ts (Det_rng.int rng (List.length ts))
  in
  let ps = Kernel.page_size kernel in
  let letter () = Char.chr (Char.code 'a' + Det_rng.int rng 26) in
  let all_maps () = List.map (fun lt -> Task.map lt.lt_task) !tasks in
  let expect_table lt r =
    match r.r_shared with Some t -> t | None -> lt.lt_expect
  in
  for op_idx = 1 to ops do
    let cpu = op_idx mod cpus in
    let lt = pick_task () in
    Kernel.run_task kernel ~cpu lt.lt_task;
    match Det_rng.int rng 100 with
    | n when n < 25 -> (
        (* allocate a small private region *)
        let size = (1 + Det_rng.int rng 4) * ps in
        match Vm_user.allocate sys lt.lt_task ~size ~anywhere:true () with
        | Ok base ->
          lt.lt_regions <-
            { r_base = base; r_size = size; r_shared = None }
            :: lt.lt_regions
        | Error _ -> ())
    | n when n < 32 -> (
        (* make a private region shared-inheritance for future forks *)
        match
          List.filter (fun r -> r.r_shared = None) lt.lt_regions
        with
        | [] -> ()
        | rs ->
          let r = List.nth rs (Det_rng.int rng (List.length rs)) in
          (match
             Vm_user.inherit_ sys lt.lt_task ~addr:r.r_base ~size:r.r_size
               Inheritance.Shared
           with
           | Ok () ->
             (* expectations move to a fresh group table *)
             let group = Hashtbl.create 8 in
             Hashtbl.iter
               (fun va c ->
                  if va >= r.r_base && va < r.r_base + r.r_size then begin
                    Hashtbl.replace group va c;
                    Hashtbl.remove lt.lt_expect va
                  end)
               (Hashtbl.copy lt.lt_expect);
             lt.lt_regions <-
               List.map
                 (fun r' ->
                    if r' == r then { r with r_shared = Some group }
                    else r')
                 lt.lt_regions
           | Error _ -> ()))
    | n when n < 62 -> (
        (* write a page in some region and remember what we wrote *)
        match lt.lt_regions with
        | [] -> ()
        | rs ->
          let r = List.nth rs (Det_rng.int rng (List.length rs)) in
          let page = Det_rng.int rng (r.r_size / ps) in
          let va = r.r_base + (page * ps) in
          let c = letter () in
          Machine.write_byte machine ~cpu ~va c;
          Hashtbl.replace (expect_table lt r) va c)
    | n when n < 72 -> (
        (* read back a tracked page of some region right now *)
        match lt.lt_regions with
        | [] -> ()
        | rs ->
          let r = List.nth rs (Det_rng.int rng (List.length rs)) in
          let table = expect_table lt r in
          let vas = Hashtbl.fold (fun va _ acc -> va :: acc) table [] in
          (match vas with
           | [] -> ()
           | _ ->
             let va = List.nth vas (Det_rng.int rng (List.length vas)) in
             let expected = Hashtbl.find table va in
             let got = Machine.read_byte machine ~cpu ~va in
             if got <> expected then
               Alcotest.failf "stress: read %c expected %c at 0x%x" got
                 expected va))
    | n when n < 82 ->
      (* fork: private regions copy, shared regions share their group *)
      if List.length !tasks < 8 then begin
        let child = Kernel.fork_task kernel ~cpu lt.lt_task in
        let clt =
          { lt_task = child; lt_regions = lt.lt_regions;
            lt_expect = Hashtbl.copy lt.lt_expect }
        in
        tasks := clt :: !tasks
      end
    | n when n < 88 -> (
        (* protect a region read-only, then restore (should not lose
           data); the raise changes no pte, so audit that every TLB
           still lies within its pmap *)
        match lt.lt_regions with
        | [] -> ()
        | r :: _ ->
          (match
             Vm_user.protect sys lt.lt_task ~addr:r.r_base ~size:r.r_size
               ~set_max:false ~prot:Prot.read_only
           with
           | Ok () | Error _ -> ());
          (match
             Vm_user.protect sys lt.lt_task ~addr:r.r_base ~size:r.r_size
               ~set_max:false ~prot:Prot.read_write
           with
           | Ok () | Error _ -> ());
          Vm_debug.assert_ok sys ~maps:(all_maps ()))
    | n when n < 93 -> (
        (* deallocate a whole region (this task's view only) *)
        match lt.lt_regions with
        | [] -> ()
        | r :: rest ->
          (match
             Vm_user.deallocate sys lt.lt_task ~addr:r.r_base ~size:r.r_size
           with
           | Ok () | Error _ -> ());
          lt.lt_regions <- rest;
          if r.r_shared = None then
            Hashtbl.iter
              (fun va _ ->
                 if va >= r.r_base && va < r.r_base + r.r_size then
                   Hashtbl.remove lt.lt_expect va)
              (Hashtbl.copy lt.lt_expect))
    | n when n < 96 ->
      (* pageout pressure *)
      Vm_pageout.deactivate_some sys ~count:8;
      Vm_pageout.run sys ~wanted:4
    | _ ->
      (* terminate a task (keep at least one) *)
      if List.length !tasks > 1 then begin
        Kernel.terminate_task kernel ~cpu lt.lt_task;
        tasks := List.filter (fun x -> not (x == lt)) !tasks
      end
  done;
  (* Invariants hold at the end... *)
  Vm_debug.assert_ok sys ~maps:(all_maps ());
  (* ...and every tracked byte reads back as last written: private bytes
     per task, shared bytes through every task still holding the
     region. *)
  List.iter
    (fun lt ->
       Kernel.run_task kernel ~cpu:0 lt.lt_task;
       Hashtbl.iter
         (fun va expected ->
            let got = Machine.read_byte machine ~cpu:0 ~va in
            if got <> expected then
              Alcotest.failf "final check: read %c expected %c at 0x%x" got
                expected va)
         lt.lt_expect;
       List.iter
         (fun r ->
            match r.r_shared with
            | None -> ()
            | Some table ->
              Hashtbl.iter
                (fun va expected ->
                   let got = Machine.read_byte machine ~cpu:0 ~va in
                   if got <> expected then
                     Alcotest.failf
                       "final shared check: read %c expected %c at 0x%x" got
                       expected va)
                table)
         lt.lt_regions)
    !tasks;
  List.iter (fun lt -> Kernel.terminate_task kernel ~cpu:0 lt.lt_task) !tasks;
  (* When traced, the event stream must be internally consistent: every
     fault bracketed, and the per-resolution latency counts covering
     every fault the machine saw. *)
  match tracer with
  | None -> ()
  | Some tr ->
    let open Mach_obs in
    Alcotest.(check bool) "trace recorded events" true
      (Obs.events_seen tr > 0);
    (* Fault_begins minus Fault_ends: every fault bracketed. *)
    Alcotest.(check int) "no fault left open" 0 (Obs.open_faults tr);
    let hist_total =
      List.fold_left
        (fun acc r -> acc + Hist.count (Obs.fault_latency tr r))
        0 Obs.fault_resolutions
    in
    Alcotest.(check int) "fault histograms cover all faults"
      (Machine.stats machine).Machine.faults hist_total

let stress_case ?cpus ?traced name ~seed ~arch ~page_multiple ~frames =
  Alcotest.test_case name `Slow (fun () ->
      run_stress ?cpus ?traced ~seed ~ops:400 ~frames ~arch ~page_multiple ())

let test_invariants_detect_breakage () =
  (* Sanity of the checker itself: a deliberately corrupted map is
     reported. *)
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:256 () in
  let kernel = Kernel.create ~page_multiple:8 machine in
  let sys = Kernel.sys kernel in
  let t = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:0 t;
  (match Vm_user.allocate sys t ~size:8192 ~anywhere:true () with
   | Ok a ->
     Machine.write_byte machine ~cpu:0 ~va:a 'x';
     (* Corrupt: shrink max below current without fixing current. *)
     (match Vm_map.find (Task.map t) ~va:a with
      | Some e ->
        e.Types.e_max_prot <- Prot.make ~read:false ~write:false ~execute:false
      | None -> Alcotest.fail "entry missing");
     (match Vm_debug.check_map sys (Task.map t) with
      | [] -> Alcotest.fail "checker missed the corruption"
      | _ -> ());
     (* Corrupt: a TLB entry wider than its pte (the page is mapped
        read-only below, the cached entry stays writable). *)
     let vpn = a / (Machine.arch machine).Arch.hw_page_size in
     let asid =
       (Option.get (Machine.active_translator machine ~cpu:0)).Translator.asid
     in
     let p = Task.pmap t in
     let pfn =
       match p.Mach_pmap.Pmap.extract a with
       | Some pfn -> pfn
       | None -> Alcotest.fail "write left no mapping"
     in
     Alcotest.(check int) "TLB within pmap before" 0
       (List.length (Machine.tlb_overreach machine));
     p.Mach_pmap.Pmap.protect ~start_va:a ~end_va:(a + 8192)
       ~prot:Prot.read_only;
     Machine.tlb_fill machine ~cpu:0
       { Tlb.asid; vpn; pfn; prot = Prot.read_write };
     Alcotest.(check bool) "checker reports the widened TLB entry" true
       (List.exists
          (fun s -> String.length s > 3 && String.sub s 0 3 = "cpu")
          (Vm_debug.check_all sys ~maps:[]))
   | Error e -> Alcotest.fail (Kr.to_string e))

let test_dump_is_readable () =
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:512 () in
  let kernel = Kernel.create ~page_multiple:8 machine in
  let sys = Kernel.sys kernel in
  let t = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:0 t;
  (match Vm_user.allocate sys t ~size:8192 ~anywhere:true () with
   | Ok a ->
     Machine.write_byte machine ~cpu:0 ~va:a 'd';
     ignore (Kernel.fork_task kernel ~cpu:0 t);
     let dump = Vm_debug.dump_map sys (Task.map t) in
     let contains needle =
       let n = String.length needle and h = String.length dump in
       let rec loop i =
         i + n <= h && (String.sub dump i n = needle || loop (i + 1))
       in
       loop 0
     in
     Alcotest.(check bool) "shows protections" true (contains "rw-/rwx");
     Alcotest.(check bool) "shows cow" true (contains "cow");
     Alcotest.(check bool) "shows the object" true (contains "obj")
   | Error e -> Alcotest.fail (Kr.to_string e))

let () =
  Alcotest.run "stress"
    [ ( "random workloads",
        [ stress_case "uVAX II, 4K pages, ample memory" ~seed:1
            ~arch:Arch.uvax2 ~page_multiple:8 ~frames:4096;
          stress_case "uVAX II, tight memory (pageout)" ~seed:2
            ~arch:Arch.uvax2 ~page_multiple:8 ~frames:512;
          stress_case "RT PC (alias evictions)" ~seed:3 ~arch:Arch.rt_pc
            ~page_multiple:2 ~frames:1024;
          stress_case "SUN 3 (context steals)" ~seed:4 ~arch:Arch.sun3_160
            ~page_multiple:1 ~frames:512;
          stress_case "NS32082 (rmw bug)" ~seed:5 ~arch:Arch.ns32082
            ~page_multiple:8 ~frames:4096;
          stress_case "RP3 TLB-only (reload storms)" ~seed:6
            ~arch:Arch.rp3_tlb ~page_multiple:1 ~frames:1024;
          stress_case "hardware page == mach page" ~seed:7 ~arch:Arch.uvax2
            ~page_multiple:1 ~frames:2048;
          stress_case "two CPUs, migrating tasks" ~seed:8 ~cpus:2
            ~arch:Arch.uvax2 ~page_multiple:8 ~frames:4096;
          stress_case "four CPUs on the NS32082" ~seed:9 ~cpus:4
            ~arch:Arch.ns32082 ~page_multiple:8 ~frames:4096;
          stress_case "uVAX II with tracing (observability)" ~seed:10
            ~traced:true ~arch:Arch.uvax2 ~page_multiple:8 ~frames:1024 ] );
      ( "checker",
        [ Alcotest.test_case "detects corruption" `Quick
            test_invariants_detect_breakage;
          Alcotest.test_case "dump is readable" `Quick
            test_dump_is_readable ] ) ]

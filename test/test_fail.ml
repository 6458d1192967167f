(* Fault-injection tests: determinism of seeded plans (lib/fail), kernel
   invariants under arbitrary injected pager/disk faults, and graceful
   degradation — bounded retry with KERN_MEMORY_ERROR, pager death, and
   dirty-page rescue through the default pager. *)

open Mach_hw
open Mach_core
open Mach_pagers
module Fail = Mach_fail.Fail

(* ---- seeded plans ------------------------------------------------------ *)

(* A two-site workload with probabilistic rules at both sites — the shape
   machsim --chaos exercises. *)
let exercise seed =
  let inj = Fail.create ~seed in
  Fail.attach inj ~site:"disk.read"
    [ Fail.With_probability (0.2, Fail.Fail);
      Fail.With_probability (0.15, Fail.Delay 750) ];
  Fail.attach inj ~site:"pager.request"
    [ Fail.After (5, Fail.With_probability (0.3, Fail.Drop));
      Fail.With_probability (0.1, Fail.Garbage) ];
  let decisions =
    List.init 300 (fun i ->
        let site = if i mod 3 = 0 then "pager.request" else "disk.read" in
        Fail.decide inj ~site)
  in
  (decisions, Fail.injections inj, Fail.fingerprint inj)

let test_same_seed_replays () =
  let d1, t1, f1 = exercise 0xfeed in
  let d2, t2, f2 = exercise 0xfeed in
  Alcotest.(check bool) "decision sequences identical" true (d1 = d2);
  Alcotest.(check int) "injection counts identical" t1 t2;
  Alcotest.(check string) "fingerprints identical" f1 f2;
  Alcotest.(check bool) "plan actually fired" true (t1 > 0)

let test_seed_changes_sequence () =
  let _, _, f1 = exercise 1 in
  let _, _, f2 = exercise 2 in
  Alcotest.(check bool) "different seeds, different fingerprints" true
    (f1 <> f2)

let test_sites_are_independent () =
  (* Interleaving decisions at another site must not perturb this one. *)
  let plan = [ Fail.With_probability (0.3, Fail.Fail) ] in
  let solo =
    let inj = Fail.create ~seed:99 in
    Fail.attach inj ~site:"disk.read" plan;
    List.init 100 (fun _ -> Fail.decide inj ~site:"disk.read")
  in
  let interleaved =
    let inj = Fail.create ~seed:99 in
    Fail.attach inj ~site:"disk.read" plan;
    Fail.attach inj ~site:"net.rpc" [ Fail.With_probability (0.5, Fail.Drop) ];
    List.init 100 (fun _ ->
        ignore (Fail.decide inj ~site:"net.rpc");
        Fail.decide inj ~site:"disk.read")
  in
  Alcotest.(check bool) "disk.read stream unchanged" true (solo = interleaved)

let test_windowed_rules () =
  let inj = Fail.create ~seed:7 in
  Fail.attach inj ~site:"a" [ Fail.Fail_n_then_recover (3, Fail.Fail) ];
  Fail.attach inj ~site:"b" [ Fail.After (2, Fail.Always Fail.Drop) ];
  let take site n = List.init n (fun _ -> Fail.decide inj ~site) in
  Alcotest.(check bool) "fail 3 then recover" true
    (take "a" 5 = [ Fail.Fail; Fail.Fail; Fail.Fail; Fail.Pass; Fail.Pass ]);
  Alcotest.(check bool) "after 2" true
    (take "b" 4 = [ Fail.Pass; Fail.Pass; Fail.Drop; Fail.Drop ])

let test_scramble () =
  let b = Bytes.of_string "paging hierarchy" in
  let s = Fail.scramble b in
  Alcotest.(check bool) "never the identity" true (Bytes.compare b s <> 0);
  Alcotest.(check string) "original untouched" "paging hierarchy"
    (Bytes.to_string b);
  Alcotest.(check bool) "involution" true (Fail.scramble s = b)

let test_profiles_and_spec () =
  Alcotest.(check (list string)) "profile names"
    [ "flaky"; "disk"; "pagerdeath"; "lowmem" ] Fail.profile_names;
  List.iter
    (fun n ->
       match Fail.profile n with
       | Some (_ :: _) -> ()
       | Some [] | None -> Alcotest.fail ("empty or missing profile " ^ n))
    Fail.profile_names;
  (match Fail.parse_spec "42" with
   | Ok (42, "flaky") -> ()
   | _ -> Alcotest.fail "bare seed should default to flaky");
  (match Fail.parse_spec "7:pagerdeath" with
   | Ok (7, "pagerdeath") -> ()
   | _ -> Alcotest.fail "SEED:PROFILE should parse");
  (match Fail.parse_spec "nope" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "bad seed must be rejected");
  (* No component consults a network site, so there is no net profile. *)
  (match Fail.parse_spec "1:net" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "the net profile is gone");
  match Fail.parse_spec "1:zzz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown profile must be rejected"

(* ---- kernel helpers ----------------------------------------------------- *)

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

(* An external pager over a plain hash store: reliable by itself, so every
   misbehaviour in these tests comes from the injector wrapped around it. *)
let store_pager sys =
  let store : (int, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
  {
    Types.pgr_id = Vm_sys.fresh_pager_id sys;
    pgr_name = "store";
    pgr_request =
      (fun ~offset ~length ->
         match Hashtbl.find_opt store offset with
         | Some d ->
           Types.Data_provided
             (Lent.truncate (Lent.of_bytes d) length, Types.io_none)
         | None -> Types.Data_unavailable);
    pgr_write =
      (fun ~offset ~data ->
         (* Per-offset store: split clustered writes at page size so
            every page stays reachable to single-page reads. *)
         let ps = 4 * 1024 in
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

(* ---- qcheck: invariants survive arbitrary injected faults --------------- *)

let pages = 16

type op =
  | Write_page of bool * int (* in the file region?, page index *)
  | Read_page of bool * int
  | Deactivate of int
  | Pageout of int

let op_gen =
  QCheck2.Gen.(
    oneof
      [ map2 (fun f i -> Write_page (f, i)) bool (int_range 0 (pages - 1));
        map2 (fun f i -> Read_page (f, i)) bool (int_range 0 (pages - 1));
        map (fun n -> Deactivate n) (int_range 1 24);
        map (fun n -> Pageout n) (int_range 1 24) ])

(* Whatever the injectors do to the pager stack and the disk, the
   authoritative machine-independent state must stay consistent: the
   kernel's invariant checker stays clean, every cached TLB entry agrees
   with the pmap, and no stale TLB entry is ever used.  Faults the task
   cannot survive surface as Memory_violation, never as corruption. *)
let chaos_invariants (seed, ops) =
  let machine, kernel, sys = boot () in
  let ps = Kernel.page_size kernel in
  let inj = Fail.create ~seed in
  Fail.attach inj ~site:"pager.request"
    [ Fail.With_probability (0.15, Fail.Fail);
      Fail.With_probability (0.1, Fail.Drop);
      Fail.With_probability (0.05, Fail.Short 9);
      Fail.With_probability (0.05, Fail.Garbage);
      Fail.With_probability (0.05, Fail.Delay 2_000) ];
  Fail.attach inj ~site:"pager.write"
    [ Fail.With_probability (0.4, Fail.Fail) ];
  Fail.attach inj ~site:"disk.read"
    [ Fail.With_probability (0.15, Fail.Fail);
      Fail.With_probability (0.1, Fail.Delay 1_000) ];
  Fail.attach inj ~site:"disk.write"
    [ Fail.With_probability (0.15, Fail.Fail) ];
  (* Kernel-created default pagers get wrapped too. *)
  sys.Vm_sys.pager_decorator <- Some (Chaos_pager.wrap sys inj);
  let fs = Simfs.create machine () in
  Simdisk.set_injector (Simfs.disk fs) (Some inj);
  Simfs.install_file fs ~name:"/data" ~data:(Bytes.make (pages * ps) 'f');
  let t = new_task kernel in
  let pager = store_pager sys in
  let a_pager =
    fst (ok (Chaos_pager.map_wrapped sys t inj ~pager ~size:(pages * ps) ()))
  in
  let a_file = fst (ok (Vnode_pager.map_file sys fs t ~name:"/data" ())) in
  let apply op =
    try
      match op with
      | Write_page (file, i) ->
        let base = if file then a_file else a_pager in
        Machine.write_byte machine ~cpu:0 ~va:(base + (i * ps)) 'w'
      | Read_page (file, i) ->
        let base = if file then a_file else a_pager in
        ignore (Machine.read_byte machine ~cpu:0 ~va:(base + (i * ps)))
      | Deactivate n -> Vm_pageout.deactivate_some sys ~count:n
      | Pageout n -> Vm_pageout.run sys ~wanted:n
    with
    | Machine.Memory_violation _ -> ()
    | Vm_sys.Out_of_memory -> ()
  in
  List.iter apply ops;
  let errs = Vm_debug.check_all sys ~maps:[ Task.map t ] in
  (* [check_all] includes the TLB audit: every cached entry backed by its
     pmap's frame and rights. *)
  errs = [] && (Machine.stats machine).Machine.stale_tlb_uses = 0

let chaos_qcheck =
  QCheck2.Test.make
    ~name:"page tables and TLBs agree with resident state under chaos"
    ~count:40
    QCheck2.Gen.(
      pair (int_range 0 1_000_000) (list_size (int_range 20 80) op_gen))
    chaos_invariants

(* ---- qcheck: memory pressure under lowmem chaos -------------------------- *)

(* Scarce memory, a finite swap pool, and the [lowmem] chaos profile:
   whatever the op mix, the kernel itself never fails — nothing escapes
   beyond the architectural Memory_violation — the injector fingerprint
   and the set of OOM victims replay exactly under the same seed, and
   every surviving task's memory is byte-for-byte what the same op
   sequence produces on an unpressured machine.  The fidelity claim is
   sound because pressure never loses data silently: a no-space or
   failed pageout keeps the page dirty, and a live pager's read failure
   surfaces as an error rather than zero fill. *)

let pr_tasks = 3
let pr_pages = 24

type pr_op =
  | P_write of int * int * char (* task, page, byte *)
  | P_read of int * int
  | P_deactivate of int
  | P_pageout of int

(* Write-heavy: dirty pages are what fills the swap pool and forces the
   OOM policy, so the mix must actually reach 4x overcommit in dirt. *)
let pr_op_gen =
  QCheck2.Gen.(
    frequency
      [ ( 4,
          map3
            (fun t i c -> P_write (t, i, Char.chr (Char.code 'a' + c)))
            (int_range 0 (pr_tasks - 1))
            (int_range 0 (pr_pages - 1))
            (int_range 0 25) );
        ( 2,
          map2
            (fun t i -> P_read (t, i))
            (int_range 0 (pr_tasks - 1))
            (int_range 0 (pr_pages - 1)) );
        (1, map (fun n -> P_deactivate n) (int_range 1 24));
        (1, map (fun n -> P_pageout n) (int_range 1 24)) ])

type pr_outcome = {
  pro_fingerprint : string;
  pro_killed : bool list;
  pro_contents : string option list; (* [None] = OOM victim *)
  pro_clean : bool; (* invariant checker over the surviving maps *)
}

let lowmem_run ~pressured (seed, ops) =
  let machine, kernel, sys =
    boot ~frames:(if pressured then 256 else 4096) ()
  in
  let ps = Kernel.page_size kernel in
  let inj =
    if not pressured then None
    else begin
      Vm_sys.set_swap_capacity sys (Some (8 * ps));
      let inj = Fail.create ~seed in
      (match Fail.profile "lowmem" with
       | Some sites ->
         List.iter (fun (site, plan) -> Fail.attach inj ~site plan) sites
       | None -> Alcotest.fail "lowmem profile missing");
      sys.Vm_sys.pager_decorator <- Some (Chaos_pager.wrap sys inj);
      Some inj
    end
  in
  let tasks = Array.init pr_tasks (fun _ -> Kernel.create_task kernel ()) in
  let addrs =
    Array.map
      (fun t ->
         Kernel.run_task kernel ~cpu:0 t;
         ok (Vm_user.allocate sys t ~size:(pr_pages * ps) ~anywhere:true ()))
      tasks
  in
  let alive i = not tasks.(i).Task.task_oom_killed in
  let apply op =
    try
      match op with
      | P_write (ti, i, c) ->
        if alive ti then begin
          Kernel.run_task kernel ~cpu:0 tasks.(ti);
          Machine.write_byte machine ~cpu:0 ~va:(addrs.(ti) + (i * ps)) c
        end
      | P_read (ti, i) ->
        if alive ti then begin
          Kernel.run_task kernel ~cpu:0 tasks.(ti);
          ignore (Machine.read_byte machine ~cpu:0 ~va:(addrs.(ti) + (i * ps)))
        end
      | P_deactivate n -> Vm_pageout.deactivate_some sys ~count:n
      | P_pageout n -> Vm_pageout.run sys ~wanted:n
    with
    | Machine.Memory_violation _ -> ()
    | Vm_sys.Out_of_memory -> ()
  in
  List.iter apply ops;
  (* Read every survivor back.  A transient injected read fault can
     surface as Memory_violation; retrying draws fresh decisions from
     the plan, so data is only ever unavailable, never lost. *)
  let contents ti =
    if not (alive ti) then None
    else begin
      Kernel.run_task kernel ~cpu:0 tasks.(ti);
      let buf = Bytes.create pr_pages in
      for i = 0 to pr_pages - 1 do
        let rec rd attempt =
          try Machine.read_byte machine ~cpu:0 ~va:(addrs.(ti) + (i * ps))
          with Machine.Memory_violation _ when attempt < 4 -> rd (attempt + 1)
        in
        Bytes.set buf i (rd 0)
      done;
      Some (Bytes.to_string buf)
    end
  in
  let cont = List.init pr_tasks contents in
  let maps =
    Array.to_list tasks
    |> List.filteri (fun i _ -> alive i)
    |> List.map Task.map
  in
  {
    pro_fingerprint =
      (match inj with Some i -> Fail.fingerprint i | None -> "");
    pro_killed = List.init pr_tasks (fun i -> not (alive i));
    pro_contents = cont;
    pro_clean = Vm_debug.check_all sys ~maps = [];
  }

let lowmem_resilience (seed, ops) =
  let p1 = lowmem_run ~pressured:true (seed, ops) in
  let p2 = lowmem_run ~pressured:true (seed, ops) in
  let calm = lowmem_run ~pressured:false (seed, ops) in
  let survivors_match =
    List.for_all2
      (fun p c ->
         match (p, c) with
         | None, _ -> true (* OOM victim: nothing left to compare *)
         | Some got, Some want -> got = want
         | Some _, None -> false)
      p1.pro_contents calm.pro_contents
  in
  p1 = p2 (* fingerprint, victims, and bytes replay under the seed *)
  && p1.pro_clean && calm.pro_clean
  && (not (List.exists Fun.id calm.pro_killed))
  && survivors_match

let lowmem_qcheck =
  QCheck2.Test.make
    ~name:"lowmem chaos: kernel survives, replays, and keeps survivor bytes"
    ~count:15
    QCheck2.Gen.(
      pair (int_range 0 1_000_000) (list_size (int_range 60 150) pr_op_gen))
    lowmem_resilience

(* ---- wasted transfers are charged at run length -------------------------- *)

(* A transient failure on a clustered run wastes the *whole* transfer —
   the platter spun every block of the run past the head before the
   error surfaced — so the retry premium must scale with the run, not
   cost a flat one block.  Regression: the premium for an 8-block run
   equals one full 8-block service, and for a single block one 1-block
   service. *)
let test_disk_retry_charges_full_run () =
  let premium count =
    let cost inject =
      let machine =
        Machine.create ~arch:Arch.uvax2 ~memory_frames:64 ()
      in
      let disk = Simdisk.create machine ~block_size:4096 in
      for b = 0 to count - 1 do
        Simdisk.install disk ~block:b ~pos:0 ~len:4096 (Bytes.make 4096 'd')
      done;
      if inject then begin
        let inj = Fail.create ~seed:13 in
        (* First transfer fails, the retry goes through. *)
        Fail.attach inj ~site:"disk.read"
          [ Fail.Fail_n_then_recover (1, Fail.Fail) ];
        Simdisk.set_injector disk (Some inj)
      end;
      let _, io = Simdisk.lend_run disk ~cpu:0 ~first:0 ~count in
      Machine.wait_io machine ~cpu:0 io;
      (Machine.cycles machine ~cpu:0, io.Machine.io_service)
    in
    let clean, _ = cost false in
    let failed, service = cost true in
    (failed - clean, service)
  in
  let p1, s1 = premium 1 in
  let p8, s8 = premium 8 in
  Alcotest.(check int) "single-block retry wastes one block" s1 p1;
  Alcotest.(check int) "8-block retry wastes the whole run" s8 p8;
  Alcotest.(check bool) "run premium really scales with length" true (p8 > p1)

(* ---- graceful degradation ----------------------------------------------- *)

let test_bounded_retries_then_error () =
  let _machine, kernel, sys = boot () in
  let ps = Kernel.page_size kernel in
  let t = new_task kernel in
  let inj = Fail.create ~seed:5 in
  Fail.attach inj ~site:"pager.request" [ Fail.Always Fail.Fail ];
  let pager = store_pager sys in
  let addr =
    fst (ok (Chaos_pager.map_wrapped sys t inj ~pager ~size:(4 * ps) ()))
  in
  let read () = Vm_user.read sys t ~addr ~size:8 in
  let stats = sys.Vm_sys.stats in
  (match read () with
   | Error Kr.Memory_error -> ()
   | Ok _ | Error _ -> Alcotest.fail "expected KERN_MEMORY_ERROR");
  Alcotest.(check int) "exactly the retry budget was spent"
    Vm_sys.pager_retry_limit stats.Vm_stats.vs_pager_retries;
  (* Two more exhausted budgets reach the death threshold. *)
  ignore (read ());
  ignore (read ());
  Alcotest.(check int) "pager declared dead" 1 stats.Vm_stats.vs_pager_deaths;
  let retries_at_death = stats.Vm_stats.vs_pager_retries in
  let errors_at_death = stats.Vm_stats.vs_memory_errors in
  Alcotest.(check int) "every failed fault was counted" 3 errors_at_death;
  (* A dead pager is no longer consulted: the rescue pager holds no copy
     of the page, so it zero-fills at once and the retry counter stops
     moving. *)
  (match read () with
   | Ok b -> Alcotest.(check string) "zero filled" (String.make 8 '\000')
               (Bytes.to_string b)
   | Error e -> Alcotest.fail ("dead pager: " ^ Kr.to_string e));
  Alcotest.(check int) "no retries after death" retries_at_death
    stats.Vm_stats.vs_pager_retries;
  Alcotest.(check int) "no memory error after death" errors_at_death
    stats.Vm_stats.vs_memory_errors

let test_pager_death_rescues_dirty_pages () =
  (* 256 frames => 16 system pages of memory; a 12-page dirty region. *)
  let machine, kernel, sys = boot ~frames:256 () in
  let ps = Kernel.page_size kernel in
  let n = 12 in
  let t = new_task kernel in
  let inj = Fail.create ~seed:11 in
  (* Reads pass; every write to the external pager fails, so pageout burns
     its retry budget until the pager dies mid-workload. *)
  Fail.attach inj ~site:"pager.write" [ Fail.Always Fail.Fail ];
  let pager = store_pager sys in
  let addr =
    fst (ok (Chaos_pager.map_wrapped sys t inj ~pager ~size:(n * ps) ()))
  in
  for i = 0 to n - 1 do
    Machine.write machine ~cpu:0 ~va:(addr + (i * ps))
      (Bytes.of_string (Printf.sprintf "page-%02d" i))
  done;
  let stats = sys.Vm_sys.stats in
  let rounds = ref 0 in
  while stats.Vm_stats.vs_pager_deaths = 0 && !rounds < 16 do
    incr rounds;
    Vm_pageout.deactivate_some sys ~count:64;
    Vm_pageout.run sys ~wanted:64
  done;
  Alcotest.(check int) "pager died" 1 stats.Vm_stats.vs_pager_deaths;
  Alcotest.(check bool) "failed pageouts kept pages dirty" true
    (stats.Vm_stats.vs_pageout_failures > 0);
  Alcotest.(check bool) "dirty pages were rescued" true
    (stats.Vm_stats.vs_rescued_pages > 0);
  (match Vm_map.resolve_object_at sys (Task.map t) ~va:addr with
   | Some (o, _) ->
     (match o.Types.obj_rescue with
      | Some r ->
        Alcotest.(check bool) "rescue (default) pager holds the data" true
          (Mach_util.Int_tbl.mem sys.Vm_sys.swap_stores r.Types.pgr_id
           && sys.Vm_sys.stats.Vm_stats.vs_swap_used > 0)
      | None -> Alcotest.fail "expected a rescue pager")
   | None -> Alcotest.fail "no object behind the mapping");
  (* Evict everything through the now-dead pager — writes land on the
     rescue pager — then fault it all back in. *)
  for _ = 1 to 2 do
    Vm_pageout.deactivate_some sys ~count:64;
    Vm_pageout.run sys ~wanted:64
  done;
  for i = 0 to n - 1 do
    Alcotest.(check string)
      (Printf.sprintf "page %d intact" i)
      (Printf.sprintf "page-%02d" i)
      (Bytes.to_string
         (Machine.read machine ~cpu:0 ~va:(addr + (i * ps)) ~len:7))
  done;
  Alcotest.(check int) "task never saw a memory error" 0
    stats.Vm_stats.vs_memory_errors

let () =
  Alcotest.run "fail"
    [ ( "plans",
        [ Alcotest.test_case "same seed replays identically" `Quick
            test_same_seed_replays;
          Alcotest.test_case "seed changes the sequence" `Quick
            test_seed_changes_sequence;
          Alcotest.test_case "site streams are independent" `Quick
            test_sites_are_independent;
          Alcotest.test_case "windowed rules" `Quick test_windowed_rules;
          Alcotest.test_case "scramble is a non-identity involution" `Quick
            test_scramble;
          Alcotest.test_case "profiles and --chaos spec parsing" `Quick
            test_profiles_and_spec ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest chaos_qcheck;
          QCheck_alcotest.to_alcotest lowmem_qcheck ] );
      ( "disk",
        [ Alcotest.test_case "wasted retry charged at run length" `Quick
            test_disk_retry_charges_full_run ] );
      ( "degradation",
        [ Alcotest.test_case "bounded retries then KERN_MEMORY_ERROR" `Quick
            test_bounded_retries_then_error;
          Alcotest.test_case "pager death rescues dirty pages" `Quick
            test_pager_death_rescues_dirty_pages ] ) ]

(* [--micro]: host nanoseconds per operation of single layers, measured
   with bechamel, then multiplied by one traced repetition's counts to
   estimate how each workload's host time splits across layers.  This
   is the outside-in view of the time the spans lump into [hw.touch]. *)

open Bechamel
open Mach_hw
open Mach_core
module Pmap = Mach_pmap.Pmap
module Pmap_domain = Mach_pmap.Pmap_domain
module W = Workload

let mb = 1024 * 1024

let ok = function Ok v -> v | Error e -> failwith (Kr.to_string e)

(* The pmap backend each workload runs on. *)
let backends =
  [ ("vax", Arch.vax8200); ("rtpc", Arch.rt_pc); ("sun3", Arch.sun3_160);
    ("ns32082", Arch.ns32082); ("tlbonly", Arch.rp3_tlb) ]

let backend_of = function
  | W.Churn -> "sun3"
  | W.Files -> "vax"
  | W.Overcommit -> "rtpc"
  | W.Smp -> "ns32082"

let pages = 64
let run_len = 8

(* Each iteration enters a run of [run_len] pages, then removes or
   protects the run with one range call, as the kernel does.  The
   counters these multiply are per page entered, per mapping removed
   and per protect call, so: enter_ns is per page, remove_ns per
   mapping (the pair minus the enters), protect_ns per range call. *)
let pmap_tests (label, arch) =
  let machine =
    Machine.create ~arch ~memory_frames:(8 * mb / arch.Arch.hw_page_size) ()
  in
  let domain = Pmap_domain.create machine in
  let pmap = Pmap_domain.create_pmap domain in
  pmap.Pmap.activate ~cpu:0;
  let hw = arch.Arch.hw_page_size in
  let i = ref 0 in
  let enter_run () =
    incr i;
    let first = !i mod (pages / run_len) * run_len in
    for k = first to first + run_len - 1 do
      pmap.Pmap.enter ~va:(k * hw) ~pfn:(k + 16) ~prot:Prot.read_write
        ~wired:false
    done;
    (first * hw, (first + run_len) * hw)
  in
  let name op = Printf.sprintf "micro.pmap.%s.%s" label op in
  [ Test.make ~name:(name "enter") (Staged.stage (fun () -> ignore (enter_run ())));
    Test.make ~name:(name "enter+remove")
      (Staged.stage (fun () ->
           let start_va, end_va = enter_run () in
           pmap.Pmap.remove ~start_va ~end_va));
    Test.make ~name:(name "enter+protect")
      (Staged.stage (fun () ->
           let start_va, end_va = enter_run () in
           pmap.Pmap.protect ~start_va ~end_va ~prot:Prot.read_only)) ]

let tests () =
  let tlb =
    let t = Tlb.create ~capacity:pages in
    for vpn = 0 to pages - 1 do
      Tlb.insert t { Tlb.asid = 1; vpn; pfn = vpn; prot = Prot.read_write }
    done;
    t
  in
  let i = ref 0 in
  (* One task on a VAX 8200 with [pages] resident pages in 16 regions. *)
  let machine, kernel = World.boot_kernel Arch.vax8200 ~mem:(8 * mb) ~cpus:1 in
  let sys = Kernel.sys kernel in
  let ps = Kernel.page_size kernel in
  let task = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:0 task;
  let regions =
    Array.init 16 (fun _ ->
        ok (Vm_user.allocate sys task ~size:(pages / 16 * ps) ~anywhere:true ()))
  in
  Array.iter
    (fun base ->
       for p = 0 to (pages / 16) - 1 do
         Machine.touch machine ~cpu:0 ~va:(base + (p * ps)) ~write:true
       done)
    regions;
  let va () =
    incr i;
    regions.(!i land 15) + ((!i lsr 4) land 3 * ps)
  in
  let pmap = Task.pmap task in
  [ Test.make ~name:"micro.tlb.lookup"
      (Staged.stage (fun () ->
           incr i;
           ignore (Tlb.lookup tlb ~asid:1 ~vpn:(!i land (pages - 1)))));
    Test.make ~name:"micro.machine.translate_hit"
      (Staged.stage (fun () ->
           ignore (Machine.translate machine ~cpu:0 ~va:regions.(0) ~write:false)));
    Test.make ~name:"micro.resident.alloc_free"
      (Staged.stage (fun () ->
           Resident.free_page sys.Vm_sys.resident (Vm_sys.grab_page sys)));
    Test.make ~name:"micro.vm_map.find"
      (Staged.stage (fun () -> ignore (Vm_map.find (Task.map task) ~va:(va ()))));
    (* The fast reload includes the one-page pmap.remove that forces it. *)
    Test.make ~name:"micro.fault.fast_reload"
      (Staged.stage (fun () ->
           let v = va () in
           pmap.Pmap.remove ~start_va:v ~end_va:(v + ps);
           Machine.touch machine ~cpu:0 ~va:v ~write:false)) ]
  @ List.concat_map pmap_tests backends

let measure () =
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"" ~fmt:"%s%s" (tests ()))
  in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      instance raw
  in
  let ns = Hashtbl.create 32 in
  Hashtbl.iter
    (fun name ols ->
       match Analyze.OLS.estimates ols with
       | Some [ est ] -> Hashtbl.replace ns name est
       | Some _ | None -> ())
    results;
  let get n = Option.value (Hashtbl.find_opt ns n) ~default:nan in
  (* Remove and protect net of the enters they needed. *)
  let derived =
    List.concat_map
      (fun (label, _) ->
         let p op = get (Printf.sprintf "micro.pmap.%s.%s" label op) in
         let n = float_of_int run_len in
         [ (Printf.sprintf "micro.pmap.%s.enter_ns" label, p "enter" /. n);
           (Printf.sprintf "micro.pmap.%s.remove_ns" label,
            (p "enter+remove" -. p "enter") /. n);
           (Printf.sprintf "micro.pmap.%s.protect_ns" label,
            p "enter+protect" -. p "enter") ])
      backends
  in
  List.map
    (fun n -> (n ^ "_ns", get n))
    [ "micro.tlb.lookup"; "micro.machine.translate_hit"; "micro.resident.alloc_free";
      "micro.vm_map.find"; "micro.fault.fast_reload" ]
  @ derived

let run ~seed =
  let ns = measure () in
  List.iter (fun (n, v) -> Printf.printf "%s %.1f ns\n" n v) ns;
  let ns n = List.assoc n ns in
  (* Layer estimates: ns/op times the traced repetition's event counts. *)
  List.iter
    (fun kind ->
       match
         Isolate.repetition kind ~seed ~quick:false ~traced:true
       with
       | Error e -> Printf.printf "%s micro estimate FAILED %s\n" (W.name kind) e
       | Ok r ->
         let c n =
           match List.find_opt (fun m -> m.World.m_name = n) r.World.layers with
           | Some m -> m.World.m_value
           | None -> 0.
         in
         let b = backend_of kind in
         let pm op = ns (Printf.sprintf "micro.pmap.%s.%s_ns" b op) in
         let est =
           [ ("hw", ns "micro.machine.translate_hit_ns" *. c "span.hw.touch.count");
             ("pmap",
              (pm "enter" *. c "pmap.enters") +. (pm "remove" *. c "pmap.removals")
              +. (pm "protect" *. c "pmap.protect_ops"));
             ("map", ns "micro.vm_map.find_ns" *. c "fault.faults");
             ("fault", ns "micro.fault.fast_reload_ns" *. c "fault.fast_reloads");
             ("resident",
              ns "micro.resident.alloc_free_ns"
              *. (c "fault.zero_fills" +. c "fault.cow_copies" +. c "cluster.pager_reads")) ]
         in
         List.iter
           (fun (layer, e_ns) ->
              let s = e_ns /. 1e9 in
              Printf.printf "%s est.%s_s %.4f s (%.1f%% of traced host_raw_s %.3f)\n"
                (W.name kind) layer s (100. *. s /. r.World.host_raw_s)
                r.World.host_raw_s)
           est)
    W.all

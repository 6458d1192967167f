(* Benchmark harness: regenerates every table of the paper's evaluation
   (Tables 7-1 and 7-2) plus ablation benches for the qualitative claims
   of Sections 2, 3.3, 3.5, 5.1 and 5.2.  Each experiment prints its
   cells as one marked block of Markdown tables ([render]), which
   EXPERIMENTS.md carries verbatim.  See DESIGN.md for the experiment
   index.

   Absolute milliseconds depend on the calibrated cost tables in
   Mach_hw.Arch; what must hold is the *shape*: who wins, by what rough
   factor, and where crossovers fall. *)

open Mach_hw
open Mach_core
open Mach_workload

let kb = 1024
let mb = 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Cell registry ([experiments], at the end): every number a paper      *)
(* table measures is a cell declared once with its unit and layer,      *)
(* printed in its experiment's block and written as JSON (`-json PATH`; *)
(* a full run: bench/BENCH_vm.json).                                    *)
(* ------------------------------------------------------------------ *)

module Jout = Mach_obs.Jout

type unit_ = Ms | Count | Pages | Bytes | Ratio | Flag | Per_s | Cycles

(* The per-layer prefixes of BENCHMARK.json, plus the pager, IPC and
   whole-workload elapsed time. *)
type layer =
  | Hw | Pmap | Fault | Map | Resident | Cluster | Disk | Swap | Pager | Ipc
  | E2e

let unit_name = function
  | Ms -> "ms" | Count -> "count" | Pages -> "pages" | Bytes -> "bytes"
  | Ratio -> "ratio" | Flag -> "flag" | Per_s -> "per_s" | Cycles -> "cycles"

let layer_name = function
  | Hw -> "hw" | Pmap -> "pmap" | Fault -> "fault" | Map -> "map"
  | Resident -> "resident" | Cluster -> "cluster" | Disk -> "disk"
  | Swap -> "swap" | Pager -> "pager" | Ipc -> "ipc" | E2e -> "e2e"

type experiment = {
  key : string;  (** the [-e] name, and the first component of each cell *)
  run : unit -> unit;
  cells : (string * unit_ * layer) list;  (** names relative to [key] *)
}

(* [decl axes leaves]: the cell [a/b/.../leaf] for one name from each
   axis and every leaf. *)
let decl axes leaves =
  List.fold_right
    (fun xs cells ->
       List.concat_map
         (fun x -> List.map (fun (n, u, l) -> (x ^ "/" ^ n, u, l)) cells) xs)
    axes leaves

(* Leaves in one unit and layer; [ms] for whole-workload elapsed time. *)
let leaves u l = List.map (fun n -> (n, u, l))
let ms = leaves Ms E2e
let elapsed = ("elapsed_ms", Ms, E2e)

let fail fmt =
  Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 1) fmt

(* A recorded cell: its name relative to the experiment's key, and
   [extra] fields after its own, each in ms. *)
type cell = {
  name : string;
  value : float;
  unit_ : unit_;
  layer : layer;
  extra : (string * float) list;
}

let cells : Jout.t list ref = ref []

(* The running experiment's key, its declared cells not yet recorded and
   the cells it has recorded, latest first. *)
let running = ref ("", [], [])

(* Record cell [key/name] of the running experiment. *)
let record ?(extra = []) name value =
  let key, pending, recorded = !running in
  match List.find_opt (fun (n, _, _) -> n = name) pending with
  | None -> fail "cell %s/%s is not declared, or recorded twice" key name
  | Some (_, unit_, layer) ->
    running :=
      ( key, List.filter (fun (n, _, _) -> n <> name) pending,
        { name; value; unit_; layer; extra } :: recorded )

let count name n = record name (float_of_int n)

(* Cells [key/mach] and [key/unix], with the paper's figures in ms. *)
let record_pair ?paper key m u =
  let extra =
    Option.fold paper ~none:[] ~some:(fun (pm, pu) ->
        [ ("paper_mach_ms", pm); ("paper_unix_ms", pu) ])
  in
  record ~extra (key ^ "/mach") m;
  record ~extra (key ^ "/unix") u

(* A value as the tables print it, by its unit. *)
let show unit_ v =
  match unit_ with
  | Ms when v >= 10_000.0 -> Printf.sprintf "%.1f s" (v /. 1000.0)
  | Ms when v >= 10.0 -> Printf.sprintf "%.0f ms" v
  | Ms -> Printf.sprintf "%.2f ms" v
  | Count | Pages | Bytes | Cycles | Per_s -> Printf.sprintf "%.0f" v
  | Ratio -> Printf.sprintf "%.5f" v
  | Flag -> if v = 0. then "no" else "yes"

(* [l] without repeats, in order of first appearance. *)
let uniq l =
  List.rev
    (List.fold_left (fun seen x -> if List.mem x seen then seen else x :: seen)
       [] l)

(* Experiment [key]'s cells as Markdown between the markers EXPERIMENTS.md
   carries: a row per name less its last component, a column per last
   component and per extra field, and one table per column list. *)
let render key cs =
  let split c =
    match String.rindex_opt c.name '/' with
    | Some i ->
      (String.sub c.name 0 i,
       String.sub c.name (i + 1) (String.length c.name - i - 1))
    | None -> ("", c.name)
  in
  let row r =
    let mine = List.filter (fun c -> fst (split c) = r) cs in
    ( r,
      List.map (fun c -> (snd (split c), show c.unit_ c.value)) mine
      @ uniq
          (List.concat_map
             (fun c -> List.map (fun (k, v) -> (k, show Ms v)) c.extra)
             mine) )
  in
  let rows = List.map row (uniq (List.map (fun c -> fst (split c)) cs)) in
  let line l = print_endline ("| " ^ String.concat " | " l ^ " |") in
  Printf.printf "<!-- cells:%s -->\n" key;
  List.iteri
    (fun i head ->
       if i > 0 then print_newline ();
       line ("" :: head);
       line (List.map (fun _ -> "---") ("" :: head));
       List.iter
         (fun (r, cols) ->
            if List.map fst cols = head then line (r :: List.map snd cols))
         rows)
    (uniq (List.map (fun (_, cols) -> List.map fst cols) rows));
  print_endline "<!-- /cells -->"

(* Run [e], fail on a declared cell it did not record, and print its
   block. *)
let run e =
  running := (e.key, e.cells, []);
  e.run ();
  let _, pending, recorded = !running in
  List.iter
    (fun (n, _, _) -> fail "cell %s/%s is declared but not recorded" e.key n)
    pending;
  let recorded = List.rev recorded in
  List.iter
    (fun c ->
       cells :=
         Jout.(Obj ([ ("name", Str (e.key ^ "/" ^ c.name));
                      ("value", Float c.value);
                      ("unit", Str (unit_name c.unit_));
                      ("layer", Str (layer_name c.layer)) ]
                    @ List.map (fun (k, v) -> (k, Float v)) c.extra))
         :: !cells)
    recorded;
  render e.key recorded

let write_cells path =
  Jout.write_file path (Jout.Obj [ ("cells", Jout.Arr (List.rev !cells)) ]);
  Printf.printf "wrote %d measured cells -> %s\n" (List.length !cells) path

(* ------------------------------------------------------------------ *)
(* Machine/OS construction helpers                                     *)
(* ------------------------------------------------------------------ *)

let frames_for arch ~mem_bytes = mem_bytes / arch.Arch.hw_page_size

let boot_mach ?(mem = 16 * mb) ?(cpus = 1) ?page_multiple arch =
  let machine =
    Machine.create ~arch ~memory_frames:(frames_for arch ~mem_bytes:mem)
      ~cpus ()
  in
  (* As on real Mach, the boot-time page size is at least 4 KB. *)
  let page_multiple =
    match page_multiple with
    | Some m -> m
    | None -> max 1 (4096 / arch.Arch.hw_page_size)
  in
  let kernel = Kernel.create ~page_multiple machine in
  let fs = Mach_pagers.Simfs.create machine () in
  let os = Mach_os.make kernel ~fs in
  (machine, kernel, fs, os)

let boot_bsd ?(mem = 16 * mb) ?(cpus = 1) ?(buffers = 400) arch =
  let machine =
    Machine.create ~arch ~memory_frames:(frames_for arch ~mem_bytes:mem)
      ~cpus ()
  in
  let fs = Mach_pagers.Simfs.create machine () in
  let bsd = Mach_bsd.Bsd_vm.create machine ~fs ~buffers in
  let os = Bsd_os.make bsd ~fs in
  (machine, bsd, fs, os)

(* ------------------------------------------------------------------ *)
(* Table 7-1: zero fill and fork                                       *)
(* ------------------------------------------------------------------ *)

(* Zero-fill: allocate 64 KB, dirty every page, report ms per 1 KB. *)
let zero_fill_ms (os : Os_iface.t) =
  let cpu = 0 in
  let p = os.Os_iface.proc_create ~name:"zf" in
  os.Os_iface.proc_run ~cpu p;
  let size = 64 * kb in
  let addr = os.Os_iface.alloc ~cpu p ~size in
  os.Os_iface.reset ();
  os.Os_iface.touch ~cpu p ~addr ~size ~write:true;
  let ms = os.Os_iface.elapsed_ms () in
  os.Os_iface.proc_exit ~cpu p;
  ms /. 64.0

(* Fork with 256 KB dirty: fork and the child exits, as in the classic
   fork benchmark; Mach pays copy-on-write marking, traditional UNIX pays
   the full copy. *)
let fork_ms (os : Os_iface.t) =
  let cpu = 0 in
  let p = os.Os_iface.proc_create ~name:"fk" in
  os.Os_iface.proc_run ~cpu p;
  let size = 256 * kb in
  let addr = os.Os_iface.alloc ~cpu p ~size in
  os.Os_iface.touch ~cpu p ~addr ~size ~write:true;
  os.Os_iface.reset ();
  let child = os.Os_iface.proc_fork ~cpu p in
  os.Os_iface.proc_exit ~cpu child;
  let ms = os.Os_iface.elapsed_ms () in
  os.Os_iface.proc_exit ~cpu p;
  ms

let table7_1 () =
  List.iter
    (fun (arch, name, paper_zf, paper_fk) ->
       let _, _, _, mach_os = boot_mach arch in
       let _, _, _, bsd_os = boot_bsd arch in
       let zf_m = zero_fill_ms mach_os and zf_u = zero_fill_ms bsd_os in
       let fk_m = fork_ms mach_os and fk_u = fork_ms bsd_os in
       record_pair ~paper:paper_zf ("zero_fill_1k/" ^ name) zf_m zf_u;
       record_pair ~paper:paper_fk ("fork_256k/" ^ name) fk_m fk_u)
    [ (Arch.rt_pc, "RT PC", (0.45, 0.58), (41., 145.));
      (Arch.uvax2, "uVAX II", (0.58, 1.2), (59., 220.));
      (Arch.sun3_160, "SUN 3/160", (0.23, 0.27), (68., 89.)) ]

(* ------------------------------------------------------------------ *)
(* Table 7-1: file reading on a VAX 8200                               *)
(* ------------------------------------------------------------------ *)

let file_read_pair (os : Os_iface.t) ~name ~size =
  let cpu = 0 in
  os.Os_iface.install_file ~name ~data:(Bytes.make size 'F');
  os.Os_iface.reset ();
  ignore (os.Os_iface.read_file ~cpu ~name ~offset:0 ~len:size);
  let first = os.Os_iface.elapsed_ms () in
  os.Os_iface.reset ();
  ignore (os.Os_iface.read_file ~cpu ~name ~offset:0 ~len:size);
  let second = os.Os_iface.elapsed_ms () in
  (first, second)

let table7_1_files () =
  let _, _, _, mach_os = boot_mach ~mem:(16 * mb) Arch.vax8200 in
  let _, _, _, bsd_os = boot_bsd ~mem:(16 * mb) ~buffers:400 Arch.vax8200 in
  let m1, m2 = file_read_pair mach_os ~name:"/big" ~size:(5 * mb / 2) in
  let u1, u2 = file_read_pair bsd_os ~name:"/big" ~size:(5 * mb / 2) in
  record_pair ~paper:(5200., 5000.) "read_2.5M_1st" m1 u1;
  record_pair ~paper:(1200., 5000.) "read_2.5M_2nd" m2 u2;
  let m1, m2 = file_read_pair mach_os ~name:"/small" ~size:(50 * kb) in
  let u1, u2 = file_read_pair bsd_os ~name:"/small" ~size:(50 * kb) in
  record_pair ~paper:(200., 500.) "read_50K_1st" m1 u1;
  record_pair ~paper:(100., 200.) "read_50K_2nd" m2 u2

(* ------------------------------------------------------------------ *)
(* Table 7-2: compilation                                              *)
(* ------------------------------------------------------------------ *)

let compile_run boot_os cfg =
  let os = boot_os () in
  Compile_workload.setup os cfg;
  Compile_workload.run os cfg

let table7_2 () =
  (* "400 buffers": both systems restricted; modelled as a small buffer
     pool for UNIX and tighter memory for Mach. *)
  let mach_400 () =
    let _, _, _, os = boot_mach ~mem:(2 * mb) Arch.vax8650 in
    os
  and bsd_400 () =
    let _, _, _, os = boot_bsd ~mem:(8 * mb) ~buffers:400 Arch.vax8650 in
    os
  and mach_gen () =
    let _, _, _, os = boot_mach ~mem:(32 * mb) Arch.vax8650 in
    os
  and bsd_gen () =
    let _, _, _, os = boot_bsd ~mem:(32 * mb) ~buffers:900 Arch.vax8650 in
    os
  in
  let cfg13 = Compile_workload.thirteen_programs in
  let cfgk = Compile_workload.kernel_build in
  let mach_sun () =
    let _, _, _, os = boot_mach Arch.sun3_160 in
    os
  and bsd_sun () =
    let _, _, _, os = boot_bsd Arch.sun3_160 in
    os
  in
  List.iter
    (fun (key, boot_m, boot_u, cfg, paper) ->
       let m = compile_run boot_m cfg and u = compile_run boot_u cfg in
       record_pair ~paper key m u)
    [ ("13_programs_400buf", mach_400, bsd_400, cfg13, (23_000., 28_000.));
      ("kernel_build_400buf", mach_400, bsd_400, cfgk,
       (1_198_000., 1_418_000.));
      ("13_programs_generic", mach_gen, bsd_gen, cfg13, (19_000., 76_000.));
      ("kernel_build_generic", mach_gen, bsd_gen, cfgk,
       (950_000., 2_050_000.));
      ("fork_test_sun3", mach_sun, bsd_sun, Compile_workload.fork_test,
       (3_000., 6_000.)) ]

(* ------------------------------------------------------------------ *)
(* Section 5.1: pmap architecture comparison                            *)
(* ------------------------------------------------------------------ *)

(* Fixed workload: 12 tasks, each with 192 KB dirty; one 256 KB file
   mapped into every task and read repeatedly round-robin (sharing =
   alias pressure on the RT PC; 12 > 8 contexts = steals on the SUN 3). *)
let pmap_arch_one arch =
  let mem = 12 * mb in
  let machine, kernel, fs, _os = boot_mach ~mem arch in
  let sys = Kernel.sys kernel in
  Mach_pagers.Simfs.install_file fs ~name:"/shared"
    ~data:(Bytes.make (256 * kb) 'S');
  let n_tasks = 12 in
  let tasks =
    List.init n_tasks (fun i ->
        Kernel.create_task kernel ~name:(Printf.sprintf "t%d" i) ())
  in
  let ps = Kernel.page_size kernel in
  let sweep task a limit write =
    Kernel.run_task kernel ~cpu:0 task;
    let rec loop va =
      if va < limit then begin
        Machine.touch machine ~cpu:0 ~va ~write;
        loop (va + ps)
      end
    in
    loop a
  in
  let privates =
    List.map
      (fun task ->
         Kernel.run_task kernel ~cpu:0 task;
         let addr =
           match
             Vm_user.allocate sys task ~size:(192 * kb) ~anywhere:true ()
           with
           | Ok a -> a
           | Error e -> failwith (Kr.to_string e)
         in
         sweep task addr (addr + (192 * kb)) true;
         (task, addr))
      tasks
  in
  let shareds =
    List.map
      (fun task ->
         Kernel.run_task kernel ~cpu:0 task;
         match
           Mach_pagers.Vnode_pager.map_file sys fs task ~name:"/shared" ()
         with
         | Ok (a, s) -> (task, a, s)
         | Error e -> failwith (Kr.to_string e))
      tasks
  in
  Machine.reset_clocks machine;
  (* Three round-robin sweeps over shared and private memory. *)
  for _round = 1 to 3 do
    List.iter (fun (task, a, s) -> sweep task a (a + s) false) shareds;
    List.iter
      (fun (task, addr) -> sweep task addr (addr + (192 * kb)) false)
      privates
  done;
  let pstats = Mach_pmap.Pmap_domain.total_stats kernel.Kernel.domain in
  let mstats = Machine.stats machine in
  (* The NS32082 cannot allocate beyond 16 MB of VA. *)
  let va_limit_hit =
    match
      Vm_user.allocate sys (List.hd tasks) ~at:(20 * mb) ~size:(64 * kb)
        ~anywhere:false ()
    with
    | Ok _ -> false
    | Error _ -> true
  in
  ( mstats.Machine.faults,
    sys.Vm_sys.stats.Vm_stats.vs_fast_reloads,
    pstats.Mach_pmap.Pmap.alias_evictions,
    pstats.Mach_pmap.Pmap.context_steals,
    Mach_pmap.Pmap_domain.total_map_bytes kernel.Kernel.domain,
    va_limit_hit,
    Machine.elapsed_ms machine )

let pmap_arch () =
  List.iter
    (fun (key, arch) ->
       let faults, reloads, aliases, steals, mapb, vahit, ms =
         pmap_arch_one arch
       in
       List.iter
         (fun (metric, v) -> count (key ^ "/" ^ metric) v)
         [ ("faults", faults); ("reloads", reloads);
           ("alias_evictions", aliases); ("context_steals", steals);
           ("map_bytes", mapb); ("va_blocked", Bool.to_int vahit) ];
       record (key ^ "/elapsed_ms") ms)
    [ ("vax", Arch.uvax2); ("rt_pc", Arch.rt_pc); ("sun3", Arch.sun3_160);
      ("ns32082", Arch.ns32082); ("rp3", Arch.rp3_tlb) ]

(* ------------------------------------------------------------------ *)
(* Section 5.2: TLB shootdown strategies                                *)
(* ------------------------------------------------------------------ *)

let shootdown_one strategy =
  let arch = Arch.ns32082 in
  let machine =
    Machine.create ~arch
      ~memory_frames:(frames_for arch ~mem_bytes:(8 * mb)) ~cpus:4
      ~shootdown:strategy ()
  in
  let kernel = Kernel.create machine in
  let sys = Kernel.sys kernel in
  let task = Kernel.create_task kernel ~name:"shared" () in
  let size = 128 * kb in
  for cpu = 0 to 3 do
    Kernel.run_task kernel ~cpu task
  done;
  let addr =
    match Vm_user.allocate sys task ~size ~anywhere:true () with
    | Ok a -> a
    | Error e -> failwith (Kr.to_string e)
  in
  let ps = Kernel.page_size kernel in
  let sweep cpu =
    let rec go va =
      if va < addr + size then begin
        Machine.touch machine ~cpu ~va ~write:true;
        go (va + ps)
      end
    in
    go addr
  in
  for cpu = 0 to 3 do
    sweep cpu
  done;
  Machine.reset_clocks machine;
  for round = 1 to 30 do
    (* Readers warm their TLBs on a page each... *)
    let reader_va cpu =
      addr + ((((round * 7) + cpu) mod (size / ps)) * ps)
    in
    for cpu = 1 to 3 do
      Machine.touch machine ~cpu ~va:(reader_va cpu) ~write:false
    done;
    (* ...CPU 0 revokes write access... *)
    Mach_pmap.Pmap_domain.set_current_cpu kernel.Kernel.domain 0;
    (match
       Vm_user.protect sys task ~addr ~size ~set_max:false
         ~prot:Prot.read_only
     with
     | Ok () -> ()
     | Error e -> failwith (Kr.to_string e));
    (* ...and the readers touch the same pages again: under the lazy
       strategy these are served by stale TLB entries. *)
    for cpu = 1 to 3 do
      Machine.touch machine ~cpu ~va:(reader_va cpu) ~write:false
    done;
    (match
       Vm_user.protect sys task ~addr ~size ~set_max:false
         ~prot:Prot.read_write
     with
     | Ok () -> ()
     | Error e -> failwith (Kr.to_string e));
    (* Raising rights changes no pte; CPU 0's writes take them back into
       the hardware maps, so the next round's revocation has real
       mappings to revoke. *)
    sweep 0;
    if round mod 10 = 0 then Machine.tick machine
  done;
  let s = Machine.stats machine in
  ( s.Machine.ipis, s.Machine.deferred_flushes, s.Machine.stale_tlb_uses,
    Machine.elapsed_ms machine )

let shootdown () =
  List.iter
    (fun (key, strategy) ->
       let ipis, deferred, stale, ms = shootdown_one strategy in
       let cell metric = Printf.sprintf "%s/batched/%s" key metric in
       count (cell "ipis") ipis;
       count (cell "deferred_flushes") deferred;
       count (cell "stale_tlb_uses") stale;
       record (cell "elapsed_ms") ms)
    [ ("immediate", Machine.Immediate_ipi); ("deferred", Machine.Deferred_timer);
      ("lazy", Machine.Lazy_local) ]

(* ------------------------------------------------------------------ *)
(* Section 3.5: shadow-object chains and collapsing                     *)
(* ------------------------------------------------------------------ *)

let shadow_one ~collapse =
  let arch = Arch.vax8200 in
  let machine, kernel, _fs, _os = boot_mach ~mem:(24 * mb) arch in
  let sys = Kernel.sys kernel in
  sys.Vm_sys.collapse_enabled <- collapse;
  let task0 = Kernel.create_task kernel ~name:"gen0" () in
  Kernel.run_task kernel ~cpu:0 task0;
  let size = 64 * kb in
  let addr =
    match Vm_user.allocate sys task0 ~size ~anywhere:true () with
    | Ok a -> a
    | Error e -> failwith (Kr.to_string e)
  in
  let ps = Kernel.page_size kernel in
  let dirty task limit =
    Kernel.run_task kernel ~cpu:0 task;
    let rec loop va =
      if va < limit then begin
        Machine.touch machine ~cpu:0 ~va ~write:true;
        loop (va + ps)
      end
    in
    loop addr
  in
  dirty task0 (addr + size);
  Machine.reset_clocks machine;
  (* Repeatedly fork, dirty half the pages in the child, drop the
     parent: the classic shadow-chain builder. *)
  let generations = 12 in
  let current = ref task0 in
  for _g = 1 to generations do
    let child = Kernel.fork_task kernel ~cpu:0 !current in
    dirty child (addr + (size / 2));
    Kernel.terminate_task kernel ~cpu:0 !current;
    current := child
  done;
  Kernel.run_task kernel ~cpu:0 !current;
  let chain =
    match Vm_map.resolve_object_at sys (Task.map !current) ~va:addr with
    | Some (o, _) -> Vm_object.chain_length o
    | None -> 0
  in
  let ms = Machine.elapsed_ms machine in
  let collapses = sys.Vm_sys.stats.Vm_stats.vs_collapses in
  let resident =
    Resident.active_count sys.Vm_sys.resident
    + Resident.inactive_count sys.Vm_sys.resident
  in
  Kernel.terminate_task kernel ~cpu:0 !current;
  (chain, collapses, resident, ms)

let shadow () =
  List.iter
    (fun flag ->
       let chain, collapses, resident, ms = shadow_one ~collapse:flag in
       let key = if flag then "enabled" else "disabled" in
       count (key ^ "/final_chain") chain;
       count (key ^ "/collapses") collapses;
       count (key ^ "/resident_pages") resident;
       record (key ^ "/elapsed_ms") ms)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Section 3.3: the memory-object cache                                 *)
(* ------------------------------------------------------------------ *)

let object_cache_one ~cache =
  let arch = Arch.vax8200 in
  let machine, kernel, fs, _os = boot_mach ~mem:(16 * mb) arch in
  let sys = Kernel.sys kernel in
  sys.Vm_sys.cache_enabled <- cache;
  Mach_pagers.Simfs.install_file fs ~name:"/bin/cc"
    ~data:(Bytes.make (256 * kb) 'T');
  let disk = Mach_pagers.Simfs.disk fs in
  Mach_pagers.Simdisk.reset_counters disk;
  Machine.reset_clocks machine;
  for _i = 1 to 10 do
    let task = Kernel.create_task kernel ~name:"exec" () in
    Kernel.run_task kernel ~cpu:0 task;
    (match
       Mach_pagers.Vnode_pager.map_file sys fs task ~name:"/bin/cc" ()
     with
     | Ok (a, s) ->
       let rec sweepv va =
         if va < a + s then begin
           Machine.touch machine ~cpu:0 ~va ~write:false;
           sweepv (va + Kernel.page_size kernel)
         end
       in
       sweepv a
     | Error e -> failwith (Kr.to_string e));
    Kernel.terminate_task kernel ~cpu:0 task
  done;
  ( Mach_pagers.Simdisk.reads disk,
    sys.Vm_sys.stats.Vm_stats.vs_object_cache_hits,
    Machine.elapsed_ms machine )

let object_cache () =
  List.iter
    (fun flag ->
       let reads, hits, ms = object_cache_one ~cache:flag in
       let key = if flag then "enabled" else "disabled" in
       count (key ^ "/disk_reads") reads;
       count (key ^ "/cache_hits") hits;
       record (key ^ "/elapsed_ms") ms)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Section 2: large messages by copy-on-write remapping                 *)
(* ------------------------------------------------------------------ *)

let ipc_one ~out_of_line ~size =
  let arch = Arch.vax8200 in
  let machine, kernel, _fs, _os = boot_mach ~mem:(24 * mb) arch in
  let sys = Kernel.sys kernel in
  let sender = Kernel.create_task kernel ~name:"sender" () in
  let receiver = Kernel.create_task kernel ~name:"receiver" () in
  Kernel.run_task kernel ~cpu:0 sender;
  let addr =
    match Vm_user.allocate sys sender ~size ~anywhere:true () with
    | Ok a -> a
    | Error e -> failwith (Kr.to_string e)
  in
  let ps = Kernel.page_size kernel in
  let rec dirty va =
    if va < addr + size then begin
      Machine.touch machine ~cpu:0 ~va ~write:true;
      dirty (va + ps)
    end
  in
  dirty addr;
  let port = Mach_ipc.Ipc.create_port () in
  Machine.reset_clocks machine;
  if out_of_line then begin
    (match
       Mach_ipc.Ipc.send_region sys sender port ~tag:"bulk" ~addr ~size
     with
     | Ok () -> ()
     | Error e -> failwith (Kr.to_string e));
    match Mach_ipc.Ipc.receive_region sys receiver port with
    | Ok (raddr, rsize) ->
      (* The receiver looks at the first byte of each page (faulting the
         COW mappings in lazily). *)
      Kernel.run_task kernel ~cpu:0 receiver;
      let rec peek va =
        if va < raddr + rsize then begin
          Machine.touch machine ~cpu:0 ~va ~write:false;
          peek (va + ps)
        end
      in
      peek raddr
    | Error e -> failwith (Kr.to_string e)
  end
  else begin
    (* Inline: read out of the sender, copy into the message, copy out in
       the receiver. *)
    let data =
      match Vm_user.read sys sender ~addr ~size with
      | Ok b -> b
      | Error e -> failwith (Kr.to_string e)
    in
    Mach_ipc.Ipc.send sys port
      (Mach_ipc.Ipc.message "bulk" ~items:[ Mach_ipc.Ipc.Inline data ]);
    match Mach_ipc.Ipc.receive sys port with
    | Some m ->
      Kernel.run_task kernel ~cpu:0 receiver;
      let raddr =
        match Vm_user.allocate sys receiver ~size ~anywhere:true () with
        | Ok a -> a
        | Error e -> failwith (Kr.to_string e)
      in
      (match m.Mach_ipc.Ipc.msg_items with
       | [ Mach_ipc.Ipc.Inline b ] ->
         (match Vm_user.write sys receiver ~addr:raddr ~data:b with
          | Ok () -> ()
          | Error e -> failwith (Kr.to_string e))
       | _ -> assert false)
    | None -> assert false
  end;
  Machine.elapsed_ms machine

let ipc () =
  List.iter
    (fun size ->
       let inline_ms = ipc_one ~out_of_line:false ~size in
       let ool_ms = ipc_one ~out_of_line:true ~size in
       record (Printf.sprintf "%dK/inline" (size / kb)) inline_ms;
       record (Printf.sprintf "%dK/out_of_line" (size / kb)) ool_ms)
    [ 64 * kb; 256 * kb; 1 * mb; 4 * mb ]

(* ------------------------------------------------------------------ *)
(* Mixed trace workload: Mach vs UNIX beyond the paper's fixed benches  *)
(* ------------------------------------------------------------------ *)

let mixed () =
  List.iter
    (fun seed ->
       let trace = Workload.generate ~seed ~ops:300 in
       let run_on os =
         Workload.setup os trace;
         Workload.run os trace
       in
       let _, _, _, mach_os = boot_mach ~mem:(8 * mb) Arch.uvax2 in
       let _, _, _, bsd_os = boot_bsd ~mem:(8 * mb) Arch.uvax2 in
       let m = run_on mach_os and u = run_on bsd_os in
       record_pair (Printf.sprintf "seed%d" seed) m u)
    [ 11; 12; 13 ]

(* ------------------------------------------------------------------ *)
(* Table 3-4: the optional pmap_copy routine at fork                    *)
(* ------------------------------------------------------------------ *)

let prewarm_one ~prewarm =
  let machine, kernel, _fs, _os = boot_mach ~mem:(8 * mb) Arch.uvax2 in
  let sys = Kernel.sys kernel in
  sys.Vm_sys.pmap_prewarm_on_fork <- prewarm;
  let parent = Kernel.create_task kernel ~name:"p" () in
  Kernel.run_task kernel ~cpu:0 parent;
  let size = 256 * kb in
  let addr =
    match Vm_user.allocate sys parent ~size ~anywhere:true () with
    | Ok a -> a
    | Error e -> failwith (Kr.to_string e)
  in
  let ps = Kernel.page_size kernel in
  let rec dirty va =
    if va < addr + size then begin
      Machine.write_byte machine ~cpu:0 ~va 'p';
      dirty (va + ps)
    end
  in
  dirty addr;
  Machine.reset_clocks machine;
  let child = Kernel.fork_task kernel ~cpu:0 parent in
  Kernel.run_task kernel ~cpu:0 child;
  let rec sweep va =
    if va < addr + size then begin
      Machine.touch machine ~cpu:0 ~va ~write:false;
      sweep (va + ps)
    end
  in
  sweep addr;
  ((Machine.stats machine).Machine.faults, Machine.elapsed_ms machine)

let fork_prewarm () =
  List.iter
    (fun flag ->
       let faults, ms = prewarm_one ~prewarm:flag in
       let key = if flag then "used" else "default" in
       count (key ^ "/child_faults") faults;
       record (key ^ "/elapsed_ms") ms)
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Section 6: copy-on-reference memory over the network                 *)
(* ------------------------------------------------------------------ *)

let net_one ~touch_fraction =
  let arch = Arch.vax8200 in
  let server_machine =
    Machine.create ~arch ~memory_frames:(frames_for arch ~mem_bytes:(8 * mb)) ()
  in
  let client_machine =
    Machine.create ~arch ~memory_frames:(frames_for arch ~mem_bytes:(8 * mb)) ()
  in
  let server_kernel = Kernel.create ~page_multiple:8 server_machine in
  let client_kernel = Kernel.create ~page_multiple:8 client_machine in
  let link = Mach_net.Netlink.create [ server_machine; client_machine ] in
  let server_fs = Mach_pagers.Simfs.create server_machine () in
  let size = 1 * mb in
  Mach_pagers.Simfs.install_file server_fs ~name:"/data"
    ~data:(Bytes.make size 'n');
  let server =
    Mach_net.Net_pager.serve ~node:0 (Kernel.sys server_kernel) server_fs
  in
  let sys = Kernel.sys client_kernel in
  let task = Kernel.create_task client_kernel ~name:"client" () in
  Kernel.run_task client_kernel ~cpu:0 task;
  let addr, _ =
    match
      Mach_net.Net_pager.map_remote link ~node:1 sys task server
        ~name:"/data" ()
    with
    | Ok v -> v
    | Error e -> failwith (Kr.to_string e)
  in
  let ps = Kernel.page_size client_kernel in
  let pages = size / ps in
  let to_touch = max 1 (pages * touch_fraction / 100) in
  Machine.reset_clocks client_machine;
  Mach_net.Netlink.reset_counters link;
  (* Touch a spread of pages (copy-on-reference). *)
  for i = 0 to to_touch - 1 do
    let page = i * pages / to_touch in
    Machine.touch client_machine ~cpu:0 ~va:(addr + (page * ps))
      ~write:false
  done;
  let lazy_ms = Machine.elapsed_ms client_machine in
  let lazy_bytes = Mach_net.Netlink.bytes_moved link in
  (* Eager comparison: ship the whole file first. *)
  Machine.reset_clocks client_machine;
  Mach_net.Netlink.reset_counters link;
  ignore (Mach_net.Net_pager.fetch_whole link ~node:1 sys server ~name:"/data");
  let eager_ms = Machine.elapsed_ms client_machine in
  let eager_bytes = Mach_net.Netlink.bytes_moved link in
  (lazy_ms, lazy_bytes, eager_ms, eager_bytes)

let net_memory () =
  List.iter
    (fun pct ->
       let lazy_ms, lazy_b, eager_ms, eager_b = net_one ~touch_fraction:pct in
       let c = Printf.sprintf "%dpct/%s" pct in
       record (c "lazy_ms") lazy_ms;
       count (c "lazy_bytes") lazy_b;
       record (c "eager_ms") eager_ms;
       count (c "eager_bytes") eager_b)
    [ 5; 25; 50; 100 ]

(* ------------------------------------------------------------------ *)
(* Chaos: pager retry/backoff, death, and dirty-page rescue             *)
(* ------------------------------------------------------------------ *)

module Fail = Mach_fail.Fail

(* A deterministic disaster.  An external pager is wrapped in a seeded
   injector: its first two read requests fail transiently (bounded retry
   recovers), and every write fails permanently — so under memory
   pressure the pageout daemon burns its retry budget, declares the
   pager dead, and rescues the dirty pages through the default pager.
   The workload must finish with zero corrupt pages and zero
   task-visible memory errors; all counters are exact, seeded
   reproductions. *)
let chaos () =
  let machine, kernel, _fs, _os = boot_mach ~mem:(128 * kb) Arch.uvax2 in
  let sys = Kernel.sys kernel in
  let ps = Kernel.page_size kernel in
  let inj = Fail.create ~seed:1987 in
  Fail.attach inj ~site:"pager.request"
    [ Fail.Fail_n_then_recover (2, Fail.Fail) ];
  Fail.attach inj ~site:"pager.write" [ Fail.Always Fail.Fail ];
  let task = Kernel.create_task kernel ~name:"chaos" () in
  Kernel.run_task kernel ~cpu:0 task;
  let store : (int, Bytes.t) Hashtbl.t = Hashtbl.create 32 in
  let pager =
    {
      Types.pgr_id = Vm_sys.fresh_pager_id sys;
      pgr_name = "victim";
      pgr_request =
        (fun ~offset ~length ->
           match Hashtbl.find_opt store offset with
           | Some d ->
             Types.Data_provided
               (Lent.truncate (Lent.of_bytes d) length, Types.io_none)
           | None -> Types.Data_unavailable);
      pgr_write =
        (fun ~offset ~data ->
           Hashtbl.replace store offset (Lent.to_bytes data);
           Types.Write_completed);
      pgr_should_cache = ref false;
    }
  in
  let n = 24 in
  let addr =
    match
      Mach_pagers.Chaos_pager.map_wrapped sys task inj ~pager ~size:(n * ps)
        ()
    with
    | Ok (a, _) -> a
    | Error e -> failwith (Kr.to_string e)
  in
  Machine.reset_clocks machine;
  let pattern i = Printf.sprintf "chaos-page-%02d" i in
  (* Dirty the whole region: the first faults also exercise the
     transient read-failure retries. *)
  for i = 0 to n - 1 do
    Machine.write machine ~cpu:0 ~va:(addr + (i * ps))
      (Bytes.of_string (pattern i))
  done;
  (* Memory pressure until the pager dies, then until everything is
     evicted through the rescue pager. *)
  for _ = 1 to 6 do
    Vm_pageout.deactivate_some sys ~count:64;
    Vm_pageout.run sys ~wanted:64
  done;
  (* Fault everything back in and verify. *)
  let corrupt = ref 0 in
  for i = 0 to n - 1 do
    let got =
      Bytes.to_string
        (Machine.read machine ~cpu:0 ~va:(addr + (i * ps))
           ~len:(String.length (pattern i)))
    in
    if got <> pattern i then incr corrupt
  done;
  let s = sys.Vm_sys.stats in
  count "injections" (Fail.injections inj);
  count "pager_retries" s.Vm_stats.vs_pager_retries;
  count "pager_failures" s.Vm_stats.vs_pager_failures;
  count "pager_deaths" s.Vm_stats.vs_pager_deaths;
  count "rescued_pages" s.Vm_stats.vs_rescued_pages;
  count "pageout_failures" s.Vm_stats.vs_pageout_failures;
  count "memory_errors" s.Vm_stats.vs_memory_errors;
  count "corrupt_pages" !corrupt;
  record "elapsed_ms" (Machine.elapsed_ms machine)

(* ------------------------------------------------------------------ *)
(* Clustered paging: read-ahead window ablation                         *)
(* ------------------------------------------------------------------ *)

(* The pre-clustering read(): the exact loop read_through_object ran
   before clustered pagein existed — one guarded single-page request per
   miss, no window bookkeeping.  Recorded as the `legacy` reference cell:
   with [cluster_max = 1] the clustered path must cost exactly this
   (tools/bench_check.ml asserts the two elapsed times are identical). *)
let legacy_read sys fs ~name ~offset ~len =
  Vm_sys.charge sys (Vm_sys.cost sys).Arch.syscall;
  let pager = Mach_pagers.Vnode_pager.for_file sys fs ~name in
  let size = Mach_pagers.Simfs.file_size fs ~name in
  let obj = Vm_object.create_with_pager sys pager ~size in
  let len = if offset >= size then 0 else min len (size - offset) in
  let ps = sys.Vm_sys.page_size in
  let rec loop pos =
    if pos < len then begin
      let abs = offset + pos in
      let page_off = abs - (abs mod ps) in
      let chunk = min (ps - (abs mod ps)) (len - pos) in
      let page =
        match Vm_object.lookup_resident sys obj ~offset:page_off with
        | Some p -> p
        | None ->
          let p = Vm_sys.grab_page sys in
          Resident.insert sys.Vm_sys.resident p ~obj ~offset:page_off;
          (match
             Pager_guard.request sys obj ~offset:page_off ~length:ps
           with
           | `Data (data, io) ->
             Machine.wait_io sys.Vm_sys.machine
               ~cpu:(Vm_sys.current_cpu sys) io;
             Page_io.fill sys p data
           | `Absent | `Error -> Page_io.zero sys p);
          sys.Vm_sys.stats.Vm_stats.vs_pager_reads <-
            sys.Vm_sys.stats.Vm_stats.vs_pager_reads + 1;
          Resident.activate sys.Vm_sys.resident p;
          p
      in
      Page_io.blit_out sys page ~off:(abs mod ps) ~len:chunk
        (Bytes.create chunk) ~pos:0;
      loop (pos + chunk)
    end
  in
  loop 0;
  Vm_object.deallocate sys obj

let cluster () =
  let windows = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let seq_size = 2 * mb in
  let rand_reads = 256 in
  let wb_size = mb in
  (* Sequential streaming read of a 2 MB file at window [w]: fresh boot,
     cold cache; the prefetch tail lands while the consuming CPU copies
     the pages before it.  Returns (elapsed, disk reqs, prefetch
     issued/hits, device overlap cycles). *)
  let seq_read w =
    let machine, kernel, _, os = boot_mach ~mem:(16 * mb) Arch.vax8200 in
    let sys = Kernel.sys kernel in
    sys.Vm_sys.cluster_max <- w;
    os.Os_iface.install_file ~name:"/seq" ~data:(Bytes.make seq_size 'S');
    os.Os_iface.reset ();
    ignore (os.Os_iface.read_file ~cpu:0 ~name:"/seq" ~offset:0 ~len:seq_size);
    let ms = os.Os_iface.elapsed_ms () in
    let s = sys.Vm_sys.stats in
    (ms, s.Vm_stats.vs_pager_reads, s.Vm_stats.vs_prefetch_issued,
     s.Vm_stats.vs_prefetch_hits,
     (Machine.stats machine).Machine.disk_overlap_cycles)
  in
  (* Page-granular 4 KB reads at seeded-random offsets: the window must
     stay collapsed, so elapsed is flat across [w] and read-ahead issues
     (nearly) nothing. *)
  let rand_read w =
    let _, kernel, _, os = boot_mach ~mem:(16 * mb) Arch.vax8200 in
    let sys = Kernel.sys kernel in
    sys.Vm_sys.cluster_max <- w;
    os.Os_iface.install_file ~name:"/rand" ~data:(Bytes.make seq_size 'R');
    let ps = sys.Vm_sys.page_size in
    let st = Random.State.make [| 0x5eed |] in
    os.Os_iface.reset ();
    for _ = 1 to rand_reads do
      let pg = Random.State.int st (seq_size / ps) in
      ignore
        (os.Os_iface.read_file ~cpu:0 ~name:"/rand" ~offset:(pg * ps) ~len:ps)
    done;
    (os.Os_iface.elapsed_ms (), sys.Vm_sys.stats.Vm_stats.vs_prefetch_issued)
  in
  (* Writeback: dirty 1 MB of anonymous memory, then force the pageout
     daemon to push it all to the default pager.  Contiguous dirty pages
     coalesce into clustered writes of up to [w] pages. *)
  let writeback w =
    let machine, kernel, _, _ = boot_mach ~mem:(16 * mb) Arch.vax8200 in
    let sys = Kernel.sys kernel in
    sys.Vm_sys.cluster_max <- w;
    let task = Kernel.create_task kernel ~name:"wb" () in
    Kernel.run_task kernel ~cpu:0 task;
    let addr =
      match Vm_user.allocate sys task ~size:wb_size ~anywhere:true () with
      | Ok a -> a
      | Error e -> failwith (Kr.to_string e)
    in
    let ps = sys.Vm_sys.page_size in
    let npages = wb_size / ps in
    for i = 0 to npages - 1 do
      Machine.touch machine ~cpu:0 ~va:(addr + (i * ps)) ~write:true
    done;
    Machine.reset_clocks machine;
    for _ = 1 to 4 do
      Vm_pageout.deactivate_some sys ~count:npages;
      Vm_pageout.run sys ~wanted:npages
    done;
    ( Machine.elapsed_ms machine,
      sys.Vm_sys.stats.Vm_stats.vs_clustered_pageouts )
  in
  List.iter
    (fun w ->
       let seq_ms, reqs, issued, hits, overlap = seq_read w in
       let rand_ms, rand_issued = rand_read w in
       let wb_ms, cw = writeback w in
       let c = Printf.sprintf "%s/w%d" in
       record (c "seq_read_2M" w) seq_ms;
       record (c "rand_read_256x4K" w) rand_ms;
       record (c "writeback_1M" w) wb_ms;
       count (c "pager_reads" w) reqs;
       count (c "prefetch_issued" w) issued;
       count (c "prefetch_hits" w) hits;
       count (c "clustered_pageouts" w) cw;
       if w = 8 then begin
         count "rand_prefetch_issued/w8" rand_issued;
         count "disk_overlap_cycles/w8" overlap
       end)
    windows;
  (* The zero-overhead reference: the pre-clustering per-page loop on a
     fresh boot must cost exactly what the clustered path costs at w=1. *)
  let machine, kernel, fs, os = boot_mach ~mem:(16 * mb) Arch.vax8200 in
  let sys = Kernel.sys kernel in
  sys.Vm_sys.cluster_max <- 1;
  os.Os_iface.install_file ~name:"/seq" ~data:(Bytes.make seq_size 'S');
  os.Os_iface.reset ();
  legacy_read sys fs ~name:"/seq" ~offset:0 ~len:seq_size;
  let legacy_ms = Machine.elapsed_ms machine in
  record "seq_read_2M/legacy" legacy_ms;
  (* Attribution cells: an instrumented re-run of the w=8 streaming
     read.  The Disk_wait share is the fraction of all cycles spent
     blocked on device time.  A separate boot, so the untraced cells
     above are untouched; [os.reset] zeroes the clocks and the
     attribution totals together, so conservation is exact from that
     point even though the tracer arrived after the kernel booted. *)
  let machine, kernel, _, os = boot_mach ~mem:(16 * mb) Arch.vax8200 in
  let tr = Mach_obs.Obs.create ~capacity:(1 lsl 12) () in
  Mach_obs.Obs.set_enabled tr true;
  Machine.set_tracer machine tr;
  let sys = Kernel.sys kernel in
  sys.Vm_sys.cluster_max <- 8;
  os.Os_iface.install_file ~name:"/seq" ~data:(Bytes.make seq_size 'S');
  os.Os_iface.reset ();
  ignore (os.Os_iface.read_file ~cpu:0 ~name:"/seq" ~offset:0 ~len:seq_size);
  let frac =
    float_of_int (Mach_obs.Obs.attr_grand_total tr Mach_obs.Obs.Disk_wait)
    /. float_of_int (Machine.max_cycles machine)
  in
  let conserved =
    Mach_obs.Obs.attr_cpu_total tr ~cpu:0 = Machine.cycles machine ~cpu:0
  in
  record "attr_disk_wait_frac/w8" frac;
  count "attr_conserved/w8" (Bool.to_int conserved)

(* ------------------------------------------------------------------ *)
(* Multiprocessor fault scalability: object locks and burst faulting    *)
(* ------------------------------------------------------------------ *)

(* CPU counts the mpfault scaling sweep runs at. *)
let mpfault_cpus = [ 1; 2; 4; 8; 16 ]

type mp_result = {
  mp_ms : float;              (* wall clock: max over the CPU clocks *)
  mp_faults : int;
  mp_stalls : int;            (* contended object-lock acquisitions *)
  mp_stall_share : float;     (* lock-stall cycles / sum of CPU clocks *)
  mp_round_faults : int;      (* faults after the zero-fill sweep *)
  mp_round_enters : int;      (* pmap enters after the zero-fill sweep *)
  mp_burst_faults : int;
  mp_burst_mapped : int;
  mp_issued : int;            (* prefetch_issued (burst neighbours) *)
  mp_hits : int;              (* prefetch_hits (neighbours touched) *)
  mp_attr : (float * bool) option;
      (* traced runs only: (Lock_wait share of all cycles, per-CPU
         attribution sums equal the clocks) *)
  mp_steals : int;            (* pages stolen from another CPU's magazine *)
}

(* One configuration: [cpus] processors each faulting an identical
   per-CPU stream against one shared object (disjoint 32-page stripes)
   or a private object per CPU, under burst limit [burst] (0 and 1 map
   only the demand page).  The stream is a round-robin zero-fill sweep
   of the stripe — writer sections, so they contend on the shared
   object — followed by [rounds] rounds of dropping the pmap mappings
   and re-touching every page (resident fast reloads, where bursting
   applies).  Per-CPU work is fixed, so wall-clock differences across
   CPU counts are contention, not extra work.  With [dropped] the rounds
   take the vmbench smp shape instead: every CPU touches one page of its
   stripe, then every stripe is dropped, so no burst neighbour is ever
   used before its mapping goes.  With [lock_sim] the free queue's lock
   is priced too (the allocator table); the other cells leave it free. *)
let mpfault_run ?(traced = false) ?(lock_sim = false) ?(dropped = false)
    ~cpus ~shared ~burst () =
  let stripe_pages = 32 in
  let rounds = 4 in
  let machine, kernel, _, _ = boot_mach ~mem:(32 * mb) ~cpus Arch.vax8200 in
  let sys = Kernel.sys kernel in
  sys.Vm_sys.burst_max <- burst;
  Resident.set_lock_sim sys.Vm_sys.resident lock_sim;
  let tr =
    if not traced then None
    else begin
      let tr = Mach_obs.Obs.create ~capacity:(1 lsl 12) () in
      Mach_obs.Obs.set_enabled tr true;
      Machine.set_tracer machine tr;
      Some tr
    end
  in
  let ps = Kernel.page_size kernel in
  let stripe = stripe_pages * ps in
  let domain = kernel.Kernel.domain in
  let alloc task size =
    match Vm_user.allocate sys task ~size ~anywhere:true () with
    | Ok a -> a
    | Error e -> failwith (Kr.to_string e)
  in
  let pmap_of task =
    match (Task.map task).Types.map_pmap with
    | Some p -> p
    | None -> assert false
  in
  (* stripes.(i): CPU i's address space and the base of its stripe. *)
  let stripes =
    if shared then begin
      let task = Kernel.create_task kernel ~name:"shared" () in
      for cpu = 0 to cpus - 1 do
        Kernel.run_task kernel ~cpu task
      done;
      let addr = alloc task (cpus * stripe) in
      Array.init cpus (fun i -> (pmap_of task, addr + (i * stripe)))
    end
    else
      Array.init cpus (fun i ->
          let task =
            Kernel.create_task kernel ~name:(Printf.sprintf "p%d" i) ()
          in
          Kernel.run_task kernel ~cpu:i task;
          (pmap_of task, alloc task stripe))
  in
  (* Measure from here: clocks, machine stats and attribution zeroed
     together, so the traced run's conservation check is exact. *)
  Machine.reset_clocks machine;
  let s = sys.Vm_sys.stats in
  let f0 = s.Vm_stats.vs_faults in
  let sweep ~write =
    (* Page p on every CPU, then p+1: the interleave a multiprocessor
       would see, so critical sections overlap across the clocks. *)
    for p = 0 to stripe_pages - 1 do
      Array.iteri
        (fun cpu (_, base) ->
           Machine.touch machine ~cpu ~va:(base + (p * ps)) ~write)
        stripes
    done
  in
  sweep ~write:true;
  let f1 = s.Vm_stats.vs_faults in
  let enters () =
    (Mach_pmap.Pmap_domain.total_stats domain).Mach_pmap.Pmap.enters
  in
  let e1 = enters () in
  let drop_all () =
    Array.iteri
      (fun cpu (pmap, base) ->
         Mach_pmap.Pmap_domain.set_current_cpu domain cpu;
         pmap.Mach_pmap.Pmap.remove ~start_va:base ~end_va:(base + stripe))
      stripes
  in
  if dropped then
    for p = 0 to stripe_pages - 1 do
      Array.iteri
        (fun cpu (_, base) ->
           Machine.touch machine ~cpu ~va:(base + (p * ps)) ~write:true)
        stripes;
      drop_all ()
    done
  else
    for _ = 1 to rounds do
      drop_all ();
      sweep ~write:true
    done;
  let total_cycles = ref 0 in
  for cpu = 0 to Machine.cpu_count machine - 1 do
    total_cycles := !total_cycles + Machine.cycles machine ~cpu
  done;
  let attr =
    match tr with
    | None -> None
    | Some tr ->
      let lw = Mach_obs.Obs.attr_grand_total tr Mach_obs.Obs.Lock_wait in
      let conserved = ref true in
      for cpu = 0 to Machine.cpu_count machine - 1 do
        if
          Mach_obs.Obs.attr_cpu_total tr ~cpu
          <> Machine.cycles machine ~cpu
        then conserved := false
      done;
      Some (float_of_int lw /. float_of_int (max 1 !total_cycles),
            !conserved)
  in
  { mp_ms = Machine.elapsed_ms machine;
    mp_faults = s.Vm_stats.vs_faults - f0;
    mp_round_faults = s.Vm_stats.vs_faults - f1;
    mp_round_enters = enters () - e1;
    mp_stalls = s.Vm_stats.vs_lock_stalls;
    mp_stall_share =
      float_of_int s.Vm_stats.vs_lock_stall_cycles
      /. float_of_int (max 1 !total_cycles);
    mp_burst_faults = s.Vm_stats.vs_burst_faults;
    mp_burst_mapped = s.Vm_stats.vs_burst_mapped;
    mp_issued = s.Vm_stats.vs_prefetch_issued;
    mp_hits = s.Vm_stats.vs_prefetch_hits;
    mp_attr = attr;
    mp_steals = s.Vm_stats.vs_page_steals }

let mpfault () =
  let fps r = float_of_int r.mp_faults /. (r.mp_ms /. 1000.) in
  List.iter
    (fun cpus ->
       List.iter
         (fun shared ->
            let key = if shared then "shared" else "private" in
            let r = mpfault_run ~cpus ~shared ~burst:8 () in
            let c = Printf.sprintf "%s/c%d/%s" key cpus in
            count (c "faults") r.mp_faults;
            count (c "lock_stalls") r.mp_stalls;
            record (c "faults_per_sec") (fps r);
            record (c "elapsed_ms") r.mp_ms;
            record (c "lock_stall_share") r.mp_stall_share)
         [ false; true ])
    mpfault_cpus;
  (* Burst ablation at a fixed CPU count: burst=1 maps only the demand
     page, larger limits amortize fault overhead and flush exchanges
     over neighbours. *)
  let bc = 4 in
  let hit_rate r =
    if r.mp_issued = 0 then 0.
    else float_of_int r.mp_hits /. float_of_int r.mp_issued
  in
  List.iter
    (fun burst ->
       let r = mpfault_run ~cpus:bc ~shared:false ~burst () in
       let c = Printf.sprintf "burst/b%d/%s" burst in
       count (c "faults") r.mp_faults;
       count (c "burst_faults") r.mp_burst_faults;
       record (c "elapsed_ms") r.mp_ms;
       record (c "hit_rate") (hit_rate r);
       count (c "mapped") r.mp_burst_mapped)
    [ 1; 2; 4; 8; 16 ];
  (* Drop-before-touch on one shared object, burst=8: every neighbour's
     mapping is dropped unused, so each entry's window must fall to the
     demand page and re-probe one neighbour on an exponential backoff
     (well under one neighbour per fault), and no demand fault on a
     dropped neighbour may count as a prefetch hit.  Enters per fault
     count hardware frames, the demand page's included. *)
  let r = mpfault_run ~dropped:true ~cpus:bc ~shared:true ~burst:8 () in
  let per_round_fault n =
    float_of_int n /. float_of_int (max 1 r.mp_round_faults)
  in
  record "burst/dropped/mapped_per_fault" (per_round_fault r.mp_burst_mapped);
  record "burst/dropped/enters_per_fault" (per_round_fault r.mp_round_enters);
  record "burst/dropped/hit_rate" (hit_rate r);
  (* Attribution: a traced re-run of the shared configuration.  Separate
     boot, so the untraced cells above are untouched. *)
  let r = mpfault_run ~traced:true ~cpus:bc ~shared:true ~burst:8 () in
  (match r.mp_attr with
   | None -> assert false
   | Some (lw_share, conserved) ->
     let c = Printf.sprintf "%s/c%d_shared" in
     record (c "attr_lock_wait_share" bc) lw_share;
     count (c "attr_conserved" bc) (Bool.to_int conserved));
  (* Free-page allocator: the same shared-object interleave, burst=8,
     with queue-lock contention simulated; the magazines batch the lock
     traffic 8 pages per trip.  The scaling sweep above runs with the
     cost invisible, so its cells are untouched by these. *)
  List.iter
    (fun cpus ->
       let r = mpfault_run ~lock_sim:true ~cpus ~shared:true ~burst:8 () in
       let c = Printf.sprintf "alloc/c%d/%s" cpus in
       record (c "faults_per_sec") (fps r);
       record (c "stall_share") r.mp_stall_share;
       count (c "steals") r.mp_steals;
       record (c "elapsed_ms") r.mp_ms)
    mpfault_cpus

(* ------------------------------------------------------------------ *)
(* Memory pressure: overcommit sweep against finite memory and swap     *)
(* ------------------------------------------------------------------ *)

(* 2 MB of memory and 2 MB of swap on the uVAX II: 512 VM pages
   resident, 512 more on the default pager.  The sweep scales total
   anonymous demand from 1x to 4x of physical memory across 8 tasks; at
   1x everything fits (the reserves and backpressure machinery must
   stay silent — those cells are the determinism guard), past 2x the
   dirty set exceeds memory + swap and the OOM policy has to kill to
   keep the kernel making progress. *)
let pressure_mem = 2 * mb

type pr_result = {
  pr_ms : float;
  pr_oom_kills : int;
  pr_alloc_waits : int;
  pr_pageouts : int;
  pr_swap_full : int;
  pr_survivors : int;
  pr_attr : (float * bool) option;
      (* traced runs only: (Mem_wait share of all cycles, per-CPU
         attribution sums equal the clocks) *)
}

let pressure_run ?(traced = false) ?(lock_sim = false) ~factor () =
  let tasks_n = 8 in
  let machine, kernel, _, _ = boot_mach ~mem:pressure_mem Arch.uvax2 in
  let sys = Kernel.sys kernel in
  Vm_sys.set_swap_capacity sys (Some pressure_mem);
  Resident.set_lock_sim sys.Vm_sys.resident lock_sim;
  let tr =
    if not traced then None
    else begin
      let tr = Mach_obs.Obs.create ~capacity:(1 lsl 12) () in
      Mach_obs.Obs.set_enabled tr true;
      Machine.set_tracer machine tr;
      Some tr
    end
  in
  let ps = Kernel.page_size kernel in
  let total_pages = pressure_mem / ps in
  let per_task_pages = total_pages * factor / tasks_n in
  let size = per_task_pages * ps in
  let tasks =
    Array.init tasks_n (fun i ->
        Kernel.create_task kernel ~name:(Printf.sprintf "pr%d" i) ())
  in
  let addrs =
    Array.map
      (fun task ->
         Kernel.run_task kernel ~cpu:0 task;
         match Vm_user.allocate sys task ~size ~anywhere:true () with
         | Ok a -> a
         | Error e -> failwith (Kr.to_string e))
      tasks
  in
  (* Measure from here: clocks and attribution zeroed together, so the
     traced run's conservation check is exact. *)
  Machine.reset_clocks machine;
  let s = sys.Vm_sys.stats in
  let oom0 = s.Vm_stats.vs_oom_kills and aw0 = s.Vm_stats.vs_alloc_waits in
  let po0 = s.Vm_stats.vs_pageouts and sf0 = s.Vm_stats.vs_swap_full_failures in
  let alive = Array.make tasks_n true in
  (* Page p of every task, then p+1 — the round-robin interleave keeps
     all the working sets hot at once, so the daemon can never get ahead
     by evicting a task that is simply done.  A touch on a task the OOM
     policy killed mid-sweep answers KERN_MEMORY_ERROR; the workload
     notes the death and carries on, exactly like a user program. *)
  let sweep () =
    for p = 0 to per_task_pages - 1 do
      Array.iteri
        (fun i task ->
           if task.Task.task_oom_killed then alive.(i) <- false
           else if alive.(i) then begin
             Kernel.run_task kernel ~cpu:0 task;
             try
               Machine.touch machine ~cpu:0 ~va:(addrs.(i) + (p * ps))
                 ~write:true
             with Machine.Memory_violation _ -> alive.(i) <- false
           end)
        tasks
    done
  in
  (* Two passes: the second re-touches what the first paged out, so the
     dirty set keeps cycling through memory, swap and the reserves. *)
  sweep ();
  sweep ();
  let attr =
    match tr with
    | None -> None
    | Some tr ->
      let mw = Mach_obs.Obs.attr_grand_total tr Mach_obs.Obs.Mem_wait in
      let conserved =
        Mach_obs.Obs.attr_cpu_total tr ~cpu:0 = Machine.cycles machine ~cpu:0
      in
      Some
        (float_of_int mw /. float_of_int (max 1 (Machine.max_cycles machine)),
         conserved)
  in
  { pr_ms = Machine.elapsed_ms machine;
    pr_oom_kills = s.Vm_stats.vs_oom_kills - oom0;
    pr_alloc_waits = s.Vm_stats.vs_alloc_waits - aw0;
    pr_pageouts = s.Vm_stats.vs_pageouts - po0;
    pr_swap_full = s.Vm_stats.vs_swap_full_failures - sf0;
    pr_survivors =
      Array.fold_left (fun n t -> if t.Task.task_oom_killed then n else n + 1)
        0 tasks;
    pr_attr = attr }

let pressure () =
  List.iter
    (fun factor ->
       let r = pressure_run ~factor () in
       let c = Printf.sprintf "x%d/%s" factor in
       record (c "elapsed_ms") r.pr_ms;
       count (c "oom_kills") r.pr_oom_kills;
       count (c "alloc_waits") r.pr_alloc_waits;
       count (c "pageouts") r.pr_pageouts;
       count (c "swap_full_failures") r.pr_swap_full;
       count (c "survivors") r.pr_survivors)
    [ 1; 2; 3; 4 ];
  (* Attribution: a traced re-run of the 4x point.  Separate boot, so
     the untraced cells above are untouched; Mem_wait is the cycles
     allocations spent blocked on the pageout daemon, and conservation
     must stay exact with the new category in the ledger. *)
  let r = pressure_run ~traced:true ~factor:4 () in
  (match r.pr_attr with
   | None -> assert false
   | Some (mw_share, conserved) ->
     record "attr_mem_wait_share/x4" mw_share;
     count "attr_conserved/x4" (Bool.to_int conserved));
  (* The 3x point again with the free queue's lock priced: the policy
     outcome must not move — magazines are drained when pressure is
     declared, so cached pages cannot strand below the watermarks and
     change who gets killed. *)
  let rc = pressure_run ~lock_sim:true ~factor:3 () in
  count "alloc/x3/oom_kills" rc.pr_oom_kills;
  count "alloc/x3/survivors" rc.pr_survivors;
  record "alloc/x3/elapsed_ms" rc.pr_ms

(* ------------------------------------------------------------------ *)
(* Concurrent streams: shared-object read-ahead interference            *)
(* ------------------------------------------------------------------ *)

(* Reader counts for the interference sweep. *)
let streams_ks = [ 1; 2; 4; 8; 16; 32; 64 ]

(* K tasks stream disjoint 256 KB stripes of ONE shared file, one 4 KB
   chunk per reader per turn (round robin), each on its own CPU.  With
   per-(map,entry) stream slots each reader ramps 1->2->4->8
   independently, so per-reader cost stays flat in K until the readers
   outnumber the slots; ramped streams also deactivate their wake
   (free-behind). *)
let streams () =
  let stripe_pages = 64 in
  let run k =
    let machine, kernel, fs, _os =
      boot_mach ~mem:(64 * mb) ~cpus:k Arch.vax8200
    in
    let sys = Kernel.sys kernel in
    let ps = sys.Vm_sys.page_size in
    let stripe = stripe_pages * ps in
    Mach_pagers.Simfs.install_file fs ~name:"/shared"
      ~data:(Bytes.make (k * stripe) 'D');
    Machine.reset_clocks machine;
    for turn = 0 to stripe_pages - 1 do
      for r = 0 to k - 1 do
        Mach_pmap.Pmap_domain.set_current_cpu kernel.Kernel.domain r;
        Vm_sys.charge sys (Vm_sys.cost sys).Arch.syscall;
        ignore
          (Mach_pagers.Vnode_pager.read_through_object sys ~stream:(r, 0)
             fs ~name:"/shared"
             ~offset:((r * stripe) + (turn * ps))
             ~len:ps)
      done
    done;
    (Machine.elapsed_ms machine, sys.Vm_sys.stats)
  in
  List.iter
    (fun k ->
       let ms, s = run k in
       let c metric = Printf.sprintf "%s/k%d" metric k in
       record (Printf.sprintf "k%d/elapsed_ms" k) ms;
       count (c "stream_hits") s.Vm_stats.vs_stream_hits;
       count (c "stream_resets") s.Vm_stats.vs_stream_resets;
       count (c "pager_reads") s.Vm_stats.vs_pager_reads;
       count (c "free_behind_pages") s.Vm_stats.vs_free_behind_pages)
    streams_ks

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

(* Each experiment's [-e] key, run and cells.  A run exits 1 on a cell it
   did not declare or a declared cell it did not record. *)
let experiments =
  let e key run cells = { key; run; cells } in
  let x = Printf.sprintf and mach_unix = ms [ "mach"; "unix" ] in
  [ e "table7_1" table7_1
      (decl [ [ "zero_fill_1k"; "fork_256k" ];
              [ "RT PC"; "uVAX II"; "SUN 3/160" ] ] mach_unix);
    e "table7_1_files" table7_1_files
      (decl [ [ "read_2.5M_1st"; "read_2.5M_2nd"; "read_50K_1st";
                "read_50K_2nd" ] ] mach_unix);
    e "table7_2" table7_2
      (decl [ [ "13_programs_400buf"; "kernel_build_400buf";
                "13_programs_generic"; "kernel_build_generic";
                "fork_test_sun3" ] ] mach_unix);
    e "pmap_arch" pmap_arch
      (decl [ [ "vax"; "rt_pc"; "sun3"; "ns32082"; "rp3" ] ]
         (leaves Count Fault [ "faults"; "reloads" ]
          @ leaves Count Pmap [ "alias_evictions"; "context_steals" ]
          @ [ ("map_bytes", Bytes, Pmap); ("va_blocked", Flag, Pmap);
              elapsed ]));
    e "shootdown" shootdown
      (decl [ [ "immediate"; "deferred"; "lazy" ]; [ "batched" ] ]
         (elapsed
          :: leaves Count Hw [ "ipis"; "deferred_flushes"; "stale_tlb_uses" ]));
    e "shadow" shadow
      (decl [ [ "enabled"; "disabled" ] ]
         (leaves Count Fault [ "final_chain"; "collapses" ]
          @ [ ("resident_pages", Pages, Resident); elapsed ]));
    e "object_cache" object_cache
      (decl [ [ "enabled"; "disabled" ] ]
         [ ("disk_reads", Count, Disk); ("cache_hits", Count, Map); elapsed ]);
    e "ipc" ipc
      (decl [ [ "64K"; "256K"; "1024K"; "4096K" ] ]
         (leaves Ms Ipc [ "inline"; "out_of_line" ]));
    e "fork_prewarm" fork_prewarm
      (decl [ [ "default"; "used" ] ]
         [ ("child_faults", Count, Fault); elapsed ]);
    e "mixed" mixed (decl [ [ "seed11"; "seed12"; "seed13" ] ] mach_unix);
    e "net_memory" net_memory
      (decl [ [ "5pct"; "25pct"; "50pct"; "100pct" ] ]
         (ms [ "lazy_ms"; "eager_ms" ]
          @ leaves Bytes Pager [ "lazy_bytes"; "eager_bytes" ]));
    e "chaos" chaos
      (leaves Count Pager
         [ "injections"; "pager_retries"; "pager_failures"; "pager_deaths" ]
       @ [ ("rescued_pages", Pages, Swap); ("corrupt_pages", Pages, Pager);
           ("pageout_failures", Count, Resident);
           ("memory_errors", Count, Fault); elapsed ]);
    e "cluster" cluster
      (let ws = [ "w1"; "w2"; "w4"; "w8"; "w16"; "w32"; "w64" ] in
       decl [ [ "seq_read_2M"; "writeback_1M"; "rand_read_256x4K" ] ] (ms ws)
       @ decl
         [ [ "pager_reads"; "prefetch_issued"; "prefetch_hits";
             "clustered_pageouts" ] ]
         (leaves Count Cluster ws)
       @ [ ("rand_prefetch_issued/w8", Count, Cluster);
           ("attr_disk_wait_frac/w8", Ratio, Disk);
           ("disk_overlap_cycles/w8", Cycles, Disk);
           ("attr_conserved/w8", Flag, E2e); ("seq_read_2M/legacy", Ms, E2e) ]);
    e "streams" streams
      (let ks = List.map (x "k%d") streams_ks in
       decl [ ks ] [ elapsed ]
       @ decl [ [ "stream_hits"; "stream_resets"; "pager_reads" ] ]
         (leaves Count Cluster ks)
       @ decl [ [ "free_behind_pages" ] ] (leaves Pages Cluster ks));
    e "mpfault" mpfault
      (let cs = List.map (x "c%d") mpfault_cpus in
       decl [ [ "private"; "shared" ]; cs ]
         (leaves Count Fault [ "faults"; "lock_stalls" ]
          @ [ ("faults_per_sec", Per_s, Fault);
              ("lock_stall_share", Ratio, Fault); elapsed ])
       @ decl [ [ "burst" ]; [ "b1"; "b2"; "b4"; "b8"; "b16" ] ]
         (leaves Count Fault [ "faults"; "burst_faults"; "mapped" ]
          @ [ ("hit_rate", Ratio, Fault); elapsed ])
       @ leaves Ratio Fault
         [ "burst/dropped/mapped_per_fault"; "burst/dropped/hit_rate";
           "attr_lock_wait_share/c4_shared" ]
       @ [ ("burst/dropped/enters_per_fault", Ratio, Pmap);
           ("attr_conserved/c4_shared", Flag, E2e) ]
       @ decl [ [ "alloc" ]; cs ]
         [ ("faults_per_sec", Per_s, Resident);
           ("stall_share", Ratio, Resident); ("steals", Count, Resident);
           elapsed ]);
    e "pressure" pressure
      (let kills = leaves Count Resident [ "oom_kills"; "survivors" ] in
       decl [ [ "x1"; "x2"; "x3"; "x4" ] ]
         (elapsed
          :: leaves Count Resident
            [ "alloc_waits"; "pageouts"; "swap_full_failures" ]
          @ kills)
       @ decl [ [ "alloc/x3" ] ] (elapsed :: kills)
       @ [ ("attr_mem_wait_share/x4", Ratio, Resident);
           ("attr_conserved/x4", Flag, E2e) ]) ]

let usage () =
  print_endline
    "usage: main.exe [-e EXPERIMENT] [-json PATH]\n\
    \  measured cells are written as JSON to PATH; a full run with no\n\
    \  -json rewrites the committed baseline bench/BENCH_vm.json\n\
     experiments:";
  List.iter (fun e -> print_endline ("  " ^ e.key)) experiments

let () =
  let rec parse json exps = function
    | [] -> (json, List.rev exps)
    | "-json" :: path :: rest -> parse (Some path) exps rest
    | "-e" :: name :: rest -> parse json (name :: exps) rest
    | _ ->
      usage ();
      exit 1
  in
  let json, exps = parse None [] (List.tl (Array.to_list Sys.argv)) in
  if exps = [] then
    List.iter (fun e -> Printf.printf "=== %s ===\n%!" e.key; run e) experiments
  else
    List.iter
      (fun n ->
         match List.find_opt (fun e -> e.key = n) experiments with
         | Some e -> run e
         | None -> usage (); exit 1)
      exps;
  (* Only a full run may replace the committed baseline; a subset run
     writes its cells only where [-json] says. *)
  match (json, exps) with
  | Some path, _ -> write_cells path
  | None, [] -> write_cells "bench/BENCH_vm.json"
  | None, _ -> ()

(* One repetition of a workload: boot, set up, warm up, measure.

   The simulator is driven only through its public entry points
   (Kernel, Vm_user, Machine, Vnode_pager, the Pmap.t record, Obs), and
   every call the measured ops make is wrapped in a {!Spans} span.  A
   small reference model holds the byte every (task, page) and every
   file page should contain; each write stores a value derived from
   (task, page, op index) and each read is compared against the model,
   so a change that corrupts memory fails ops instead of speeding up. *)

open Mach_hw
open Mach_core
module Simfs = Mach_pagers.Simfs
module Vnode_pager = Mach_pagers.Vnode_pager
module Pmap = Mach_pmap.Pmap
module Pmap_domain = Mach_pmap.Pmap_domain
module Obs = Mach_obs.Obs
module W = Workload

let mb = 1024 * 1024

type metric = { m_name : string; m_value : float; m_unit : string }

type result = {
  digest : string;
  attempted : int;
  failed : int;
  notes : string list;      (* the first few failures, for the log *)
  setup_s : float;          (* host CPU: boot, install, pre-dirty, warm-up *)
  host_s : float;           (* host CPU: measured phase *)
  setup_raw_s : float;      (* the same two before calibration (Calib) *)
  host_raw_s : float;
  sim_ms : float;           (* simulated: measured phase, max over CPUs *)
  p50_us : float;           (* simulated per-op latency percentiles *)
  p999_us : float;
  tail_us : float;          (* simulated: mean of the slowest 1% of ops *)
  live_mb : float;          (* OCaml live heap after the measured phase *)
  layers : metric list;     (* per-layer counters, attribution, spans *)
}

exception Failed of string

let ok = function Ok v -> v | Error e -> raise (Failed (Kr.to_string e))

let expect what ~got ~want =
  if got <> want then
    raise
      (Failed
         (Printf.sprintf "%s: read %02x, model says %02x" what
            (Char.code got) (Char.code want)))

(* The byte a write stores: a function of who wrote which page when. *)
let value ~task ~page ~op =
  Char.unsafe_chr (((task * 131) + (page * 31) + (op * 7) + 1) land 0xff)

(* Installed file contents. *)
let pattern ~file ~off =
  Char.unsafe_chr (((file * 37) + (off * 13) + (off lsr 12)) land 0xff)

let file_data ~file ~size = Bytes.init size (fun off -> pattern ~file ~off)

type env = {
  machine : Machine.t;
  kernel : Kernel.t;
  sys : Vm_sys.t;
  fs : Simfs.t;
  ps : int;                 (* machine-independent page size *)
  retired : Pmap.stats;     (* counters of pmaps destroyed with their task *)
}

let arch_of = function
  | W.Churn -> Arch.sun3_160
  | W.Files -> Arch.vax8200
  | W.Overcommit -> Arch.rt_pc
  | W.Smp -> Arch.ns32082

let machine_of = function
  | W.Churn -> (16 * mb, 1)
  | W.Files -> (8 * mb, W.files_cpus)
  | W.Overcommit -> (4 * mb, 1)
  | W.Smp -> (16 * mb, W.smp_cpus)

let overcommit_swap = 8 * mb

let boot_kernel ?tracer arch ~mem ~cpus =
  let machine =
    Machine.create ~arch ~memory_frames:(mem / arch.Arch.hw_page_size) ~cpus ()
  in
  (* Installed before the kernel boots, so attribution sums to the
     clocks from the first cycle. *)
  Option.iter (Machine.set_tracer machine) tracer;
  (* As on real Mach, the boot-time page size is at least 4 KB. *)
  let kernel =
    Kernel.create ~page_multiple:(max 1 (4096 / arch.Arch.hw_page_size))
      machine
  in
  (machine, kernel)

let boot kind ~tracer =
  let mem, cpus = machine_of kind in
  let machine, kernel = boot_kernel ?tracer (arch_of kind) ~mem ~cpus in
  let sys = Kernel.sys kernel in
  { machine; kernel; sys; fs = Simfs.create machine (); ps = sys.Vm_sys.page_size;
    retired = Pmap.fresh_stats () }

let run env ~cpu task =
  Spans.span Spans.run_task (fun () -> Kernel.run_task env.kernel ~cpu task)

let read env ~cpu va =
  Spans.span Spans.touch (fun () -> Machine.read_byte env.machine ~cpu ~va)

let write env ~cpu va v =
  Spans.span Spans.touch (fun () -> Machine.write_byte env.machine ~cpu ~va v)

let allocate env task ~pages =
  ok
    (Spans.span Spans.allocate (fun () ->
         Vm_user.allocate env.sys task ~size:(pages * env.ps) ~anywhere:true ()))

let map_file env task ~name =
  ok
    (Spans.span Spans.map_file (fun () ->
         Vnode_pager.map_file env.sys env.fs task ~name ()))

let add_stats (acc : Pmap.stats) (s : Pmap.stats) =
  acc.Pmap.enters <- acc.Pmap.enters + s.Pmap.enters;
  acc.Pmap.removals <- acc.Pmap.removals + s.Pmap.removals;
  acc.Pmap.protect_ops <- acc.Pmap.protect_ops + s.Pmap.protect_ops;
  acc.Pmap.alias_evictions <- acc.Pmap.alias_evictions + s.Pmap.alias_evictions;
  acc.Pmap.context_steals <- acc.Pmap.context_steals + s.Pmap.context_steals;
  acc.Pmap.cache_drops <- acc.Pmap.cache_drops + s.Pmap.cache_drops

(* Pmap counters of live and destroyed pmaps together. *)
let pmap_totals env =
  let acc = Pmap_domain.total_stats env.kernel.Kernel.domain in
  add_stats acc env.retired;
  acc

(* ------------------------------------------------------------------ *)
(* Workload set-up: each returns the executor for its ops.             *)
(* ------------------------------------------------------------------ *)

let churn env =
  let shell_ix = W.churn_slots in
  let prog f = Printf.sprintf "/bin/p%d" f in
  for file = 0 to W.churn_files - 1 do
    Simfs.install_file env.fs ~name:(prog file)
      ~data:(file_data ~file ~size:(W.churn_file_pages * env.ps))
  done;
  let shell = Kernel.create_task env.kernel ~name:"shell" () in
  run env ~cpu:0 shell;
  let heap = allocate env shell ~pages:W.churn_heap_pages in
  let tasks = Array.make (shell_ix + 1) None in
  let model = Array.make (shell_ix + 1) Bytes.empty in
  tasks.(shell_ix) <- Some shell;
  model.(shell_ix) <- Bytes.create W.churn_heap_pages;
  for page = 0 to W.churn_heap_pages - 1 do
    let v = value ~task:shell_ix ~page ~op:0 in
    write env ~cpu:0 (heap + (page * env.ps)) v;
    Bytes.set model.(shell_ix) page v
  done;
  let task_of s =
    match tasks.(s) with Some t -> t | None -> raise (Failed "empty slot")
  in
  fun i -> function
    | W.Fork s ->
      let child =
        Spans.span Spans.fork_task (fun () ->
            Kernel.fork_task env.kernel ~cpu:0 shell)
      in
      tasks.(s) <- Some child;
      (* A child sees the parent's bytes as of the fork. *)
      model.(s) <- Bytes.copy model.(shell_ix)
    | W.Exit s ->
      let t = task_of s in
      Spans.span Spans.terminate_task (fun () ->
          Kernel.terminate_task env.kernel ~cpu:0 t);
      add_stats env.retired (Task.pmap t).Pmap.stats;
      tasks.(s) <- None
    | W.Exec { slot; file } ->
      let t = task_of slot in
      run env ~cpu:0 t;
      let addr, size = map_file env t ~name:(prog file) in
      for p = 0 to W.churn_file_pages - 1 do
        let off = p * env.ps in
        expect "exec page" ~got:(read env ~cpu:0 (addr + off))
          ~want:(pattern ~file ~off)
      done;
      ok
        (Spans.span Spans.deallocate (fun () ->
             Vm_user.deallocate env.sys t ~addr ~size))
    | W.Touches { task; pages; writes } ->
      let t = task_of task in
      run env ~cpu:0 t;
      Array.iteri
        (fun j page ->
           let va = heap + (page * env.ps) in
           if writes land (1 lsl j) <> 0 then begin
             let v = value ~task ~page ~op:i in
             write env ~cpu:0 va v;
             Bytes.set model.(task) page v
           end
           else
             expect "heap" ~got:(read env ~cpu:0 va)
               ~want:(Bytes.get model.(task) page))
        pages
    | _ -> invalid_arg "churn: foreign op"

let files env =
  let name f = Printf.sprintf "/data/f%d" f in
  for file = 0 to W.files_count - 1 do
    Simfs.install_file env.fs ~name:(name file)
      ~data:(file_data ~file ~size:(W.files_pages * env.ps))
  done;
  (* One reader process per CPU, each mapping every file shared; its
     writes reach the files through the vnode pager at pageout. *)
  let readers =
    Array.init W.files_cpus (fun cpu ->
        let t =
          Kernel.create_task env.kernel ~name:(Printf.sprintf "reader%d" cpu) ()
        in
        run env ~cpu t;
        (t, Array.init W.files_count (fun f -> fst (map_file env t ~name:(name f)))))
  in
  (* Byte 0 of every file page: installed data plus mapped writes. *)
  let model =
    Array.init W.files_count (fun file ->
        Bytes.init W.files_pages (fun p -> pattern ~file ~off:(p * env.ps)))
  in
  let syscall = (Machine.arch env.machine).Arch.cost.Arch.syscall in
  let read_page ?stream ~cpu ~file ~page () =
    run env ~cpu (fst readers.(cpu));
    Machine.charge env.machine ~cpu syscall;
    let off = page * env.ps in
    let data =
      Spans.span Spans.read_through_object (fun () ->
          Vnode_pager.read_through_object env.sys ?stream env.fs
            ~name:(name file) ~offset:off ~len:env.ps)
    in
    if Bytes.length data <> env.ps then raise (Failed "short read");
    expect "file byte 0" ~got:(Bytes.get data 0)
      ~want:(Bytes.get model.(file) page);
    expect "file tail" ~got:(Bytes.get data (env.ps - 1))
      ~want:(pattern ~file ~off:(off + env.ps - 1))
  in
  fun i -> function
    | W.Seq_read { reader; file; page } ->
      read_page ~stream:(reader, 0) ~cpu:reader ~file ~page ()
    | W.Rand_read { cpu; file; page } -> read_page ~cpu ~file ~page ()
    | W.Map_write { cpu; file; page } ->
      let t, bases = readers.(cpu) in
      run env ~cpu t;
      let v = value ~task:cpu ~page ~op:i in
      write env ~cpu (bases.(file) + (page * env.ps)) v;
      Bytes.set model.(file) page v
    | _ -> invalid_arg "files: foreign op"

let overcommit env =
  Vm_sys.set_swap_capacity env.sys (Some overcommit_swap);
  let tasks =
    Array.init W.oc_tasks (fun i ->
        Kernel.create_task env.kernel ~name:(Printf.sprintf "oc%d" i) ())
  in
  let bases =
    Array.map
      (fun t ->
         run env ~cpu:0 t;
         allocate env t ~pages:W.oc_pages)
      tasks
  in
  let model = Array.init W.oc_tasks (fun _ -> Bytes.create W.oc_pages) in
  Array.iteri
    (fun task t ->
       run env ~cpu:0 t;
       for page = 0 to W.oc_pages - 1 do
         let v = value ~task ~page ~op:0 in
         write env ~cpu:0 (bases.(task) + (page * env.ps)) v;
         Bytes.set model.(task) page v
       done)
    tasks;
  fun i -> function
    | W.Touch { task; page; write = w } ->
      run env ~cpu:0 tasks.(task);
      let va = bases.(task) + (page * env.ps) in
      if w then begin
        let v = value ~task ~page ~op:i in
        write env ~cpu:0 va v;
        Bytes.set model.(task) page v
      end
      else expect "anon" ~got:(read env ~cpu:0 va) ~want:(Bytes.get model.(task) page)
    | _ -> invalid_arg "overcommit: foreign op"

let smp env =
  let task = Kernel.create_task env.kernel ~name:"shared" () in
  for cpu = 0 to W.smp_cpus - 1 do
    run env ~cpu task
  done;
  let pages = W.smp_cpus * W.smp_stripe in
  let base = allocate env task ~pages in
  let size = pages * env.ps in
  let va cpu page = base + (((cpu * W.smp_stripe) + page) * env.ps) in
  let model = Bytes.create pages in
  for cpu = 0 to W.smp_cpus - 1 do
    for page = 0 to W.smp_stripe - 1 do
      let v = value ~task:cpu ~page ~op:0 in
      write env ~cpu (va cpu page) v;
      Bytes.set model ((cpu * W.smp_stripe) + page) v
    done
  done;
  let pmap = Task.pmap task in
  fun i -> function
    | W.Smp_touch { cpu; page; write = w } ->
      let slot = (cpu * W.smp_stripe) + page in
      if w then begin
        let v = value ~task:cpu ~page ~op:i in
        write env ~cpu (va cpu page) v;
        Bytes.set model slot v
      end
      else expect "stripe" ~got:(read env ~cpu (va cpu page)) ~want:(Bytes.get model slot)
    | W.Drop_maps cpu ->
      run env ~cpu task;
      Spans.span Spans.pmap_remove (fun () ->
          pmap.Pmap.remove ~start_va:base ~end_va:(base + size))
    | W.Reprotect cpu ->
      run env ~cpu task;
      List.iter
        (fun prot ->
           ok
             (Spans.span Spans.protect (fun () ->
                  Vm_user.protect env.sys task ~addr:base ~size ~set_max:false
                    ~prot)))
        [ Prot.read_only; Prot.read_write ]
    | _ -> invalid_arg "smp: foreign op"

let cpu_of = function
  | W.Fork _ | W.Exit _ | W.Exec _ | W.Touches _ | W.Touch _ -> 0
  | W.Seq_read { reader; _ } -> reader
  | W.Rand_read { cpu; _ } | W.Map_write { cpu; _ }
  | W.Smp_touch { cpu; _ } -> cpu
  | W.Drop_maps cpu | W.Reprotect cpu -> cpu

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                    *)
(* ------------------------------------------------------------------ *)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let layer_metrics env ~ops ~tracer ~(v0 : Vm_user.statistics)
    ~(p0 : Pmap.stats) =
  let v1 = Vm_user.statistics env.sys in
  let p1 = pmap_totals env in
  let ms = Machine.stats env.machine in
  let arch = Machine.arch env.machine in
  let count name n = { m_name = name; m_value = float_of_int n; m_unit = "count" } in
  let frac name x = { m_name = name; m_value = x; m_unit = "ratio" } in
  let vs f = f v1 - f v0 in
  let pm f = f p1 - f p0 in
  let attr name cat =
    let cycles =
      match tracer with None -> 0 | Some tr -> Obs.attr_grand_total tr cat
    in
    { m_name = "attr." ^ name; m_value = Arch.cycles_to_ms arch cycles;
      m_unit = "ms" }
  in
  let self name =
    let i =
      match Array.find_index (String.equal name) Spans.names with
      | Some i -> i
      | None -> invalid_arg name
    in
    { m_name = Printf.sprintf "span.%s.self_s" name;
      m_value = Spans.self_s i; m_unit = "s" }
  in
  let conserved =
    match tracer with
    | None -> false
    | Some tr ->
      List.for_all
        (fun cpu -> Obs.attr_cpu_total tr ~cpu = Machine.cycles env.machine ~cpu)
        (List.init (Machine.cpu_count env.machine) Fun.id)
  in
  let dropped =
    match tracer with None -> 0 | Some tr -> Mach_obs.Ring.dropped (Obs.ring tr)
  in
  let faults = vs (fun s -> s.Vm_user.vs_faults) in
  [ (* hw *)
    frac "hw.tlb_hit_ratio"
      (ratio ms.Machine.tlb_hit_count
         (ms.Machine.tlb_hit_count + ms.Machine.tlb_miss_count));
    count "hw.tlb_misses" ms.Machine.tlb_miss_count;
    count "hw.shootdowns" ms.Machine.shootdowns;
    count "hw.ipis" ms.Machine.ipis;
    attr "shootdown_ipi" Obs.Shootdown_ipi;
    count "span.hw.touch.count" Spans.count.(Spans.touch);
    self "hw.touch";
    (* pmap *)
    count "pmap.enters" (pm (fun s -> s.Pmap.enters));
    count "pmap.removals" (pm (fun s -> s.Pmap.removals));
    count "pmap.protect_ops" (pm (fun s -> s.Pmap.protect_ops));
    count "pmap.context_steals" (pm (fun s -> s.Pmap.context_steals));
    count "pmap.alias_evictions" (pm (fun s -> s.Pmap.alias_evictions));
    { m_name = "pmap.map_bytes";
      m_value = float_of_int (Pmap_domain.total_map_bytes env.kernel.Kernel.domain);
      m_unit = "bytes" };
    attr "pmap" Obs.Pmap;
    self "pmap.remove";
    (* fault *)
    count "fault.faults" faults;
    { m_name = "fault.per_op"; m_value = ratio faults ops; m_unit = "1/op" };
    count "fault.fast_reloads" (vs (fun s -> s.Vm_user.vs_fast_reloads));
    count "fault.zero_fills" (vs (fun s -> s.Vm_user.vs_zero_fills));
    count "fault.cow_copies" (vs (fun s -> s.Vm_user.vs_cow_copies));
    count "fault.shadows_created" (vs (fun s -> s.Vm_user.vs_shadows_created));
    count "fault.collapses" (vs (fun s -> s.Vm_user.vs_collapses));
    count "fault.burst_mapped" (vs (fun s -> s.Vm_user.vs_burst_mapped));
    count "fault.lock_stalls" (vs (fun s -> s.Vm_user.vs_lock_stalls));
    attr "fault_service" Obs.Fault_service;
    attr "zero_fill" Obs.Zero_fill;
    attr "cow_copy" Obs.Cow_copy;
    attr "lock_wait" Obs.Lock_wait;
    (* map *)
    self "kernel.fork_task";
    self "kernel.terminate_task";
    self "kernel.run_task";
    self "vm_user.protect";
    self "vnode_pager.map_file";
    (let h = vs (fun s -> s.Vm_user.vs_object_cache_hits) in
     frac "map.cache_hit_ratio"
       (ratio h (h + vs (fun s -> s.Vm_user.vs_object_cache_misses))));
    (* resident *)
    count "resident.pageouts" (vs (fun s -> s.Vm_user.vs_pageouts));
    count "resident.reactivations" (vs (fun s -> s.Vm_user.vs_reactivations));
    count "resident.alloc_waits" (vs (fun s -> s.Vm_user.vs_alloc_waits));
    count "resident.oom_kills" (vs (fun s -> s.Vm_user.vs_oom_kills));
    count "resident.swap_full_failures"
      (vs (fun s -> s.Vm_user.vs_swap_full_failures));
    attr "pageout_daemon" Obs.Pageout_daemon;
    attr "mem_wait" Obs.Mem_wait;
    (* cluster *)
    count "cluster.pager_reads" (vs (fun s -> s.Vm_user.vs_pager_reads));
    count "cluster.prefetch_issued" (vs (fun s -> s.Vm_user.vs_prefetch_issued));
    frac "cluster.prefetch_hit_ratio"
      (ratio (vs (fun s -> s.Vm_user.vs_prefetch_hits))
         (vs (fun s -> s.Vm_user.vs_prefetch_issued)));
    count "cluster.prefetch_wasted" (vs (fun s -> s.Vm_user.vs_prefetch_wasted));
    count "cluster.stream_hits" (vs (fun s -> s.Vm_user.vs_stream_hits));
    count "cluster.stream_resets" (vs (fun s -> s.Vm_user.vs_stream_resets));
    count "cluster.clustered_pageouts"
      (vs (fun s -> s.Vm_user.vs_clustered_pageouts));
    attr "pager_wait" Obs.Pager_wait;
    (* pagers *)
    count "disk.ops" ms.Machine.disk_ops;
    { m_name = "disk.bytes"; m_value = float_of_int ms.Machine.disk_bytes;
      m_unit = "bytes" };
    { m_name = "disk.per_op"; m_value = ratio ms.Machine.disk_ops ops;
      m_unit = "1/op" };
    attr "disk_wait" Obs.Disk_wait;
    { m_name = "swap.used_bytes"; m_value = float_of_int v1.Vm_user.vs_swap_used;
      m_unit = "bytes" };
    self "vnode_pager.read_through_object";
    (* obs; trace.overhead_frac is filled in by the caller, which also
       ran the untraced repetition *)
    frac "trace.attr_conserved" (if conserved then 1. else 0.);
    count "trace.events_dropped" dropped ]

(* ------------------------------------------------------------------ *)
(* One repetition                                                       *)
(* ------------------------------------------------------------------ *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Mean of the slowest 1%: the tail, without the steps a single
   percentile takes when the latency distribution is a few spikes (on
   smp the slowest 0.1% all cost exactly the same). *)
let tail_mean sorted =
  let n = Array.length sorted in
  let k = max 1 (n / 100) in
  let sum = ref 0 in
  for i = n - k to n - 1 do
    sum := !sum + sorted.(i)
  done;
  float_of_int !sum /. float_of_int k

let max_notes = 5

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let repetition ?chrome (trace : W.trace) ~traced =
  (* The first chunk in a forked child pays copy-on-write faults on the
     calibration memory and fills its table: keep that out of both. *)
  ignore (Calib.chunk ());
  (* Whatever the caller holds is not this repetition's footprint. *)
  let base_words = live_words () in
  let digest = W.digest trace in
  let cal_before = Calib.chunk () in
  let t_setup = Sys.time () in
  let tracer =
    if not traced then None
    else begin
      let tr = Obs.create () in
      Obs.set_enabled tr true;
      Some tr
    end
  in
  let env = boot trace.W.kind ~tracer in
  let exec =
    match trace.W.kind with
    | W.Churn -> churn env
    | W.Files -> files env
    | W.Overcommit -> overcommit env
    | W.Smp -> smp env
  in
  let failed = ref 0 and notes = ref [] in
  let n = Array.length trace.W.ops and warmup = trace.W.warmup in
  let lat = Array.make (n - warmup) 0 in
  let run_ops lo hi =
    for i = lo to hi - 1 do
      let op = trace.W.ops.(i) in
      let cpu = cpu_of op in
      let c0 = Machine.cycles env.machine ~cpu in
      Spans.set_op (i - warmup);
      (match Spans.span Spans.op (fun () -> exec i op) with
       | () -> ()
       | exception e ->
         incr failed;
         if List.length !notes < max_notes then
           notes :=
             Printf.sprintf "op %d: %s" i
               (match e with Failed s -> s | e -> Printexc.to_string e)
             :: !notes);
      if i >= warmup then lat.(i - warmup) <- Machine.cycles env.machine ~cpu - c0
    done
  in
  run_ops 0 warmup;
  Kernel.reset_clocks env.kernel;
  let v0 = Vm_user.statistics env.sys in
  let p0 = pmap_totals env in
  let setup_raw_s = Sys.time () -. t_setup in
  let setup_s =
    setup_raw_s *. Calib.reference /. ((cal_before +. Calib.chunk ()) /. 2.)
  in
  if traced then Spans.enable ();
  (* A calibration chunk before each tenth of the measured ops tracks
     the machine's speed through the phase. *)
  let slices = 10 and host_raw_s = ref 0. and cal = ref 0. in
  for k = 0 to slices - 1 do
    cal := !cal +. Calib.chunk ();
    let t0 = Sys.time () in
    run_ops (warmup + (k * (n - warmup) / slices))
      (warmup + ((k + 1) * (n - warmup) / slices));
    host_raw_s := !host_raw_s +. (Sys.time () -. t0)
  done;
  let host_raw_s = !host_raw_s in
  let host_s = host_raw_s *. Calib.reference /. (!cal /. float_of_int slices) in
  Spans.on := false;
  let sim_ms = Machine.elapsed_ms env.machine in
  let layers =
    layer_metrics env ~ops:(n - warmup) ~tracer ~v0 ~p0
  in
  Array.sort compare lat;
  let us cycles =
    cycles *. 1000. /. float_of_int (Machine.arch env.machine).Arch.cycles_per_ms
  in
  let pct q = us (float_of_int (percentile lat q)) in
  let p50_us = pct 0.5 and p999_us = pct 0.999 and tail_us = us (tail_mean lat) in
  let live_mb =
    float_of_int ((live_words () - base_words) * (Sys.word_size / 8)) /. 1e6
  in
  (* The kernel, the model inside [exec] and the trace must still be
     reachable when the heap is measured. *)
  ignore (Sys.opaque_identity (env, exec, trace));
  Option.iter
    (fun path -> Mach_obs.Jout.write_file path (Spans.to_chrome ()))
    chrome;
  { digest; attempted = n; failed = !failed; notes = List.rev !notes;
    setup_s; host_s; setup_raw_s; host_raw_s; sim_ms; p50_us; p999_us;
    tail_us; live_mb;
    layers =
      layers
      @ [ { m_name = "sim_op_p50_us"; m_value = p50_us; m_unit = "us" };
          { m_name = "sim_op_p999_us"; m_value = p999_us; m_unit = "us" } ] }

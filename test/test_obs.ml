(* Observability layer: histograms, the ring sink, the disabled path,
   and an end-to-end fork+touch run whose trace must be balanced and
   whose Chrome export must be well-formed trace_event JSON. *)

open Mach_hw
open Mach_core
open Mach_obs

(* ---- Hist -------------------------------------------------------------- *)

let test_hist_bucketing () =
  let h = Hist.create () in
  List.iter (Hist.add h) [ 0; 1; 2; 3; 4; 7; 8; 1000 ];
  Alcotest.(check int) "count" 8 (Hist.count h);
  Alcotest.(check int) "sum" 1025 (Hist.sum h);
  Alcotest.(check int) "min" 0 (Hist.min_value h);
  Alcotest.(check int) "max" 1000 (Hist.max_value h);
  (* v <= 0 lands in bucket 0; [2^(i-1), 2^i) in bucket i. *)
  let buckets = ref [] in
  Hist.iter_nonempty h (fun ~lo ~hi ~count ->
      buckets := (lo, hi, count) :: !buckets);
  Alcotest.(check (list (triple int int int))) "non-empty buckets"
    [ (0, 0, 1); (1, 1, 1); (2, 3, 2); (4, 7, 2); (8, 15, 1);
      (512, 1023, 1) ]
    (List.rev !buckets)

let test_hist_exact_percentiles () =
  let h = Hist.create () in
  List.iter (Hist.add h) [ 5; 1; 9 ];
  Alcotest.(check int) "p50 of [1;5;9]" 5 (Hist.p50 h);
  Alcotest.(check int) "p95 of [1;5;9]" 9 (Hist.p95 h);
  Alcotest.(check int) "p99 of [1;5;9]" 9 (Hist.p99 h);
  let h = Hist.create () in
  for i = 1 to 100 do
    Hist.add h i
  done;
  (* While the count fits the 128-entry sample buffer the accessors
     answer from the raw samples: no power-of-two rounding. *)
  Alcotest.(check int) "p50 exact" 50 (Hist.p50 h);
  Alcotest.(check int) "p95 exact" 95 (Hist.p95 h);
  Alcotest.(check int) "p99 exact" 99 (Hist.p99 h);
  (* Overflow the sample buffer: falls back to the bucket walk, which
     upper-bounds the true percentile within its power-of-two bucket. *)
  let n = 228 in
  for i = 101 to n do
    Hist.add h i
  done;
  let p50 = Hist.p50 h in
  Alcotest.(check bool) "bucket fallback upper-bounds p50" true
    (p50 >= (n + 1) / 2 && p50 <= n);
  Alcotest.(check int) "empty accessors" 0 (Hist.p95 (Hist.create ()))

(* Past the sample buffer, percentiles come from the bucket walk. *)
let test_hist_percentiles () =
  let h = Hist.create () in
  (* 1,000 observations of 10 and 20 outliers of 10_000. *)
  for _ = 1 to 1000 do
    Hist.add h 10
  done;
  for _ = 1 to 20 do
    Hist.add h 10_000
  done;
  (* p50/p95 fall in the bucket holding 10: [8, 15]. *)
  Alcotest.(check bool) "p50 bounds 10" true
    (Hist.p50 h >= 10 && Hist.p50 h <= 15);
  Alcotest.(check bool) "p95 bounds 10" true
    (Hist.p95 h >= 10 && Hist.p95 h <= 15);
  (* p99 reaches the outliers' bucket, clamped to the largest
     observation. *)
  Alcotest.(check int) "p99 = max" 10_000 (Hist.p99 h);
  Alcotest.(check int) "empty percentile" 0 (Hist.p50 (Hist.create ()))

(* ---- Ring -------------------------------------------------------------- *)

let test_ring_wraparound () =
  let r = Ring.create ~capacity:8 in
  for i = 0 to 19 do
    Ring.push r i
  done;
  Alcotest.(check int) "length" 8 (Ring.length r);
  Alcotest.(check int) "pushed" 20 (Ring.pushed r);
  Alcotest.(check int) "dropped" 12 (Ring.dropped r);
  let kept = ref [] in
  Ring.iter (fun x -> kept := x :: !kept) r;
  Alcotest.(check (list int)) "retains newest, oldest first"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.rev !kept);
  (* Zero capacity: every push is a no-op (the null sink's ring). *)
  let z = Ring.create ~capacity:0 in
  Ring.push z 42;
  Alcotest.(check int) "zero-capacity stays empty" 0 (Ring.length z)

(* ---- disabled sink ----------------------------------------------------- *)

let test_disabled_sink () =
  Alcotest.(check bool) "null disabled" false (Obs.enabled Obs.null);
  Alcotest.check_raises "null cannot be enabled"
    (Invalid_argument "Obs.set_enabled: the null sink cannot be enabled")
    (fun () -> Obs.set_enabled Obs.null true);
  (* A fresh machine runs a faulting workload with the default null
     tracer installed: nothing may be recorded anywhere. *)
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:512 () in
  let kernel = Kernel.create ~page_multiple:8 machine in
  let sys = Kernel.sys kernel in
  let t = Kernel.create_task kernel () in
  Kernel.run_task kernel ~cpu:0 t;
  (match Vm_user.allocate sys t ~size:16384 ~anywhere:true () with
   | Ok a -> Machine.write_byte machine ~cpu:0 ~va:a 'x'
   | Error e -> Alcotest.fail (Kr.to_string e));
  let tr = Machine.tracer machine in
  Alcotest.(check int) "no events seen" 0 (Obs.events_seen tr);
  Alcotest.(check int) "ring empty" 0 (Ring.length (Obs.ring tr));
  List.iter
    (fun r ->
       Alcotest.(check int)
         ("no latency samples: " ^ Obs.fault_resolution_name r)
         0
         (Hist.count (Obs.fault_latency tr r)))
    Obs.fault_resolutions

(* ---- a minimal JSON syntax checker ------------------------------------- *)

(* Enough of a parser to prove the exporter emits well-formed JSON; it
   validates structure without building a document. *)
let json_ok (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let fail = ref false in
  let expect c =
    if peek () = Some c then incr pos else fail := true
  in
  let rec value () =
    if !fail then ()
    else begin
      skip_ws ();
      match peek () with
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> string_lit ()
      | Some ('-' | '0' .. '9') -> number ()
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | _ -> fail := true
    end
  and literal lit =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then pos := !pos + l
    else fail := true
  and number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail := true
  and string_lit () =
    expect '"';
    let closed = ref false in
    while (not !closed) && not !fail do
      if !pos >= n then fail := true
      else begin
        let c = s.[!pos] in
        incr pos;
        if c = '\\' then begin
          if !pos >= n then fail := true else incr pos
        end
        else if c = '"' then closed := true
      end
    done
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else begin
      let more = ref true in
      while !more && not !fail do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some ']' ->
          incr pos;
          more := false
        | _ -> fail := true
      done
    end
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else begin
      let more = ref true in
      while !more && not !fail do
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some '}' ->
          incr pos;
          more := false
        | _ -> fail := true
      done
    end
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

(* The event-name table: every kind index has a distinct, non-empty name,
   and the one exchange event is reported as "shootdown". *)
let test_kind_names () =
  let names = List.init Obs.kind_count Obs.kind_name_of_index in
  List.iter
    (fun n -> Alcotest.(check bool) "non-empty name" true (n <> ""))
    names;
  Alcotest.(check int) "names distinct" Obs.kind_count
    (List.length (List.sort_uniq compare names));
  Alcotest.(check string) "shootdown" "shootdown"
    (Obs.kind_name
       (Obs.Shootdown
          { initiator = 0; targets = 1; requests = 1; span_pages = 1;
            urgent = false; cycles = 0 }))

let test_json_checker_sanity () =
  Alcotest.(check bool) "accepts object" true
    (json_ok {|{"a": [1, 2.5, -3e4], "b": "x\"y", "c": null}|});
  Alcotest.(check bool) "rejects trailing junk" false (json_ok "{} x");
  Alcotest.(check bool) "rejects unclosed" false (json_ok {|{"a": 1|})

(* ---- Jout.of_string ---------------------------------------------------- *)

let test_jout_round_trip () =
  let v =
    Jout.Obj
      [ ("null", Jout.Null);
        ("flags", Jout.Arr [ Jout.Bool true; Jout.Bool false ]);
        ("ints", Jout.Arr [ Jout.Int 0; Jout.Int (-42); Jout.Int max_int ]);
        ("floats", Jout.Arr [ Jout.Float 1e-07; Jout.Float (-2.5) ]);
        ("escapes", Jout.Str "q\"b\\n\nr\rt\t\001\031 end");
        ("empty", Jout.Arr [ Jout.Arr []; Jout.Obj [] ]);
        ("nested", Jout.Obj [ ("", Jout.Obj [ ("a", Jout.Arr []) ]) ]) ]
  in
  let s = Jout.to_string v in
  match Jout.of_string s with
  | Ok parsed ->
    Alcotest.(check string) "to_string (of_string s) = s" s
      (Jout.to_string parsed);
    Alcotest.(check bool) "numbers keep their constructor" true
      (parsed = v)
  | Error e -> Alcotest.failf "of_string rejected %s: %s" s e

let test_jout_rejects_malformed () =
  List.iter
    (fun (what, s) ->
       match Jout.of_string s with
       | Ok _ -> Alcotest.failf "accepted %s: %s" what s
       | Error _ -> ())
    [ ("a trailing comma in an object", {|{"a":1,}|});
      ("a trailing comma in an array", "[1,2,]");
      ("an unterminated string", {|{"a":"b|});
      ("trailing garbage", {|{"a":1} x|});
      ("an unknown escape", {|"\q"|}) ]

(* ---- end to end -------------------------------------------------------- *)

let lookup name = function
  | Jout.Obj fields -> List.assoc_opt name fields
  | _ -> None

(* What an exporter writes: the file's text, less its final newline, and
   the document parsed back from it. *)
let exported write =
  let path = Filename.temp_file "export" ".json" in
  write ~path;
  let s = String.trim (In_channel.with_open_bin path In_channel.input_all) in
  Sys.remove path;
  match Jout.of_string s with Ok doc -> (s, doc) | Error e -> Alcotest.fail e

let test_end_to_end () =
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:2048 () in
  let tr = Obs.create ~capacity:8192 () in
  Obs.set_enabled tr true;
  Machine.set_tracer machine tr;
  let kernel = Kernel.create ~page_multiple:8 machine in
  let sys = Kernel.sys kernel in
  let ps = Kernel.page_size kernel in
  (* Fork + touch: zero fills in the parent, COW copies in the child. *)
  let parent = Kernel.create_task kernel ~name:"parent" () in
  Kernel.run_task kernel ~cpu:0 parent;
  let size = 16 * ps in
  let addr =
    match Vm_user.allocate sys parent ~size ~anywhere:true () with
    | Ok a -> a
    | Error e -> Alcotest.fail (Kr.to_string e)
  in
  let sweep () =
    let rec loop va =
      if va < addr + size then begin
        Machine.write_byte machine ~cpu:0 ~va 'e';
        loop (va + ps)
      end
    in
    loop addr
  in
  sweep ();
  let child = Kernel.fork_task kernel ~cpu:0 parent in
  Kernel.run_task kernel ~cpu:0 child;
  sweep ();
  (* Balanced bracketing (begins minus ends) and full latency
     coverage. *)
  Alcotest.(check int) "no open faults" 0 (Obs.open_faults tr);
  let hist_total =
    List.fold_left
      (fun acc r -> acc + Hist.count (Obs.fault_latency tr r))
      0 Obs.fault_resolutions
  in
  Alcotest.(check bool) "faults happened" true (hist_total > 0);
  Alcotest.(check int) "hist counts sum to machine faults"
    (Machine.stats machine).Machine.faults hist_total;
  Alcotest.(check bool) "saw zero fills" true
    (Hist.count (Obs.fault_latency tr Obs.Zero_fill) > 0);
  Alcotest.(check bool) "saw cow copies" true
    (Hist.count (Obs.fault_latency tr Obs.Cow_copy) > 0);
  (* The Chrome export is well-formed and every event carries the
     trace_event essentials. *)
  let s, doc = exported (Export.write_chrome_trace ~cycles_per_us:1.0 tr) in
  Alcotest.(check bool) "chrome trace is valid JSON" true (json_ok s);
  let events =
    match lookup "traceEvents" doc with
    | Some (Jout.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "trace has events" true (List.length events > 0);
  let b = ref 0 and e = ref 0 in
  List.iter
    (fun ev ->
       let is_meta = lookup "ph" ev = Some (Jout.Str "M") in
       List.iter
         (fun field ->
            if lookup field ev = None then
              Alcotest.failf "event missing %s: %s" field
                (Jout.to_string ev))
         (* Metadata records carry no timestamp in the trace_event
            format; every real event must. *)
         ([ "name"; "ph"; "pid"; "tid" ] @ if is_meta then [] else [ "ts" ]);
       match lookup "ph" ev with
       | Some (Jout.Str "B") -> incr b
       | Some (Jout.Str "E") -> incr e
       | _ -> ())
    events;
  Alcotest.(check int) "B/E pairs balanced in export" !b !e;
  (* The stats export agrees with itself. *)
  let s, stats = exported (Export.write_stats tr) in
  Alcotest.(check bool) "stats is valid JSON" true (json_ok s);
  (match lookup "faults_total" stats with
   | Some (Jout.Int n) -> Alcotest.(check int) "faults_total" hist_total n
   | _ -> Alcotest.fail "stats missing faults_total");
  Kernel.terminate_task kernel ~cpu:0 child;
  Kernel.terminate_task kernel ~cpu:0 parent

(* Every histogram key of the stats JSON keeps its name and place; one
   [Alloc_wait] reaches the export as one [mem_wait_cycles] sample. *)
let test_stats_json_keys () =
  let tr = Obs.create ~capacity:16 () in
  Obs.set_enabled tr true;
  Obs.record tr ~ts:0 ~cpu:0
    (Obs.Alloc_wait { free = 1; wanted = 3; cycles = 2000 });
  let _, stats = exported (Export.write_stats tr) in
  let keys =
    match stats with
    | Jout.Obj fields -> List.map fst fields
    | _ -> Alcotest.fail "stats is not an object"
  in
  Alcotest.(check (list string)) "top-level keys"
    [ "events"; "events_seen"; "events_retained"; "events_dropped";
      "open_faults"; "faults_total"; "fault_latency"; "shootdown_latency";
      "pagein_latency"; "disk_latency"; "pageout_queue_depth";
      "pagein_cluster_pages"; "pageout_cluster_pages"; "disk_queue_depth";
      "disk_completion_latency"; "disk_wait_residue"; "lock_stall_cycles";
      "burst_pages"; "mem_wait_cycles" ]
    keys;
  (match Option.bind (lookup "mem_wait_cycles" stats) (lookup "count") with
   | Some (Jout.Int n) -> Alcotest.(check int) "mem_wait_cycles/count" 1 n
   | _ -> Alcotest.fail "stats missing mem_wait_cycles/count");
  (* Each histogram is its own: the one sample fed no other. *)
  List.iter
    (fun (h, key, _) ->
       Alcotest.(check int) key
         (if h = Obs.Mem_wait_cycles then 1 else 0)
         (Hist.count (Obs.hist tr h)))
    Obs.hist_names

(* ---- vm_statistics ----------------------------------------------------- *)

(* A literal naming every field (so a new field breaks the build here)
   with distinct values: [rows] must report each under its own name. *)
let test_stat_rows_cover_fields () =
  let s =
    { Vm_stats.vs_page_size = 1; vs_pages_total = 2; vs_pages_free = 3;
      vs_pages_active = 4; vs_pages_inactive = 5; vs_faults = 6;
      vs_zero_fills = 7; vs_cow_copies = 8; vs_pager_reads = 9;
      vs_pageouts = 10; vs_reactivations = 11; vs_object_cache_hits = 12;
      vs_object_cache_misses = 13; vs_pager_retries = 14;
      vs_pager_deaths = 15; vs_rescued_pages = 16; vs_pageout_failures = 17;
      vs_memory_errors = 18; vs_prefetch_issued = 19; vs_prefetch_hits = 20;
      vs_prefetch_wasted = 21; vs_stream_hits = 22; vs_stream_resets = 23;
      vs_free_behind_pages = 24; vs_clustered_pageouts = 25;
      vs_lock_stalls = 26; vs_lock_stall_cycles = 27; vs_burst_faults = 28;
      vs_burst_mapped = 29; vs_alloc_waits = 30; vs_alloc_wait_cycles = 31;
      vs_swap_full_failures = 32; vs_oom_kills = 33; vs_swap_used = 34;
      vs_swap_capacity = Some 35; vs_shadows_created = 36; vs_collapses = 37;
      vs_fast_reloads = 38; vs_rmw_bug_upgrades = 39; vs_pager_failures = 40;
      vs_pcpu_hits = 41; vs_pcpu_refills = 42; vs_page_steals = 43 }
  in
  let names = List.map fst Vm_stats.rows in
  let values = List.map (fun (_, get) -> get s) Vm_stats.rows in
  Alcotest.(check int) "one row per field" 43 (List.length Vm_stats.rows);
  Alcotest.(check int) "names distinct" 43
    (List.length (List.sort_uniq compare names));
  Alcotest.(check (list int)) "every field reported once"
    (List.init 43 succ) (List.sort compare values)

(* [Vm_user.statistics] is a snapshot: later faults leave it alone, and
   its gauges agree with the resident table and the swap pool. *)
let test_statistics_snapshot () =
  (* 256 frames x 512 B, multiple 8 => 16 machine-independent pages. *)
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:256 () in
  let kernel = Kernel.create ~page_multiple:8 machine in
  let sys = Kernel.sys kernel in
  let ps = Kernel.page_size kernel in
  Vm_sys.set_swap_capacity sys (Some (64 * ps));
  let task = Kernel.create_task kernel ~name:"snap" () in
  Kernel.run_task kernel ~cpu:0 task;
  let size = (Resident.free_count sys.Vm_sys.resident + 8) * ps in
  let addr =
    match Vm_user.allocate sys task ~size ~anywhere:true () with
    | Ok a -> a
    | Error e -> Alcotest.fail (Kr.to_string e)
  in
  let v0 = Vm_user.statistics sys in
  let faults0 = v0.Vm_user.vs_faults in
  Machine.write_byte machine ~cpu:0 ~va:addr 'a';
  Alcotest.(check int) "old snapshot unmoved" faults0 v0.Vm_user.vs_faults;
  Alcotest.(check int) "live counter moved" (faults0 + 1)
    (Vm_user.statistics sys).Vm_user.vs_faults;
  (* Dirty more than memory so eviction commits swap. *)
  for i = 1 to (size / ps) - 1 do
    Machine.write_byte machine ~cpu:0 ~va:(addr + (i * ps)) 'b'
  done;
  let v1 = Vm_user.statistics sys in
  Alcotest.(check int) "pages_free = free_count"
    (Resident.free_count sys.Vm_sys.resident) v1.Vm_user.vs_pages_free;
  let committed =
    Hashtbl.fold
      (fun _ store acc ->
         Hashtbl.fold (fun _ b acc -> acc + Bytes.length b) store acc)
      sys.Vm_sys.swap_stores 0
  in
  Alcotest.(check bool) "swap committed" true (committed > 0);
  Alcotest.(check int) "swap_used = committed bytes" committed
    v1.Vm_user.vs_swap_used;
  Alcotest.(check (option int)) "swap_capacity" (Some (64 * ps))
    v1.Vm_user.vs_swap_capacity;
  Kernel.terminate_task kernel ~cpu:0 task

(* ---- cycle attribution and spans --------------------------------------- *)

(* Deterministic mixed workload on two CPUs, driven by an op list: the
   parent writes pages on CPU 0 (zero fills), a one-time fork puts the
   child on CPU 1 (COW copies + cross-CPU shootdowns), and explicit
   pageout passes exercise the daemon and pager-write paths.  With
   [traced], the tracer is installed before [Kernel.create] so even
   boot-time pmap work is attributed. *)
let run_attr_workload ~traced ops =
  let machine =
    Machine.create ~arch:Arch.uvax2 ~memory_frames:2048 ~cpus:2 ()
  in
  let tr =
    if traced then begin
      let tr = Obs.create ~capacity:16384 () in
      Obs.set_enabled tr true;
      Machine.set_tracer machine tr;
      tr
    end
    else Machine.tracer machine
  in
  let kernel = Kernel.create ~page_multiple:8 machine in
  let sys = Kernel.sys kernel in
  let ps = Kernel.page_size kernel in
  let npages = 32 in
  let parent = Kernel.create_task kernel ~name:"we\"ird\\task\tname" () in
  Kernel.run_task kernel ~cpu:0 parent;
  let addr =
    match
      Vm_user.allocate sys parent ~size:(npages * ps) ~anywhere:true ()
    with
    | Ok a -> a
    | Error e -> Alcotest.fail (Kr.to_string e)
  in
  let child = ref None in
  List.iter
    (fun op ->
       match op with
       | `Touch i ->
         Kernel.run_task kernel ~cpu:0 parent;
         Machine.write_byte machine ~cpu:0
           ~va:(addr + ((i mod npages) * ps))
           'a'
       | `Child_touch i ->
         (match !child with
          | None ->
            let c = Kernel.fork_task kernel ~cpu:0 parent in
            child := Some c
          | Some _ -> ());
         (match !child with
          | Some c ->
            Kernel.run_task kernel ~cpu:1 c;
            Machine.write_byte machine ~cpu:1
              ~va:(addr + ((i mod npages) * ps))
              'b'
          | None -> ())
       | `Pageout n ->
         Vm_pageout.deactivate_some sys ~count:n;
         Vm_pageout.run sys ~wanted:n)
    ops;
  (machine, sys, tr)

let fixed_ops =
  [ `Touch 0; `Touch 1; `Touch 2; `Touch 3; `Child_touch 1; `Child_touch 2;
    `Touch 4; `Pageout 8; `Touch 5; `Child_touch 5; `Pageout 4; `Touch 6 ]

let test_attribution_conservation () =
  let machine, _sys, tr = run_attr_workload ~traced:true fixed_ops in
  let cpus = Machine.cpu_count machine in
  for cpu = 0 to cpus - 1 do
    Alcotest.(check int)
      (Printf.sprintf "cpu%d: category totals sum to its clock" cpu)
      (Machine.cycles machine ~cpu)
      (Obs.attr_cpu_total tr ~cpu)
  done;
  let clocks =
    Array.init cpus (fun cpu -> Machine.cycles machine ~cpu)
  in
  Alcotest.(check bool) "export agrees it conserved" true
    (Export.attribution_conserved ~clocks tr);
  (* The interesting categories actually saw cycles. *)
  List.iter
    (fun (name, cat) ->
       Alcotest.(check bool) (name ^ " attributed some cycles") true
         (Obs.attr_grand_total tr cat > 0))
    [ ("user_compute", Obs.User_compute);
      ("fault_service", Obs.Fault_service); ("pmap", Obs.Pmap);
      ("shootdown_ipi", Obs.Shootdown_ipi);
      ("zero_fill", Obs.Zero_fill); ("cow_copy", Obs.Cow_copy);
      ("pageout_daemon", Obs.Pageout_daemon);
      ("disk_wait", Obs.Disk_wait) ];
  Alcotest.(check bool) "attribution json is valid" true
    (json_ok (Jout.to_string (Export.attribution_json ~clocks tr)));
  (* No kernel frame may be left open once the workload returns: cycles
     charged now are the workload's own. *)
  for cpu = 0 to cpus - 1 do
    let user () = Obs.attr_total tr ~cpu Obs.User_compute in
    let before = user () in
    Machine.charge machine ~cpu 100;
    Alcotest.(check int)
      (Printf.sprintf "cpu%d: no open attribution frames" cpu)
      100
      (user () - before)
  done

(* The exporter round trip: well-formed JSON, escaped task names, and
   span discipline — every fault opens a fresh non-zero span id, child
   events carry the innermost open span of their CPU, and begin/end
   nesting is balanced per CPU both in the ring and in the export. *)
let test_span_roundtrip () =
  let _machine, _sys, tr = run_attr_workload ~traced:true fixed_ops in
  Alcotest.(check int) "ring did not wrap" 0 (Ring.dropped (Obs.ring tr));
  let stacks = Hashtbl.create 4 in
  let stack cpu = try Hashtbl.find stacks cpu with Not_found -> [] in
  Ring.iter
    (fun { Obs.cpu; span; ev; _ } ->
       match ev with
       | Obs.Fault_begin _ ->
         if span <= 0 then Alcotest.fail "fault_begin without a span id";
         if List.mem span (stack cpu) then
           Alcotest.fail "span id reused while open";
         Hashtbl.replace stacks cpu (span :: stack cpu)
       | Obs.Fault_end _ ->
         (match stack cpu with
          | top :: rest ->
            Alcotest.(check int) "fault_end closes the innermost span" top
              span;
            Hashtbl.replace stacks cpu rest
          | [] -> Alcotest.fail "fault_end without fault_begin")
       | _ ->
         Alcotest.(check int) "child event carries the innermost span"
           (match stack cpu with top :: _ -> top | [] -> 0)
           span)
    (Obs.ring tr);
  Hashtbl.iter
    (fun cpu st ->
       Alcotest.(check int)
         (Printf.sprintf "cpu%d spans balanced" cpu)
         0 (List.length st))
    stacks;
  (* Completed spans feed the top-N table, biggest first. *)
  let spans = Obs.top_spans tr in
  Alcotest.(check bool) "top spans recorded" true (List.length spans > 0);
  Alcotest.(check bool) "top spans capped" true (List.length spans <= 10);
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Obs.sp_cycles >= b.Obs.sp_cycles && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "top spans sorted by service time" true
    (sorted spans);
  (* Chrome export: valid JSON with control characters escaped (the
     task name holds a quote, a backslash and a tab), B/E balanced per
     tid, complete slices carrying durations, flow arrows carrying the
     span id. *)
  let s, doc = exported (Export.write_chrome_trace ~cycles_per_us:1.0 tr) in
  Alcotest.(check bool) "chrome trace is valid JSON" true (json_ok s);
  Alcotest.(check bool) "no raw control characters" true
    (String.for_all (fun c -> c <> '\n' && c <> '\t' && c <> '\r') s);
  let events =
    match lookup "traceEvents" doc with
    | Some (Jout.Arr evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let depth = Hashtbl.create 4 in
  let flows = ref 0 in
  List.iter
    (fun ev ->
       let tid =
         match lookup "tid" ev with Some (Jout.Int t) -> t | _ -> -1
       in
       match lookup "ph" ev with
       | Some (Jout.Str "B") ->
         Hashtbl.replace depth tid
           (1 + Option.value ~default:0 (Hashtbl.find_opt depth tid))
       | Some (Jout.Str "E") ->
         let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
         if d <= 0 then Alcotest.fail "E without B on its tid";
         Hashtbl.replace depth tid (d - 1)
       | Some (Jout.Str "X") ->
         if lookup "dur" ev = None then
           Alcotest.fail "complete slice without dur"
       | Some (Jout.Str ("s" | "t" | "f")) ->
         incr flows;
         (match lookup "id" ev with
          | Some (Jout.Int id) when id > 0 -> ()
          | _ -> Alcotest.fail "flow event without span id")
       | _ -> ())
    events;
  Hashtbl.iter
    (fun tid d ->
       Alcotest.(check int)
         (Printf.sprintf "tid %d B/E balanced in export" tid)
         0 d)
    depth;
  Alcotest.(check bool) "flow arrows present" true (!flows > 0);
  (* Stats export round-trips too. *)
  Alcotest.(check bool) "stats json valid" true
    (json_ok (fst (exported (Export.write_stats tr))))

(* ---- qcheck properties -------------------------------------------------- *)

let gen_ops =
  let open QCheck2 in
  Gen.list_size (Gen.int_range 1 30)
    (Gen.map
       (fun n ->
          if n < 40 then `Touch n
          else if n < 48 then `Child_touch n
          else `Pageout (n - 47))
       (Gen.int_range 0 56))

(* Wherever a random workload stops, every CPU's category totals sum
   exactly to its clock: no cycle is ever double-counted or lost. *)
let attribution_conserves =
  let open QCheck2 in
  Test.make ~name:"attribution partitions every CPU clock" ~count:30 gen_ops
    (fun ops ->
       let machine, _sys, tr = run_attr_workload ~traced:true ops in
       let ok = ref true in
       for cpu = 0 to Machine.cpu_count machine - 1 do
         if Obs.attr_cpu_total tr ~cpu <> Machine.cycles machine ~cpu then
           ok := false
       done;
       !ok)

(* Tracing must be pure observation: the same workload with and without
   a tracer lands on identical clocks and identical VM statistics. *)
let tracing_transparent =
  let open QCheck2 in
  Test.make ~name:"tracing on/off leaves the simulation identical"
    ~count:20 gen_ops
    (fun ops ->
       let probe traced =
         let machine, sys, _tr = run_attr_workload ~traced ops in
         let s = sys.Vm_sys.stats in
         let ms = Machine.stats machine in
         ( List.init (Machine.cpu_count machine) (fun cpu ->
               Machine.cycles machine ~cpu),
           ( s.Vm_stats.vs_faults, s.Vm_stats.vs_zero_fills,
             s.Vm_stats.vs_cow_copies, s.Vm_stats.vs_pageouts ),
           (ms.Machine.ipis, ms.Machine.shootdowns, ms.Machine.disk_ops) )
       in
       probe true = probe false)

let () =
  Alcotest.run "obs"
    [ ( "hist",
        [ Alcotest.test_case "log2 bucketing" `Quick test_hist_bucketing;
          Alcotest.test_case "percentiles" `Quick test_hist_percentiles;
          Alcotest.test_case "exact small-sample percentiles" `Quick
            test_hist_exact_percentiles ] );
      ( "ring",
        [ Alcotest.test_case "wraparound" `Quick test_ring_wraparound ] );
      ( "disabled",
        [ Alcotest.test_case "null sink records nothing" `Quick
            test_disabled_sink ] );
      ( "kinds",
        [ Alcotest.test_case "event names distinct and non-empty" `Quick
            test_kind_names ] );
      ( "export",
        [ Alcotest.test_case "json checker sanity" `Quick
            test_json_checker_sanity;
          Alcotest.test_case "of_string round-trips to_string" `Quick
            test_jout_round_trip;
          Alcotest.test_case "of_string rejects malformed input" `Quick
            test_jout_rejects_malformed;
          Alcotest.test_case "fork+touch end to end" `Quick
            test_end_to_end;
          Alcotest.test_case "stats keys and mem_wait export" `Quick
            test_stats_json_keys ] );
      ( "vm_stats",
        [ Alcotest.test_case "rows cover every field" `Quick
            test_stat_rows_cover_fields;
          Alcotest.test_case "snapshot is a copy" `Quick
            test_statistics_snapshot ] );
      ( "attribution",
        [ Alcotest.test_case "totals conserve the clocks" `Quick
            test_attribution_conservation;
          Alcotest.test_case "span round trip through exporters" `Quick
            test_span_roundtrip ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ attribution_conserves; tracing_transparent ] ) ]

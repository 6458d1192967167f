open Mach_util

let flush_kind_name = function
  | Obs.Fl_page -> "page"
  | Obs.Fl_range -> "range"
  | Obs.Fl_asid -> "asid"

(* Payload fields shown in the trace viewer's args pane. *)
let args_of_event (ev : Obs.event) =
  match ev with
  | Obs.Fault_begin { va; write } ->
    [ ("va", Jout.Int va); ("write", Jout.Bool write) ]
  | Obs.Fault_end { va; resolution; cycles } ->
    [ ("va", Jout.Int va);
      ("resolution", Jout.Str (Obs.fault_resolution_name resolution));
      ("cycles", Jout.Int cycles) ]
  | Obs.Pagein { offset; bytes; cycles } ->
    [ ("offset", Jout.Int offset); ("bytes", Jout.Int bytes);
      ("cycles", Jout.Int cycles) ]
  | Obs.Pageout { offset; bytes; inactive_depth } ->
    [ ("offset", Jout.Int offset); ("bytes", Jout.Int bytes);
      ("inactive_depth", Jout.Int inactive_depth) ]
  | Obs.Shootdown { initiator; targets; requests; span_pages; urgent;
                    cycles } ->
    [ ("initiator", Jout.Int initiator); ("targets", Jout.Int targets);
      ("requests", Jout.Int requests); ("span_pages", Jout.Int span_pages);
      ("urgent", Jout.Bool urgent); ("cycles", Jout.Int cycles) ]
  | Obs.Tlb_flush { kind; deferred } ->
    [ ("kind", Jout.Str (flush_kind_name kind));
      ("deferred", Jout.Bool deferred) ]
  | Obs.Pmap_enter { asid; va; pfn } ->
    [ ("asid", Jout.Int asid); ("va", Jout.Int va); ("pfn", Jout.Int pfn) ]
  | Obs.Pmap_remove { asid; start_va; end_va } ->
    [ ("asid", Jout.Int asid); ("start_va", Jout.Int start_va);
      ("end_va", Jout.Int end_va) ]
  | Obs.Pmap_protect { asid; start_va; end_va } ->
    [ ("asid", Jout.Int asid); ("start_va", Jout.Int start_va);
      ("end_va", Jout.Int end_va) ]
  | Obs.Object_shadow { depth } -> [ ("depth", Jout.Int depth) ]
  | Obs.Task_switch { task } -> [ ("task", Jout.Str task) ]
  | Obs.Disk_io { write; bytes; cycles } ->
    [ ("write", Jout.Bool write); ("bytes", Jout.Int bytes);
      ("cycles", Jout.Int cycles) ]
  | Obs.Pager_retry { offset; attempt; backoff } ->
    [ ("offset", Jout.Int offset); ("attempt", Jout.Int attempt);
      ("backoff", Jout.Int backoff) ]
  | Obs.Pager_timeout { offset } -> [ ("offset", Jout.Int offset) ]
  | Obs.Pager_dead { pager; rescued } ->
    [ ("pager", Jout.Str pager); ("rescued", Jout.Int rescued) ]
  | Obs.Io_error { write; bytes } ->
    [ ("write", Jout.Bool write); ("bytes", Jout.Int bytes) ]
  | Obs.Prefetch { offset; pages; window } ->
    [ ("offset", Jout.Int offset); ("pages", Jout.Int pages);
      ("window", Jout.Int window) ]
  | Obs.Cluster_pageout { offset; pages } ->
    [ ("offset", Jout.Int offset); ("pages", Jout.Int pages) ]
  | Obs.Disk_submit { write; bytes; depth; latency } ->
    [ ("write", Jout.Bool write); ("bytes", Jout.Int bytes);
      ("depth", Jout.Int depth); ("latency", Jout.Int latency) ]
  | Obs.Disk_wait { cycles; overlap } ->
    [ ("cycles", Jout.Int cycles); ("overlap", Jout.Int overlap) ]
  | Obs.Lock_stall { obj; cycles } ->
    [ ("obj", Jout.Int obj); ("cycles", Jout.Int cycles) ]
  | Obs.Burst_enter { va; pages } ->
    [ ("va", Jout.Int va); ("pages", Jout.Int pages) ]
  | Obs.Alloc_wait { free; wanted; cycles } ->
    [ ("free", Jout.Int free); ("wanted", Jout.Int wanted);
      ("cycles", Jout.Int cycles) ]
  | Obs.Swap_full { used; capacity } ->
    [ ("used", Jout.Int used); ("capacity", Jout.Int capacity) ]
  | Obs.Oom_kill { task; resident } ->
    [ ("task", Jout.Str task); ("resident", Jout.Int resident) ]
  | Obs.Page_steal { victim; pfn } ->
    [ ("victim", Jout.Int victim); ("pfn", Jout.Int pfn) ]
  | Obs.Stream_reset { obj; offset } ->
    [ ("obj", Jout.Int obj); ("offset", Jout.Int offset) ]
  | Obs.Free_behind { obj; offset; pages } ->
    [ ("obj", Jout.Int obj); ("offset", Jout.Int offset);
      ("pages", Jout.Int pages) ]

let chrome_trace ?(cycles_per_us = 1.0) tr =
  let ts_of cycles = Jout.Float (float_of_int cycles /. cycles_per_us) in
  let events = ref [] in
  let cpus = Hashtbl.create 8 in
  let push e = events := e :: !events in
  Ring.iter
    (fun { Obs.ts; cpu; span; ev } ->
       Hashtbl.replace cpus cpu ();
       let args =
         let a = args_of_event ev in
         if span > 0 then ("span", Jout.Int span) :: a else a
       in
       let base ?(at = ts) name ph =
         [ ("name", Jout.Str name); ("cat", Jout.Str "vm");
           ("ph", Jout.Str ph); ("ts", ts_of at); ("pid", Jout.Int 0);
           ("tid", Jout.Int cpu); ("args", Jout.Obj args) ]
       in
       (* Flow arrows stitch a fault span's cycle-bearing children to
          the enclosing fault slice, so the viewer draws the causal
          chain (span id = flow id). *)
       let flow ph =
         if span > 0 then
           push
             (Jout.Obj
                ([ ("name", Jout.Str "fault-flow"); ("cat", Jout.Str "vm");
                   ("ph", Jout.Str ph); ("id", Jout.Int span);
                   ("ts", ts_of ts); ("pid", Jout.Int 0);
                   ("tid", Jout.Int cpu) ]
                 @ (if ph = "f" then [ ("bp", Jout.Str "e") ] else [])))
       in
       (* A cycle-bearing event is emitted as a complete slice covering
          the work it accounts, which nests inside the open fault
          slice on the same thread. *)
       let complete name cycles =
         flow "t";
         push (Jout.Obj (base ~at:(ts - cycles) name "X"
                         @ [ ("dur", ts_of cycles) ]))
       in
       match ev with
       | Obs.Fault_begin _ -> push (Jout.Obj (base "fault" "B")); flow "s"
       | Obs.Fault_end _ -> flow "f"; push (Jout.Obj (base "fault" "E"))
       | Obs.Pagein { cycles; _ } -> complete "pagein" cycles
       | Obs.Disk_io { cycles; _ } -> complete "disk_io" cycles
       | Obs.Disk_wait { cycles; _ } -> complete "disk_wait" cycles
       | Obs.Shootdown { cycles; _ } -> complete "shootdown" cycles
       | _ ->
         (* Instant event, thread-scoped. *)
         push (Jout.Obj (base (Obs.kind_name ev) "i"
                         @ [ ("s", Jout.Str "t") ])))
    (Obs.ring tr);
  let metadata =
    Jout.Obj
      [ ("name", Jout.Str "process_name"); ("ph", Jout.Str "M");
        ("pid", Jout.Int 0); ("tid", Jout.Int 0);
        ("args", Jout.Obj [ ("name", Jout.Str "machsim") ]) ]
    :: Hashtbl.fold
         (fun cpu () acc ->
            Jout.Obj
              [ ("name", Jout.Str "thread_name"); ("ph", Jout.Str "M");
                ("pid", Jout.Int 0); ("tid", Jout.Int cpu);
                ("args",
                 Jout.Obj
                   [ ("name", Jout.Str (Printf.sprintf "cpu%d" cpu)) ]) ]
            :: acc)
         cpus []
  in
  Jout.Obj
    [ ("traceEvents", Jout.Arr (metadata @ List.rev !events));
      ("displayTimeUnit", Jout.Str "ms");
      ("otherData",
       Jout.Obj
         [ ("events_seen", Jout.Int (Obs.events_seen tr));
           ("events_dropped", Jout.Int (Ring.dropped (Obs.ring tr))) ]) ]

let write_chrome_trace ~path ?cycles_per_us tr =
  Jout.write_file path (chrome_trace ?cycles_per_us tr)

let hist_json h =
  let buckets = ref [] in
  Hist.iter_nonempty h (fun ~lo ~hi ~count ->
      buckets :=
        Jout.Obj
          [ ("lo", Jout.Int lo); ("hi", Jout.Int hi);
            ("count", Jout.Int count) ]
        :: !buckets);
  Jout.Obj
    [ ("count", Jout.Int (Hist.count h));
      ("sum", Jout.Int (Hist.sum h));
      ("mean", Jout.Float (Hist.mean h));
      ("min", Jout.Int (Hist.min_value h));
      ("max", Jout.Int (Hist.max_value h));
      ("p50", Jout.Int (Hist.p50 h));
      ("p95", Jout.Int (Hist.p95 h));
      ("p99", Jout.Int (Hist.p99 h));
      ("buckets", Jout.Arr (List.rev !buckets)) ]

let stats_json ?(extra = []) tr =
  let kind_counts =
    List.init Obs.kind_count (fun k ->
        (Obs.kind_name_of_index k, Jout.Int (Obs.count_index tr k)))
  in
  let fault_hists =
    List.map
      (fun r ->
         (Obs.fault_resolution_name r, hist_json (Obs.fault_latency tr r)))
      Obs.fault_resolutions
  in
  let fault_total =
    List.fold_left
      (fun acc r -> acc + Hist.count (Obs.fault_latency tr r))
      0 Obs.fault_resolutions
  in
  Jout.Obj
    ([ ("events", Jout.Obj kind_counts);
       ("events_seen", Jout.Int (Obs.events_seen tr));
       ("events_retained", Jout.Int (Ring.length (Obs.ring tr)));
       ("events_dropped", Jout.Int (Ring.dropped (Obs.ring tr)));
       ("open_faults", Jout.Int (Obs.open_faults tr));
       ("faults_total", Jout.Int fault_total);
       ("fault_latency", Jout.Obj fault_hists) ]
     @ List.map (fun (h, key, _) -> (key, hist_json (Obs.hist tr h)))
         Obs.hist_names
     @ extra)

let write_stats ~path ?extra tr =
  Jout.write_file path (stats_json ?extra tr)

(* A latency table, and its row for [h] (count, mean, p50, p95, p99, max)
   when [h] has samples. *)
let latency_table ~title first =
  Tablefmt.create ~title
    ~columns:[ first; "count"; "mean"; "p50"; "p95"; "p99"; "max" ]

let latency_row t name h =
  if Hist.count h > 0 then
    Tablefmt.row t
      [ name; string_of_int (Hist.count h);
        Printf.sprintf "%.0f" (Hist.mean h);
        string_of_int (Hist.p50 h); string_of_int (Hist.p95 h);
        string_of_int (Hist.p99 h); string_of_int (Hist.max_value h) ]

let summary_tables tr =
  let counts =
    Tablefmt.create ~title:"Trace: events by kind"
      ~columns:[ "event"; "count" ]
  in
  for k = 0 to Obs.kind_count - 1 do
    let n = Obs.count_index tr k in
    if n > 0 then
      Tablefmt.row counts [ Obs.kind_name_of_index k; string_of_int n ]
  done;
  let lat =
    latency_table ~title:"Trace: latency summaries (simulated cycles)"
      "metric"
  in
  List.iter
    (fun r ->
       latency_row lat
         ("fault: " ^ Obs.fault_resolution_name r)
         (Obs.fault_latency tr r))
    Obs.fault_resolutions;
  List.iter (fun (h, _, label) -> latency_row lat label (Obs.hist tr h))
    Obs.hist_names;
  [ counts; lat ]

let print_summary tr = List.iter Tablefmt.print (summary_tables tr)

(* ------------------------------------------------------------------ *)
(* Cycle attribution: the profiler's JSON and table renderings.  Both
   take [clocks], the per-CPU cycle counters at export time, so every
   view can state whether attribution conserved the clock (it does
   exactly when the tracer was installed before the machine ran). *)

let attr_cpu_range ~clocks tr = max (Obs.attr_cpus tr) (Array.length clocks)

let clock_at clocks i = if i < Array.length clocks then clocks.(i) else 0

let attribution_conserved ~clocks tr =
  let n = attr_cpu_range ~clocks tr in
  let rec go i =
    i >= n
    || (Obs.attr_cpu_total tr ~cpu:i = clock_at clocks i && go (i + 1))
  in
  go 0

let span_json (s : Obs.span_info) =
  Jout.Obj
    [ ("id", Jout.Int s.Obs.sp_id); ("cpu", Jout.Int s.Obs.sp_cpu);
      ("va", Jout.Int s.Obs.sp_va);
      ("resolution", Jout.Str (Obs.fault_resolution_name s.Obs.sp_resolution));
      ("cycles", Jout.Int s.Obs.sp_cycles) ]

let attribution_json ~clocks tr =
  let n = attr_cpu_range ~clocks tr in
  let cat_fields total_of =
    List.map (fun c -> (Obs.category_name c, Jout.Int (total_of c)))
      Obs.categories
  in
  let per_cpu =
    List.init n (fun i ->
        let attributed = Obs.attr_cpu_total tr ~cpu:i in
        Jout.Obj
          [ ("cpu", Jout.Int i);
            ("clock", Jout.Int (clock_at clocks i));
            ("attributed", Jout.Int attributed);
            ("conserved", Jout.Bool (attributed = clock_at clocks i));
            ("categories",
             Jout.Obj (cat_fields (fun c -> Obs.attr_total tr ~cpu:i c))) ])
  in
  let grand =
    List.fold_left (fun a c -> a + Obs.attr_grand_total tr c) 0 Obs.categories
  in
  let clock_total = Array.fold_left ( + ) 0 clocks in
  Jout.Obj
    [ ("total", Jout.Int grand);
      ("clock_total", Jout.Int clock_total);
      ("conserved", Jout.Bool (attribution_conserved ~clocks tr));
      ("categories",
       Jout.Obj (cat_fields (fun c -> Obs.attr_grand_total tr c)));
      ("per_cpu", Jout.Arr per_cpu);
      ("top_spans", Jout.Arr (List.map span_json (Obs.top_spans tr))) ]

let profile_tables ~clocks tr =
  let n = attr_cpu_range ~clocks tr in
  let clock_total = Array.fold_left ( + ) 0 clocks in
  let share v =
    if clock_total = 0 then "-"
    else Printf.sprintf "%.1f%%" (100. *. float_of_int v
                                  /. float_of_int clock_total)
  in
  let cpu_cols = List.init n (Printf.sprintf "cpu%d") in
  let attr =
    Tablefmt.create ~title:"Profile: cycle attribution by subsystem"
      ~columns:(("category" :: cpu_cols) @ [ "total"; "share" ])
  in
  let by_weight =
    List.sort
      (fun a b ->
         compare (Obs.attr_grand_total tr b) (Obs.attr_grand_total tr a))
      Obs.categories
  in
  List.iter
    (fun c ->
       let tot = Obs.attr_grand_total tr c in
       if tot > 0 then
         Tablefmt.row attr
           ((Obs.category_name c
             :: List.init n (fun i ->
                    string_of_int (Obs.attr_total tr ~cpu:i c)))
            @ [ string_of_int tot; share tot ]))
    by_weight;
  Tablefmt.separator attr;
  let attributed_total =
    List.fold_left (fun a c -> a + Obs.attr_grand_total tr c) 0 Obs.categories
  in
  Tablefmt.row attr
    (("attributed"
      :: List.init n (fun i -> string_of_int (Obs.attr_cpu_total tr ~cpu:i)))
     @ [ string_of_int attributed_total; share attributed_total ]);
  Tablefmt.row attr
    (("cpu clock"
      :: List.init n (fun i -> string_of_int (clock_at clocks i)))
     @ [ string_of_int clock_total;
         (if clock_total = 0 then "-" else "100.0%") ]);
  let lat =
    latency_table ~title:"Profile: fault service time (cycles)" "resolution"
  in
  List.iter
    (fun r ->
       latency_row lat (Obs.fault_resolution_name r) (Obs.fault_latency tr r))
    Obs.fault_resolutions;
  let spans =
    Tablefmt.create ~title:"Profile: slowest fault spans"
      ~columns:[ "span"; "cpu"; "va"; "resolution"; "cycles" ]
  in
  List.iter
    (fun (s : Obs.span_info) ->
       Tablefmt.row spans
         [ string_of_int s.Obs.sp_id; string_of_int s.Obs.sp_cpu;
           Printf.sprintf "0x%x" s.Obs.sp_va;
           Obs.fault_resolution_name s.Obs.sp_resolution;
           string_of_int s.Obs.sp_cycles ])
    (Obs.top_spans tr);
  [ attr; lat; spans ]

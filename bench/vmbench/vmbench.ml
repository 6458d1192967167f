(* vmbench: the simulator's end-to-end and per-layer benchmark.

   Four seeded workloads run as closed loops: one host process, one host
   thread, simulated CPUs interleaved by the trace.  Each repetition
   runs in a forked child so no state (the simulator keeps some global
   tables) and no garbage leaks from one repetition into the next; the
   child sends its result back over a pipe.  See README.md.

     vmbench.exe [--seed N] [--json PATH] [--check]
         every workload, 5 repetitions interleaved; exits 1 on any failed
         op; --check compares with bench/vmbench/baseline.json
     vmbench.exe --workload W --seconds S --trace 0|1 [--seed N]
         one workload for about S seconds; the last line is a JSON
         summary (end-to-end metrics, or per-layer metrics with 1)
     vmbench.exe --trace DIR     traced run of every workload, Chrome
                                 spans of the first ops written to DIR
     vmbench.exe --quick         small traces run twice: no failures and
                                 identical simulated metrics
     vmbench.exe --micro         per-layer host ns/op micro-suite *)

module W = Workload
module J = Mach_obs.Jout

(* End-to-end metrics.  The calibrated host times are medians over
   repetitions with a tolerance for [--check]; the simulated ones and the
   live heap are deterministic and must repeat exactly; the raw host
   times are only reported.  The simulated percentiles sit on a few
   discrete cost levels, so the same value comes back for most seeds;
   they are printed here but gated only as per-layer numbers, and the
   tail mean stands for the tail in the summary line.  fail_frac is 0 on
   a correct run, and the summary's failed count carries it. *)
let e2e =
  Baseline.
    [ ("setup_s", "s", Host 0.25);
      ("host_s", "s", Host 0.2);
      ("sim_ms", "ms", Exact);
      ("sim_op_tail_us", "us", Exact);
      ("sim_op_p50_us", "us", Exact);
      ("sim_op_p999_us", "us", Exact);
      ("fail_frac", "ratio", Exact);
      ("host_live_mb", "MB", Exact);
      ("setup_raw_s", "s", Info);
      ("host_raw_s", "s", Info) ]

let in_summary m =
  List.mem m [ "setup_s"; "host_s"; "sim_ms"; "sim_op_tail_us"; "host_live_mb" ]

let e2e_value (r : World.result) = function
  | "setup_s" -> r.World.setup_s
  | "host_s" -> r.World.host_s
  | "setup_raw_s" -> r.World.setup_raw_s
  | "host_raw_s" -> r.World.host_raw_s
  | "sim_ms" -> r.World.sim_ms
  | "sim_op_tail_us" -> r.World.tail_us
  | "sim_op_p50_us" -> r.World.p50_us
  | "sim_op_p999_us" -> r.World.p999_us
  | "fail_frac" -> float_of_int r.World.failed /. float_of_int r.World.attempted
  | "host_live_mb" -> r.World.live_mb
  | m -> invalid_arg m

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

let sorted l = List.sort compare l

let median l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles by Python's statistics.quantiles(n=4) (exclusive method). *)
let quartiles l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n < 2 then (median l, median l)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* Accumulated repetitions of one workload. *)
type acc = {
  kind : W.kind;
  mutable reps : World.result list;   (* newest first *)
  mutable errors : string list;       (* newest first *)
  mutable crashed : int;              (* repetitions that returned nothing *)
}

let new_acc kind = { kind; reps = []; errors = []; crashed = 0 }

let add acc = function
  | Ok r ->
    acc.reps <- r :: acc.reps;
    acc.errors <- List.rev_append r.World.notes acc.errors
  | Error e ->
    acc.crashed <- acc.crashed + 1;
    acc.errors <- e :: acc.errors

let values acc m = List.rev_map (fun r -> e2e_value r m) acc.reps

let failed acc =
  List.fold_left (fun a r -> a + r.World.failed) acc.crashed acc.reps

let attempted acc =
  List.fold_left (fun a r -> a + r.World.attempted) acc.crashed acc.reps

(* Deterministic metrics must read the same on every repetition, and
   every repetition must have run the same trace. *)
let deterministic acc =
  let same f =
    match acc.reps with
    | [] -> true
    | r :: rest -> List.for_all (fun r' -> f r' = f r) rest
  in
  same (fun r -> r.World.digest)
  && List.for_all
       (fun (m, _, check) ->
          check <> Baseline.Exact || same (fun r -> e2e_value r m))
       e2e

let correct acc =
  acc.reps <> [] && acc.errors = [] && failed acc = 0 && deterministic acc

let digest acc = match acc.reps with r :: _ -> r.World.digest | [] -> "-"

(* ------------------------------------------------------------------ *)
(* Reporting                                                            *)
(* ------------------------------------------------------------------ *)

let print_e2e acc =
  let n = List.length acc.reps in
  Printf.printf "%s trace %s\n" (W.name acc.kind) (digest acc);
  List.iter
    (fun (m, unit, check) ->
       let vs = values acc m in
       let extra =
         if check = Baseline.Exact then ""
         else
           let q1, q3 = quartiles vs in
           Printf.sprintf " q1=%.4f q3=%.4f" q1 q3
       in
       Printf.printf "%s %s %.6g %s n=%d%s\n" (W.name acc.kind) m (median vs)
         unit n extra)
    e2e;
  List.iter
    (fun e -> Printf.printf "%s FAILED %s\n" (W.name acc.kind) e)
    (List.rev acc.errors);
  if not (deterministic acc) then
    Printf.printf "%s FAILED simulated metrics differ across repetitions\n"
      (W.name acc.kind)

let e2e_json acc ~only =
  J.Obj
    (List.filter_map
       (fun (m, unit, _) ->
          if not (only m) then None
          else Some (m, J.Obj [ ("value", J.Float (median (values acc m)));
                                ("unit", J.Str unit) ]))
       e2e)

let summary_line ~correct ~attempted ~failed metrics =
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool correct); ("attempted", J.Int attempted);
            ("failed", J.Int failed); ("metrics", metrics) ]))

(* ------------------------------------------------------------------ *)
(* Modes                                                                *)
(* ------------------------------------------------------------------ *)

let reps = 5

let default_run ~seed ~json ~check =
  let accs = List.map new_acc W.all in
  (* Interleaved, so drift on the host lands on every workload alike. *)
  for _ = 1 to reps do
    List.iter
      (fun acc -> add acc (Isolate.repetition acc.kind ~seed ~quick:false ~traced:false))
      accs
  done;
  List.iter print_e2e accs;
  let doc =
    J.Obj
      [ ("seed", J.Int seed); ("reps", J.Int reps);
        ("workloads",
         J.Obj
           (List.map
              (fun acc ->
                 ( W.name acc.kind,
                   J.Obj
                     [ ("digest", J.Str (digest acc));
                       ("metrics", e2e_json acc ~only:(fun _ -> true)) ] ))
              accs)) ]
  in
  Option.iter
    (fun path ->
       J.write_file path doc;
       Printf.printf "wrote %s\n" path)
    json;
  let ok = List.for_all correct accs in
  let check_ok =
    match check with
    | None -> true
    | Some path ->
      Baseline.check ~path
        ~kind:(fun m -> List.find_map (fun (n, _, k) -> if n = m then Some k else None) e2e
                        |> Option.value ~default:Baseline.Info)
        doc
  in
  if not (ok && check_ok) then exit 1

let overhead_metric ~traced ~untraced =
  { World.m_name = "trace.overhead_frac";
    m_value = (median traced /. median untraced) -. 1.; m_unit = "ratio" }

(* Median of each per-layer metric over the traced repetitions. *)
let layer_medians (reps : World.result list) =
  match reps with
  | [] -> []
  | r :: _ ->
    List.map
      (fun (m : World.metric) ->
         let vs =
           List.map
             (fun (r : World.result) ->
                (List.find (fun (x : World.metric) -> x.World.m_name = m.World.m_name)
                   r.World.layers).World.m_value)
             reps
         in
         { m with World.m_value = median vs })
      r.World.layers

(* A traced repetition must reproduce the untraced simulated metrics. *)
let trace_faithful ~(plain : acc) ~(traced : acc) =
  match (plain.reps, traced.reps) with
  | p :: _, t :: _ ->
    List.for_all
      (fun m -> e2e_value p m = e2e_value t m)
      [ "sim_ms"; "sim_op_tail_us"; "sim_op_p50_us"; "sim_op_p999_us";
        "fail_frac" ]
  | _ -> false

let traced_pairs kind ~seed ~pairs ~until ~chrome =
  let plain = new_acc kind and traced = new_acc kind in
  let start = Unix.gettimeofday () in
  let rec loop i =
    if i < pairs || Unix.gettimeofday () -. start < until then begin
      add plain (Isolate.repetition kind ~seed ~quick:false ~traced:false);
      let chrome = if i = 0 then chrome else None in
      add traced (Isolate.repetition ?chrome kind ~seed ~quick:false ~traced:true);
      loop (i + 1)
    end
  in
  loop 0;
  let layers =
    layer_medians traced.reps
    @ [ overhead_metric ~traced:(values traced "host_s")
          ~untraced:(values plain "host_s") ]
  in
  let faithful = trace_faithful ~plain ~traced in
  if not faithful then
    traced.errors <- "traced run changed the simulated metrics" :: traced.errors;
  (plain, traced, layers)

let trace_run ~seed ~dir =
  Option.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) dir;
  let ok = ref true in
  List.iter
    (fun kind ->
       let chrome =
         Option.map (fun d -> Filename.concat d (W.name kind ^ ".json")) dir
       in
       let plain, traced, layers =
         traced_pairs kind ~seed ~pairs:1 ~until:0. ~chrome
       in
       List.iter
         (fun (m : World.metric) ->
            Printf.printf "%s %s %.6g %s\n" (W.name kind) m.World.m_name
              m.World.m_value m.World.m_unit)
         layers;
       List.iter
         (fun e -> Printf.printf "%s FAILED %s\n" (W.name kind) e)
         (plain.errors @ traced.errors);
       if not (correct plain && correct traced) then ok := false)
    W.all;
  if not !ok then exit 1

let driver_run kind ~seed ~seconds ~traced =
  if traced then begin
    let plain, tr, layers =
      traced_pairs kind ~seed ~pairs:1 ~until:seconds ~chrome:None
    in
    List.iter (fun e -> prerr_endline ("FAILED " ^ e)) (plain.errors @ tr.errors);
    summary_line
      ~correct:(correct plain && correct tr)
      ~attempted:(attempted plain + attempted tr)
      ~failed:(failed plain + failed tr)
      (J.Obj
         (List.map
            (fun (m : World.metric) ->
               ( m.World.m_name,
                 J.Obj [ ("value", J.Float m.World.m_value);
                         ("unit", J.Str m.World.m_unit) ] ))
            layers))
  end
  else begin
    let acc = new_acc kind in
    let start = Unix.gettimeofday () in
    let rec loop i =
      if i < 3 || Unix.gettimeofday () -. start < seconds then begin
        add acc (Isolate.repetition kind ~seed ~quick:false ~traced:false);
        loop (i + 1)
      end
    in
    loop 0;
    print_e2e acc;
    summary_line ~correct:(correct acc) ~attempted:(attempted acc)
      ~failed:(failed acc)
      (e2e_json acc ~only:in_summary)
  end

(* Small traces, each run twice: nothing fails and the simulated
   metrics are identical between the two runs. *)
let quick_run ~seed =
  let ok = ref true in
  List.iter
    (fun kind ->
       let acc = new_acc kind in
       for _ = 1 to 2 do
         add acc (Isolate.repetition kind ~seed ~quick:true ~traced:false)
       done;
       let good = correct acc && List.length acc.reps = 2 in
       Printf.printf "%s quick %s ops=%d sim_ms=%.17g\n" (W.name kind)
         (if good then "ok" else "FAILED")
         (attempted acc / 2)
         (median (values acc "sim_ms"));
       List.iter (fun e -> Printf.printf "  %s\n" e) acc.errors;
       if not good then ok := false)
    W.all;
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: vmbench.exe [--seed N] [--json PATH] [--check]\n\
    \       [--workload W --seconds S] [--trace 0|1|DIR] [--quick] [--micro]";
  exit 2

let () =
  (* Fixed GC settings: host time must not depend on the environment. *)
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20; space_overhead = 120 };
  let seed = ref 1 and json = ref None and check = ref false in
  let workload = ref None and seconds = ref 10. and trace = ref "0" in
  let quick = ref false and micro = ref false in
  let int s = match int_of_string_opt s with Some n when n > 0 -> n | _ -> usage () in
  let rec parse = function
    | [] -> ()
    | "--seed" :: n :: rest -> seed := int n; parse rest
    | "--json" :: p :: rest -> json := Some p; parse rest
    | "--check" :: rest -> check := true; parse rest
    | "--workload" :: w :: rest ->
      (match W.of_name w with Some k -> workload := Some k | None -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
       | Some s when s > 0. -> seconds := s
       | _ -> usage ());
      parse rest
    | "--trace" :: t :: rest -> trace := t; parse rest
    | "--quick" :: rest -> quick := true; parse rest
    | "--micro" :: rest -> micro := true; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = !seed in
  match !workload, !trace with
  | _ when !micro -> Micro.run ~seed
  | _ when !quick -> quick_run ~seed
  | Some kind, ("0" | "1") ->
    driver_run kind ~seed ~seconds:!seconds ~traced:(!trace = "1")
  | Some _, _ -> usage ()
  | None, "0" ->
    default_run ~seed ~json:!json
      ~check:(if !check then Some "bench/vmbench/baseline.json" else None)
  | None, "1" -> trace_run ~seed ~dir:None
  | None, dir -> trace_run ~seed ~dir:(Some dir)

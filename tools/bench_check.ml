(* The bench gate behind [make check].  Runs the bench subsets and the
   machsim commands below into scratch files under $TMPDIR, reads every
   JSON file through [Jout.of_string], and checks two things:

   - every cell a subset run produces is string-equal to its cell in the
     committed bench/BENCH_vm.json (simulated time is deterministic, so
     any drift is a behaviour change);
   - the relation table [rows]: the shapes the bench reproduces from the
     paper, and the identities that let duplicate paths be deleted.

   Every failing row is printed, one line each, before exiting 1. *)

module J = Mach_obs.Jout

let baseline = "bench/BENCH_vm.json"

let subsets =
  [ "-e shootdown"; "-e chaos"; "-e cluster -e table7_1_files";
    "-e mpfault -cpus 8"; "-e pressure"; "-e streams -cpus 8";
    "-e pmap_arch -e fork_prewarm" ]

(* machsim runs: id, arguments, whether to export --stats. *)
let machsim_runs =
  [ ("chaos", "compile --chaos 42:flaky", false);
    ("async", "compile --chaos 42:flaky --async-disk", true);
    ("numa", "compile --chaos 42:flaky --numa 2 --colors 16 --alloc-cache 8",
     true);
    ("profile", "compile --profile", true);
    ("streams", "compile --chaos 42:flaky --streams 8 --free-behind", true);
    ("vmstats", "stats", true) ]

type operand =
  | Cell of string  (** a cell some subset run produced *)
  | Base of string  (** the committed cell of that name *)
  | Lit of J.t
  | Stat of string * string  (** machsim run, '/'-path into its stats JSON *)
  | Count of string * (string -> bool)  (** committed names satisfying it *)

type op = Eq | Lt | Le | Gt | Ge

type row =
  | Has of operand
  | Cmp of operand * op * operand  (** [Eq] is string equality *)
  | Replay of string  (** stdout and stats JSON identical across two runs *)
  | Line of string * string * (string -> bool)  (** run, what, a stdout line *)

let int i = Lit (J.Int i)
let cmp a op b = Cmp (Cell a, op, b)
let starts prefix s = String.starts_with ~prefix s
let ws = List.map (Printf.sprintf "w%d") [ 1; 2; 4; 8; 16; 32; 64 ]
let pmaps = [ "vax"; "rt_pc"; "sun3"; "ns32082"; "rp3" ]

(* [pmap_arch/<pmap>/metric] is [v] on [pmap] and [others] on the rest. *)
let only pmap metric op v others =
  List.map
    (fun p ->
       let name = Printf.sprintf "pmap_arch/%s/%s" p metric in
       if p = pmap then cmp name op v else cmp name Eq others)
    pmaps

(* [Has] rows for [prefix/a/b/...] over every [a], [b], ... in [parts]. *)
let has prefix parts =
  let extend names xs =
    List.concat_map (fun n -> List.map (fun x -> n ^ "/" ^ x) xs) names
  in
  List.map (fun n -> Has (Cell n)) (List.fold_left extend [ prefix ] parts)

let rows =
  List.concat
    [ has "shootdown"
        [ [ "immediate"; "deferred"; "lazy" ]; [ "unbatched"; "batched" ];
          [ "ipis"; "deferred_flushes"; "stale_tlb_uses"; "elapsed_ms" ] ];
      (* Section 5.2: one IPI round per target CPU per revocation when
         batched (30 rounds x 3 remote CPUs = 90; raising rights back
         costs no exchange), one per page when not (x 256 pages);
         immediacy means no stale windows, batched or not. *)
      [ cmp "shootdown/immediate/batched/ipis" Eq (int 90);
        cmp "shootdown/immediate/unbatched/ipis" Eq (int 23040);
        cmp "shootdown/deferred/batched/deferred_flushes" Le (int 90);
        cmp "shootdown/lazy/batched/deferred_flushes" Le (int 90);
        cmp "shootdown/immediate/batched/stale_tlb_uses" Le (int 0);
        cmp "shootdown/immediate/unbatched/stale_tlb_uses" Le (int 0);
        (* Seeded pager failure under pressure: a dead pager, rescued
           pages, no corruption, no task-visible error, bounded retry. *)
        cmp "chaos/corrupt_pages" Eq (int 0);
        cmp "chaos/memory_errors" Eq (int 0);
        cmp "chaos/pager_deaths" Ge (int 1);
        cmp "chaos/rescued_pages" Ge (int 1);
        cmp "chaos/pageout_failures" Ge (int 1);
        cmp "chaos/pager_retries" Ge (int 1);
        cmp "chaos/pager_retries" Le (int 64) ];
      has "cluster" [ [ "seq_read_2M"; "rand_read_256x4K"; "writeback_1M" ];
                      ws ];
      has "cluster" [ [ "seq_read_2M"; "writeback_1M" ];
                      List.map (fun w -> w ^ "_async") ws ];
      [ Has (Cell "cluster/disk_overlap_cycles/w8_async") ];
      (* cluster_max = 1 costs what the pre-clustering per-page read costs,
         to the digit; read-ahead pays; the async disk overlaps at w >= 8
         and is a no-op at w = 1 (no prefetch tail). *)
      [ cmp "cluster/seq_read_2M/w1" Eq (Cell "cluster/seq_read_2M/legacy");
        cmp "cluster/seq_read_2M/w8" Lt (Cell "cluster/seq_read_2M/w1");
        cmp "cluster/seq_read_2M/w1_async" Eq (Cell "cluster/seq_read_2M/w1") ];
      List.map
        (fun w ->
           cmp (Printf.sprintf "cluster/seq_read_2M/w%d_async" w) Lt
             (Cell (Printf.sprintf "cluster/seq_read_2M/w%d" w)))
        [ 8; 16; 32; 64 ];
      (* Table 7-1: read-ahead puts Mach below UNIX on cold file reads. *)
      [ cmp "table7_1_files/read_2.5M_1st/mach" Lt
          (Cell "table7_1_files/read_2.5M_1st/unix");
        cmp "table7_1_files/read_50K_1st/mach" Lt
          (Cell "table7_1_files/read_50K_1st/unix");
        (* Attribution partitions the clock; async stalls less on disk. *)
        cmp "cluster/attr_conserved/w8" Eq (int 1);
        cmp "cluster/attr_disk_wait_frac/w8_async" Lt
          (Cell "cluster/attr_disk_wait_frac/w8");
        cmp "cluster/attr_disk_wait_frac/w8" Gt (int 0);
        cmp "cluster/attr_disk_wait_frac/w8" Lt (int 1);
        (* Chaos injection is keyed to the virtual clocks, so it replays
           exactly, also with the async disk, the widened allocator, and
           stream slots with free-behind on. *)
        Replay "chaos";
        Line ("chaos", "chaos summary", starts "chaos: seed=42 profile=flaky");
        Replay "async";
        Replay "numa";
        Replay "streams";
        Has (Stat ("streams", "events/stream_reset"));
        Cmp (Stat ("streams", "events/free_behind"), Gt, int 0);
        (* Every vm_statistics counter and histogram reaches the JSON. *)
        Replay "vmstats";
        Has (Stat ("vmstats", "vm/reactivations"));
        Has (Stat ("vmstats", "vm/object_cache_hits"));
        Has (Stat ("vmstats", "vm/object_cache_misses"));
        Has (Stat ("vmstats", "mem_wait_cycles"));
        (* The profiler conserves every cycle and drops no event. *)
        Line ("profile", "conservation", starts "profile conservation: ok");
        Line ("profile", "dropped=0", fun l ->
            try Scanf.sscanf l "profile: events seen=%u retained=%u dropped=0%!"
                  (fun _ _ -> true) with _ -> false);
        Has (Stat ("profile", "attribution/per_cpu"));
        Has (Stat ("profile", "attribution/top_spans"));
        Has (Stat ("profile", "attribution/categories/user_compute"));
        Has (Stat ("profile", "attribution/categories/disk_wait"));
        Cmp (Stat ("profile", "attribution/conserved"), Eq, Lit (J.Bool true));
        Cmp (Stat ("profile", "events_dropped"), Eq, int 0);
        Cmp (Stat ("profile", "attribution/total"), Eq,
             Stat ("profile", "attribution/clock_total")) ];
      has "mpfault"
        [ [ "private"; "shared" ]; [ "c1"; "c2"; "c4" ];
          [ "faults_per_sec"; "elapsed_ms"; "lock_stall_share" ] ];
      has "mpfault/alloc"
        [ [ "global"; "colored"; "colored_pcpu"; "numa2" ];
          [ "c1"; "c2"; "c4"; "c8" ]; [ "faults_per_sec"; "stall_share" ] ];
      (* Weak scaling on private objects; contention on a shared one. *)
      [ cmp "mpfault/private/c1/faults_per_sec" Le
          (Cell "mpfault/private/c2/faults_per_sec");
        cmp "mpfault/private/c2/faults_per_sec" Le
          (Cell "mpfault/private/c4/faults_per_sec");
        cmp "mpfault/shared/c4/lock_stall_share" Gt (int 0);
        cmp "mpfault/private/c4/lock_stall_share" Eq (int 0);
        (* burst=1 is the demand-page path to the digit, burst=8 pays, and
           with neighbours dropped before use the window falls to the
           demand page and only re-probes on a backoff: a probe on every
           fault would be at least one neighbour per fault. *)
        cmp "mpfault/burst/b1/elapsed_ms" Eq
          (Cell "mpfault/burst/legacy/elapsed_ms");
        cmp "mpfault/burst/b8/elapsed_ms" Lt
          (Cell "mpfault/burst/legacy/elapsed_ms");
        cmp "mpfault/burst/dropped/mapped_per_fault" Lt (int 1);
        (* The colored per-CPU allocator meets or beats the single queue
           at 8 CPUs; private NUMA working sets stay home. *)
        cmp "mpfault/alloc/colored_pcpu/c8/faults_per_sec" Ge
          (Cell "mpfault/alloc/global/c8/faults_per_sec");
        cmp "mpfault/alloc/colored_pcpu/c8/stall_share" Le
          (Cell "mpfault/alloc/global/c8/stall_share");
        cmp "mpfault/alloc/numa2/private/c8/local_frac" Gt
          (Lit (J.Float 0.9)) ];
      has "pressure"
        [ [ "x1"; "x2"; "x3"; "x4" ];
          [ "elapsed_ms"; "oom_kills"; "alloc_waits"; "pageouts";
            "survivors" ] ];
      (* The OOM policy is silent when demand fits and kills at 4x, and
         the kernel keeps serving someone; Mem_wait stays in the ledger. *)
      [ cmp "pressure/x1/oom_kills" Eq (int 0);
        cmp "pressure/x4/oom_kills" Gt (int 0);
        cmp "pressure/x4/survivors" Ge (int 1);
        cmp "pressure/attr_conserved/x4" Eq (int 1) ];
      has "streams"
        [ [ "k1"; "k2"; "k4"; "k8" ]; [ "slotted"; "unslotted"; "fb" ] ];
      (* Stream slots un-interfere 8 readers of one file and are free for
         one; free-behind fires and is transparent. *)
      [ cmp "streams/k8/slotted" Lt (Cell "streams/k8/unslotted");
        cmp "streams/pager_reads/k8_slotted" Lt
          (Cell "streams/pager_reads/k8_unslotted");
        cmp "streams/stream_hits/k8_slotted" Gt (int 0);
        cmp "streams/stream_resets/k8_slotted" Eq (int 0);
        cmp "streams/k1/slotted" Eq (Cell "streams/k1/unslotted");
        cmp "streams/k8/fb" Le (Cell "streams/k8/slotted");
        cmp "streams/free_behind_pages/k8_fb" Gt (int 0);
        (* The cells that predate the streams experiment, the
           drop-before-touch burst cells and the pmap cells may not be
           dropped or renamed. *)
        Cmp (Count ("committed pre-stream cells", fun n ->
                 not (starts "streams/" n
                      || starts "mpfault/burst/dropped/" n
                      || starts "pmap_arch/" n
                      || starts "fork_prewarm/" n)), Eq, int 223);
        Cmp (Count ("committed pmap cells", fun n ->
                 starts "pmap_arch/" n || starts "fork_prewarm/" n),
             Eq, int 39) ];
      has "pmap_arch"
        [ pmaps;
          [ "faults"; "reloads"; "alias_evictions"; "context_steals";
            "map_bytes"; "va_blocked"; "elapsed_ms" ] ];
      has "fork_prewarm"
        [ [ "default"; "used" ]; [ "child_faults"; "elapsed_ms" ] ];
      (* Section 5.1: only the RT PC's inverted table evicts aliases, only
         the SUN 3 steals contexts (12 tasks on 8), only the NS32082 stops
         at 16 MB of VA, and the TLB-only RP3 allocates no map memory. *)
      only "rt_pc" "alias_evictions" Gt (int 0) (int 0);
      only "sun3" "context_steals" Gt (int 0) (int 0);
      only "ns32082" "va_blocked" Eq (int 1) (int 0);
      [ cmp "pmap_arch/rp3/map_bytes" Eq (int 0);
        (* Table 3-4: pmap_copy at fork leaves the child no fault. *)
        cmp "fork_prewarm/used/child_faults" Eq (int 0);
        cmp "fork_prewarm/used/child_faults" Lt
          (Cell "fork_prewarm/default/child_faults") ] ]

(* Each output is read back as soon as it is written, so a few fixed
   names in one scratch directory suffice. *)
let tmp = Filename.concat (Filename.temp_dir "bench_check" "")

let () =
  at_exit (fun () ->
      Array.iter (fun f -> Sys.remove (tmp f)) (Sys.readdir (tmp ""));
      Sys.rmdir (tmp ""))

let sh fmt =
  Printf.ksprintf
    (fun c -> if Sys.command c <> 0 then failwith ("command failed: " ^ c)) fmt

let read path = In_channel.with_open_bin path In_channel.input_all
let field k = function J.Obj kv -> List.assoc_opt k kv | _ -> None

let json what text =
  match J.of_string text with Ok j -> j | Error e -> failwith (what ^ ": " ^ e)

let cells path =
  match field "cells" (json path (read path)) with
  | Some (J.Arr cs) ->
    List.filter_map
      (fun c ->
         match field "name" c, field "measured_ms" c with
         | Some (J.Str n), Some v -> Some (n, v)
         | _ -> None)
      cs
  | _ -> failwith (path ^ ": no cells array")

(* One machsim run: its stdout lines, less the "stats: ->" line naming
   the scratch file, and the text of its stats JSON if it exports one. *)
let machsim id =
  let _, args, stats = List.find (fun (i, _, _) -> i = id) machsim_runs in
  let out = tmp "machsim.out" and st = tmp "stats.json" in
  sh "dune exec bin/machsim.exe -- %s%s >%s 2>&1" args
    (if stats then " --stats " ^ Filename.quote st else "")
    (Filename.quote out);
  ( List.filter (fun l -> not (starts "stats: ->" l))
      (String.split_on_char '\n' (read out)),
    if stats then read st else "" )

(* Ordering needs two numbers: anything else reads as nan and fails. *)
let holds op a b =
  let f = function J.Int i -> float i | J.Float x -> x | _ -> nan in
  match op with
  | Eq -> J.to_string a = J.to_string b
  | Lt -> f a < f b | Le -> f a <= f b | Gt -> f a > f b | Ge -> f a >= f b

let op_name = function
  | Eq -> "=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let () =
  (* [dune exec] names the repository root, wherever it is invoked. *)
  Option.iter Sys.chdir (Sys.getenv_opt "DUNE_SOURCEROOT");
  let produced =
    List.concat_map (fun args ->
        sh "dune exec bench/main.exe -- %s -json %s >/dev/null" args
          (Filename.quote (tmp "cells.json"));
        cells (tmp "cells.json")) subsets
  in
  let base = cells baseline in
  let runs = List.map (fun (id, _, _) -> (id, machsim id)) machsim_runs in
  let eval = function
    | Cell n -> List.assoc_opt n produced
    | Base n -> List.assoc_opt n base
    | Lit v -> Some v
    | Stat (id, path) ->
      List.fold_left (fun j k -> Option.bind j (field k))
        (Some (json id (snd (List.assoc id runs))))
        (String.split_on_char '/' path)
    | Count (_, p) ->
      Some (J.Int (List.length (List.filter (fun (n, _) -> p n) base)))
  in
  (* An operand as a failure line shows it: its name and observed value. *)
  let show o v =
    let v = Option.fold ~none:"missing" ~some:J.to_string v in
    match o with
    | Lit _ -> v
    | Cell n -> n ^ " = " ^ v
    | Base n -> "committed " ^ n ^ " = " ^ v
    | Stat (id, path) -> Printf.sprintf "machsim %s stats %s = %s" id path v
    | Count (what, _) -> what ^ " = " ^ v
  in
  let check = function
    | Has o -> if eval o = None then Some (show o None) else None
    | Cmp (a, op, b) -> (
      match eval a, eval b with
      | Some x, Some y when holds op x y -> None
      | x, y ->
        Some (Printf.sprintf "%s (bound: %s %s)" (show a x) (op_name op)
                (show b y)))
    | Replay id ->
      let (o, s), (o', s') = (List.assoc id runs, machsim id) in
      if o = o' && s = s' then None
      else Some (Printf.sprintf "machsim %s: %s differs on replay" id
                   (if o <> o' then "stdout" else "stats JSON"))
    | Line (id, what, p) ->
      if List.exists p (fst (List.assoc id runs)) then None
      else Some (Printf.sprintf "machsim %s printed no %s line" id what)
  in
  let equal = List.map (fun (n, _) -> Cmp (Cell n, Eq, Base n)) produced in
  let failures = List.filter_map check (equal @ rows) in
  List.iter (fun f -> prerr_endline ("bench-check: FAIL " ^ f)) failures;
  if failures <> [] then exit 1;
  Printf.printf "bench-check: OK (%d cells equal %s, %d relations hold)\n"
    (List.length produced) baseline (List.length rows)

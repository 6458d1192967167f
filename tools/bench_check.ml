(* The bench gate behind [make check].  Runs the whole bench once and the
   machsim commands below into scratch files under $TMPDIR, and checks:

   - the bench output is byte-identical to the committed
     bench/BENCH_vm.json (simulated time is deterministic, so any drift
     is a behaviour change);
   - the relation table [rows]: the shapes the bench reproduces from the
     paper, and the identities that let duplicate paths be deleted;
   - each marked block the bench prints (<!-- cells:KEY --> ...
     <!-- /cells -->, its tables of one experiment's cells) appears
     verbatim in EXPERIMENTS.md, and that file has no block the bench
     does not print.

   Every differing cell, failing row and differing block is printed, one
   line each, before exiting 1. *)

module J = Mach_obs.Jout

let baseline = "bench/BENCH_vm.json"
let doc = "EXPERIMENTS.md"

(* machsim runs: id, arguments, whether to export --stats. *)
let machsim_runs =
  [ ("chaos", "compile --chaos 42:flaky", true);
    ("profile", "compile --profile", true);
    ("vmstats", "stats", true) ]

type operand =
  | Cell of string  (** the value of the bench cell of that name *)
  | Lit of J.t
  | Stat of string * string  (** machsim run, '/'-path into its stats JSON *)

type op = Eq | Lt | Le | Gt | Ge

type row =
  | Has of operand
  | Cmp of operand * op * operand  (** [Eq] is string equality *)
  | Replay of string  (** stdout and stats JSON identical across two runs *)
  | Line of string * string * (string -> bool)  (** run, what, a stdout line *)

let int i = Lit (J.Int i)
let cmp a op b = Cmp (Cell a, op, b)
let starts prefix s = String.starts_with ~prefix s
let pmaps = [ "vax"; "rt_pc"; "sun3"; "ns32082"; "rp3" ]

(* [pmap_arch/<pmap>/metric] is [v] on [pmap] and [others] on the rest. *)
let only pmap metric op v others =
  List.map
    (fun p ->
       let name = Printf.sprintf "pmap_arch/%s/%s" p metric in
       if p = pmap then cmp name op v else cmp name Eq others)
    pmaps

let rows =
  List.concat
    [ (* Section 5.2: one IPI round per target CPU per revocation (30
         rounds x 3 remote CPUs = 90; raising rights back costs no
         exchange); immediacy means no stale windows. *)
      [ cmp "shootdown/immediate/batched/ipis" Eq (int 90);
        cmp "shootdown/deferred/batched/deferred_flushes" Le (int 90);
        cmp "shootdown/lazy/batched/deferred_flushes" Le (int 90);
        cmp "shootdown/immediate/batched/stale_tlb_uses" Le (int 0);
        (* Seeded pager failure under pressure: a dead pager, rescued
           pages, no corruption, no task-visible error, bounded retry. *)
        cmp "chaos/corrupt_pages" Eq (int 0);
        cmp "chaos/memory_errors" Eq (int 0);
        cmp "chaos/pager_deaths" Ge (int 1);
        cmp "chaos/rescued_pages" Ge (int 1);
        cmp "chaos/pageout_failures" Ge (int 1);
        cmp "chaos/pager_retries" Ge (int 1);
        cmp "chaos/pager_retries" Le (int 64) ];
      (* cluster_max = 1 costs what the pre-clustering per-page read costs,
         to the digit; read-ahead pays.  A cluster is one request whose
         pages land on their own stamps, and the consuming CPU overlaps
         the tail's device time.  The literal bounds are the lower of the
         cells (ms) measured before each page got its own stamp, when
         one disk model split each cluster into two requests and the
         other charged the whole cluster to the miss: no window may be
         slower than the better of those. *)
      [ cmp "cluster/seq_read_2M/w1" Eq (Cell "cluster/seq_read_2M/legacy");
        cmp "cluster/seq_read_2M/w8" Lt (Cell "cluster/seq_read_2M/w1");
        cmp "cluster/disk_overlap_cycles/w8" Gt (int 0) ];
      List.map
        (fun (w, bound) ->
           cmp (Printf.sprintf "cluster/seq_read_2M/w%d" w) Le
             (Lit (J.Float bound)))
        [ (1, 5481.93833333); (2, 4716.93833333); (4, 4284.73833333);
          (8, 3906.73833333); (16, 3720.73833333); (32, 3630.73833333);
          (64, 3588.73833333) ];
      (* Table 7-1: read-ahead puts Mach below UNIX on cold file reads. *)
      [ cmp "table7_1_files/read_2.5M_1st/mach" Lt
          (Cell "table7_1_files/read_2.5M_1st/unix");
        cmp "table7_1_files/read_50K_1st/mach" Lt
          (Cell "table7_1_files/read_50K_1st/unix");
        (* Attribution partitions the clock. *)
        cmp "cluster/attr_conserved/w8" Eq (int 1);
        cmp "cluster/attr_disk_wait_frac/w8" Gt (int 0);
        cmp "cluster/attr_disk_wait_frac/w8" Lt (int 1);
        (* Chaos injection is keyed to the virtual clocks, so it replays
           exactly; its stream slots recycle and free-behind fires. *)
        Replay "chaos";
        Line ("chaos", "chaos summary", starts "chaos: seed=42 profile=flaky");
        Has (Stat ("chaos", "events/stream_reset"));
        Cmp (Stat ("chaos", "events/free_behind"), Gt, int 0);
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
      (* Weak scaling on private objects; contention on a shared one. *)
      [ cmp "mpfault/private/c1/faults_per_sec" Le
          (Cell "mpfault/private/c2/faults_per_sec");
        cmp "mpfault/private/c2/faults_per_sec" Le
          (Cell "mpfault/private/c4/faults_per_sec");
        cmp "mpfault/shared/c4/lock_stall_share" Gt (int 0);
        cmp "mpfault/private/c4/lock_stall_share" Eq (int 0);
        (* burst=8 pays over the demand page alone (burst=1), and with
           neighbours dropped before use the window falls to the demand
           page and only re-probes on a backoff: a probe on every fault
           would be at least one neighbour per fault. *)
        cmp "mpfault/burst/b8/elapsed_ms" Lt
          (Cell "mpfault/burst/b1/elapsed_ms");
        cmp "mpfault/burst/dropped/mapped_per_fault" Lt (int 1) ];
      (* The OOM policy is silent when demand fits and kills at 4x, and
         the kernel keeps serving someone; Mem_wait stays in the ledger. *)
      [ cmp "pressure/x1/oom_kills" Eq (int 0);
        cmp "pressure/x4/oom_kills" Gt (int 0);
        cmp "pressure/x4/survivors" Ge (int 1);
        cmp "pressure/attr_conserved/x4" Eq (int 1) ];
      (* Stream slots keep per-reader cost flat up to the slot count, and
         it rises once readers outnumber the slots; free-behind fires. *)
      [ cmp "streams/k8/elapsed_ms" Eq (Cell "streams/k1/elapsed_ms");
        cmp "streams/k16/elapsed_ms" Gt (Cell "streams/k8/elapsed_ms");
        cmp "streams/stream_hits/k8" Gt (int 0);
        cmp "streams/stream_resets/k8" Eq (int 0);
        cmp "streams/free_behind_pages/k8" Gt (int 0) ];
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
          (Cell "fork_prewarm/default/child_faults");
        (* Section 3.5: collapsing keeps the shadow chain short and frees
           the pages dead shadows hold.  Section 3.3: the object cache
           saves the disk reads, and the time, of re-reading a text. *)
        cmp "shadow/enabled/final_chain" Lt
          (Cell "shadow/disabled/final_chain");
        cmp "shadow/enabled/collapses" Gt (int 0);
        cmp "shadow/enabled/resident_pages" Lt
          (Cell "shadow/disabled/resident_pages");
        cmp "object_cache/enabled/disk_reads" Lt
          (Cell "object_cache/disabled/disk_reads");
        cmp "object_cache/enabled/cache_hits" Gt (int 0);
        cmp "object_cache/enabled/elapsed_ms" Lt
          (Cell "object_cache/disabled/elapsed_ms");
        (* Section 6: copy-on-reference moves fewer bytes than shipping
           the whole file until every page is touched; it wins on time
           when little is touched and loses when all of it is. *)
        cmp "net_memory/5pct/lazy_ms" Lt (Cell "net_memory/5pct/eager_ms");
        cmp "net_memory/100pct/eager_ms" Lt
          (Cell "net_memory/100pct/lazy_ms") ];
      List.map
        (fun p ->
           cmp ("net_memory/" ^ p ^ "/lazy_bytes") Lt
             (Cell ("net_memory/" ^ p ^ "/eager_bytes")))
        [ "5pct"; "25pct"; "50pct" ];
      (* Section 2: copy-on-write remapping beats an inline copy of the
         message at every size. *)
      List.map
        (fun k ->
           cmp ("ipc/" ^ k ^ "/out_of_line") Lt (Cell ("ipc/" ^ k ^ "/inline")))
        [ "64K"; "256K"; "1024K"; "4096K" ] ]

(* Each output is read back as soon as it is written, so a few fixed
   names in one scratch directory suffice. *)
let tmp = Filename.concat (Filename.temp_dir "bench_check" "")

let () =
  at_exit (fun () ->
      Array.iter (fun f -> Sys.remove (tmp f)) (Sys.readdir (tmp ""));
      Sys.rmdir (tmp ""))

let sh fmt =
  Printf.ksprintf
    (fun c ->
       if Sys.command c <> 0 then (
         prerr_endline ("bench-check: FAIL command failed: " ^ c);
         exit 1))
    fmt

let read path = In_channel.with_open_bin path In_channel.input_all
let field k = function J.Obj kv -> List.assoc_opt k kv | _ -> None

let json what text =
  match J.of_string text with Ok j -> j | Error e -> failwith (what ^ ": " ^ e)

(* Each cell of a bench JSON file: its name and its other fields. *)
let cells what text =
  match field "cells" (json what text) with
  | Some (J.Arr cs) ->
    List.filter_map
      (function J.Obj (("name", J.Str n) :: kv) -> Some (n, kv) | _ -> None) cs
  | _ -> failwith (what ^ ": no cells array")

(* One line per cell that differs between two cell lists: its name and
   both texts, "missing" on a side that lacks it. *)
let differing produced committed =
  let text cs n =
    Option.fold ~none:"missing" ~some:(fun kv -> J.to_string (J.Obj kv))
      (List.assoc_opt n cs)
  in
  List.filter_map
    (fun n ->
       let a = text produced n and b = text committed n in
       if a = b then None
       else Some (Printf.sprintf "%s = %s (committed: %s)" n a b))
    (List.sort_uniq compare (List.map fst (produced @ committed)))

(* The marked blocks of a text: each key with the lines between its
   markers (to the end of the text if the block is not closed). *)
let blocks text =
  let rec go acc = function
    | [] -> List.rev acc
    | l :: rest when starts "<!-- cells:" l && String.ends_with ~suffix:" -->" l
      ->
      let rec body b = function
        | "<!-- /cells -->" :: rest | ([] as rest) -> (List.rev b, rest)
        | l :: rest -> body (l :: b) rest
      in
      let b, rest = body [] rest in
      go ((String.sub l 11 (String.length l - 15), b) :: acc) rest
    | _ :: rest -> go acc rest
  in
  go [] (String.split_on_char '\n' text)

(* One line per block of [printed] that [documented] lacks or has
   otherwise (with the first differing line), and per block of
   [documented] that [printed] lacks. *)
let block_diffs printed documented =
  let line = function [] -> "nothing" | l :: _ -> Printf.sprintf "%S" l in
  let rec first i = function
    | a :: r, b :: r' when a = b -> first (i + 1) (r, r')
    | d, p -> (i, line d, line p)
  in
  List.filter_map
    (fun (key, lines) ->
       match List.assoc_opt key documented with
       | None -> Some (Printf.sprintf "block cells:%s is missing from %s" key doc)
       | Some d when d = lines -> None
       | Some d ->
         let i, has, want = first 1 (d, lines) in
         Some (Printf.sprintf "block cells:%s differs at its line %d: %s has %s, \
                               the bench prints %s" key i doc has want))
    printed
  @ List.filter_map
    (fun (key, _) ->
       if List.mem_assoc key printed then None
       else Some (Printf.sprintf "block cells:%s in %s names no experiment"
                    key doc))
    documented

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
  sh "dune exec bench/main.exe -- -json %s >%s"
    (Filename.quote (tmp "cells.json")) (Filename.quote (tmp "bench.out"));
  let out = read (tmp "cells.json") and committed = read baseline in
  let printed = blocks (read (tmp "bench.out")) in
  let produced = cells "bench output" out in
  let diffs =
    match differing produced (cells baseline committed) with
    | [] when out <> committed ->
      [ "bench output differs from " ^ baseline ^ " outside its cells" ]
    | ds -> ds
  in
  let runs = List.map (fun (id, _, _) -> (id, machsim id)) machsim_runs in
  let eval = function
    | Cell n -> Option.bind (List.assoc_opt n produced) (List.assoc_opt "value")
    | Lit v -> Some v
    | Stat (id, path) ->
      List.fold_left (fun j k -> Option.bind j (field k))
        (Some (json id (snd (List.assoc id runs))))
        (String.split_on_char '/' path)
  in
  (* An operand as a failure line shows it: its name and observed value. *)
  let show o v =
    let v = Option.fold ~none:"missing" ~some:J.to_string v in
    match o with
    | Lit _ -> v
    | Cell n -> n ^ " = " ^ v
    | Stat (id, path) -> Printf.sprintf "machsim %s stats %s = %s" id path v
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
  let failures =
    diffs @ List.filter_map check rows
    @ block_diffs printed (blocks (read doc))
  in
  List.iter (fun f -> prerr_endline ("bench-check: FAIL " ^ f)) failures;
  if failures <> [] then exit 1;
  Printf.printf
    "bench-check: OK (%d cells equal %s, %d relations hold, %d blocks equal \
     %s)\n"
    (List.length produced) baseline (List.length rows) (List.length printed)
    doc

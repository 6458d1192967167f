(* The four vmbench workloads and their trace generator.

   Traces are generated here, from [Random.State.make [| seed |]], and
   never through the simulator's own generators (Det_rng, Workload), so
   a change under lib/ cannot alter the inputs a commit is measured on.
   The whole op array exists before any timing starts; its digest is
   printed so two commits can show they ran identical inputs.

   Each workload pins a different pmap backend and a different layer
   mix (see README.md for the predictions):

   - churn: fork / exit / exec / copy-on-write touches on a SUN 3;
   - files: sequential + random read() and mapped writes on a VAX 8200;
   - overcommit: a hot/cold anonymous working set at 1.5x memory on an
     RT PC, so the pageout daemon and swap pager work every op;
   - smp: eight CPUs touching stripes of one object on an NS32082 while
     one of them drops or reprotects the whole range each round. *)

type kind = Churn | Files | Overcommit | Smp

let all = [ Churn; Files; Overcommit; Smp ]

let name = function
  | Churn -> "churn"
  | Files -> "files"
  | Overcommit -> "overcommit"
  | Smp -> "smp"

let of_name s = List.find_opt (fun k -> name k = s) all

(* Sizes are in machine-independent pages: 8 KB on the SUN 3, 4 KB on
   the other three machines. *)

let churn_slots = 12            (* child slots: 13 live tasks, 8 contexts *)
let churn_heap_pages = 32       (* 256 KB shell heap *)
let churn_files = 8
let churn_file_pages = 8        (* 64 KB program files *)
let churn_touches = 8           (* touches per touch op *)

let files_count = 16
let files_pages = 256           (* 1 MB each: 16 MB against 8 MB memory *)
let files_cpus = 4

let oc_tasks = 8
let oc_pages = 192              (* per task: 8 x 768 KB = 1.5 x 4 MB *)
let oc_hot = oc_pages / 5       (* 80% of touches land on these *)

let smp_cpus = 8
let smp_stripe = 32             (* pages per CPU stripe *)

type op =
  | Fork of int                 (* churn: the shell forks into a slot *)
  | Exit of int                 (* churn: the child in a slot exits *)
  | Exec of { slot : int; file : int }
      (* churn: map a program file, touch every page, unmap *)
  | Touches of { task : int; pages : int array; writes : int }
      (* churn: [task] (slot, or [churn_slots] for the shell) touches
         its heap pages; bit i of [writes] makes touch i a write *)
  | Seq_read of { reader : int; file : int; page : int }
      (* files: the next page of reader's sequential scan, on its CPU *)
  | Rand_read of { cpu : int; file : int; page : int }
  | Map_write of { cpu : int; file : int; page : int }
      (* files: one byte written through the shared file mappings *)
  | Touch of { task : int; page : int; write : bool }  (* overcommit *)
  | Smp_touch of { cpu : int; page : int; write : bool }
  | Drop_maps of int            (* smp: pmap remove over the whole range *)
  | Reprotect of int            (* smp: vm_protect read-only, then back *)

type trace = { kind : kind; ops : op array; warmup : int }

(* Op counts per repetition: tuned so one measured phase costs roughly
   1.5-2.5 s of host CPU on a 2-core x86 container. *)
let full_ops = function
  | Churn -> 150_000
  | Files -> 120_000
  | Overcommit -> 640_000
  | Smp -> 8_000 * (smp_cpus + 1)

let quick_ops = function
  | Smp -> 120 * (smp_cpus + 1)
  | Churn | Files | Overcommit -> 1_000

(* The op mix is stratified: each block of ops holds a fixed number of
   each kind, shuffled.  Order, targets and pages stay random, but the
   seed does not move the mix itself, so simulated totals vary little
   from seed to seed. *)
let block st counts =
  let a = Array.concat (List.map (fun (n, k) -> Array.make n k) counts) in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [draw st counts] returns a generator yielding kinds from successive
   shuffled blocks. *)
let draw st counts =
  let cur = ref [||] and pos = ref 0 in
  fun () ->
    if !pos = Array.length !cur then begin
      cur := block st counts;
      pos := 0
    end;
    incr pos;
    !cur.(!pos - 1)

let gen_churn st n =
  let live = Array.make churn_slots false in
  let random_live () =
    let rec pick () =
      let s = Random.State.int st churn_slots in
      if live.(s) then s else pick ()
    in
    pick ()
  in
  let next = draw st [ (2, `Exit); (1, `Exec); (7, `Touch) ] in
  Array.init n (fun _ ->
      (* An emptied slot is refilled by the next op, so the shell keeps
         all twelve children alive nearly all the time. *)
      let rec first_free s =
        if s = churn_slots then None
        else if live.(s) then first_free (s + 1)
        else Some s
      in
      match first_free 0 with
      | Some s ->
        live.(s) <- true;
        Fork s
      | None -> (
          match next () with
          | `Exit ->
            let s = random_live () in
            live.(s) <- false;
            Exit s
          | `Exec ->
            Exec { slot = random_live (); file = Random.State.int st churn_files }
          | `Touch ->
            Touches
              { task = Random.State.int st (churn_slots + 1);
                pages =
                  Array.init churn_touches (fun _ ->
                      Random.State.int st churn_heap_pages);
                writes = Random.State.int st (1 lsl churn_touches) }))

let gen_files st n =
  (* Reader r scans all sixteen files in order, starting at file 4r: the
     scans are staggered by 4 MB and each wraps after 16 MB.  Readers
     and the CPUs of random ops take turns, so no CPU's clock runs
     ahead by the luck of the draw. *)
  let total = files_count * files_pages in
  let pos = Array.init files_cpus (fun r -> r * (total / files_cpus)) in
  let seq = ref 0 and other = ref 0 in
  let turn r = let c = !r mod files_cpus in incr r; c in
  let next = draw st [ (7, `Seq); (2, `Rand); (1, `Write) ] in
  Array.init n (fun _ ->
      match next () with
      | `Seq ->
        let reader = turn seq in
        let p = pos.(reader) in
        pos.(reader) <- (p + 1) mod total;
        Seq_read { reader; file = p / files_pages; page = p mod files_pages }
      | (`Rand | `Write) as k ->
        let cpu = turn other in
        let file = Random.State.int st files_count in
        let page = Random.State.int st files_pages in
        if k = `Rand then Rand_read { cpu; file; page }
        else Map_write { cpu; file; page })

let gen_overcommit st n =
  let hot = draw st [ (8, true); (2, false) ] in
  let write = draw st [ (1, true); (2, false) ] in
  Array.init n (fun _ ->
      let task = Random.State.int st oc_tasks in
      let page =
        if hot () then Random.State.int st oc_hot
        else oc_hot + Random.State.int st (oc_pages - oc_hot)
      in
      Touch { task; page; write = write () })

let gen_smp st n =
  let round = smp_cpus + 1 in
  let rounds = (n + round - 1) / round in
  let write = draw st [ (1, true); (1, false) ] in
  let drop = draw st [ (1, true); (1, false) ] in
  (* The CPU that drops or reprotects the range takes turns, so the
     slowest clock (elapsed time) does not depend on who drew it. *)
  let ops =
    Array.init rounds (fun r ->
        let page = Random.State.int st smp_stripe in
        let touches =
          List.init smp_cpus (fun cpu -> Smp_touch { cpu; page; write = write () })
        in
        let cpu = r mod smp_cpus in
        touches @ [ (if drop () then Drop_maps cpu else Reprotect cpu) ])
  in
  Array.sub (Array.of_list (List.concat (Array.to_list ops))) 0 n

let generate kind ~seed ~quick =
  let n = if quick then quick_ops kind else full_ops kind in
  let st = Random.State.make [| seed |] in
  let ops =
    match kind with
    | Churn -> gen_churn st n
    | Files -> gen_files st n
    | Overcommit -> gen_overcommit st n
    | Smp -> gen_smp st n
  in
  (* The first 5% warm the caches untimed; smp keeps whole rounds. *)
  let warmup =
    match kind with
    | Smp -> n / 20 / (smp_cpus + 1) * (smp_cpus + 1)
    | Churn | Files | Overcommit -> n / 20
  in
  { kind; ops; warmup }

let digest t = Digest.to_hex (Digest.string (Marshal.to_string t.ops []))

(* A fixed host workload that measures how fast this machine runs right
   now.  The benchmark shares its CPUs with other tenants: their load
   slows every instruction for seconds to minutes at a time, by a third
   or more.  A chunk of this loop runs before each slice of a timed phase,
   and the phase's CPU time is scaled by [reference / chunk time], so a
   slow period cancels out of the reported seconds.  The loop mixes what
   the simulator does: hashtable updates, scattered reads and writes in
   an 8 MB array, page-sized blits and small allocations.  It is part of
   the benchmark, so changes to the simulator cannot change it. *)

let table : (int, int) Hashtbl.t = Hashtbl.create 8192
let memory = Array.make (1 lsl 20) 0
let src = Bytes.make 4096 'c'
let dst = Bytes.create 4096

(* CPU seconds one warm [chunk] takes, between slices of a workload, on
   an unloaded 2-core Xeon container. *)
let reference = 0.005

let iterations = 40_000

(* Runs one chunk and returns the CPU seconds it took. *)
let chunk () =
  let t0 = Sys.time () in
  let x = ref 12345 in
  for i = 1 to iterations do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land 8191 in
    Hashtbl.replace table k
      (match Hashtbl.find_opt table k with Some n -> n + 1 | None -> 1);
    let j = (!x lsr 7) land (Array.length memory - 1) in
    memory.(j) <- memory.(j) + i;
    if i land 63 = 0 then Bytes.blit src 0 dst 0 4096;
    ignore (Sys.opaque_identity [ i; k ])
  done;
  Sys.time () -. t0

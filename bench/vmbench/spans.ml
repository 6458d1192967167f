(* Benchmark-side host spans around each public call into the simulator.

   Every op is a root span; each call it makes into the simulator is a
   child span.  A span's self time is its duration minus the part its
   children cover, so an op's self time is the benchmark's own overhead
   (dispatch and the reference-model checks).  Aggregates cover every
   op; full spans are kept for the first [keep_ops] ops only and can be
   written as a Chrome trace.  Off (one branch per call) unless a traced
   repetition turns it on. *)

let names =
  [| "op"; "hw.touch"; "kernel.fork_task"; "kernel.terminate_task";
     "kernel.run_task"; "vm_user.allocate"; "vm_user.protect";
     "vm_user.deallocate"; "vnode_pager.map_file";
     "vnode_pager.read_through_object"; "pmap.remove" |]

let op = 0
let touch = 1
let fork_task = 2
let terminate_task = 3
let run_task = 4
let allocate = 5
let protect = 6
let deallocate = 7
let map_file = 8
let read_through_object = 9
let pmap_remove = 10

let keep_ops = 10_000

type span = { id : int; name : int; start : int; stop : int; parent : int;
              op_id : int }

let on = ref false
let count = Array.make (Array.length names) 0
let self_ns = Array.make (Array.length names) 0
let kept : span list ref = ref []

(* Open spans, innermost at [depth - 1]. *)
let max_depth = 4
let st_child = Array.make max_depth 0
let st_id = Array.make max_depth 0
let depth = ref 0
let next_id = ref 0
let cur_op = ref 0

let now () = Int64.to_int (Monotonic_clock.now ())

let enable () =
  on := true;
  Array.fill count 0 (Array.length count) 0;
  Array.fill self_ns 0 (Array.length self_ns) 0;
  kept := [];
  depth := 0

let close name t0 =
  let t1 = now () in
  decr depth;
  let d = !depth in
  let dur = t1 - t0 in
  count.(name) <- count.(name) + 1;
  self_ns.(name) <- self_ns.(name) + dur - st_child.(d);
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
  if !cur_op < keep_ops then
    kept :=
      { id = st_id.(d); name; start = t0; stop = t1;
        parent = (if d > 0 then st_id.(d - 1) else 0); op_id = !cur_op }
      :: !kept

(* [span name f] runs [f] inside a span; spans nest at most [max_depth]
   deep (op -> call). *)
let span name f =
  if not !on then f ()
  else begin
    let d = !depth in
    incr next_id;
    st_id.(d) <- !next_id;
    st_child.(d) <- 0;
    depth := d + 1;
    let t0 = now () in
    match f () with
    | r -> close name t0; r
    | exception e -> close name t0; raise e
  end

let set_op i = cur_op := i

let self_s name = float_of_int self_ns.(name) /. 1e9

let to_chrome () =
  let module J = Mach_obs.Jout in
  let t0 = List.fold_left (fun a s -> min a s.start) max_int !kept in
  let us ns = float_of_int (ns - t0) /. 1e3 in
  J.Obj
    [ ("traceEvents",
       J.Arr
         (List.rev_map
            (fun s ->
               J.Obj
                 [ ("name", J.Str names.(s.name)); ("ph", J.Str "X");
                   ("ts", J.Float (us s.start));
                   ("dur", J.Float (float_of_int (s.stop - s.start) /. 1e3));
                   ("pid", J.Int 0); ("tid", J.Int 0);
                   ("args",
                    J.Obj
                      [ ("id", J.Int s.id); ("parent", J.Int s.parent);
                        ("op", J.Int s.op_id) ]) ])
            !kept));
      ("displayTimeUnit", J.Str "ns") ]

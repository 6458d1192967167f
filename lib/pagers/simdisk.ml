open Mach_hw
module Fail = Mach_fail.Fail

exception Io_error of { write : bool; block : int }

type t = {
  machine : Machine.t;
  block_size : int;
  blocks : (int, Bytes.t) Hashtbl.t;
  queues : Machine.dqueue array;
  mutable reads : int;
  mutable writes : int;
  mutable errors : int;
  mutable retries : int;
  mutable fail : Fail.t option;
}

(* A submitted transfer: the data is available immediately (host
   memory), the device is busy until [h_io]'s completion.  Its service
   time is zeroed after the first wait so a handle waited twice cannot
   double-count its overlap. *)
type handle = {
  h_data : Bytes.t;
  mutable h_io : Machine.io;
}

(* Internal bounded retry: a transient injected error costs a wasted
   transfer and a retry; only [max_attempts] consecutive failures
   surface as {!Io_error} to the caller. *)
let max_attempts = 3

let create ?(queues = 1) machine ~block_size =
  if block_size <= 0 || queues < 1 then invalid_arg "Simdisk.create";
  { machine; block_size; blocks = Hashtbl.create 256;
    queues = Array.init queues (fun _ -> Machine.new_disk_queue machine);
    reads = 0; writes = 0; errors = 0; retries = 0; fail = None }

let block_size t = t.block_size

let queue_for t ~cpu = t.queues.(cpu mod Array.length t.queues)

let set_injector t inj = t.fail <- inj

let emit_error t ~cpu ~write ~bytes =
  let tr = Machine.tracer t.machine in
  if Mach_obs.Obs.enabled tr then
    Mach_obs.Obs.record tr ~ts:(Machine.cycles t.machine ~cpu) ~cpu
      (Mach_obs.Obs.Io_error { write; bytes })

(* Consult the injector before a transfer of [bytes] (the whole run).
   Each failed attempt pays the full run cost — the platter really did
   spin the entire transfer past the head.  Sync mode charges the
   submitting CPU directly; async mode returns the accumulated extra
   device cycles so the caller folds them into the request's service
   time (injection always decided here, at submit, so replay
   fingerprints do not depend on when completions are reaped).  Raises
   {!Io_error} when the retry budget is exhausted. *)
let admit t ~cpu ~write ~block ~bytes =
  match t.fail with
  | None -> 0
  | Some inj ->
    let site = if write then "disk.write" else "disk.read" in
    let stats = Machine.stats t.machine in
    let async = Machine.disk_async t.machine in
    let extra = ref 0 in
    let rec attempt n =
      match Fail.decide inj ~site with
      | Fail.Pass -> ()
      | Fail.Delay c ->
        if async then extra := !extra + c
        else Machine.charge t.machine ~cpu c
      | Fail.Fail | Fail.Drop | Fail.Short _ | Fail.Garbage ->
        (* A disk has no short reads or garbage replies to offer; any
           non-pass, non-delay decision is a failed transfer. *)
        t.errors <- t.errors + 1;
        stats.Machine.disk_errors <- stats.Machine.disk_errors + 1;
        emit_error t ~cpu ~write ~bytes;
        if n + 1 < max_attempts then begin
          t.retries <- t.retries + 1;
          stats.Machine.disk_retries <- stats.Machine.disk_retries + 1;
          (* the wasted transfer, at the run's full length *)
          (if async then begin
             let c = Machine.disk_service_cycles t.machine ~bytes in
             extra := !extra + c;
             Machine.account_disk t.machine ~cpu ~write ~bytes ~cycles:c
           end
           else Machine.charge_disk t.machine ~cpu ~write ~bytes);
          attempt (n + 1)
        end
        else raise (Io_error { write; block })
    in
    attempt 0;
    !extra

(* A run of [count] consecutive blocks is one disk request: it pays the
   injector gauntlet and the fixed seek/rotational cost once, plus the
   per-byte transfer cost for the whole run.  [count = 1] is exactly the
   classical single-block operation (identical cost and accounting), so
   unclustered callers are unaffected. *)
let submit_read_run ?after t ~cpu ~first ~count =
  if count <= 0 then invalid_arg "Simdisk.submit_read_run";
  let bytes = count * t.block_size in
  let extra = admit t ~cpu ~write:false ~block:first ~bytes in
  t.reads <- t.reads + count;
  let io =
    Machine.submit_disk ?after t.machine (queue_for t ~cpu) ~cpu
      ~write:false ~bytes ~extra
  in
  let buf = Bytes.make bytes '\000' in
  for i = 0 to count - 1 do
    match Hashtbl.find_opt t.blocks (first + i) with
    | Some b -> Bytes.blit b 0 buf (i * t.block_size) t.block_size
    | None -> ()
  done;
  { h_data = buf; h_io = io }

let submit_write_run ?after t ~cpu ~first data =
  let len = Bytes.length data in
  if len = 0 || len mod t.block_size <> 0 then
    invalid_arg "Simdisk.submit_write_run";
  let count = len / t.block_size in
  let extra = admit t ~cpu ~write:true ~block:first ~bytes:len in
  t.writes <- t.writes + count;
  let io =
    Machine.submit_disk ?after t.machine (queue_for t ~cpu) ~cpu
      ~write:true ~bytes:len ~extra
  in
  (* The store is updated at submit: the simulated device owns the data
     from here on, and any later read through this module already pays
     its own device time. *)
  for i = 0 to count - 1 do
    Hashtbl.replace t.blocks (first + i)
      (Bytes.sub data (i * t.block_size) t.block_size)
  done;
  { h_data = Bytes.empty; h_io = io }

let wait t ~cpu h =
  Machine.wait_disk t.machine ~cpu ~completion:h.h_io.Machine.io_completion
    ~service:h.h_io.Machine.io_service;
  h.h_io <- { h.h_io with Machine.io_service = 0 };
  h.h_data

let handle_data h = h.h_data
let handle_io h = h.h_io

let install t ~block data =
  if Bytes.length data > t.block_size then invalid_arg "Simdisk.install";
  let b = Bytes.make t.block_size '\000' in
  Bytes.blit data 0 b 0 (Bytes.length data);
  Hashtbl.replace t.blocks block b

let reads t = t.reads
let writes t = t.writes
let errors t = t.errors
let retries t = t.retries

let reset_counters t =
  t.reads <- 0;
  t.writes <- 0;
  t.errors <- 0;
  t.retries <- 0

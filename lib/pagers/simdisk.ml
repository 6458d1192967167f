open Mach_hw
module Fail = Mach_fail.Fail
module Int_tbl = Mach_util.Int_tbl
module Lent = Mach_core.Lent

exception Io_error

type t = {
  machine : Machine.t;
  block_size : int;
  blocks : Bytes.t Int_tbl.t; (* block -> its contents, the store's own *)
  mutable reads : int;
  mutable fail : Fail.t option;
}

(* Internal bounded retry: a transient injected error costs a wasted
   transfer and a retry; only [max_attempts] consecutive failures
   surface as {!Io_error} to the caller. *)
let max_attempts = 3

let create machine ~block_size =
  if block_size <= 0 then invalid_arg "Simdisk.create";
  { machine; block_size; blocks = Int_tbl.create 256;
    reads = 0; fail = None }

let block_size t = t.block_size

let set_injector t inj = t.fail <- inj

let emit_error t ~cpu ~write ~bytes =
  let tr = Machine.tracer t.machine in
  if Mach_obs.Obs.enabled tr then
    Mach_obs.Obs.record tr ~ts:(Machine.cycles t.machine ~cpu) ~cpu
      (Mach_obs.Obs.Io_error { write; bytes })

(* Consult the injector before a transfer of [bytes] (the whole run),
   charging the submitting CPU at submit: a [Delay] to whatever it is
   doing, and each failed attempt the full run's device time — the
   platter really did spin the entire transfer past the head.  Raises
   {!Io_error} when the retry budget is exhausted. *)
let admit t ~cpu ~write ~bytes =
  match t.fail with
  | None -> ()
  | Some inj ->
    let site = if write then "disk.write" else "disk.read" in
    let stats = Machine.stats t.machine in
    let rec attempt n =
      match Fail.decide inj ~site with
      | Fail.Pass -> ()
      | Fail.Delay c -> Machine.charge t.machine ~cpu c
      | Fail.Fail | Fail.Drop | Fail.Short _ | Fail.Garbage ->
        (* A disk has no short reads or garbage replies to offer; any
           non-pass, non-delay decision is a failed transfer. *)
        stats.Machine.disk_errors <- stats.Machine.disk_errors + 1;
        emit_error t ~cpu ~write ~bytes;
        if n + 1 < max_attempts then begin
          stats.Machine.disk_retries <- stats.Machine.disk_retries + 1;
          (* the wasted transfer, at the run's full length *)
          Machine.charge_disk t.machine ~cpu ~write ~bytes;
          attempt (n + 1)
        end
        else raise Io_error
    in
    attempt 0

(* A run of [count] consecutive blocks is one disk request: it pays the
   injector gauntlet and the fixed seek/rotational cost once, plus the
   per-byte transfer cost for the whole run.  [count = 1] is exactly the
   classical single-block operation (identical cost and accounting), so
   unclustered callers are unaffected. *)
let lend_run ?after t ~cpu ~first ~count =
  if count <= 0 then invalid_arg "Simdisk.lend_run";
  let bytes = count * t.block_size in
  admit t ~cpu ~write:false ~bytes;
  t.reads <- t.reads + count;
  let io = Machine.submit_disk ?after t.machine ~cpu ~write:false ~bytes in
  (* Each stored block is lent as it is; an unwritten one reads as a
     zero block of its own. *)
  let block i =
    let buf =
      match Int_tbl.find_opt t.blocks (first + i) with
      | Some b -> b
      | None -> Bytes.make t.block_size '\000'
    in
    { Lent.buf; pos = 0; len = t.block_size }
  in
  (List.init count block, io)

let submit_write_run ?after t ~cpu ~first ?(pos = 0) ?len data =
  let len =
    match len with Some n -> n | None -> Lent.length data - pos
  in
  if len <= 0 || len mod t.block_size <> 0 then
    invalid_arg "Simdisk.submit_write_run";
  let count = len / t.block_size in
  admit t ~cpu ~write:true ~bytes:len;
  let io = Machine.submit_disk ?after t.machine ~cpu ~write:true ~bytes:len in
  (* The store is updated at submit: the simulated device owns the data
     from here on, and any later read through this module already pays
     its own device time.  Each block is copied out of the lent [data]:
     over the block already held, in place, or into a new one. *)
  for i = 0 to count - 1 do
    let src = pos + (i * t.block_size) in
    match Int_tbl.find_opt t.blocks (first + i) with
    | Some b -> Lent.blit data ~src b ~dst_pos:0 ~len:t.block_size
    | None ->
      Int_tbl.add t.blocks (first + i)
        (Lent.sub data ~pos:src ~len:t.block_size)
  done;
  io

let install t ~block ~pos ~len data =
  if len > t.block_size then invalid_arg "Simdisk.install";
  let b = Bytes.make t.block_size '\000' in
  Bytes.blit data pos b 0 len;
  Int_tbl.replace t.blocks block b

let reads t = t.reads

let reset_counters t = t.reads <- 0

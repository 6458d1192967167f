(** A simulated block device.

    Stores block contents in memory but charges every transfer to the
    machine's clock with the architecture's disk cost model (fixed latency
    per operation plus a per-KB transfer cost).  Both the Mach inode-pager
    equivalent and the BSD buffer cache sit on one of these, so their I/O
    costs are directly comparable.

    Every transfer is {e submitted}: a run of consecutive blocks is one
    request, which returns its [Machine.io] stamp at once.  There is no
    device queue — a request starts when submitted.  A read charges
    nothing at submit: the submitting CPU pays only the {e remaining}
    device time when it later waits ([Machine.wait_io]) — device time
    that elapsed while the CPU kept computing is overlap, tracked in
    [Machine.stats].  A write is paid at submit. *)

type t

exception Io_error
(** A transfer failed even after the driver's internal retries; only
    possible when a fault injector is attached.  The trace's
    [Obs.Io_error] event names the direction and size of each failed
    attempt. *)

val create : Mach_hw.Machine.t -> block_size:int -> t
(** [create machine ~block_size] is an empty disk. *)

val set_injector : t -> Mach_fail.Fail.t option -> unit
(** [set_injector t (Some inj)] makes every transfer consult [inj] at
    site ["disk.read"]/["disk.write"]: [Delay c] charges [c] cycles to
    the submitting CPU and proceeds; any failure decision costs a wasted
    transfer of the {e full run length}, charged to [Disk_wait], and an
    internal retry, up to 3 attempts, then raises {!Io_error}.  Both are
    charged at submit, before the request's stamp is taken.  Failed and
    retried transfers are counted in
    {!errors}/{!retries} and mirrored into [Machine.stats]
    ([disk_errors]/[disk_retries]); with no injector attached a transfer
    performs no extra work at all. *)

val block_size : t -> int

(** {1 Transfers} *)

val submit_read_run :
  ?after:int -> t -> cpu:int -> first:int -> count:int ->
  Bytes.t * Mach_hw.Machine.io
(** [submit_read_run ~after t ~cpu ~first ~count] reads [count]
    consecutive blocks as {e one} disk request and returns the data and
    the request's stamp without blocking: the fixed seek/rotational
    latency is paid once for the run, plus the per-KB transfer cost for
    all of it — this is what makes clustered pagein cheaper than
    [count] single reads.  Unwritten blocks read as zeros.  Counters
    account one read per block.  The request starts no earlier than
    [after] (default 0): a transfer split into runs passes the previous
    run's completion, so its runs follow each other on the disk. *)

val read_run_into : ?after:int -> t -> cpu:int -> first:int -> count:int ->
  Bytes.t -> pos:int -> Mach_hw.Machine.io
(** [read_run_into ~after t ~cpu ~first ~count buf ~pos] is
    {!submit_read_run} straight into [buf] at [pos]; unwritten blocks
    overwrite their bytes of [buf] with zeros. *)

val submit_write_run :
  ?after:int -> t -> cpu:int -> first:int -> ?pos:int -> ?len:int ->
  Bytes.t -> Mach_hw.Machine.io
(** [submit_write_run ~after t ~cpu ~first ~pos ~len data] writes [len]
    bytes of [data] from [pos] (default: all of it, a non-empty whole
    number of blocks) across consecutive blocks starting at [first] as
    one request, with the same cost model as {!submit_read_run},
    blocking until it completes; the returned stamp is already paid.
    The block store keeps its own copy of each block, made at submit. *)

val install : t -> block:int -> Bytes.t -> unit
(** [install t ~block data] stores data without charging the clock or the
    operation counters; used to populate disks during benchmark setup. *)

val reads : t -> int
(** Blocks read (each block of a clustered run counts). *)

val reset_counters : t -> unit

(** A simulated block device.

    Stores block contents in memory but charges every transfer to the
    machine's clock with the architecture's disk cost model (fixed latency
    per operation plus a per-KB transfer cost).  Both the Mach inode-pager
    equivalent and the BSD buffer cache sit on one of these, so their I/O
    costs are directly comparable.

    Every transfer is {e submitted}: a run of consecutive blocks is one
    request, which returns a {!handle} at once.  With the machine's
    asynchronous disk model on ([Machine.set_disk_async]) the request
    enters one of the device's service queues and gets a virtual
    completion stamp; with it off the request starts at once.  Either
    way the submitting CPU only pays the {e remaining} device time when
    it later {!wait}s — device time that elapsed while the CPU kept
    computing is overlap, tracked in [Machine.stats] — except that a
    write on the synchronous model is paid at submit.  A blocking
    transfer is [wait t ~cpu (submit_… t ~cpu …)] in both models. *)

type t

exception Io_error of { write : bool; block : int }
(** A transfer failed even after the driver's internal retries; only
    possible when a fault injector is attached. *)

val create : ?queues:int -> Mach_hw.Machine.t -> block_size:int -> t
(** [create machine ~block_size] is an empty disk with one service queue;
    [?queues] (default 1) builds that many independent queues, and
    requests are spread over them by submitting CPU ([cpu mod queues]) so
    a multiprocessor can keep several spindles busy. *)

val set_injector : t -> Mach_fail.Fail.t option -> unit
(** [set_injector t (Some inj)] makes every transfer consult [inj] at
    site ["disk.read"]/["disk.write"]: [Delay] charges extra cycles and
    proceeds; any failure decision costs a wasted (charged) transfer of
    the {e full run length} and an internal retry, up to 3 attempts, then
    raises {!Io_error}.  Injection decisions are always consumed at
    submit time, so a chaos seed replays identically whether or not the
    async model is on.  Failed and retried transfers are counted in
    {!errors}/{!retries} and mirrored into [Machine.stats]
    ([disk_errors]/[disk_retries]); with no injector attached a transfer
    performs no extra work at all. *)

val block_size : t -> int

(** {1 Transfers} *)

type handle
(** An in-flight (or completed) transfer.  The data is available
    immediately — the simulation keeps it in host memory — but the
    simulated device is busy until the handle's completion stamp. *)

val submit_read_run :
  ?after:int -> t -> cpu:int -> first:int -> count:int -> handle
(** [submit_read_run ~after t ~cpu ~first ~count] queues a read of [count]
    consecutive blocks as {e one} disk request and returns without
    blocking: the fixed seek/rotational latency is paid once for the
    run, plus the per-KB transfer cost for all of it — this is what
    makes clustered pagein cheaper than [count] single reads.  Unwritten
    blocks read as zeros.  Counters account one read per block.  The
    request starts no earlier than [after] (default 0): a transfer split
    into runs passes the previous run's completion, so its runs follow
    each other on the disk in both models. *)

val submit_write_run :
  ?after:int -> t -> cpu:int -> first:int -> Bytes.t -> handle
(** [submit_write_run ~after t ~cpu ~first data] queues a write of [data] (a
    non-empty whole number of blocks) across consecutive blocks starting
    at [first] as one request, with the same cost model as
    {!submit_read_run}.  The block store is updated at submit. *)

val wait : t -> cpu:int -> handle -> Bytes.t
(** Block the CPU until the transfer completes, charging only the
    {e remaining} cycles (zero if the device already finished), and
    return the data.  Waiting a handle twice charges nothing more and
    counts no further overlap. *)

val handle_data : handle -> Bytes.t
(** The transfer's data without waiting (empty for writes). *)

val handle_io : handle -> Mach_hw.Machine.io
(** When the device finishes the transfer, and its service time (zero
    once waited). *)

val install : t -> block:int -> Bytes.t -> unit
(** [install t ~block data] stores data without charging the clock or the
    operation counters; used to populate disks during benchmark setup. *)

val reads : t -> int
(** Blocks read (each block of a clustered run counts). *)

val writes : t -> int
(** Blocks written (each block of a clustered run counts). *)

val errors : t -> int
(** Injected transfer failures (each failed attempt counts). *)

val retries : t -> int
(** Failed transfers retried internally. *)

val reset_counters : t -> unit

(** Fault-tolerant access to a memory object's pager.

    All pager traffic from the machine-independent layer goes through
    this module (no other [lib/core] module reads [pgr_request] or
    [pgr_write]; [test_state] checks it), which wraps the raw calls in
    the kernel's failure policy:

    - transient failures ([Data_error]/[Write_error]) are retried up to
      [Vm_sys.pager_retry_limit] times with exponential backoff charged
      in simulated cycles (base [Vm_sys.pager_backoff_cycles]), each retry
      emitting [Obs.Pager_retry];
    - a request that exhausts its budget counts against the object's
      {!Types.pager_health}; after [Vm_sys.pager_death_threshold] consecutive
      exhausted budgets the pager is declared {e dead}
      ([Obs.Pager_dead]): every dirty resident page of the object is
      immediately written to a freshly created rescue pager (a
      {!Swap_pager}, i.e. the default pager) so no data can be lost;
    - once dead, requests are answered from the rescue pager, and pages
      it does not hold read as absent, so they zero-fill.

    Each direction has one call to the pager, to [obj_pager] or, once
    it is dead, to [obj_rescue]: the one-shot {!request_range} and
    {!write_range} are that call, and {!request} and {!write} are the
    same call under the retry policy.

    A read reply carries an {!Types.io} stamp saying when each of its
    bytes lands.  Both reads hand it back unwaited, so the caller can
    wait for the page it needs ({!wait_prefix}) and let the others ride
    their own stamps ({!ride}); only a rescue read blocks, since the
    last line of defence is never a prefetch.  A write has landed when
    it returns, so it leaves nothing to wait on.  This module is the one
    place in [lib/core] that waits on the disk ([test_state] checks
    it): {!wait_prefix}, {!await_page} and the rescue read. *)

val wait_prefix : Vm_sys.t -> Types.io -> bytes:int -> unit
(** [wait_prefix sys io ~bytes] blocks the current CPU only until the
    first [bytes] of [io] have landed ([Machine.io_landed]): a reply's
    demand page, with a cluster's tail still on the device.  For a
    reply of at most [bytes] it is one wait on the whole transfer. *)

val ride : Vm_sys.t -> Types.page -> stamp:int -> service:int -> unit
(** [ride sys p ~stamp ~service] marks [p] busy and in flight until
    [stamp] when that lies past the current CPU's clock, and does
    nothing otherwise.  [service] is the device time its eventual
    {!await_page} stands for; the pages of one transfer split its
    service so overlap is counted once.  The record holds a
    {!Mach_hw.Machine.stamp}, so a clock reset lands the page. *)

val request :
  Vm_sys.t -> Types.obj -> offset:int -> length:int ->
  [ `Data of Lent.t * Types.io | `Absent | `Error ]
(** [request sys obj ~offset ~length] asks the object's pager for data,
    applying retry/backoff/death policy, and returns the reply with its
    stamp unwaited.  [`Absent] means "no pager has this page" (descend
    the shadow chain or zero fill); [`Error] means the faulting task
    must see [KERN_MEMORY_ERROR].  Objects without a pager answer
    [`Absent]. *)

val request_range :
  Vm_sys.t -> Types.obj -> offset:int -> length:int ->
  [ `Data of Lent.t * Types.io | `Absent | `Error ]
(** [request_range] is the clustered-pagein variant of {!request}: one
    attempt, no retries, no health damage.  The reply may hold fewer
    bytes than [length] (a truncated cluster).  On [`Error] — or a reply
    shorter than one page — the caller must fall back to the
    single-page {!request} path, which owns the retry/backoff/death
    policy.  [`Absent] means the pager holds nothing at [offset] itself,
    so the caller may descend/zero-fill the demand page directly. *)

val await_page : Vm_sys.t -> Types.page -> unit
(** [await_page sys p] blocks the current CPU until the stamp recorded
    in [p.pg_inflight] (if any) has passed, charging only the remaining
    cycles, then clears the inflight record and the busy bit.  A record
    whose stamp a clock reset expired has landed and charges
    nothing. *)

val write_range :
  Vm_sys.t -> Types.obj -> offset:int -> data:Lent.t ->
  [ `Ok | `Failed | `No_space ]
(** [write_range] is the clustered-pageout variant of {!write}: one
    attempt, no retries, no health damage.  On [`Failed] nothing was
    written and the caller must degrade to per-page {!write} calls;
    [`No_space] means the backing store is full ([Write_no_space]) —
    also nothing written, also no health damage, but permanent until
    space is released: the caller should escalate to the
    memory-pressure state rather than retry. *)

val write :
  Vm_sys.t -> Types.obj -> offset:int -> data:Lent.t ->
  [ `Ok | `Failed | `No_space ]
(** [write sys obj ~offset ~data] writes a page back to the object's
    pager (or its rescue pager once dead) with the same policy.  On
    [`Failed] the write exhausted its retry budget and the caller must
    keep the page dirty; [`No_space] reports a full backing store
    without burning retries or damaging the pager's health (the pager
    is fine, the disk is full). *)

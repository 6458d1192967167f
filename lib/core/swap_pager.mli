(** The default pager.

    Memory with no pager is automatically zero filled, and page-out of
    anonymous memory goes to a default pager (Section 3.3; Mach's used
    4.3bsd file systems, eliminating separate paging partitions).  Here
    the backing store is an in-memory table whose transfers are charged as
    disk I/O, so evicted anonymous pages survive and cost what swap
    costs.

    Capacity is finite when the owning {!Vm_sys} configures a swap pool
    ([Vm_sys.set_swap_capacity]): every store commits new chunks against
    the shared pool and answers [Write_no_space] — all or nothing, no
    partial scatter — when a write does not fit. *)

val make : Vm_sys.t -> name:string -> Types.pager
(** [make sys ~name] is a fresh default-pager instance for one memory
    object.  Reads of never-written offsets answer [Data_unavailable]
    (zero fill). *)

val release : Vm_sys.t -> Types.pager -> unit
(** [release sys p] drops [p]'s swap store and credits its chunks back
    to [sys]'s shared pool.  Keyed by pager id (which decorators
    preserve), and a no-op for pagers not made by this module, so object
    termination calls it unconditionally.  Stores live in
    [Vm_sys.swap_stores], so a kernel that is dropped without
    terminating its objects leaves nothing behind. *)

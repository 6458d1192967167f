(** A minimal file system over {!Simdisk}.

    Files are named byte sequences stored in disk blocks.  This is the
    substrate under both I/O paths the paper compares: the Mach inode
    pager (files as memory objects, {!Vnode_pager}) and the traditional
    buffer-cache read path ({!Mach_bsd.Buffer_cache} in the baseline).

    Population ([install_file]) writes the data without charging the
    clock, so benchmark setup is free; all reads and subsequent writes go
    through the disk cost model. *)

type t

val create : Mach_hw.Machine.t -> unit -> t
(** [create machine ()] is an empty file system: 4 KB blocks on one
    disk. *)

val pager :
  t -> name:string -> (unit -> Mach_core.Types.pager) -> Mach_core.Types.pager
(** [pager t ~name make] is the pager memoized for file [name] of this
    file system, built by [make ()] on first use.  The memo lives in the
    file system, so a dropped file system (and the kernel its pagers
    serve) is garbage together. *)

val disk : t -> Simdisk.t

val install_file : t -> name:string -> data:Bytes.t -> unit
(** [install_file t ~name ~data] creates or replaces [name] with [data],
    bypassing the disk cost model (benchmark setup); each block is
    copied once, into the block the disk keeps. *)

val exists : t -> name:string -> bool

val file_size : t -> name:string -> int
(** Raises [Not_found] for missing files. *)

val submit_read :
  t -> cpu:int -> name:string -> offset:int -> len:int ->
  Mach_core.Lent.t * Mach_hw.Machine.io
(** [submit_read t ~cpu ~name ~offset ~len] reads without blocking: each
    block-aligned whole-block span over consecutive disk blocks is one
    request, a partial block one more, and all of them are submitted
    before the data comes back together with one stamp — the latest
    completion and the summed device service time.  The data lends the
    disk's own blocks ({!Simdisk.lend_run}), a partial block as the
    part of it the read covers.  Short reads at end of file return
    fewer bytes; an empty read returns no slice and
    {!Mach_hw.Machine.io_none}.  Nothing is charged here: the caller
    waits on the stamp ([Mach_hw.Machine.wait_io]). *)

val submit_write :
  t -> cpu:int -> name:string -> offset:int -> len:int ->
  data:Mach_core.Lent.t -> Mach_hw.Machine.io
(** [submit_write t ~cpu ~name ~offset ~len ~data] writes the first [len]
    bytes of [data] (extending the file as needed) with the same run
    decomposition, reading back and
    patching partial blocks.  Each write run blocks until it lands
    (a partial block's read-back run does not), so the returned stamp
    has completed: waiting on it charges nothing and counts the
    read-back runs' device time as overlap.  Every byte is copied into
    the disk's blocks before it returns. *)

val read : t -> cpu:int -> name:string -> offset:int -> len:int -> Bytes.t
(** [read] is {!submit_read} followed by one wait on its stamp, the
    data copied into a buffer of the caller's own. *)

val write : t -> cpu:int -> name:string -> offset:int -> data:Bytes.t -> unit
(** [write] is {!submit_write} followed by one wait on its stamp. *)

(** A minimal file system over {!Simdisk}.

    Files are named byte sequences stored in disk blocks.  This is the
    substrate under both I/O paths the paper compares: the Mach inode
    pager (files as memory objects, {!Vnode_pager}) and the traditional
    buffer-cache read path ({!Mach_bsd.Buffer_cache} in the baseline).

    Population ([install_file]) writes the data without charging the
    clock, so benchmark setup is free; all reads and subsequent writes go
    through the disk cost model. *)

type t

val create : Mach_hw.Machine.t -> ?block_size:int -> ?queues:int -> unit -> t
(** [create machine ()] is an empty file system (default 4 KB blocks,
    one disk service queue; see {!Simdisk.create} for [?queues]). *)

val pager :
  t -> name:string -> (unit -> Mach_core.Types.pager) -> Mach_core.Types.pager
(** [pager t ~name make] is the pager memoized for file [name] of this
    file system, built by [make ()] on first use.  The memo lives in the
    file system, so a dropped file system (and the kernel its pagers
    serve) is garbage together. *)

val disk : t -> Simdisk.t

val install_file : t -> name:string -> data:Bytes.t -> unit
(** [install_file t ~name ~data] creates or replaces [name] with [data],
    bypassing the disk cost model (benchmark setup). *)

val exists : t -> name:string -> bool

val file_size : t -> name:string -> int
(** Raises [Not_found] for missing files. *)

val read : t -> cpu:int -> name:string -> offset:int -> len:int -> Bytes.t
(** [read t ~cpu ~name ~offset ~len] reads, charging disk cost per block
    touched.  Short reads at end of file return fewer bytes. *)

val write : t -> cpu:int -> name:string -> offset:int -> data:Bytes.t -> unit
(** [write t ~cpu ~name ~offset ~data] writes (extending the file as
    needed), charging disk cost per block touched. *)

val submit_read :
  t -> cpu:int -> name:string -> offset:int -> len:int ->
  Bytes.t * int * int
(** [submit_read] is {!read} through the asynchronous submit protocol:
    the data comes back immediately, together with the latest completion
    stamp and summed device service time over the runs submitted, and
    the CPU is not blocked for device time.  With the machine's async
    disk model off it charges exactly like {!read} and the stamps are
    already satisfied. *)

val submit_write :
  t -> cpu:int -> name:string -> offset:int -> data:Bytes.t -> int * int
(** [submit_write] is {!write} through the submit protocol; returns
    (completion stamp, summed service time). *)

val delete : t -> name:string -> unit

val files : t -> string list

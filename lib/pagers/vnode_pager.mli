(** The inode-pager equivalent: files as memory objects.

    "To implement a memory mapped file, virtual memory is created with its
    pager specified as the file system" (Section 3.3).  A vnode pager
    serves [pager_data_request] by reading file blocks (charged as disk
    I/O) and [pager_data_write] by writing them back; reads beyond end of
    file answer [Data_unavailable] (zero fill).

    Pagers are memoized per (file system, name) so every mapping of the
    same file reaches the {e same} memory object — which is what makes the
    object cache effective for shared program text. *)

val for_file :
  Mach_core.Vm_sys.t -> Simfs.t -> name:string -> Mach_core.Types.pager
(** [for_file sys fs ~name] is the pager for [name] (created on first
    use).  The pager requests caching ([pager_cache]), so its objects
    persist in the object cache after the last unmap.  Raises [Not_found]
    for a missing file. *)

val map_file :
  Mach_core.Vm_sys.t -> Simfs.t -> Mach_core.Task.t -> name:string ->
  unit -> (int * int, Mach_core.Kr.t) result
(** [map_file sys fs task ~name ()] maps the whole file anywhere in
    [task]'s space, shared with every other mapping of it, returning
    [(address, size)].  A private copy is [vm_copy]'s
    ({!Mach_core.Vm_user.copy}) of the mapping. *)

val read_through_object :
  Mach_core.Vm_sys.t -> ?stream:int * int -> Simfs.t -> name:string ->
  offset:int -> len:int -> Bytes.t
(** [read_through_object sys fs ~name ~offset ~len] performs a UNIX
    [read()] the Mach way: through the file's memory object and the
    resident page cache — pages already resident cost only the copy,
    missing pages are filled from the pager.  This is the path behind the
    Table 7-1 file-reading rows.  [stream] keys the read-ahead stream
    slot (see {!Mach_core.Vm_cluster.pagein}): concurrent readers of one
    file pass distinct keys to ramp independent windows; omitted, all
    callers share the anonymous slot. *)

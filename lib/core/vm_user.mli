(** The user-visible virtual memory operations of Table 2-1.

    All operations apply to a target task and specify addresses and sizes
    in bytes; regions must be aligned on system page boundaries (sizes are
    rounded up, addresses truncated, as in Mach).  Each call charges the
    architecture's system-call cost. *)

include module type of struct include Vm_stats end
(** What [vm_statistics] reports: the {!Vm_stats.statistics} record and
    its report rows. *)

val allocate :
  Vm_sys.t -> Task.t -> ?at:int -> size:int -> anywhere:bool -> unit ->
  (int, Kr.t) result
(** [vm_allocate]: allocate and fill with zeros new virtual memory, either
    anywhere or at a specified address. *)

val allocate_with_pager :
  Vm_sys.t -> Task.t -> pager:Types.pager -> offset:int -> size:int ->
  (int, Kr.t) result
(** [vm_allocate_with_pager] (Table 3-2): allocate a region, anywhere,
    backed by a memory object managed by [pager] and shared with every
    other mapping of it.  [offset] must be page aligned. *)

val deallocate :
  Vm_sys.t -> Task.t -> addr:int -> size:int -> (unit, Kr.t) result
(** [vm_deallocate]: make a range of addresses no longer valid. *)

val protect :
  Vm_sys.t -> Task.t -> addr:int -> size:int -> set_max:bool ->
  prot:Mach_hw.Prot.t -> (unit, Kr.t) result
(** [vm_protect]: set the protection attribute of an address range. *)

val inherit_ :
  Vm_sys.t -> Task.t -> addr:int -> size:int -> Inheritance.t ->
  (unit, Kr.t) result
(** [vm_inherit]: set the inheritance attribute of an address range. *)

val copy :
  Vm_sys.t -> Task.t -> src:int -> dst:int -> size:int ->
  (unit, Kr.t) result
(** [vm_copy]: virtually copy a range of memory from one address to
    another — object references and copy-on-write, never data.  The
    destination range is replaced. *)

val read :
  Vm_sys.t -> Task.t -> addr:int -> size:int -> (Bytes.t, Kr.t) result
(** [vm_read]: read the contents of a region of a task's address space
    (faulting pages in as needed). *)

val write :
  Vm_sys.t -> Task.t -> addr:int -> data:Bytes.t -> (unit, Kr.t) result
(** [vm_write]: write the contents of a region of a task's address
    space. *)

val regions : Vm_sys.t -> Task.t -> Vm_map.region_info list
(** [vm_regions]: describe the allocated regions of the task's space. *)

val statistics : Vm_sys.t -> statistics
(** [vm_statistics]: system-wide memory statistics, as a copy of the
    kernel's live counters with the page-queue gauges, swap limit and
    allocator counters filled in; later activity does not change it. *)

(** Address maps (Section 3.2) and sharing maps (Section 3.4).

    An address map is a sorted doubly-linked list of entries, each mapping
    a contiguous range of virtual addresses onto a contiguous area of a
    memory object; different entries may not overlap.  A last-fault hint
    accelerates lookups.  All addresses within an entry share protection
    and inheritance attributes, so range operations may have to {e clip}
    entries at range boundaries.

    Read/write sharing is expressed by entries that point to a {e sharing
    map} (a map usable as a backing), so that map operations applying to
    all sharers are applied once, to the sharing map.  Sharing maps are
    never nested.

    Copy operations (fork with [Copy] inheritance, [vm_copy], out-of-line
    message transfer) never copy data: they share one capture, which
    takes object references, marks both sides copy-on-write and
    write-protects resident pages through [pmap_copy_on_write]. *)

open Types

val create :
  Vm_sys.t -> pmap:Mach_pmap.Pmap.t option -> low:int -> high:int -> vmap
(** [create sys ~pmap ~low ~high] is an empty map covering [\[low, high)].
    Sharing maps pass [pmap:None]. *)

val deallocate : Vm_sys.t -> vmap -> unit
(** Release a reference; on the last one every entry is removed, backing
    references are released, and the pmap (if any) is destroyed. *)

val entry_count : vmap -> int
(** Number of entries (a typical UNIX process has about five). *)

val entries : vmap -> entry list
(** The entries in ascending address order (read-only use). *)

val find : vmap -> va:int -> entry option
(** [find m ~va] is the entry containing [va], using and updating the
    last-fault hint. *)

val scan_start : vmap -> va:int -> entry Mach_util.Dlist.node option
(** [scan_start m ~va] is the node a range operation's scan for [va]
    starts from: the last-fault hint when it lies at or before [va],
    else the first entry, so an operation near the hint examines a
    handful of entries, not the map. *)

val resolve_object_at : Vm_sys.t -> vmap -> va:int -> (obj * int) option
(** [resolve_object_at sys m ~va] is the backing object and byte offset
    for [va], looking through a sharing map if needed; [None] if
    unallocated or never touched. *)

(** {1 Allocation} *)

val allocate :
  Vm_sys.t -> vmap -> ?at:int -> size:int -> anywhere:bool -> unit ->
  (int, Kr.t) result
(** [vm_allocate]: allocate [size] bytes of zero-filled memory, either
    [~anywhere:true] (first fit; [?at] is a mere hint) or at exactly [at].
    Sizes round up to the page size.  Returns the chosen address. *)

val allocate_object :
  Vm_sys.t -> vmap -> obj -> offset:int -> size:int -> (int, Kr.t) result
(** [vm_allocate_with_pager]: map [size] bytes of [obj] starting at
    [offset], read/write and shared, at the first free address.  The
    map takes over the caller's reference to [obj].  A private copy is
    {!Vm_user.copy}'s, and a narrower protection [vm_protect]'s. *)

val deallocate_range :
  Vm_sys.t -> vmap -> addr:int -> size:int -> (unit, Kr.t) result
(** [vm_deallocate]: make a range no longer valid, releasing backing
    references and removing hardware mappings.  Deallocating never-
    allocated space is allowed (it is a no-op there), as in Mach. *)

(** {1 Attributes} *)

val protect :
  Vm_sys.t -> vmap -> addr:int -> size:int -> set_max:bool ->
  prot:Mach_hw.Prot.t -> (unit, Kr.t) result
(** [vm_protect]: set current (or, with [set_max], maximum) protection.
    The maximum can only be lowered; lowering it below the current
    protection drags the current protection down.  Raising the current
    protection above the maximum fails with [Protection_failure]. *)

val set_inheritance :
  Vm_sys.t -> vmap -> addr:int -> size:int -> Inheritance.t ->
  (unit, Kr.t) result
(** [vm_inherit]: set the inheritance attribute of a range. *)

type region_info = {
  ri_start : int;
  ri_end : int;
  ri_prot : Mach_hw.Prot.t;
  ri_max_prot : Mach_hw.Prot.t;
  ri_inherit : Inheritance.t;
  ri_shared : bool;        (** backed by a sharing map *)
  ri_needs_copy : bool;    (** still copy-on-write *)
}

val regions : vmap -> region_info list
(** [vm_regions]: describe the allocated regions. *)

(** {1 Fork} *)

val fork : Vm_sys.t -> vmap -> child_pmap:Mach_pmap.Pmap.t -> vmap
(** [fork sys parent ~child_pmap] builds a child map according to each
    entry's inheritance: [Shared] entries are converted to point at a
    sharing map referenced by both; [Copy] entries are captured as
    {!extract_copy} captures them (one child entry per piece of a
    sharing map's window), keeping the entry's protection, maximum and
    inheritance; [None_] entries leave the child range unallocated. *)

(** {1 Fault-path lookup} *)

type fault_lookup = {
  fl_map : vmap;        (** the map holding the authoritative entry
                            (a sharing map, or the task map itself) *)
  fl_entry : entry;     (** that entry *)
  fl_offset : int;      (** byte offset in the entry's backing for the
                            faulting page *)
  fl_prot : Mach_hw.Prot.t; (** effective protection across levels *)
  fl_va_end : int;      (** end, in the faulting map's addresses, of the
                            range [fl_entry] maps contiguously from the
                            faulting address *)
}

val lookup_fault :
  Vm_sys.t -> vmap -> va:int -> write:bool -> (fault_lookup, Kr.t) result
(** [lookup_fault sys m ~va ~write] resolves a page fault at [va]: finds
    the entry (following one sharing-map level), checks the access against
    the effective protection and returns where the backing object lives.
    Errors become [Memory_violation] for the faulting thread. *)

(** {1 Virtual copy (vm_copy, out-of-line messages)} *)

type map_copy
(** An extracted copy of an address range: object references held
    copy-on-write, not data.  Sending an entire address space in a message
    costs reference manipulation only. *)

val copy_size : map_copy -> int
(** Total bytes the copy represents. *)

val extract_copy :
  Vm_sys.t -> vmap -> addr:int -> size:int -> (map_copy, Kr.t) result
(** [extract_copy sys m ~addr ~size] captures [\[addr, addr+size)]
    copy-on-write: source entries are marked needs-copy and their resident
    pages write-protected everywhere. *)

val insert_copy :
  Vm_sys.t -> vmap -> map_copy -> ?at:int -> unit -> (int, Kr.t) result
(** [insert_copy sys m c ()] maps the copy into [m] (anywhere, or at
    [at] which must be free), read/write with the default maximum and
    inheritance, consuming the copy's references.  Returns the base. *)

val discard_copy : Vm_sys.t -> map_copy -> unit
(** Release a copy that will not be inserted (e.g. a destroyed
    message). *)

(** {1 Housekeeping} *)

(** Consistency checking over the machine-independent VM structures.

    The paper notes that the object/locking rules are the complex part of
    Mach VM; this module makes the implicit invariants explicit and
    checkable, for use in tests (after randomised workloads) and when
    debugging:

    - address maps are sorted, page aligned, non-overlapping, inside
      their bounds, and their current protection never exceeds the
      maximum;
    - backing references point at live objects and live sharing maps, and
      sharing maps are never nested;
    - memory-object page lists agree with the object/offset hash and
      with each page's own identity; shadow chains are acyclic;
    - every page sits on exactly the queue its state says, free pages
      belong to no object, and no freed frame retains a hardware
      mapping;
    - every hardware mapping recorded by the pv layer is confirmed by the
      owning pmap's [pmap_extract];
    - every TLB entry of a CPU's active address space that no pending
      flush covers maps the frame its pmap maps, with no more rights;
    - every undecided burst record is keyed by its page's pfn, its
      address space still maps every frame of the page, and an object
      still owns the page;
    - no stream slot outlives its object, slot arrays hold 0 or
      {!Vm_cluster.slot_count} slots, and live cursors are page aligned;
    - the swap pool's usage equals the bytes its stores hold. *)

val check_map : Vm_sys.t -> Types.vmap -> string list
(** [check_map sys m] is the list of invariant violations found in [m]
    (and any sharing maps or objects it references); empty when
    healthy. *)

val check_resident : Vm_sys.t -> string list
(** [check_resident sys] checks the resident page table's queues and
    hash, that free frames are unmapped, and that the free pool is
    conserved ({!Resident.conservation_errors}). *)

val check_all : Vm_sys.t -> maps:Types.vmap list -> string list
(** [check_all sys ~maps] runs every check over the given root maps plus
    the global structures: resident queues, hash and free-pool
    conservation, pv ↔ pmap, TLB ⊆ pmap, burst records, pages riding
    disk stamps (busy, in a live object), swap usage, and every object
    in the pager table. *)

val assert_ok : Vm_sys.t -> maps:Types.vmap list -> unit
(** [assert_ok sys ~maps] raises [Failure] with a readable summary if any
    check fails; used as a test oracle. *)

val dump_map : Vm_sys.t -> Types.vmap -> string
(** [dump_map sys m] pretty-prints the address map: one line per entry
    with range, protections, inheritance, backing (object chain lengths,
    resident page counts) — the shape a kernel debugger would show. *)

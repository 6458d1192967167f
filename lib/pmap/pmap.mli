(** Physical maps: the machine-dependent interface of the paper.

    A [Pmap.t] is one hardware physical address map — "for a VAX, a pmap
    corresponds to a VAX page table; for the IBM RT PC, a pmap is a set of
    allocated segment registers" (Section 3.6).  The record's fields are
    the *Exported and Required PMAP Routines* of Table 3-3 plus the
    optional routines of Table 3-4; the machine-independent VM calls only
    these and never inspects hardware structures.  The optional
    [pmap_pageable] of Table 3-4 is not modelled.

    Two properties the paper emphasises, and which implementations here
    honour, are:

    - a pmap is only a {e cache} of mappings: any non-wired mapping may be
      discarded at any time (to save space, to steal a SUN 3 context, to
      evict an RT PC inverted-table alias) because the machine-independent
      layer can reconstruct it at fault time;
    - page-level operations over {e all} maps of a physical page
      ([pmap_remove_all], [pmap_copy_on_write], modify/reference bits) are
      provided by the enclosing {!Pmap_domain}, which owns the
      physical-to-virtual tracking. *)

type stats = {
  mutable enters : int;          (** mappings entered *)
  mutable removals : int;        (** mappings removed (all causes) *)
  mutable protect_ops : int;     (** [pmap_protect] range operations *)
  mutable alias_evictions : int; (** RT PC: mappings evicted because the
                                     inverted table allows one mapping per
                                     physical page (Section 5.1) *)
  mutable context_steals : int;  (** SUN 3: hardware contexts stolen,
                                     dropping all their mappings *)
  mutable cache_drops : int;     (** mappings discarded by the pmap on its
                                     own authority (cache behaviour) *)
}
(** Per-pmap operation counters, used by the Section 5.1 benches.  They
    count hardware mappings: a page of [n] frames adds [n] to [enters],
    [removals], [alias_evictions] and [cache_drops]. *)

type t = {
  asid : int;
      (** Address-space identifier, unique within a domain. *)
  reference : unit -> unit;
      (** [pmap_reference]: add a reference; [destroy] only releases the
          structures when the last reference goes (several tasks may share
          one physical map). *)
  enter : va:int -> pfn:int -> prot:Mach_hw.Prot.t -> wired:bool -> unit;
      (** [pmap_enter]: map the machine-independent page — the domain's
          page multiple of hardware frames from [pfn] — at the hardware
          pages from [va], replacing any previous mapping of that page.
          Raises [Invalid_argument] unless [va]'s hardware page and [pfn]
          each start a page.  One pte write is charged per frame.
          Called from the page-fault path. *)
  remove : start_va:int -> end_va:int -> unit;
      (** [pmap_remove]: remove all mappings in [\[start_va, end_va)],
          which must cover whole pages ([Invalid_argument] otherwise).
          Used in memory deallocation. *)
  protect : start_va:int -> end_va:int -> prot:Mach_hw.Prot.t -> unit;
      (** [pmap_protect]: reduce permissions on a range of whole pages.
          Raising permissions is done by re-entering pages at fault
          time. *)
  extract : int -> int option;
      (** [pmap_extract]: convert virtual to physical, if mapped. *)
  activate : cpu:int -> unit;
      (** [pmap_activate]: this pmap runs on [cpu] from now on; installs
          the hardware translator. *)
  deactivate : cpu:int -> unit;
      (** [pmap_deactivate]: the pmap is done on [cpu]. *)
  copy :
    (dst:t -> dst_start:int -> len:int -> src_start:int -> unit) option;
      (** [pmap_copy] (Table 3-4, optional): copy valid mappings to another
          pmap so the destination avoids initial faults.  [None] when the
          hardware gains nothing from it. *)
  resident_count : unit -> int;
      (** Number of hardware mappings this pmap currently holds. *)
  map_bytes : unit -> int;
      (** Bytes of hardware-defined structures currently allocated; the
          Section 5.1 bench compares this across architectures. *)
  collect : unit -> unit;
      (** Garbage-collect mapping structures the hardware does not require
          right now (the paper: the machine-dependent part "may garbage
          collect non-important mapping information to save space"). *)
  destroy : unit -> unit;
      (** [pmap_destroy]: release one reference; on the last one, drop
          every mapping and release structures.  ([pmap_init] is the
          domain's construction; [pmap_update] is a no-op here because
          there is one pmap system per machine.) *)
  stats : stats;
}

val fresh_stats : unit -> stats
(** All-zero counters. *)

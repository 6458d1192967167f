(** Inheritance attributes for address-space regions.

    Inheritance may be specified as shared, copy or none, on a per-page
    basis (Section 2.1): [Shared] pages are shared read/write between
    parent and child; [Copy] pages are logically copied by value (realised
    with copy-on-write); [None] pages are not passed to the child, whose
    corresponding addresses are left unallocated. *)

type t =
  | Shared  (** read/write shared with children *)
  | Copy    (** copied by value (copy-on-write) — the default *)
  | None_   (** child's range is left unallocated *)

val default : t
(** [Copy]: "by default, all inheritance values for an address space are
    set to copy", preserving UNIX fork semantics. *)

val to_string : t -> string

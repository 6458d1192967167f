(** Memory protection values.

    Each protection is a combination of read, write and execute permissions
    (Section 2.1 of the paper).  Both the machine-independent layer (current
    and maximum protection per address-map entry) and the hardware layer
    (per-mapping permissions) use this type.  Enforcement of execute depends
    on the simulated hardware: architectures without explicit execute
    permission treat execute as read. *)

type t = private { read : bool; write : bool; execute : bool }

val make : read:bool -> write:bool -> execute:bool -> t
(** [make ~read ~write ~execute] is the corresponding protection. *)

val read_only : t
(** Read (and, on all simulated architectures, execute-as-read). *)

val read_write : t
(** Read and write. *)

val read_execute : t
(** Read and execute. *)

val all : t
(** Read, write and execute. *)

val subset : t -> of_:t -> bool
(** [subset p ~of_:q] is [true] iff every permission in [p] is in [q]. *)

val inter : t -> t -> t
(** [inter p q] is the permissions present in both. *)

val remove_write : t -> t
(** [remove_write p] is [p] without write permission; used when entering
    copy-on-write mappings. *)

val allows : t -> write:bool -> bool
(** [allows p ~write] is [true] iff [p] permits the access: a write needs
    write permission, anything else needs read permission. *)

val to_string : t -> string
(** [to_string p] is e.g. ["rw-"] or ["r-x"]. *)

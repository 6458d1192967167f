(** Column-aligned plain-text tables.

    The benchmark harness prints each reproduced paper table as aligned
    rows ("Operation | Mach | UNIX | paper Mach | paper UNIX"); this module
    centralises the alignment and separator logic. *)

type t
(** A table under construction. *)

val create : title:string -> columns:string list -> t
(** [create ~title ~columns] starts a table with the given header. *)

val row : t -> string list -> unit
(** [row t cells] appends a data row.  Rows shorter than the header are
    padded with empty cells; longer rows are an error. *)

val separator : t -> unit
(** [separator t] appends a horizontal rule between row groups. *)

val print : t -> unit
(** [print t] writes the table, each column padded to its widest cell,
    to standard output followed by a blank line. *)

(** Kernel return codes, in the style of Mach's [kern_return_t].

    The user-visible VM operations of Table 2-1 report failure through
    these codes rather than exceptions, mirroring the message-based kernel
    interface. *)

type t =
  | Invalid_address     (** address out of range or not page aligned *)
  | No_space            (** no room in the address map *)
  | Protection_failure  (** requested access exceeds the allowed maximum *)
  | Invalid_argument    (** malformed request (e.g. negative size) *)
  | Resource_shortage   (** out of physical memory and backing store *)
  | Memory_error        (** the pager failed to provide data *)

val to_string : t -> string

(** Physical-to-virtual mapping tracking and per-frame attribute bits.

    The page-level pmap operations of Table 3-3 ([pmap_remove_all],
    [pmap_copy_on_write]) and the modify/reference-bit maintenance calls
    need to find every virtual mapping of a physical page.  Real pmap
    modules keep "pv lists" for this; here one [Pv.t] per pmap domain maps
    each machine-independent page to its (address space, first vpn)
    mappings, and carries each hardware frame's referenced/modified
    bits, which the simulated MMU sets on every translated access.  Any
    frame of a page may name it as [~pfn]. *)

type mapping = { pv_asid : int; pv_vpn : int }
(** One virtual mapping of a page: [pv_vpn] is the hardware vpn of its
    first frame. *)

type t
(** Tracking state for one pmap domain. *)

val create : frames:int -> page_frames:int -> t
(** [create ~frames ~page_frames] covers physical frames
    [0 .. frames-1] in pages of [page_frames] frames (a power of two). *)

val insert : t -> pfn:int -> mapping -> unit
(** [insert t ~pfn m] records that [m] maps the page holding [pfn]. *)

val remove : t -> pfn:int -> mapping -> unit
(** [remove t ~pfn m] forgets [m].  Removing an absent mapping is an
    error. *)

val mappings : t -> pfn:int -> mapping list
(** [mappings t ~pfn] is every current mapping of the page. *)

val mapped_by : t -> pfn:int -> asid:int -> bool
(** [mapped_by t ~pfn ~asid] is whether address space [asid] maps the
    page holding [pfn]; it allocates nothing. *)

val set_referenced : t -> pfn:int -> unit
val set_modified : t -> pfn:int -> unit
(** Set the bit on frame [pfn] alone. *)

val frame_referenced : t -> pfn:int -> bool
(** Whether frame [pfn] alone was touched since it was last cleared. *)

val is_referenced : t -> pfn:int -> bool
(** Whether any access touched any frame of the page since the bits
    were last cleared. *)

val is_modified : t -> pfn:int -> bool
(** Whether any write touched any frame of the page since the bits were
    last cleared. *)

val clear_referenced : t -> pfn:int -> unit
val clear_modified : t -> pfn:int -> unit
(** Clear the bit on every frame of the page. *)

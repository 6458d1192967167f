(** Physical-to-virtual mapping tracking and per-frame attribute bits.

    The page-level pmap operations of Table 3-3 ([pmap_remove_all],
    [pmap_copy_on_write]) and the modify/reference-bit maintenance calls
    need to find every virtual mapping of a physical page.  Real pmap
    modules keep "pv lists" for this; here one [Pv.t] per pmap domain maps
    each frame to the (address space, virtual page) pairs currently mapping
    it, and carries the frame's referenced/modified bits, which the
    simulated MMU sets on every translated access. *)

type mapping = { pv_asid : int; pv_vpn : int }
(** One virtual mapping of a frame. *)

type t
(** Tracking state for one pmap domain. *)

val create : frames:int -> t
(** [create ~frames] covers physical frames [0 .. frames-1]. *)

val insert : t -> pfn:int -> mapping -> unit
(** [insert t ~pfn m] records that [m] maps [pfn].  Duplicate insertions
    are an error caught by assertion. *)

val remove : t -> pfn:int -> mapping -> unit
(** [remove t ~pfn m] forgets [m].  Removing an absent mapping is an
    error. *)

val mappings : t -> pfn:int -> mapping list
(** [mappings t ~pfn] is every current mapping of [pfn]. *)

val mapping_count : t -> pfn:int -> int
(** [mapping_count t ~pfn] is [List.length (mappings t ~pfn)]. *)

val set_referenced : t -> pfn:int -> unit
val set_modified : t -> pfn:int -> unit

val is_referenced : t -> pfn:int -> frames:int -> bool
(** Whether any access touched any of the [frames] frames from [pfn]
    since they were last cleared. *)

val is_modified : t -> pfn:int -> frames:int -> bool
(** Whether any write touched any of the [frames] frames from [pfn]
    since they were last cleared. *)

val clear_referenced : t -> pfn:int -> frames:int -> unit
val clear_modified : t -> pfn:int -> frames:int -> unit
(** Clear the bit on the [frames] frames from [pfn]. *)

(** Moving data between machine-independent pages and byte buffers.

    A machine-independent page spans several consecutive hardware frames;
    these helpers move its bytes in one span operation for the fault
    handler, the pageout daemon, pagers and file I/O paths.  All charge
    the architecture's bulk-move cost: once per move, or once per frame
    for {!zero} and {!copy}. *)

val fill : ?pos:int -> Vm_sys.t -> Types.page -> Bytes.t -> unit
(** [fill ~pos sys p data] copies a page of [data] from [pos] (default
    0) into the page, zero padding whatever [data] is short of in place.
    Raises [Invalid_argument] when [pos] is outside [0, Bytes.length data]. *)

val contents : Vm_sys.t -> Types.page -> Bytes.t
(** [contents sys p] is the whole page as bytes. *)

val copy_out : Vm_sys.t -> Types.page -> off:int -> len:int -> Bytes.t
(** [copy_out sys p ~off ~len] extracts a sub-range of the page.  The
    range must lie within the page. *)

val blit_out :
  Vm_sys.t -> Types.page -> off:int -> len:int -> Bytes.t -> pos:int -> unit
(** [blit_out sys p ~off ~len buf ~pos] is {!copy_out} into [buf] at
    [pos], with no buffer of its own. *)

val blit_in :
  Vm_sys.t -> Types.page -> off:int -> Bytes.t -> pos:int -> len:int -> unit
(** [blit_in sys p ~off data ~pos ~len] overwrites [len] bytes of the
    page from [off] with those of [data] from [pos]. *)

val zero : Vm_sys.t -> Types.page -> unit
(** [zero sys p] zero-fills the page ([pmap_zero_page] over its
    frames). *)

val copy : Vm_sys.t -> src:Types.page -> dst:Types.page -> unit
(** [copy sys ~src ~dst] copies a whole page ([pmap_copy_page] over its
    frames). *)

(** Moving data between machine-independent pages and byte buffers.

    A machine-independent page spans several consecutive hardware frames;
    these helpers move its bytes in one span operation for the fault
    handler, the pageout daemon, pagers and file I/O paths, or lend its
    frame span to a pager's write.  All charge
    the architecture's bulk-move cost: once per move, or once per frame
    for {!zero} and {!copy}. *)

val fill : ?pos:int -> Vm_sys.t -> Types.page -> Lent.t -> unit
(** [fill ~pos sys p data] copies a page of [data] from byte [pos]
    (default 0) into the page, zero padding whatever [data] is short of
    in place.  [data] is only read.  Raises [Invalid_argument] when
    [pos] is outside [0, Lent.length data]. *)

val lend : Vm_sys.t -> Types.page -> Lent.slice
(** [lend sys p] is the whole page's frame span, for one [pgr_write]
    call (see the ownership rule on {!Types.pager}), charged as the
    page-sized move a copy out would be. *)

val blit_out :
  Vm_sys.t -> Types.page -> off:int -> len:int -> Bytes.t -> pos:int -> unit
(** [blit_out sys p ~off ~len buf ~pos] copies [len] bytes of the page
    from [off] into [buf] at [pos].  The range must lie within the
    page. *)

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

(** Simulated physical memory.

    Physical memory is an array of hardware page frames, each holding real
    byte contents, so that copy-on-write, zero fill and pager backing can be
    verified for data correctness and not just for cost counters.  The
    frames lie back to back in one store, so a machine-independent page
    (several consecutive frames) moves in one span operation.

    Frames can be declared *absent* to model machines like the SUN 3 whose
    physical address space has large holes (display memory addressable as
    high physical memory, Section 5.1); absent frames exist as addresses but
    have no storage and must never be allocated. *)

type t
(** A physical memory. *)

type frame = int
(** A physical frame number (pfn). *)

val create : page_size:int -> frames:int -> ?holes:(frame * frame) list -> unit -> t
(** [create ~page_size ~frames ~holes ()] is a memory of [frames] frames of
    [page_size] bytes.  Each [(lo, hi)] in [holes] marks frames [lo..hi]
    inclusive as absent.  [page_size] must be a power of two. *)

val page_size : t -> int
(** [page_size t] is the hardware page size in bytes. *)

val frame_count : t -> int
(** [frame_count t] is the number of frame numbers, including absent
    ones. *)

val frame_exists : t -> frame -> bool
(** [frame_exists t f] is [true] iff [f] is in range and backed by
    storage. *)

val present_frames : t -> frame list
(** [present_frames t] lists the frames backed by storage, ascending. *)

val read : t -> frame -> offset:int -> len:int -> Bytes.t
(** [read t f ~offset ~len] copies [len] bytes out of frame [f] starting at
    [offset].  The range must lie within the frame. *)

val blit_out : t -> frame -> offset:int -> len:int -> Bytes.t -> pos:int -> unit
(** [blit_out t f ~offset ~len buf ~pos] is {!read} into [buf] at [pos]. *)

val write : t -> frame -> offset:int -> ?pos:int -> ?len:int -> Bytes.t -> unit
(** [write t f ~offset ~pos ~len data] copies [len] bytes of [data]
    from [pos] (default: all of it from 0) into frame [f] at
    [offset]. *)

val read_byte : t -> frame -> offset:int -> char
(** [read_byte t f ~offset] is the byte at [offset] in frame [f];
    [offset] must lie within the frame. *)

val write_byte : t -> frame -> offset:int -> char -> unit
(** [write_byte t f ~offset c] stores [c] at [offset] in frame [f];
    [offset] must lie within the frame. *)

val copy_frame : t -> src:frame -> dst:frame -> unit
(** [copy_frame t ~src ~dst] copies the contents of [src] into [dst]; the
    one-frame {!copy_frames}, kept as the tests' reference
    ([pmap_copy_page] copies all of a page's frames at once). *)

(** {2 Spans}

    A span is [len] bytes starting [offset] bytes into frame [f]; it may
    run on through the frames after [f].  Frame [f] must exist, every
    frame from [f] to the one holding the span's last byte must be
    present (else [Invalid_argument "Phys_mem: access to absent frame"])
    and the span must end inside memory.  The single-frame operations
    above are these with one more bound, so they never cross into the
    next frame. *)

val blit_out_span :
  t -> frame -> offset:int -> len:int -> Bytes.t -> pos:int -> unit
(** [blit_out_span t f ~offset ~len buf ~pos] copies the span into [buf]
    at [pos] in one move. *)

val write_span : t -> frame -> offset:int -> ?pos:int -> ?len:int -> Bytes.t -> unit
(** [write_span t f ~offset ~pos ~len data] copies [len] bytes of [data]
    from [pos] (default: all of it from 0) over the span. *)

val zero_span : t -> frame -> offset:int -> len:int -> unit
(** [zero_span t f ~offset ~len] fills the span with zero bytes. *)

val copy_frames : t -> src:frame -> dst:frame -> frames:int -> unit
(** [copy_frames t ~src ~dst ~frames] copies frames [src ..
    src+frames-1] over [dst .. dst+frames-1] in one move. *)

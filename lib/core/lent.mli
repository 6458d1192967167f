(** Lent bytes: page data passed between the kernel and a pager by
    reference.

    A value is a short list of slices of buffers that their owner lends
    for one call: a pager lends its stored blocks or chunks in a
    [Data_provided] reply, and the kernel lends the frame spans of the
    pages it cleans to [pgr_write].  The ownership rule for both
    directions is written once, on {!Types.pager}.  The bytes of a value
    are those of its slices, in order. *)

type slice = { buf : Bytes.t; pos : int; len : int }
(** [len] bytes of [buf] from [pos]. *)

type t = slice list

val of_bytes : Bytes.t -> t
(** [of_bytes b] lends all of [b] as one slice. *)

val length : t -> int
(** [length t] is the number of bytes [t] holds. *)

val iter :
  t -> src:int -> len:int -> (Bytes.t -> int -> int -> at:int -> unit) ->
  unit
(** [iter t ~src ~len f] calls [f buf pos n ~at] for each piece of
    bytes [src .. src + len) of [t], in order: those [n] bytes are [buf]
    from [pos], and bytes [at .. at + n) of the range.  Raises
    [Invalid_argument] when the range is not within [t]. *)

val blit : t -> src:int -> Bytes.t -> dst_pos:int -> len:int -> unit
(** [blit t ~src dst ~dst_pos ~len] copies bytes [src .. src + len) of
    [t] into [dst] at [dst_pos]. *)

val sub : t -> pos:int -> len:int -> Bytes.t
(** [sub t ~pos ~len] is a fresh copy of bytes [pos .. pos + len) of
    [t]. *)

val to_bytes : t -> Bytes.t
(** [to_bytes t] is a fresh copy of all of [t]. *)

val truncate : t -> int -> t
(** [truncate t n] is the first [n] bytes of [t] (all of it when
    shorter), lending the same buffers. *)

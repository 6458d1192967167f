(** A traditional UNIX block buffer cache.

    4.3bsd reads files by copying disk blocks through a fixed pool of
    kernel buffers; the pool size (the "400 buffers" vs "generic
    configuration" of Table 7-2) bounds how much file data survives
    between runs.  Contrast with Mach, where all of free physical memory
    caches file pages via memory objects. *)

type t

val create : Mach_pagers.Simfs.t -> buffers:int -> t
(** [create fs ~buffers] caches up to [buffers] blocks of [fs], LRU
    replaced, write-through. *)

val read : t -> cpu:int -> name:string -> offset:int -> len:int -> Bytes.t
(** [read t ~cpu ~name ~offset ~len] reads through the cache: hit blocks
    cost nothing extra here (the caller charges the user-space copy), miss
    blocks are read from disk and cached. *)

val write : t -> cpu:int -> name:string -> offset:int -> data:Bytes.t -> unit
(** Write-through: updates the cache and the file system. *)

(** A traditional UNIX (4.3bsd-style) virtual memory baseline.

    The comparator of Tables 7-1 and 7-2: simple paging support only.
    Processes have per-region demand-zero memory; [fork] eagerly copies
    every resident data page (no copy-on-write, except in the SunOS-style
    variant); [exec] loads program text by copying it through the buffer
    cache; file reads copy through the buffer cache rather than mapping
    memory objects.  It runs on the same simulated machines and pmap layer
    as Mach, so the measured differences are the VM design, not the
    substrate.

    Variants model the systems the paper measured against: 4.3bsd on the
    VAX, ACIS 4.2a on the RT PC, SunOS 3.2 on the SUN 3 (which does fork
    copy-on-write but pays extra per-page bookkeeping for its internal
    simulation of the VAX memory architecture, as the paper notes UNIX
    ports did). *)

type variant = {
  v_name : string;
  v_cow_fork : bool;       (** SunOS-style copy-on-write fork *)
  v_page_overhead : int;   (** extra cycles per page operation *)
}

val variant_for : Mach_hw.Arch.t -> variant
(** The comparator the paper used on that machine. *)

type t
(** A booted baseline kernel. *)

type proc
(** A UNIX process. *)

val create : Mach_hw.Machine.t -> fs:Mach_pagers.Simfs.t -> buffers:int -> t
(** [create machine ~fs ~buffers] boots the baseline on [machine], as
    the comparator {!variant_for} its architecture, with a
    [buffers]-block buffer cache over [fs].  Installs its own fault
    handler; a machine hosts either this or a Mach kernel, not both. *)

val machine : t -> Mach_hw.Machine.t

val create_proc : t -> ?name:string -> unit -> proc
val run_proc : t -> cpu:int -> proc -> unit
(** Make [proc] current on [cpu]. *)

val fork : t -> cpu:int -> proc -> proc
(** Copy the parent's address space: eagerly page by page, or
    copy-on-write in the SunOS variant. *)

val exit : t -> cpu:int -> proc -> unit
(** Free the process's memory. *)

val sbrk : t -> cpu:int -> proc -> size:int -> int
(** Allocate a demand-zero region, returning its base address. *)

val exec : t -> cpu:int -> proc -> text:string -> int
(** Load program text [text] (a file) by copying it through the buffer
    cache into fresh pages; returns the text base address. *)

val read_file : t -> cpu:int -> name:string -> offset:int -> len:int -> Bytes.t
(** UNIX [read()]: copy through the buffer cache (disk on misses), then
    to the caller. *)

val write_file : t -> cpu:int -> name:string -> offset:int -> data:Bytes.t -> unit

(** Trace-driven workloads over the common OS surface.

    A workload is an explicit list of operations (spawn, fork, allocate,
    touch, file I/O, exec, exit) that can be generated deterministically
    from a seed and replayed against any {!Os_iface.t} — the same trace
    runs on Mach and on the baseline, so mixed-load comparisons beyond
    the paper's fixed benchmarks are possible and reproducible. *)

type op =
  | Spawn of int                       (** create process in slot *)
  | Fork of int * int                  (** fork slot -> child slot *)
  | Exit of int                        (** terminate the slot's process *)
  | Alloc of int * int                 (** slot, bytes *)
  | Touch of int * int * bool         (** slot, region index, write *)
  | Exec of int * string               (** slot, program file *)
  | Read_file of string * int          (** file, bytes *)
  | Write_file of string * int         (** file, bytes *)

type t = {
  wl_files : (string * int) list;  (** files to install before running *)
  wl_ops : op list;
}

val generate : seed:int -> ops:int -> t
(** [generate ~seed ~ops] is a reproducible mixed workload: the same seed
    always yields the same trace. *)

val setup : Os_iface.t -> t -> unit
(** Install the workload's files (uncharged). *)

val run : Os_iface.t -> t -> float
(** [run os t] replays the trace (clock reset first) and returns elapsed
    simulated milliseconds.  Operations on empty slots or missing regions
    are skipped, so any generated trace is safe on any OS. *)

(** Kernel glue: machine + pmap domain + machine-independent VM.

    Creating a kernel builds the pmap domain and VM state for a machine,
    installs the page-fault handler (including the NS32082
    read-modify-write workaround) and starts the paging daemon.  The
    kernel tracks which task runs on each CPU so faults find the right
    address map, and it drives [pmap_activate]/[pmap_deactivate] on task
    switches. *)

type t = {
  machine : Mach_hw.Machine.t;
  domain : Mach_pmap.Pmap_domain.t;
  sys : Vm_sys.t;
  current : Task.t option array; (* per CPU *)
}

val create : ?page_multiple:int -> Mach_hw.Machine.t -> t
(** [create machine] boots a kernel on [machine].  [page_multiple] is the
    boot-time page-size parameter: the machine-independent page is that
    many hardware pages (default 1; must be a power of two). *)

val sys : t -> Vm_sys.t
val machine : t -> Mach_hw.Machine.t

val page_size : t -> int
(** The machine-independent page size. *)

val create_task : t -> ?name:string -> unit -> Task.t
(** A fresh task with an empty address space. *)

val fork_task : t -> cpu:int -> Task.t -> Task.t
(** Fork per the parent's inheritance attributes, charging the fork's
    kernel work to [cpu]. *)

val terminate_task : t -> cpu:int -> Task.t -> unit
(** Destroy the task's address space.  A terminated task is descheduled
    everywhere. *)

val run_task : t -> cpu:int -> Task.t -> unit
(** Make [task] current on [cpu]: [pmap_activate] and fault routing. *)

val elapsed_ms : t -> float
(** Simulated elapsed time (max over CPU clocks). *)

val reset_clocks : t -> unit
(** Zero clocks and machine statistics between benchmark phases. *)

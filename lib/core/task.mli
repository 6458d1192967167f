(** Tasks (Section 2): the basic unit of resource allocation.

    A task owns a paged virtual address space (an address map plus its
    pmap).  The UNIX notion of a process is a task with a single thread;
    thread scheduling is out of scope here, but {!Kernel} tracks which
    task runs on which CPU.

    [fork] implements Mach's UNIX fork: the child's address map is built
    from the parent's inheritance values, copy by default, so the child is
    a copy-on-write copy of the parent. *)

type t = {
  task_id : int;
  task_name : string;
  task_map : Types.vmap;
  task_pmap : Mach_pmap.Pmap.t;
  mutable task_dead : bool;
  mutable task_oom_killed : bool;
      (** killed by the out-of-memory policy: the address space is gone
          and every fault or Vm_user call answers KERN_MEMORY_ERROR *)
}

val create : Vm_sys.t -> ?name:string -> unit -> t
(** [create sys ()] is a task with an empty address space covering one
    page above address 0 (so null dereferences fault) up to the
    architecture's user address limit.  The task is registered as an
    OOM candidate until terminated. *)

val fork : Vm_sys.t -> t -> t
(** [fork sys parent] builds the child task per the parent map's
    inheritance attributes. *)

val terminate : Vm_sys.t -> t -> unit
(** [terminate sys t] deallocates the address space (releasing every
    backing reference and destroying the pmap) and withdraws the task
    from the OOM candidate list. *)

val map : t -> Types.vmap
val pmap : t -> Mach_pmap.Pmap.t

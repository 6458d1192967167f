(** Threads (Section 2): the basic unit of CPU utilization.

    "A thread is roughly equivalent to an independent program counter
    operating within a task.  All threads within a task share access to
    all task resources."  A simulated thread is a sequence of {e steps}
    (closures performing memory accesses and kernel calls); the
    {!Sched} scheduler interleaves steps of runnable threads over the
    machine's CPUs, activating each thread's task pmap as it is
    dispatched.

    A UNIX process is a task with a single thread. *)

type status =
  | Ready              (** waiting for a CPU *)
  | Running of int     (** executing on the given CPU *)
  | Suspended          (** thread_suspend was called *)
  | Terminated         (** all steps executed *)

type step = cpu:int -> unit
(** One quantum of work.  Runs with the thread's task current on [cpu];
    may touch memory (faulting as needed) and call kernel services. *)

type t

val make : task:Task.t -> step list -> t
(** [make ~task steps] is a new thread of [task], ready to run.
    Normally created through {!Sched.spawn}. *)

val task : t -> Task.t
val status : t -> status

val suspend : t -> unit
(** [thread_suspend]: the thread stops being scheduled after its current
    step.  Suspending a terminated thread is a no-op. *)

val resume : t -> unit
(** [thread_resume]: undo one {!suspend}. *)

val run_one_step : t -> cpu:int -> unit
(** Execute the thread's next step on [cpu] (scheduler internal: the
    caller must have activated the task on that CPU).  Terminates the
    thread after its last step. *)

(** A round-robin multiprocessor scheduler over simulated threads.

    Dispatches ready threads onto the machine's CPUs one step at a time:
    before a step runs, the thread's task becomes current on that CPU
    ([pmap_activate], fault routing), so threads of one task genuinely
    share an address space while threads of different tasks context
    switch.  The simulation is deterministic: CPUs are filled in order
    and the ready queue is FIFO. *)

type t

val create : Kernel.t -> t
(** [create kernel] is a scheduler over [kernel]'s machine. *)

val spawn : t -> task:Task.t -> Kthread.step list -> Kthread.t
(** [spawn t ~task steps] creates a thread and enqueues it. *)

val run : t -> unit
(** [run t] steps until nothing is runnable.  It fails after 100,000
    rounds, which guards against runaway threads. *)

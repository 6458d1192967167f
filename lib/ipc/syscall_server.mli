(** The kernel as a message server for the Table 2-1 operations.

    "Operations on objects other than messages are performed by sending
    messages to ports ...  All VM operations apply to a target task
    (represented by a port)."  This module gives every task a port and
    implements the virtual memory operations as a message protocol: a
    request message carries the operation name and scalar arguments; the
    reply carries a kern_return code and any results.  {!call} performs
    the send, lets the kernel task service its queue, and receives the
    reply — so the message path is really exercised, not short-circuited.

    Wire formats ([msg_tag], [msg_ints], items):
    - [vm_allocate]   ints [size; anywhere(0/1); addr_hint]  -> [kr; addr]
    - [vm_deallocate] ints [addr; size]                      -> [kr]
    - [vm_protect]    ints [addr; size; set_max; prot_bits]  -> [kr]
    - [vm_inherit]    ints [addr; size; inherit_code]        -> [kr]
    - [vm_copy]       ints [src; dst; size]                  -> [kr]
    - [vm_read]       ints [addr; size]                      -> [kr] + Inline data
    - [vm_write]      ints [addr] + Inline data              -> [kr]
    - [vm_regions]    ints []                -> [kr; n; (start end prot max inh shared cow)*]
    - [vm_statistics] ints []                -> [kr; page_size; total; free; active; inactive; faults; zero; cow; pager_reads; pageouts]

    Task lifecycle (the act of creating a task returns access rights to a
    port which represents the new object):
    - [task_fork]      ints []  -> [kr] + Port_right (the child's port)
    - [task_terminate] ints []  -> [kr]

    [prot_bits]: bit 0 read, bit 1 write, bit 2 execute.
    [inherit_code]: 0 shared, 1 copy, 2 none. *)

type t
(** The ports one kernel has handed out for its tasks and threads, one
    port per object.  Made by the first user of IPC on that kernel; a
    kernel without one allocates nothing for IPC. *)

val create : Mach_core.Kernel.t -> t
(** [create kernel] is [kernel]'s message server, with no ports yet. *)

val task_create : t -> Ipc.port
(** [task_create srv] creates a task in [srv]'s kernel and returns its
    port — the message-world equivalent of
    {!Mach_core.Kernel.create_task}. *)

val task_port : t -> Mach_core.Task.t -> Ipc.port
(** [task_port srv task] is the port representing [task], a task of
    [srv]'s kernel (memoized; this is what task_create would hand back).
    The port names its task and kernel, so every request above,
    [task_fork] and [task_terminate] included, works on it. *)

val thread_port : t -> Mach_core.Kthread.t -> Ipc.port
(** [thread_port srv th] is the port representing [th]; "a thread can
    suspend another thread by sending a suspend message to that thread's
    thread port even if the requesting thread is on another node".
    Understands [thread_suspend] and [thread_resume] (empty ints; reply
    [kr]). *)

val call : Mach_core.Vm_sys.t -> Ipc.port -> Ipc.message -> Ipc.message
(** [call sys port request] performs one kernel operation by message:
    enqueues [request] on [port], services it in the kernel the port's
    object belongs to, and returns the reply; [sys] pays for the message
    traffic.  Unknown tags, and every request to the port of a task
    that has terminated, answer with [KERN_INVALID_ARGUMENT];
    [Invalid_argument] if [port] stands for no task or thread. *)

val kr_of_reply : Ipc.message -> (unit, Mach_core.Kr.t) result
(** Decode the leading kern_return code of a reply. *)

val prot_bits : Mach_hw.Prot.t -> int
val prot_of_bits : int -> Mach_hw.Prot.t

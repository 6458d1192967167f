(** Ports and messages (Section 2).

    A port is a communication channel — logically a queue for messages
    protected by the kernel; a message is a typed collection of data that
    may carry inline bytes, port rights, and {e out-of-line} memory.  The
    key to efficiency in Mach is that virtual memory management is
    integrated with communication: large amounts of data, including whole
    address spaces, are sent in a single message with the efficiency of
    simple memory remapping — the out-of-line item is a copy-on-write
    {!Mach_core.Vm_map.map_copy}, not a data copy.

    The simulation is single-threaded: [send] enqueues, [receive]
    dequeues; there is no blocking.  Costs are charged to the sending or
    receiving task's CPU clock. *)

type kobject = ..
(** The kernel object a port stands for (Section 2: a task or thread is
    represented by a port).  Open so that {!Syscall_server}, which sits
    above this module, can add its task and thread objects; the port
    itself then says what a message to it operates on. *)

type kobject += No_object
(** A plain message queue that stands for nothing. *)

type port
(** A kernel message queue. *)

type item =
  | Inline of Bytes.t
      (** data copied into and out of the message *)
  | Out_of_line of Mach_core.Vm_map.map_copy
      (** memory moved by reference, copy-on-write *)
  | Port_right of port
      (** a capability to another port *)

type message = {
  msg_tag : string;        (** operation name, e.g. ["pager_data_request"] *)
  msg_ints : int list;     (** small scalar arguments *)
  msg_items : item list;
  msg_reply_to : port option;
}

val create_port : unit -> port
(** [create_port ()] is a fresh empty port standing for [No_object]. *)

val object_port : kobject -> port
(** [object_port obj] is a fresh empty port standing for [obj]. *)

val port_object : port -> kobject
(** What the port stands for. *)

val message :
  ?ints:int list -> ?items:item list -> ?reply_to:port -> string -> message
(** [message tag] builds a message. *)

val send : Mach_core.Vm_sys.t -> port -> message -> unit
(** [send sys p m] enqueues [m] on [p], charging the kernel-call cost plus
    a copy cost for every inline byte.  Out-of-line items cost nothing
    per byte here — their price was paid (in reference manipulation) when
    the copy was extracted. *)

val receive : Mach_core.Vm_sys.t -> port -> message option
(** [receive sys p] dequeues the oldest message, charging the kernel-call
    cost plus inline copy costs. *)

val send_region :
  Mach_core.Vm_sys.t -> Mach_core.Task.t -> port -> tag:string ->
  addr:int -> size:int -> (unit, Mach_core.Kr.t) result
(** [send_region sys task p ~tag ~addr ~size] sends [task]'s memory
    range as one out-of-line message: the range is extracted
    copy-on-write.  A sender that moves the range rather than copying it
    deallocates it afterwards ({!Mach_core.Vm_user.deallocate}). *)

val receive_region :
  Mach_core.Vm_sys.t -> Mach_core.Task.t -> port ->
  (int * int, Mach_core.Kr.t) result
(** [receive_region sys task p] receives a message whose first item is
    out-of-line memory and maps it anywhere into [task]'s space, returning
    [(address, size)].  [Invalid_argument] if the queue is empty or the
    message has no out-of-line item. *)

val discard_message : Mach_core.Vm_sys.t -> message -> unit
(** Release any out-of-line memory of an unwanted message. *)

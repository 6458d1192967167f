(** External pagers speaking the message interface of Tables 3-1 and 3-2.

    A pager may be an external user-state task: the kernel sends
    [pager_data_request]/[pager_data_write] messages on the memory
    object's {e paging_object} port, and the pager answers with
    [pager_data_provided]/[pager_data_unavailable] on the request port.
    The simulation is single-threaded, so after posting a request the
    kernel runs the pager task's handler on queued messages until the
    reply arrives.

    "Simple pagers can be implemented by largely ignoring the more
    sophisticated interface calls and implementing a trivial read/write
    object mechanism" — {!trivial_store} is exactly that, and doubles as
    the example external pager. *)

type handler = Mach_ipc.Ipc.message -> Mach_ipc.Ipc.message option
(** The pager task's service routine ([pager_server] of Table 3-1): takes
    one incoming kernel message, optionally returns the reply to post on
    the message's reply port. *)

val make :
  Mach_core.Vm_sys.t -> name:string -> handler:handler ->
  Mach_core.Types.pager * (unit -> int)
(** [make sys ~name ~handler] wraps [handler] as a kernel-usable pager:
    page faults on objects managed by it become [pager_data_request]
    messages; pageouts become [pager_data_write] messages.  The pager
    starts uncached; [pager_cache] ({!Mach_core.Pager_ops.set_caching})
    changes that.  The function returned alongside reads how many
    [pager_data_request] messages the pager has answered so far. *)

val trivial_store :
  Mach_core.Vm_sys.t -> name:string -> unit ->
  Mach_core.Types.pager * (int, Bytes.t) Hashtbl.t * (unit -> int)
(** [trivial_store sys ~name ()] is a complete external pager backed by an
    offset-indexed table (returned alongside, so tests and examples can
    pre-load or inspect it), and its answered-request count as from
    {!make}.  Unknown offsets answer [pager_data_unavailable]. *)

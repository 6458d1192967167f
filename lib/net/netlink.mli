(** A simulated network link between machines.

    Section 6: Mach's memory/communication integration extends
    transparently into a distributed environment — "tasks may map into
    their address spaces references to memory objects which can be
    implemented by pagers anywhere on the network".  This module provides
    the substrate: request/response exchanges between simulated machines,
    charging latency and per-byte transfer time to {e both} ends'
    clocks. *)

type t
(** A link between two or more machines. *)

val create : Mach_hw.Machine.t list -> t
(** [create machines] links the machines over mid-1980s Ethernet:
    1000 us latency per exchange and 10 Mbit/s.  Raises
    [Invalid_argument] on an empty list. *)

val rpc :
  t -> from_node:int -> from_cpu:int -> to_node:int -> to_cpu:int ->
  request_bytes:int -> reply_bytes:int -> (unit -> 'a) -> 'a
(** [rpc t ~from_node ~from_cpu ~to_node ~to_cpu ~request_bytes
    ~reply_bytes f] is one request/reply exchange: both ends pay the
    latency and wire time of [request_bytes + reply_bytes] on their own
    clocks, [f] runs on the server, and the caller waits out the
    server's service time (converted to the caller's clock rate).  The
    result is [f ()]. *)

val messages : t -> int
(** Exchanges performed so far. *)

val bytes_moved : t -> int
(** Total payload bytes carried (both directions). *)

val reset_counters : t -> unit

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

exception Timeout
(** An exchange got no reply: the (injected) network dropped it and the
    caller waited out its timeout window. *)

val create :
  ?latency_us:int -> ?mbit_per_s:int -> ?timeout_us:int ->
  Mach_hw.Machine.t list -> t
(** [create machines] links the machines.  Defaults model mid-1980s
    Ethernet: 1000 us latency per exchange, 10 Mbit/s, and a 100 ms
    no-reply timeout. *)

val rpc_retry :
  ?attempts:int ->
  t -> from_node:int -> from_cpu:int -> to_node:int -> to_cpu:int ->
  request_bytes:int -> reply_bytes:int -> (unit -> 'a) -> 'a
(** [rpc_retry t ... f] is {!rpc} wrapped in a timeout/retry/backoff
    envelope: a {!Timeout} is retried (up to [attempts] total tries,
    default 4) after an exponential backoff charged to the caller;
    exhaustion re-raises {!Timeout}. *)

val messages : t -> int
(** Exchanges performed so far. *)

val bytes_moved : t -> int
(** Total payload bytes carried (both directions). *)

val reset_counters : t -> unit

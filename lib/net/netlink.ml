open Mach_hw

exception Timeout

type t = {
  machines : Machine.t array;
  latency_us : int;
  mbit_per_s : int;
  timeout_us : int;
  mutable messages : int;
  mutable bytes_moved : int;
}

let create ?(latency_us = 1000) ?(mbit_per_s = 10) ?(timeout_us = 100_000)
    machines =
  if machines = [] then invalid_arg "Netlink.create: no machines";
  { machines = Array.of_list machines; latency_us; mbit_per_s; timeout_us;
    messages = 0; bytes_moved = 0 }

(* Cycles a transfer of [bytes] costs on [machine]: latency plus wire
   time, both expressed through that machine's clock rate. *)
let transfer_cycles t machine bytes =
  let arch = Machine.arch machine in
  let per_ms = arch.Arch.cycles_per_ms in
  let latency = t.latency_us * per_ms / 1000 in
  (* wire time: bytes * 8 bits at mbit_per_s -> microseconds *)
  let wire_us = bytes * 8 / t.mbit_per_s in
  latency + (wire_us * per_ms / 1000)

let timeout_cycles t machine =
  let arch = Machine.arch machine in
  t.timeout_us * arch.Arch.cycles_per_ms / 1000

let rpc t ~from_node ~from_cpu ~to_node ~to_cpu ~request_bytes ~reply_bytes f =
  let src = t.machines.(from_node) in
  let dst = t.machines.(to_node) in
  t.messages <- t.messages + 2;
  t.bytes_moved <- t.bytes_moved + request_bytes + reply_bytes;
  (* Request travels; server computes; reply travels.  The remote service
     time is measured on the remote clock and mirrored onto the caller,
     who blocks for it. *)
  Machine.charge src ~cpu:from_cpu
    (transfer_cycles t src (request_bytes + reply_bytes));
  Machine.charge dst ~cpu:to_cpu
    (transfer_cycles t dst (request_bytes + reply_bytes));
  let before = Machine.cycles dst ~cpu:to_cpu in
  let result = f () in
  let service = Machine.cycles dst ~cpu:to_cpu - before in
  let src_arch = Machine.arch src and dst_arch = Machine.arch dst in
  let mirrored =
    service * src_arch.Arch.cycles_per_ms / dst_arch.Arch.cycles_per_ms
  in
  Machine.charge src ~cpu:from_cpu mirrored;
  result

(* Retry envelope: re-send a timed-out exchange with exponential backoff
   charged to the caller, in the style of every datagram RPC stack since
   Courier.  Exhausting [attempts] re-raises {!Timeout}. *)
let rpc_retry ?(attempts = 4) t ~from_node ~from_cpu ~to_node ~to_cpu
    ~request_bytes ~reply_bytes f =
  let src = t.machines.(from_node) in
  let base = timeout_cycles t src / 4 in
  let rec go n =
    match
      rpc t ~from_node ~from_cpu ~to_node ~to_cpu ~request_bytes
        ~reply_bytes f
    with
    | result -> result
    | exception Timeout ->
      if n + 1 >= attempts then raise Timeout
      else begin
        Machine.charge src ~cpu:from_cpu (base * (1 lsl n));
        go (n + 1)
      end
  in
  go 0

let messages t = t.messages

let bytes_moved t = t.bytes_moved

let reset_counters t =
  t.messages <- 0;
  t.bytes_moved <- 0

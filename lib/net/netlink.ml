open Mach_hw

(* Mid-1980s Ethernet: latency per exchange and bandwidth. *)
let latency_us = 1000
let mbit_per_s = 10

type t = {
  machines : Machine.t array;
  mutable messages : int;
  mutable bytes_moved : int;
}

let create machines =
  if machines = [] then invalid_arg "Netlink.create: no machines";
  { machines = Array.of_list machines; messages = 0; bytes_moved = 0 }

(* Cycles a transfer of [bytes] costs on [machine]: latency plus wire
   time, both expressed through that machine's clock rate. *)
let transfer_cycles machine bytes =
  let arch = Machine.arch machine in
  let per_ms = arch.Arch.cycles_per_ms in
  let latency = latency_us * per_ms / 1000 in
  (* wire time: bytes * 8 bits at mbit_per_s -> microseconds *)
  let wire_us = bytes * 8 / mbit_per_s in
  latency + (wire_us * per_ms / 1000)

let rpc t ~from_node ~from_cpu ~to_node ~to_cpu ~request_bytes ~reply_bytes f =
  let src = t.machines.(from_node) in
  let dst = t.machines.(to_node) in
  t.messages <- t.messages + 2;
  t.bytes_moved <- t.bytes_moved + request_bytes + reply_bytes;
  (* Request travels; server computes; reply travels.  The remote service
     time is measured on the remote clock and mirrored onto the caller,
     who blocks for it. *)
  Machine.charge src ~cpu:from_cpu
    (transfer_cycles src (request_bytes + reply_bytes));
  Machine.charge dst ~cpu:to_cpu
    (transfer_cycles dst (request_bytes + reply_bytes));
  let before = Machine.cycles dst ~cpu:to_cpu in
  let result = f () in
  let service = Machine.cycles dst ~cpu:to_cpu - before in
  let src_arch = Machine.arch src and dst_arch = Machine.arch dst in
  let mirrored =
    service * src_arch.Arch.cycles_per_ms / dst_arch.Arch.cycles_per_ms
  in
  Machine.charge src ~cpu:from_cpu mirrored;
  result

let messages t = t.messages

let bytes_moved t = t.bytes_moved

let reset_counters t =
  t.messages <- 0;
  t.bytes_moved <- 0

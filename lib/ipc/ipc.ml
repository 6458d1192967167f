open Mach_hw
open Mach_core

type kobject = ..

type kobject += No_object

type port = { p_object : kobject; p_queue : message Queue.t }

and item =
  | Inline of Bytes.t
  | Out_of_line of Vm_map.map_copy
  | Port_right of port

and message = {
  msg_tag : string;
  msg_ints : int list;
  msg_items : item list;
  msg_reply_to : port option;
}

let object_port obj = { p_object = obj; p_queue = Queue.create () }

let create_port () = object_port No_object

let port_object p = p.p_object

let message ?(ints = []) ?(items = []) ?reply_to tag =
  { msg_tag = tag; msg_ints = ints; msg_items = items;
    msg_reply_to = reply_to }

let inline_bytes m =
  List.fold_left
    (fun acc item ->
       match item with
       | Inline b -> acc + Bytes.length b
       | Out_of_line _ | Port_right _ -> acc)
    0 m.msg_items

let charge_transfer sys m =
  let cost = Vm_sys.cost sys in
  Vm_sys.charge sys cost.Arch.syscall;
  let b = inline_bytes m in
  Vm_sys.charge sys (((b + 15) / 16) * cost.Arch.move_16b)

let send sys p m =
  charge_transfer sys m;
  Queue.add m p.p_queue

let receive sys p =
  match Queue.take_opt p.p_queue with
  | None -> None
  | Some m ->
    charge_transfer sys m;
    Some m

let send_region sys task p ~tag ~addr ~size =
  Result.map
    (fun copy -> send sys p (message tag ~items:[ Out_of_line copy ]))
    (Vm_map.extract_copy sys (Task.map task) ~addr ~size)

let receive_region sys task p =
  match receive sys p with
  | None -> Error Kr.Invalid_argument
  | Some m ->
    let rec first_ool = function
      | [] -> None
      | Out_of_line c :: _ -> Some c
      | (Inline _ | Port_right _) :: rest -> first_ool rest
    in
    (match first_ool m.msg_items with
     | None -> Error Kr.Invalid_argument
     | Some copy ->
       (match Vm_map.insert_copy sys (Task.map task) copy () with
        | Error _ as e -> e
        | Ok addr -> Ok (addr, Vm_map.copy_size copy)))

let discard_message sys m =
  List.iter
    (fun item ->
       match item with
       | Out_of_line c -> Vm_map.discard_copy sys c
       | Inline _ | Port_right _ -> ())
    m.msg_items

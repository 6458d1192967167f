open Mach_core
open Mach_ipc
open Types

type handler = Ipc.message -> Ipc.message option

(* Run the pager task on its queued messages until one reply lands on
   [reply_port].  [None] is the no-reply case — the pager dropped the
   request or span its queue past the kernel's deadline — which the
   caller must treat as a pager failure, never a crash: an external
   pager is untrusted code. *)
let dispatch_until_reply sys ~object_port ~reply_port ~handler =
  let guard = ref 0 in
  let rec loop () =
    match Ipc.receive sys reply_port with
    | Some reply -> Some reply
    | None ->
      incr guard;
      if !guard > 64 then None
      else
        (match Ipc.receive sys object_port with
         | None -> None
         | Some req ->
           (match handler req with
            | Some reply ->
              (match req.Ipc.msg_reply_to with
               | Some p -> Ipc.send sys p reply
               | None -> ())
            | None -> ());
           loop ())
  in
  loop ()

let make sys ~name ~handler =
  let id = Vm_sys.fresh_pager_id sys in
  let object_port = Ipc.create_port () in
  let reply_port = Ipc.create_port () in
  let served = ref 0 in
  let request ~offset ~length =
    Ipc.send sys object_port
      (Ipc.message "pager_data_request" ~ints:[ offset; length ]
         ~reply_to:reply_port);
    match dispatch_until_reply sys ~object_port ~reply_port ~handler with
    | None ->
      (* No reply within the deadline: report the timeout and fail the
         request so Pager_guard can retry or degrade. *)
      if Mach_obs.Obs.enabled (Vm_sys.tracer sys) then
        Vm_sys.emit sys
          (Mach_obs.Obs.Pager_timeout { offset });
      Data_error
    | Some reply ->
      incr served;
      (match reply.Ipc.msg_tag, reply.Ipc.msg_items with
       | "pager_data_provided", Ipc.Inline data :: _ ->
         Data_provided (Lent.of_bytes data, io_none)
       | "pager_data_unavailable", _ -> Data_unavailable
       (* pager_error, or any protocol violation from a hostile pager:
          an error reply, never a kernel crash. *)
       | _, _ -> Data_error)
  in
  (* pager_init (Table 3-1): tell the new pager about its object and
     request port before any data traffic. *)
  Ipc.send sys object_port
    (Ipc.message "pager_init" ~reply_to:reply_port);
  (match Ipc.receive sys object_port with
   | Some req -> ignore (handler req)
   | None -> ());
  let write ~offset ~data =
    (* The data travels in the message: it is copied out of the lent
       frames here, as a Mach message carries it. *)
    Ipc.send sys object_port
      (Ipc.message "pager_data_write" ~ints:[ offset ]
         ~items:[ Ipc.Inline (Lent.to_bytes data) ]);
    (* Writes need no reply; let the pager absorb its queue.  A handler
       that raises is a crashed pager: the kernel keeps the page dirty. *)
    match Ipc.receive sys object_port with
    | Some req ->
      (match handler req with
       | Some { Ipc.msg_tag = ("pager_error" | "pager_write_error"); _ } ->
         Write_error
       | Some _ | None -> Write_completed
       | exception _ -> Write_error)
    | None -> Write_completed
  in
  ( {
      pgr_id = id;
      pgr_name = name;
      pgr_request = request;
      pgr_write = write;
      pgr_should_cache = ref false;
    },
    fun () -> !served )

let trivial_store sys ~name () =
  let store : (int, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
  let initialized = ref false in
  let handler (m : Ipc.message) =
    match m.Ipc.msg_tag, m.Ipc.msg_ints with
    | "pager_init", _ ->
      initialized := true;
      None
    | "pager_data_request", offset :: length :: _ ->
      (match Hashtbl.find_opt store offset with
       | Some data ->
         Some
           (Ipc.message "pager_data_provided" ~ints:[ offset ]
              ~items:[ Ipc.Inline (Bytes.sub data 0 (min length (Bytes.length data))) ])
       | None ->
         Some (Ipc.message "pager_data_unavailable" ~ints:[ offset; length ]))
    | "pager_data_write", offset :: _ ->
      (match m.Ipc.msg_items with
       | Ipc.Inline data :: _ ->
         (* Clustered pageouts hand over several pages in one message;
            store page-size chunks so later per-page requests find
            their piece (the range contract on [pgr_write]). *)
         let ps = sys.Vm_sys.page_size in
         let len = Bytes.length data in
         let pos = ref 0 in
         while !pos < len do
           let take = min ps (len - !pos) in
           Hashtbl.replace store (offset + !pos) (Bytes.sub data !pos take);
           pos := !pos + take
         done
       | _ -> ());
      None
    | tag, _ -> failwith ("trivial_store: unexpected message " ^ tag)
  in
  ignore initialized;
  let pager, served = make sys ~name ~handler in
  (pager, store, served)

open Mach_core
open Mach_pagers
open Types

type server = {
  srv_node : int;
  srv_sys : Vm_sys.t;
  srv_fs : Simfs.t;
  srv_imports : (int * string, pager) Hashtbl.t;
      (* memoized per (client node, file): repeated imports reach the
         same pager and hence the same client-side memory object *)
}

let serve ~node sys fs =
  { srv_node = node; srv_sys = sys; srv_fs = fs;
    srv_imports = Hashtbl.create 32 }

let remote_size srv ~name = Simfs.file_size srv.srv_fs ~name

(* Serve a read on the server node, through its page cache. *)
let server_read srv ~name ~offset ~len =
  Vnode_pager.read_through_object srv.srv_sys srv.srv_fs ~name ~offset ~len

let make_pager link ~node (client_sys : Vm_sys.t) srv ~name =
  let id = Vm_sys.fresh_pager_id client_sys in
  let client_cpu () = Vm_sys.current_cpu client_sys in
  let server_cpu = 0 in
  (* Range requests batch naturally: a clustered pagein moves all its
     frames in one RPC ([reply_bytes = len]), paying the network's
     fixed per-message cost once, and the server side reads the range
     through its own (clustered) page cache. *)
  {
    pgr_id = id;
    pgr_name = Printf.sprintf "net:%d:%s" srv.srv_node name;
    pgr_request =
      (fun ~offset ~length ->
         let size = remote_size srv ~name in
         if offset >= size then Data_unavailable
         else begin
           let len = min length (size - offset) in
           let data =
             Netlink.rpc link ~from_node:node ~from_cpu:(client_cpu ())
               ~to_node:srv.srv_node ~to_cpu:server_cpu ~request_bytes:64
               ~reply_bytes:len
               (fun () -> server_read srv ~name ~offset ~len)
           in
           Data_provided (Lent.of_bytes data, io_none)
         end);
    pgr_write =
      (fun ~offset ~data ->
         (* The RPC payload is a copy: the frames are lent only for this
            call, and the server's write runs on another kernel. *)
         let data = Lent.to_bytes data in
         match
           Netlink.rpc link ~from_node:node ~from_cpu:(client_cpu ())
             ~to_node:srv.srv_node ~to_cpu:server_cpu
             ~request_bytes:(64 + Bytes.length data) ~reply_bytes:32
             (fun () ->
                Simfs.write srv.srv_fs ~cpu:server_cpu ~name ~offset
                  ~data:(Lent.of_bytes data))
         with
         | () -> Write_completed
         | exception Simdisk.Io_error ->
           (* The server's own disk failed the write. *)
           Write_error);
    pgr_should_cache = ref true;
  }

let import link ~node client_sys srv ~name =
  if not (Simfs.exists srv.srv_fs ~name) then raise Not_found;
  let key = (node, name) in
  match Hashtbl.find_opt srv.srv_imports key with
  | Some p -> p
  | None ->
    let p = make_pager link ~node client_sys srv ~name in
    Hashtbl.add srv.srv_imports key p;
    p

let map_remote link ~node client_sys task srv ~name () =
  Pager_map.map_object client_sys task ~resolve:(fun () ->
      (import link ~node client_sys srv ~name, remote_size srv ~name))

let fetch_whole link ~node client_sys srv ~name =
  let size = remote_size srv ~name in
  Netlink.rpc link ~from_node:node
    ~from_cpu:(Vm_sys.current_cpu client_sys) ~to_node:srv.srv_node
    ~to_cpu:0 ~request_bytes:64 ~reply_bytes:size
    (fun () -> server_read srv ~name ~offset:0 ~len:size)

open Mach_util
open Mach_pagers

type key = string * int (* file name, block index within the file *)

type t = {
  fs : Simfs.t;
  capacity : int;
  table : (key, Bytes.t * key Dlist.node) Hashtbl.t;
  lru : key Dlist.t; (* most recent at back *)
}

let create fs ~buffers =
  if buffers <= 0 then invalid_arg "Buffer_cache.create";
  { fs; capacity = buffers; table = Hashtbl.create (2 * buffers);
    lru = Dlist.create () }

let block_size t = Simdisk.block_size (Simfs.disk t.fs)

let touch t key node =
  Dlist.remove t.lru node;
  let node' = Dlist.push_back t.lru key in
  node'

let evict_if_full t =
  if Hashtbl.length t.table >= t.capacity then
    match Dlist.pop_front t.lru with
    | Some victim -> Hashtbl.remove t.table victim
    | None -> ()

let insert t key data =
  evict_if_full t;
  let node = Dlist.push_back t.lru key in
  Hashtbl.replace t.table key (data, node)

(* Fetch one whole block through the cache. *)
let get_block t ~cpu ~name ~idx =
  let key = (name, idx) in
  match Hashtbl.find_opt t.table key with
  | Some (data, node) ->
    let node' = touch t key node in
    Hashtbl.replace t.table key (data, node');
    data
  | None ->
    let bs = block_size t in
    let data = Simfs.read t.fs ~cpu ~name ~offset:(idx * bs) ~len:bs in
    let data =
      if Bytes.length data = bs then data
      else begin
        (* short block at end of file: pad for the cache *)
        let b = Bytes.make bs '\000' in
        Bytes.blit data 0 b 0 (Bytes.length data);
        b
      end
    in
    insert t key data;
    data

let read t ~cpu ~name ~offset ~len =
  let size = Simfs.file_size t.fs ~name in
  if offset >= size || len <= 0 then Bytes.create 0
  else begin
    let len = min len (size - offset) in
    let bs = block_size t in
    let buf = Bytes.create len in
    let rec loop pos =
      if pos < len then begin
        let abs = offset + pos in
        let idx = abs / bs in
        let boff = abs mod bs in
        let chunk = min (bs - boff) (len - pos) in
        let data = get_block t ~cpu ~name ~idx in
        Bytes.blit data boff buf pos chunk;
        loop (pos + chunk)
      end
    in
    loop 0;
    buf
  end

let write t ~cpu ~name ~offset ~data =
  Simfs.write t.fs ~cpu ~name ~offset ~data:(Mach_core.Lent.of_bytes data);
  (* Keep cached copies coherent (write-through). *)
  let bs = block_size t in
  let len = Bytes.length data in
  let rec loop pos =
    if pos < len then begin
      let abs = offset + pos in
      let idx = abs / bs in
      let key = (name, idx) in
      (match Hashtbl.find_opt t.table key with
       | Some (cached, node) ->
         let boff = abs mod bs in
         let chunk = min (bs - boff) (len - pos) in
         Bytes.blit data pos cached boff chunk;
         let node' = touch t key node in
         Hashtbl.replace t.table key (cached, node')
       | None -> ());
      loop (pos + (bs - (abs mod bs)))
    end
  in
  loop 0

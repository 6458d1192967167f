module Lent = Mach_core.Lent

type inode = { mutable blocks : int array; mutable size : int }

type t = {
  machine : Mach_hw.Machine.t;
  disk : Simdisk.t;
  table : (string, inode) Hashtbl.t;
  pagers : (string, Mach_core.Types.pager) Hashtbl.t;
  mutable next_block : int;
}

let create machine () =
  { machine;
    disk = Simdisk.create machine ~block_size:4096;
    table = Hashtbl.create 64;
    pagers = Hashtbl.create 64;
    next_block = 0 }

let pager t ~name make =
  match Hashtbl.find_opt t.pagers name with
  | Some p -> p
  | None ->
    let p = make () in
    Hashtbl.add t.pagers name p;
    p

let disk t = t.disk

let bs t = Simdisk.block_size t.disk

let alloc_block t =
  let b = t.next_block in
  t.next_block <- b + 1;
  b

let blocks_for t size = (size + bs t - 1) / bs t

(* Grow (or create) the inode to hold [size] bytes. *)
let ensure_inode t ~name ~size =
  let ino =
    match Hashtbl.find_opt t.table name with
    | Some ino -> ino
    | None ->
      let ino = { blocks = [||]; size = 0 } in
      Hashtbl.add t.table name ino;
      ino
  in
  let needed = blocks_for t size in
  if Array.length ino.blocks < needed then begin
    let extra =
      Array.init (needed - Array.length ino.blocks) (fun _ -> alloc_block t)
    in
    ino.blocks <- Array.append ino.blocks extra
  end;
  if size > ino.size then ino.size <- size;
  ino

let install_file t ~name ~data =
  Hashtbl.remove t.table name;
  let size = Bytes.length data in
  let ino = ensure_inode t ~name ~size in
  ino.size <- size;
  let block_size = bs t in
  Array.iteri
    (fun i b ->
       let off = i * block_size in
       let len = min block_size (size - off) in
       if len > 0 then Simdisk.install t.disk ~block:b ~pos:off ~len data)
    ino.blocks

let exists t ~name = Hashtbl.mem t.table name

let file_size t ~name =
  match Hashtbl.find_opt t.table name with
  | Some ino -> ino.size
  | None -> raise Not_found

(* Walk bytes [offset, offset + len) of [ino] as disk requests: a
   block-aligned whole-block span over physically consecutive blocks
   (inode blocks are usually allocated sequentially) is one run, so a
   clustered pager request pays the seek once; a partial block is a
   one-block request of its own.  [f ~pos ~first ~count ~boff ~chunk]
   moves bytes [pos .. pos + chunk) of the transfer, starting [boff]
   bytes into block [first]; [chunk = count * block size] exactly when
   the span is whole blocks. *)
let iter_spans t ino ~offset ~len f =
  let block_size = bs t in
  let rec loop pos =
    if pos < len then begin
      let abs = offset + pos in
      let bidx = abs / block_size in
      let boff = abs mod block_size in
      let first = ino.blocks.(bidx) in
      if boff = 0 && len - pos >= block_size then begin
        let max_count = (len - pos) / block_size in
        let count = ref 1 in
        while
          !count < max_count && ino.blocks.(bidx + !count) = first + !count
        do
          incr count
        done;
        f ~pos ~first ~count:!count ~boff ~chunk:(!count * block_size);
        loop (pos + (!count * block_size))
      end
      else begin
        let chunk = min (block_size - boff) (len - pos) in
        f ~pos ~first ~count:1 ~boff ~chunk;
        loop (pos + chunk)
      end
    end
  in
  loop 0

(* Every run of a transfer is submitted before any is waited on, each
   starting after the one before it; the caller sees one stamp: the
   latest completion, the summed service time, and a start late enough
   that [Machine.io_landed] never puts a byte of [b] (which follows
   [a]'s bytes in the transfer) earlier than its own run lands it. *)
let join (a : Mach_hw.Machine.io) (b : Mach_hw.Machine.io) =
  { Mach_hw.Machine.io_start =
      max a.io_start (b.io_start - (a.io_completion - a.io_start));
    io_completion = max a.io_completion b.io_completion;
    io_service = a.io_service + b.io_service }

(* The reply lends the disk's blocks: a whole-block run is its blocks,
   a partial block the part of it the transfer covers. *)
let submit_read t ~cpu ~name ~offset ~len =
  match Hashtbl.find_opt t.table name with
  | None -> raise Not_found
  | Some ino ->
    if offset >= ino.size || len <= 0 then ([], Mach_hw.Machine.io_none)
    else begin
      let len = min len (ino.size - offset) in
      let io = ref Mach_hw.Machine.io_none in
      let runs = ref [] in
      iter_spans t ino ~offset ~len (fun ~pos:_ ~first ~count ~boff ~chunk ->
          let data, run =
            Simdisk.lend_run t.disk ~cpu ~after:!io.io_completion ~first
              ~count
          in
          io := join !io run;
          let data =
            if chunk = count * bs t then data
            else
              List.map
                (fun s -> { s with Lent.pos = boff; len = chunk })
                data
          in
          runs := data :: !runs);
      (List.concat (List.rev !runs), !io)
    end

let submit_write t ~cpu ~name ~offset ~len ~data =
  let ino = ensure_inode t ~name ~size:(offset + len) in
  let block_size = bs t in
  let io = ref Mach_hw.Machine.io_none in
  let submit run = io := join !io run in
  iter_spans t ino ~offset ~len (fun ~pos ~first ~count ~boff ~chunk ->
      let after = !io.io_completion in
      if chunk = count * block_size then
        submit
          (Simdisk.submit_write_run t.disk ~cpu ~after ~first ~pos ~len:chunk
             data)
      else begin
        (* A partial block is read, patched and written back. *)
        let block, run = Simdisk.lend_run t.disk ~cpu ~after ~first ~count:1 in
        submit run;
        let current = Lent.to_bytes block in
        Lent.blit data ~src:pos current ~dst_pos:boff ~len:chunk;
        submit
          (Simdisk.submit_write_run t.disk ~cpu ~after:!io.io_completion
             ~first (Lent.of_bytes current))
      end);
  !io

let read t ~cpu ~name ~offset ~len =
  let data, io = submit_read t ~cpu ~name ~offset ~len in
  Mach_hw.Machine.wait_io t.machine ~cpu io;
  Lent.to_bytes data

let write t ~cpu ~name ~offset ~data =
  Mach_hw.Machine.wait_io t.machine ~cpu
    (submit_write t ~cpu ~name ~offset ~len:(Bytes.length data)
       ~data:(Lent.of_bytes data))

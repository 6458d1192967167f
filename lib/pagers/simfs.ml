type inode = { mutable blocks : int array; mutable size : int }

type t = {
  disk : Simdisk.t;
  table : (string, inode) Hashtbl.t;
  pagers : (string, Mach_core.Types.pager) Hashtbl.t;
  mutable next_block : int;
}

let create machine ?(block_size = 4096) ?(queues = 1) () =
  { disk = Simdisk.create ~queues machine ~block_size;
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
       if len > 0 then Simdisk.install t.disk ~block:b (Bytes.sub data off len))
    ino.blocks

let exists t ~name = Hashtbl.mem t.table name

let file_size t ~name =
  match Hashtbl.find_opt t.table name with
  | Some ino -> ino.size
  | None -> raise Not_found

let read t ~cpu ~name ~offset ~len =
  match Hashtbl.find_opt t.table name with
  | None -> raise Not_found
  | Some ino ->
    if offset >= ino.size || len <= 0 then Bytes.create 0
    else begin
      let len = min len (ino.size - offset) in
      let buf = Bytes.create len in
      let block_size = bs t in
      (* Block-aligned whole-block spans are read as one disk request per
         physically consecutive run (inode blocks are usually allocated
         sequentially), so a clustered pager request pays the seek once.
         Single-block callers take the [run = 1] path at identical cost. *)
      let rec loop pos =
        if pos < len then begin
          let abs = offset + pos in
          let bidx = abs / block_size in
          let boff = abs mod block_size in
          if boff = 0 && len - pos >= block_size then begin
            let max_count = (len - pos) / block_size in
            let count = ref 1 in
            while
              !count < max_count
              && ino.blocks.(bidx + !count) = ino.blocks.(bidx) + !count
            do
              incr count
            done;
            let data =
              Simdisk.read_run t.disk ~cpu ~first:ino.blocks.(bidx)
                ~count:!count
            in
            Bytes.blit data 0 buf pos (!count * block_size);
            loop (pos + (!count * block_size))
          end
          else begin
            let chunk = min (block_size - boff) (len - pos) in
            let data = Simdisk.read t.disk ~cpu ~block:ino.blocks.(bidx) in
            Bytes.blit data boff buf pos chunk;
            loop (pos + chunk)
          end
        end
      in
      loop 0;
      buf
    end

let write t ~cpu ~name ~offset ~data =
  let len = Bytes.length data in
  let ino = ensure_inode t ~name ~size:(offset + len) in
  let block_size = bs t in
  (* Whole-block aligned spans over physically consecutive blocks go out
     as one clustered disk write; partial blocks read-modify-write
     individually, exactly as before. *)
  let rec loop pos =
    if pos < len then begin
      let abs = offset + pos in
      let bidx = abs / block_size in
      let boff = abs mod block_size in
      if boff = 0 && len - pos >= block_size then begin
        let max_count = (len - pos) / block_size in
        let count = ref 1 in
        while
          !count < max_count
          && ino.blocks.(bidx + !count) = ino.blocks.(bidx) + !count
        do
          incr count
        done;
        Simdisk.write_run t.disk ~cpu ~first:ino.blocks.(bidx)
          (Bytes.sub data pos (!count * block_size));
        loop (pos + (!count * block_size))
      end
      else begin
        let chunk = min (block_size - boff) (len - pos) in
        let block = ino.blocks.(bidx) in
        let current = Simdisk.read t.disk ~cpu ~block in
        Bytes.blit data pos current boff chunk;
        Simdisk.write t.disk ~cpu ~block current;
        loop (pos + chunk)
      end
    end
  in
  loop 0

(* Asynchronous variants: same run decomposition as [read]/[write], but
   each run is submitted to the device queue instead of waited on, and
   the aggregate (latest completion stamp, summed service time) is
   returned so the caller can block out the residue later.  With the
   async model off the submits charge synchronously, making these
   cost-identical to [read]/[write]. *)
let submit_read t ~cpu ~name ~offset ~len =
  match Hashtbl.find_opt t.table name with
  | None -> raise Not_found
  | Some ino ->
    if offset >= ino.size || len <= 0 then (Bytes.create 0, 0, 0)
    else begin
      let len = min len (ino.size - offset) in
      let buf = Bytes.create len in
      let block_size = bs t in
      let completion = ref 0 and service = ref 0 in
      let submit first count =
        let h = Simdisk.submit_read_run t.disk ~cpu ~first ~count in
        completion := max !completion (Simdisk.handle_completion h);
        service := !service + Simdisk.handle_service h;
        Simdisk.handle_data h
      in
      let rec loop pos =
        if pos < len then begin
          let abs = offset + pos in
          let bidx = abs / block_size in
          let boff = abs mod block_size in
          if boff = 0 && len - pos >= block_size then begin
            let max_count = (len - pos) / block_size in
            let count = ref 1 in
            while
              !count < max_count
              && ino.blocks.(bidx + !count) = ino.blocks.(bidx) + !count
            do
              incr count
            done;
            let data = submit ino.blocks.(bidx) !count in
            Bytes.blit data 0 buf pos (!count * block_size);
            loop (pos + (!count * block_size))
          end
          else begin
            let chunk = min (block_size - boff) (len - pos) in
            let data = submit ino.blocks.(bidx) 1 in
            Bytes.blit data boff buf pos chunk;
            loop (pos + chunk)
          end
        end
      in
      loop 0;
      (buf, !completion, !service)
    end

let submit_write t ~cpu ~name ~offset ~data =
  let len = Bytes.length data in
  let ino = ensure_inode t ~name ~size:(offset + len) in
  let block_size = bs t in
  let completion = ref 0 and service = ref 0 in
  let note h =
    completion := max !completion (Simdisk.handle_completion h);
    service := !service + Simdisk.handle_service h
  in
  let rec loop pos =
    if pos < len then begin
      let abs = offset + pos in
      let bidx = abs / block_size in
      let boff = abs mod block_size in
      if boff = 0 && len - pos >= block_size then begin
        let max_count = (len - pos) / block_size in
        let count = ref 1 in
        while
          !count < max_count
          && ino.blocks.(bidx + !count) = ino.blocks.(bidx) + !count
        do
          incr count
        done;
        note
          (Simdisk.submit_write_run t.disk ~cpu ~first:ino.blocks.(bidx)
             (Bytes.sub data pos (!count * block_size)));
        loop (pos + (!count * block_size))
      end
      else begin
        let chunk = min (block_size - boff) (len - pos) in
        let block = ino.blocks.(bidx) in
        let rh = Simdisk.submit_read_run t.disk ~cpu ~first:block ~count:1 in
        note rh;
        let current = Simdisk.handle_data rh in
        Bytes.blit data pos current boff chunk;
        note (Simdisk.submit_write_run t.disk ~cpu ~first:block current);
        loop (pos + chunk)
      end
    end
  in
  loop 0;
  (!completion, !service)

let delete t ~name = Hashtbl.remove t.table name

let files t = Hashtbl.fold (fun name _ acc -> name :: acc) t.table []

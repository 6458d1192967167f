open Mach_core
open Types

let make (sys : Vm_sys.t) fs ~name =
  let id = Vm_sys.fresh_pager_id sys in
  let cpu () = Vm_sys.current_cpu sys in
  {
    pgr_id = id;
    pgr_name = Printf.sprintf "vnode:%s" name;
    pgr_request =
      (fun ~offset ~length ->
         match Simfs.file_size fs ~name with
         | exception Not_found -> Data_unavailable
         | size ->
           if offset >= size then Data_unavailable
           else (
             (* An injected disk failure below Simfs surfaces as the
                protocol's error reply; the kernel's Pager_guard decides
                whether to retry. *)
             match
               Simfs.submit_read fs ~cpu:(cpu ()) ~name ~offset
                 ~len:(min length (size - offset))
             with
             | data, io -> Data_provided (data, io)
             | exception Simdisk.Io_error -> Data_error));
    pgr_write =
      (fun ~offset ~data ->
         (* The inode pager never grows the file: a mapped page's tail
            beyond end of file is zero-fill memory, not file contents. *)
         match Simfs.file_size fs ~name with
         | exception Not_found -> Write_completed
         | size ->
           if offset >= size then Write_completed
           else
             let len = min (Lent.length data) (size - offset) in
             (match
                Simfs.write fs ~cpu:(cpu ()) ~name ~offset
                  ~data:(Lent.truncate data len)
              with
              | () -> Write_completed
              | exception Simdisk.Io_error -> Write_error));
    pgr_should_cache = ref true;
  }

(* Memoized per (file system, file name): the paging_name identity that
   leads all mappings of a file to the same memory object. *)
let for_file sys fs ~name =
  if not (Simfs.exists fs ~name) then raise Not_found;
  Simfs.pager fs ~name (fun () -> make sys fs ~name)

let map_file sys fs task ~name () =
  Pager_map.map_object sys task ~resolve:(fun () ->
      (for_file sys fs ~name, Simfs.file_size fs ~name))

(* A read() through the file's memory object: hit resident pages for the
   price of a copy; fill missing pages from the pager and leave them
   resident (and the object cached), so the second read is cheap. *)
let read_through_object sys ?stream fs ~name ~offset ~len =
  let pager = for_file sys fs ~name in
  let size = Simfs.file_size fs ~name in
  let obj = Vm_object.create_with_pager sys pager ~size in
  let len = if offset >= size then 0 else min len (size - offset) in
  let ps = sys.Vm_sys.page_size in
  let buf = Bytes.create len in
  let rec loop pos =
    if pos < len then begin
      let abs = offset + pos in
      let page_off = abs - (abs mod ps) in
      let chunk = min (ps - (abs mod ps)) (len - pos) in
      let page =
        match Vm_object.lookup_resident sys obj ~offset:page_off with
        | Some p ->
          Vm_cluster.note_hit sys p;
          p
        | None ->
          (* Sequential reads ramp the reader's stream slot, so a
             streaming read() pulls whole clusters per disk request; the
             object (and its slots) persist in the object cache across
             reads.  Callers doing concurrent reads of one file pass
             distinct [?stream] keys so each ramps its own slot.
             Vm_cluster falls back to the guarded single-page path —
             retries, backoff, death — on any cluster trouble. *)
          (match Vm_cluster.pagein sys ?stream obj ~offset:page_off
                   ~limit:max_int
           with
           | `Data (p, _) ->
             Resident.activate sys.Vm_sys.resident p;
             p
           | `Absent | `Error ->
             (* A pager that fails for good degrades this read() to
                zeros rather than crashing the server path. *)
             let p = Vm_sys.grab_page sys in
             Resident.insert sys.Vm_sys.resident p ~obj ~offset:page_off;
             Page_io.zero sys p;
             sys.Vm_sys.stats.Vm_stats.vs_pager_reads <-
               sys.Vm_sys.stats.Vm_stats.vs_pager_reads + 1;
             Resident.activate sys.Vm_sys.resident p;
             p)
      in
      Page_io.blit_out sys page ~off:(abs mod ps) ~len:chunk buf ~pos;
      loop (pos + chunk)
    end
  in
  loop 0;
  Vm_object.deallocate sys obj;
  buf

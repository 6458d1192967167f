open Types
module Int_tbl = Mach_util.Int_tbl

(* Each store (offset -> page-size chunk) is registered by pager id in
   its kernel's [Vm_sys.swap_stores], so [stored_bytes]/[release] answer
   for a pager without widening the pager record (and keep working when
   the pager is wrapped by a decorator — wrapping preserves [pgr_id]). *)
let make (sys : Vm_sys.t) ~name =
  let id = Vm_sys.fresh_pager_id sys in
  let store : Bytes.t Int_tbl.t = Int_tbl.create 16 in
  Int_tbl.add sys.Vm_sys.swap_stores id store;
  let machine = sys.Vm_sys.machine in
  let cpu () = Vm_sys.current_cpu sys in
  let ps = sys.Vm_sys.page_size in
  (* Gather contiguous chunks from [offset] up: one disk transfer covers
     the whole gathered range, so a clustered request pays the seek once.
     The reply lends each chunk of the run, a head of the last one when
     the request ends inside it (the rule on {!Types.pager}).  No chunk
     at [offset] itself means the pager holds nothing there (the range
     contract). *)
  let gather ~offset ~length =
    let rec run got =
      if got >= length then []
      else
        match Int_tbl.find_opt store (offset + got) with
        | None -> []
        | Some d ->
          let take = min (Bytes.length d) (length - got) in
          let s = { Lent.buf = d; pos = 0; len = take } in
          if take = Bytes.length d then s :: run (got + take) else [ s ]
    in
    run 0
  in
  (* Bytes of [data] landing on offsets not yet stored: only new chunks
     commit pool space — rewriting a paged-out page in place is free. *)
  let new_bytes ~offset ~len =
    let fresh = ref 0 and pos = ref 0 in
    while !pos < len do
      let take = min ps (len - !pos) in
      if not (Int_tbl.mem store (offset + !pos)) then fresh := !fresh + take;
      pos := !pos + take
    done;
    !fresh
  in
  (* Stored in page-size chunks so later single-page requests find their
     piece.  Each piece is copied out of the lent [data] before the call
     returns: over the chunk an offset already holds, in place, or into a
     new chunk of its own. *)
  let scatter ~offset ~data ~len =
    let pos = ref 0 in
    while !pos < len do
      let take = min ps (len - !pos) in
      let off = offset + !pos in
      (match Int_tbl.find_opt store off with
       | Some chunk when Bytes.length chunk = take ->
         Lent.blit data ~src:!pos chunk ~dst_pos:0 ~len:take
       | Some _ | None ->
         Int_tbl.replace store off (Lent.sub data ~pos:!pos ~len:take));
      pos := !pos + take
    done
  in
  (* All-or-nothing capacity check against the shared pool: either the
     whole (possibly clustered) write fits and is committed, or nothing
     is stored and the kernel hears [Write_no_space] — it may then fall
     back to single-page writes, which need less fresh space. *)
  let reserve ~offset ~len = Vm_sys.swap_charge sys (new_bytes ~offset ~len) in
  {
    pgr_id = id;
    pgr_name = name;
    pgr_request =
      (fun ~offset ~length ->
         match gather ~offset ~length with
         | [] -> Data_unavailable
         | data ->
           Data_provided
             (data,
              Mach_hw.Machine.submit_disk machine ~cpu:(cpu ())
                ~bytes:(Lent.length data)));
    pgr_write =
      (fun ~offset ~data ->
         let len = Lent.length data in
         if not (reserve ~offset ~len) then Write_no_space
         else begin
           (* One disk transfer for the whole (possibly clustered) write. *)
           Mach_hw.Machine.write_disk machine ~cpu:(cpu ()) ~bytes:len;
           scatter ~offset ~data ~len;
           Write_completed
         end);
    pgr_should_cache = ref false;
  }

let stored_bytes (sys : Vm_sys.t) p =
  match Int_tbl.find_opt sys.Vm_sys.swap_stores p.pgr_id with
  | None -> 0
  | Some store ->
    Int_tbl.fold (fun _ b acc -> acc + Bytes.length b) store 0

(* Drop a dead object's swap store and credit its chunks back to the
   pool.  Keyed by pager id; a no-op for pagers that are not swap
   pagers, so object termination can call it unconditionally. *)
let release (sys : Vm_sys.t) p =
  Vm_sys.swap_release sys (stored_bytes sys p);
  Int_tbl.remove sys.Vm_sys.swap_stores p.pgr_id

open Types

(* Each store (offset -> page-size chunk) is registered by pager id in
   its kernel's [Vm_sys.swap_stores], so [stored_bytes]/[release] answer
   for a pager without widening the pager record (and keep working when
   the pager is wrapped by a decorator — wrapping preserves [pgr_id]). *)
let make (sys : Vm_sys.t) ~name =
  let id = Vm_sys.fresh_pager_id sys in
  let store : (int, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.add sys.Vm_sys.swap_stores id store;
  let machine = sys.Vm_sys.machine in
  let cpu () = Vm_sys.current_cpu sys in
  let ps = sys.Vm_sys.page_size in
  (* Gather contiguous chunks from [offset] up: one disk transfer covers
     the whole gathered range, so a clustered request pays the seek once.
     A reply that is one whole chunk is that chunk, lent (the contract on
     [pgr_request]); only a reply that joins chunks gets a buffer of its
     own.  No chunk at [offset] itself means the pager holds nothing
     there (the range contract). *)
  let gather ~offset ~length =
    match Hashtbl.find_opt store offset with
    | None -> None
    | Some first ->
      (* Bytes on hand from [offset + got]: whole chunks while they
         continue the run, then at most a head of the last one. *)
      let rec span got =
        if got >= length then got
        else
          match Hashtbl.find_opt store (offset + got) with
          | None -> got
          | Some d ->
            let take = min (Bytes.length d) (length - got) in
            if take = Bytes.length d then span (got + take) else got + take
      in
      let got = span 0 in
      if got = Bytes.length first then Some first
      else begin
        let buf = Bytes.create got in
        let rec join pos =
          if pos < got then begin
            let d = Hashtbl.find store (offset + pos) in
            let take = min (Bytes.length d) (got - pos) in
            Bytes.blit d 0 buf pos take;
            join (pos + take)
          end
        in
        join 0;
        Some buf
      end
  in
  (* Bytes of [data] landing on offsets not yet stored: only new chunks
     commit pool space — rewriting a paged-out page in place is free. *)
  let new_bytes ~offset ~data =
    let len = Bytes.length data in
    let fresh = ref 0 and pos = ref 0 in
    while !pos < len do
      let take = min ps (len - !pos) in
      if not (Hashtbl.mem store (offset + !pos)) then fresh := !fresh + take;
      pos := !pos + take
    done;
    !fresh
  in
  (* Stored in page-size chunks so later single-page requests find their
     piece.  An offset already stored is overwritten in place; only a new
     offset copies its piece out of [data], which is lent (the contract
     on [pgr_write]). *)
  let scatter ~offset ~data =
    let len = Bytes.length data in
    let pos = ref 0 in
    while !pos < len do
      let take = min ps (len - !pos) in
      let off = offset + !pos in
      (match Hashtbl.find_opt store off with
       | Some chunk when Bytes.length chunk = take ->
         Bytes.blit data !pos chunk 0 take
       | Some _ | None -> Hashtbl.replace store off (Bytes.sub data !pos take));
      pos := !pos + take
    done
  in
  (* All-or-nothing capacity check against the shared pool: either the
     whole (possibly clustered) write fits and is committed, or nothing
     is stored and the kernel hears [Write_no_space] — it may then fall
     back to single-page writes, which need less fresh space. *)
  let reserve ~offset ~data =
    Vm_sys.swap_charge sys (new_bytes ~offset ~data)
  in
  {
    pgr_id = id;
    pgr_name = name;
    pgr_request =
      (fun ~offset ~length ->
         match gather ~offset ~length with
         | None -> Data_unavailable
         | Some data ->
           Data_provided
             (data,
              Mach_hw.Machine.submit_disk machine ~cpu:(cpu ())
                ~write:false ~bytes:(Bytes.length data)));
    pgr_write =
      (fun ~offset ~data ->
         if not (reserve ~offset ~data) then Write_no_space
         else begin
           (* One disk transfer for the whole (possibly clustered) write. *)
           let io =
             Mach_hw.Machine.submit_disk machine ~cpu:(cpu ()) ~write:true
               ~bytes:(Bytes.length data)
           in
           scatter ~offset ~data;
           Write_completed io
         end);
    pgr_should_cache = ref false;
  }

let stored_bytes (sys : Vm_sys.t) p =
  match Hashtbl.find_opt sys.Vm_sys.swap_stores p.pgr_id with
  | None -> 0
  | Some store -> Hashtbl.fold (fun _ b acc -> acc + Bytes.length b) store 0

(* Drop a dead object's swap store and credit its chunks back to the
   pool.  Keyed by pager id; a no-op for pagers that are not swap
   pagers, so object termination can call it unconditionally. *)
let release (sys : Vm_sys.t) p =
  Vm_sys.swap_release sys (stored_bytes sys p);
  Hashtbl.remove sys.Vm_sys.swap_stores p.pgr_id

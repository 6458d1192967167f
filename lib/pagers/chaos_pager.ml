open Mach_core
open Types
module Fail = Mach_fail.Fail
module Obs = Mach_obs.Obs

let emit_timeout sys ~offset =
  if Obs.enabled (Vm_sys.tracer sys) then
    Vm_sys.emit sys (Obs.Pager_timeout { offset })

(* The kernel's no-reply timeout, charged when a call is dropped. *)
let deadline_cycles = 20_000

let wrap sys inj pager =
  {
    pager with
    pgr_request =
      (fun ~offset ~length ->
         match Fail.decide inj ~site:"pager.request" with
         | Fail.Pass -> pager.pgr_request ~offset ~length
         | Fail.Fail -> Data_error
         | Fail.Drop ->
           (* No reply at all: the kernel waits out its deadline. *)
           Vm_sys.charge sys deadline_cycles;
           emit_timeout sys ~offset;
           Data_error
         | Fail.Delay c ->
           Vm_sys.charge sys c;
           pager.pgr_request ~offset ~length
         | Fail.Short n ->
           (* A truncated reply.  For a clustered request this is a
              truncated cluster: the kernel floors it to whole pages and,
              below one page, retries on the single-page path.  Only
              the slices are cut; the lent bytes stay as they are. *)
           (match pager.pgr_request ~offset ~length with
            | Data_provided (d, io) -> Data_provided (Lent.truncate d n, io)
            | reply -> reply)
         | Fail.Garbage ->
           (* The reply lends the pager's store: scramble a copy. *)
           (match pager.pgr_request ~offset ~length with
            | Data_provided (d, io) ->
              let copy = Fail.scramble (Lent.to_bytes d) in
              Data_provided (Lent.of_bytes copy, io)
            | reply -> reply));
    pgr_write =
      (fun ~offset ~data ->
         match Fail.decide inj ~site:"pager.write" with
         | Fail.Pass -> pager.pgr_write ~offset ~data
         | Fail.Delay c ->
           Vm_sys.charge sys c;
           pager.pgr_write ~offset ~data
         | Fail.Drop ->
           Vm_sys.charge sys deadline_cycles;
           emit_timeout sys ~offset;
           Write_error
         | Fail.Fail | Fail.Short _ | Fail.Garbage ->
           (* A short or corrupted write is a failed write: the kernel
              must keep the page dirty, never trust a partial ack. *)
           Write_error);
  }

let map_wrapped sys task inj ~pager ~size () =
  Pager_map.map_object sys task ~resolve:(fun () -> (wrap sys inj pager, size))

open Mach_hw
open Types
open Mach_pmap

let phys (sys : Vm_sys.t) = Machine.phys sys.Vm_sys.machine

let charge_move (sys : Vm_sys.t) len =
  Vm_sys.charge sys (((len + 15) / 16) * (Vm_sys.cost sys).Mach_hw.Arch.move_16b)

let zero (sys : Vm_sys.t) p = Pmap_domain.zero_page sys.Vm_sys.domain ~pfn:p.pfn

let copy (sys : Vm_sys.t) ~src ~dst =
  Pmap_domain.copy_page sys.Vm_sys.domain ~src:src.pfn ~dst:dst.pfn

(* Bytes [off, off + len) of the page must lie within it.  The page's
   frames are consecutive, so each move below is one span operation,
   charged once. *)
let check (sys : Vm_sys.t) ~off ~len ~what =
  if off < 0 || len < 0 || off + len > sys.Vm_sys.page_size then
    invalid_arg what

(* Copy [len] bytes of [data] from [pos] into the page at [off]. *)
let blit_in sys p ~off data ~pos ~len =
  check sys ~off ~len ~what:"Page_io.blit_in";
  Phys_mem.write_span (phys sys) p.pfn ~offset:off ~pos ~len data;
  charge_move sys len

(* Copy [len] bytes of the page from [off] into [buf] at [pos]. *)
let blit_out sys p ~off ~len buf ~pos =
  check sys ~off ~len ~what:"Page_io.copy_out";
  Phys_mem.blit_out_span (phys sys) p.pfn ~offset:off ~len buf ~pos;
  charge_move sys len

let copy_out sys p ~off ~len =
  let buf = Bytes.create (max 0 len) in
  blit_out sys p ~off ~len buf ~pos:0;
  buf

(* A short [data] is zero padded in place: the page is charged as one
   whole-page move either way.  [pos] must lie within [data] (or at its
   end, for a page of zeros). *)
let fill ?(pos = 0) sys p data =
  if pos < 0 || pos > Bytes.length data then invalid_arg "Page_io.fill";
  let ps = sys.Vm_sys.page_size in
  let n = max 0 (min ps (Bytes.length data - pos)) in
  Phys_mem.write_span (phys sys) p.pfn ~offset:0 ~pos ~len:n data;
  Phys_mem.zero_span (phys sys) p.pfn ~offset:n ~len:(ps - n);
  charge_move sys ps

let contents sys p = copy_out sys p ~off:0 ~len:sys.Vm_sys.page_size

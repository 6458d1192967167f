open Mach_hw
open Types
open Mach_pmap

let phys (sys : Vm_sys.t) = Machine.phys sys.Vm_sys.machine

let hw_size sys = Phys_mem.page_size (phys sys)

let charge_move (sys : Vm_sys.t) len =
  Vm_sys.charge sys (((len + 15) / 16) * (Vm_sys.cost sys).Mach_hw.Arch.move_16b)

let zero (sys : Vm_sys.t) p =
  let m = Resident.multiple sys.Vm_sys.resident in
  for i = 0 to m - 1 do
    Pmap_domain.zero_page sys.Vm_sys.domain ~pfn:(p.pfn + i)
  done

let copy (sys : Vm_sys.t) ~src ~dst =
  let m = Resident.multiple sys.Vm_sys.resident in
  for i = 0 to m - 1 do
    Pmap_domain.copy_page sys.Vm_sys.domain ~src:(src.pfn + i)
      ~dst:(dst.pfn + i)
  done

(* Walk bytes [off, off + len) of the page a hardware frame at a time:
   [f frame foff i chunk] moves the [chunk] bytes at [foff] in [frame],
   which are bytes [i ..] of the walk.  The move is charged once. *)
let each_frame sys p ~off ~len ~what f =
  let hw = hw_size sys in
  if off < 0 || len < 0 || off + len > sys.Vm_sys.page_size then
    invalid_arg what;
  let rec loop i =
    if i < len then begin
      let abs = off + i in
      let foff = abs mod hw in
      let chunk = min (hw - foff) (len - i) in
      f (p.pfn + (abs / hw)) foff i chunk;
      loop (i + chunk)
    end
  in
  loop 0;
  charge_move sys len

(* Copy [len] bytes of [data] from [pos] into the page at [off]. *)
let blit_in sys p ~off data ~pos ~len =
  each_frame sys p ~off ~len ~what:"Page_io.copy_in" (fun frame foff i n ->
      Phys_mem.write (phys sys) frame ~offset:foff ~pos:(pos + i) ~len:n data)

let copy_in sys p ~off data =
  blit_in sys p ~off data ~pos:0 ~len:(Bytes.length data)

(* Copy [len] bytes of the page from [off] into [buf] at [pos]. *)
let blit_out sys p ~off ~len buf ~pos =
  each_frame sys p ~off ~len ~what:"Page_io.copy_out" (fun frame foff i n ->
      Phys_mem.blit_out (phys sys) frame ~offset:foff ~len:n buf ~pos:(pos + i))

let copy_out sys p ~off ~len =
  let buf = Bytes.create (max 0 len) in
  blit_out sys p ~off ~len buf ~pos:0;
  buf

let fill ?(pos = 0) sys p data =
  let ps = sys.Vm_sys.page_size in
  let avail = Bytes.length data - pos in
  if avail >= ps then blit_in sys p ~off:0 data ~pos ~len:ps
  else begin
    let b = Bytes.make ps '\000' in
    Bytes.blit data pos b 0 (max 0 avail);
    copy_in sys p ~off:0 b
  end

let contents sys p = copy_out sys p ~off:0 ~len:sys.Vm_sys.page_size

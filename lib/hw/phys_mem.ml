type frame = int

type t = {
  page_size : int;
  storage : Bytes.t option array; (* None marks an absent frame *)
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~page_size ~frames ?(holes = []) () =
  if not (is_power_of_two page_size) then
    invalid_arg "Phys_mem.create: page size must be a power of two";
  if frames <= 0 then invalid_arg "Phys_mem.create: no frames";
  let in_hole f = List.exists (fun (lo, hi) -> f >= lo && f <= hi) holes in
  let storage =
    Array.init frames (fun f ->
        if in_hole f then None else Some (Bytes.make page_size '\000'))
  in
  { page_size; storage }

let page_size t = t.page_size

let frame_count t = Array.length t.storage

let frame_exists t f =
  f >= 0 && f < Array.length t.storage && Option.is_some t.storage.(f)

let present_frames t =
  let acc = ref [] in
  for f = Array.length t.storage - 1 downto 0 do
    if Option.is_some t.storage.(f) then acc := f :: !acc
  done;
  !acc

let bytes_of t f =
  match t.storage.(f) with
  | Some b -> b
  | None -> invalid_arg "Phys_mem: access to absent frame"

let blit_out t f ~offset ~len buf ~pos =
  let b = bytes_of t f in
  if offset < 0 || len < 0 || offset + len > t.page_size then
    invalid_arg "Phys_mem.read: out of frame";
  Bytes.blit b offset buf pos len

let read t f ~offset ~len =
  let buf = Bytes.create (max 0 len) in
  blit_out t f ~offset ~len buf ~pos:0;
  buf

let write t f ~offset ?(pos = 0) ?len data =
  let b = bytes_of t f in
  let len = match len with Some n -> n | None -> Bytes.length data - pos in
  if offset < 0 || offset + len > t.page_size then
    invalid_arg "Phys_mem.write: out of frame";
  Bytes.blit data pos b offset len

let read_byte t f ~offset = Bytes.get (bytes_of t f) offset

let write_byte t f ~offset c = Bytes.set (bytes_of t f) offset c

let zero_frame t f = Bytes.fill (bytes_of t f) 0 t.page_size '\000'

let copy_frame t ~src ~dst =
  Bytes.blit (bytes_of t src) 0 (bytes_of t dst) 0 t.page_size

let frame_equal t a b = Bytes.equal (bytes_of t a) (bytes_of t b)

type frame = int

(* Every frame lives in one store, frame [f] at byte [f * page_size];
   [present] holds one byte per frame, ['\000'] marking an absent one
   (its bytes exist in the store but are never reached). *)
type t = {
  page_size : int;
  frames : int;
  store : Bytes.t;
  present : Bytes.t;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~page_size ~frames ?(holes = []) () =
  if not (is_power_of_two page_size) then
    invalid_arg "Phys_mem.create: page size must be a power of two";
  if frames <= 0 then invalid_arg "Phys_mem.create: no frames";
  let in_hole f = List.exists (fun (lo, hi) -> f >= lo && f <= hi) holes in
  { page_size; frames;
    store = Bytes.make (frames * page_size) '\000';
    present =
      Bytes.init frames (fun f -> if in_hole f then '\000' else '\001') }

let page_size t = t.page_size

let frame_count t = t.frames

let frame_exists t f =
  f >= 0 && f < t.frames && Bytes.get t.present f = '\001'

let present_frames t =
  let acc = ref [] in
  for f = t.frames - 1 downto 0 do
    if Bytes.get t.present f = '\001' then acc := f :: !acc
  done;
  !acc

(* --- Spans of consecutive frames --------------------------------------- *)

(* The store offset of byte [offset] counted from the start of frame [f],
   for a span of [len] bytes that must end inside memory.  Every frame
   from [f] to the one holding the span's last byte must be present, so
   even an empty span names a present frame. *)
let span t f ~offset ~len ~what =
  if f < 0 || f >= t.frames || offset < 0 || len < 0
     || (f * t.page_size) + offset + len > t.frames * t.page_size
  then invalid_arg what;
  for g = f to f + (max 0 (offset + len - 1) / t.page_size) do
    if Bytes.get t.present g <> '\001' then
      invalid_arg "Phys_mem: access to absent frame"
  done;
  (f * t.page_size) + offset

let blit_out_span t f ~offset ~len buf ~pos =
  let at = span t f ~offset ~len ~what:"Phys_mem.read: out of memory" in
  Bytes.blit t.store at buf pos len

let write_span t f ~offset ?(pos = 0) ?len data =
  let len = match len with Some n -> n | None -> Bytes.length data - pos in
  let at = span t f ~offset ~len ~what:"Phys_mem.write: out of memory" in
  Bytes.blit data pos t.store at len

let lend_span t f ~offset ~len =
  (t.store, span t f ~offset ~len ~what:"Phys_mem.lend: out of memory")

let zero_span t f ~offset ~len =
  let at = span t f ~offset ~len ~what:"Phys_mem.zero: out of memory" in
  Bytes.fill t.store at len '\000'

let copy_frames t ~src ~dst ~frames =
  let len = frames * t.page_size in
  let from = span t src ~offset:0 ~len ~what:"Phys_mem.copy: out of memory" in
  let into = span t dst ~offset:0 ~len ~what:"Phys_mem.copy: out of memory" in
  Bytes.blit t.store from t.store into len

(* --- One frame --------------------------------------------------------- *)

(* A single-frame operation is the span operation after one more bound:
   bytes [offset, offset + len) must lie inside frame [f], so it never
   reaches the next frame. *)
let in_frame t ~offset ~len ~what =
  if offset < 0 || len < 0 || offset + len > t.page_size then invalid_arg what

let blit_out t f ~offset ~len buf ~pos =
  in_frame t ~offset ~len ~what:"Phys_mem.read: out of frame";
  blit_out_span t f ~offset ~len buf ~pos

let read t f ~offset ~len =
  let buf = Bytes.create (max 0 len) in
  blit_out t f ~offset ~len buf ~pos:0;
  buf

let write t f ~offset ?(pos = 0) ?len data =
  let len = match len with Some n -> n | None -> Bytes.length data - pos in
  in_frame t ~offset ~len ~what:"Phys_mem.write: out of frame";
  write_span t f ~offset ~pos ~len data

let byte_at t f ~offset =
  let what = "Phys_mem: byte out of frame" in
  in_frame t ~offset ~len:1 ~what;
  span t f ~offset ~len:1 ~what

let read_byte t f ~offset = Bytes.get t.store (byte_at t f ~offset)

let write_byte t f ~offset c = Bytes.set t.store (byte_at t f ~offset) c

let copy_frame t ~src ~dst = copy_frames t ~src ~dst ~frames:1

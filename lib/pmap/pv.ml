type mapping = { pv_asid : int; pv_vpn : int }

type t = {
  page_frames : int;
  shift : int;  (* log2 page_frames: a page is [pfn lsr shift] *)
  lists : mapping list array;
  referenced : Bytes.t;
  modified : Bytes.t;
}

(* Lists are indexed by machine-independent page, bits by frame; mapping
   lists are short (a page is rarely shared by more than a handful of
   address spaces). *)

let create ~frames ~page_frames =
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  { page_frames; shift = log2 page_frames;
    lists = Array.make ((frames + page_frames - 1) / page_frames) [];
    referenced = Bytes.make frames '\000';
    modified = Bytes.make frames '\000' }

let page t pfn = pfn lsr t.shift

let insert t ~pfn m =
  let i = page t pfn in
  t.lists.(i) <- m :: t.lists.(i)

let remove t ~pfn m =
  (* One traversal dropping the first occurrence; a missing mapping still
     asserts, without a separate membership scan. *)
  let rec drop = function
    | [] -> assert false
    | m' :: rest ->
      if m'.pv_asid = m.pv_asid && m'.pv_vpn = m.pv_vpn then rest
      else m' :: drop rest
  in
  let i = page t pfn in
  t.lists.(i) <- drop t.lists.(i)

let mappings t ~pfn = t.lists.(page t pfn)

let rec has_asid asid = function
  | [] -> false
  | m :: rest -> m.pv_asid = asid || has_asid asid rest

let mapped_by t ~pfn ~asid = has_asid asid t.lists.(page t pfn)

let set_referenced t ~pfn = Bytes.set t.referenced pfn '\001'
let set_modified t ~pfn = Bytes.set t.modified pfn '\001'

let frame_referenced t ~pfn = Bytes.get t.referenced pfn = '\001'

(* Whether [bits] is set on any frame of the page holding [pfn]. *)
let any t bits pfn =
  let first = page t pfn * t.page_frames in
  let rec from f = f >= first && (Bytes.get bits f = '\001' || from (f - 1)) in
  from (first + t.page_frames - 1)

let clear t bits pfn =
  Bytes.fill bits (page t pfn * t.page_frames) t.page_frames '\000'

let is_referenced t ~pfn = any t t.referenced pfn
let is_modified t ~pfn = any t t.modified pfn
let clear_referenced t ~pfn = clear t t.referenced pfn
let clear_modified t ~pfn = clear t t.modified pfn

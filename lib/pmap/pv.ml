type mapping = { pv_asid : int; pv_vpn : int }

type t = {
  lists : mapping list array;
  referenced : Bytes.t;
  modified : Bytes.t;
}

(* Arrays are indexed by frame number; mapping lists are short (a frame is
   rarely shared by more than a handful of address spaces). *)

let create ~frames =
  { lists = Array.make frames [];
    referenced = Bytes.make frames '\000';
    modified = Bytes.make frames '\000' }

(* Structural invariant checks cost an O(n) membership scan per insert;
   with every page of a large region entered one at a time that turns the
   pmap paths quadratic, so they are compiled out of normal builds. *)
let debug_checks = false

let insert t ~pfn m =
  if debug_checks then assert (not (List.mem m t.lists.(pfn)));
  t.lists.(pfn) <- m :: t.lists.(pfn)

let remove t ~pfn m =
  (* One traversal dropping the first occurrence; a missing mapping still
     asserts, without a separate membership scan. *)
  let rec drop = function
    | [] -> assert false
    | m' :: rest ->
      if m'.pv_asid = m.pv_asid && m'.pv_vpn = m.pv_vpn then rest
      else m' :: drop rest
  in
  t.lists.(pfn) <- drop t.lists.(pfn)

let mappings t ~pfn = t.lists.(pfn)

let mapping_count t ~pfn = List.length t.lists.(pfn)

let set_referenced t ~pfn = Bytes.set t.referenced pfn '\001'
let set_modified t ~pfn = Bytes.set t.modified pfn '\001'

(* Whether any of the [n] frames of [bits] from [pfn] is set. *)
let rec any bits ~pfn n =
  n > 0 && (Bytes.get bits pfn = '\001' || any bits ~pfn:(pfn + 1) (n - 1))

let is_referenced t ~pfn ~frames = any t.referenced ~pfn frames
let is_modified t ~pfn ~frames = any t.modified ~pfn frames

let clear_referenced t ~pfn ~frames = Bytes.fill t.referenced pfn frames '\000'
let clear_modified t ~pfn ~frames = Bytes.fill t.modified pfn frames '\000'

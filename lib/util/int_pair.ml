type t = int * int

let equal ((a : int), (b : int)) (c, d) = a = c && b = d

(* Odd 62-bit multipliers from the golden-ratio and xorshift* families.
   The multiply carries every input bit upwards only; the final fold
   brings bits 32 and above back into the low bits the table indexes
   with, so keys that differ only above bit 12 (page-aligned offsets)
   still land in different buckets. *)
let hash ((a : int), (b : int)) =
  let h = ((a * 0x1e3779b97f4a7c15) + b) * 0x2545f4914f6cdd1d in
  (h lxor (h lsr 32)) land max_int

module Tbl = Hashtbl.Make (struct
    type nonrec t = t
    let equal = equal
    let hash = hash
  end)

(** Pairs of ints as hash-table keys.

    Compared as ints and hashed by a multiply-and-fold mix, so a lookup
    never reaches the polymorphic hash or compare.  [Hashtbl.Make] picks
    a bucket from the low bits of the hash; the fold brings the high
    bits of the product down, so both key shapes the simulator uses
    spread: consecutive second components (virtual page numbers) and
    second components that are multiples of a page size (byte offsets
    of pages within a memory object). *)

type t = int * int

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by int pairs: the resident page table by (object
    id, offset), pending burst maps by (asid, pfn). *)

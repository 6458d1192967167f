(** Hash tables keyed by int: no polymorphic hash or compare.

    [Int.hash] is the polymorphic hash of an int, so a table fills,
    resizes and folds in the same order as an [(int, _) Hashtbl.t] given
    the same operations.  Used for tables keyed by vpn, asid, page-table
    index or disk block.  Not for keys that pack two fields above and
    below bit 32: the polymorphic hash xors the high half onto the low
    one, so such keys share buckets (the TLB keeps its own
    table for that reason). *)

include Hashtbl.S with type key = int

(** Hash tables keyed by int: no polymorphic hash or compare.

    [Int.hash] is the polymorphic hash of an int, so a table fills,
    resizes and folds in the same order as an [(int, _) Hashtbl.t] given
    the same operations.  Used for tables keyed by vpn, asid, page-table
    index or disk block. *)

include Hashtbl.S with type key = int

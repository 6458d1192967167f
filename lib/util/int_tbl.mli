(** Hash tables keyed by int: no polymorphic hash or compare.

    A key is hashed by a multiply and a fold of its high half onto the
    low one, with no C call, so both halves of a key that packs two
    fields above and below bit 32 (the TLB's asid and vpn) reach the
    bits a bucket is picked by.  Used for tables keyed by vpn, asid,
    page-table index, disk block or a packed TLB key. *)

include Hashtbl.S with type key = int

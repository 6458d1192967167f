(* The multiply carries every bit of the key into the high half and the
   fold brings it back down, so keys that differ only in high bits (an
   asid packed above a vpn) or only in low aligned bits still spread
   over the buckets. *)
include Hashtbl.Make (struct
    type t = int

    let equal (a : int) b = a = b

    let hash k =
      let h = k * 0x2545f4914f6cdd1d in
      (h lxor (h lsr 32)) land max_int
  end)

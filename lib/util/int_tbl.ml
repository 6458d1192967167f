(* Open addressing with linear probing over two parallel arrays: the
   keys, unboxed, and the values.  A free slot holds the key [free].
   The capacity is a power of two and at most three quarters full, so
   a probe always meets a free slot.  Deletion shifts the rest of the
   probe run back (no tombstones), so a run never holds a gap.

   [vals] is [[||]] until the first binding, which has to supply a
   value to fill it with, and then has one slot more than [keys]: its
   last slot keeps that first value as the filler written over each
   removed value, so a removed value is never kept reachable by its
   old slot. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable mask : int; (* capacity - 1 *)
  mutable shift : int; (* [Sys.int_size] - log2 capacity *)
  initial : int; (* the capacity [reset] returns to *)
}

let free = min_int

let capacity_for n =
  let rec up c = if c >= n then c else up (2 * c) in
  up 8

let rec log2 c = if c = 1 then 0 else 1 + log2 (c / 2)

let shift_for c = Sys.int_size - log2 c

let create n =
  let c = capacity_for n in
  { keys = Array.make c free; vals = [||]; size = 0; mask = c - 1;
    shift = shift_for c; initial = c }

let length t = t.size

(* The multiply carries every bit of the key upwards, and the slot is
   the top bits of the product, so keys that differ only in high bits
   (an asid packed above a vpn) or only in low aligned bits (byte
   offsets of pages) still spread, and consecutive keys land far apart:
   a probe run stays a few slots long for each key shape the simulator
   packs.  (The low bits of the product folded with its high half, as a
   chained table may index, put 1,024 consecutive vpns into a run of
   33.) *)
let home t k = (k * 0x2545f4914f6cdd1d) lsr t.shift

(* The slot holding [k], or the free slot ending its probe run (a
   negative [-1 - slot]). *)
let rec probe keys mask k i =
  let x = Array.unsafe_get keys i in
  if x = k then i
  else if x = free then -1 - i
  else probe keys mask k ((i + 1) land mask)

let slot t k = probe t.keys t.mask k (home t k)

let mem t k = k <> free && slot t k >= 0

let find t k =
  let i = if k = free then -1 else slot t k in
  if i < 0 then raise Not_found else Array.unsafe_get t.vals i

let find_or t k default =
  let i = if k = free then -1 else slot t k in
  if i < 0 then default else Array.unsafe_get t.vals i

let find_opt t k =
  let i = if k = free then -1 else slot t k in
  if i < 0 then None else Some (Array.unsafe_get t.vals i)

(* Bind [k] to [v] in the free slot [i] of a run that lacks [k]. *)
let rec fill t i k v =
  if (t.size + 1) * 4 > (t.mask + 1) * 3 then begin
    grow t;
    let i = slot t k in
    fill t (-1 - i) k v
  end
  else begin
    if Array.length t.vals = 0 then t.vals <- Array.make (t.mask + 2) v;
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1
  end

(* Double the capacity and bind every key again. *)
and grow t =
  let keys = t.keys and vals = t.vals in
  let c = 2 * Array.length keys in
  t.keys <- Array.make c free;
  t.mask <- c - 1;
  t.shift <- shift_for c;
  if Array.length vals > 0 then begin
    t.vals <- Array.make (c + 1) vals.(Array.length keys);
    Array.iteri
      (fun j k ->
         if k <> free then begin
           let i = -1 - slot t k in
           t.keys.(i) <- k;
           t.vals.(i) <- vals.(j)
         end)
      keys
  end

let check_key k = if k = free then invalid_arg "Int_tbl: min_int is no key"

let add t k v =
  check_key k;
  let i = slot t k in
  if i >= 0 then invalid_arg "Int_tbl.add: key already bound";
  fill t (-1 - i) k v

let replace t k v =
  check_key k;
  let i = slot t k in
  if i >= 0 then t.vals.(i) <- v else fill t (-1 - i) k v

(* Empty slot [hole] and close the gap: each later key of the run whose
   home does not lie cyclically in (hole, j] moves back into the hole,
   which moves to where it was. *)
let rec shift_back t hole j =
  let k = t.keys.(j) in
  if k = free then begin
    t.keys.(hole) <- free;
    t.vals.(hole) <- t.vals.(t.mask + 1)
  end
  else
    let h = home t k in
    let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
    if stays then shift_back t hole ((j + 1) land t.mask)
    else begin
      t.keys.(hole) <- k;
      t.vals.(hole) <- t.vals.(j);
      shift_back t j ((j + 1) land t.mask)
    end

let delete_at t i =
  t.size <- t.size - 1;
  shift_back t i ((i + 1) land t.mask)

let remove t k =
  if k <> free then begin
    let i = slot t k in
    if i >= 0 then delete_at t i
  end

let clear t =
  if t.size > 0 then begin
    Array.fill t.keys 0 (t.mask + 1) free;
    Array.fill t.vals 0 (t.mask + 1) t.vals.(t.mask + 1);
    t.size <- 0
  end

let reset t =
  t.keys <- Array.make t.initial free;
  t.vals <- [||];
  t.size <- 0;
  t.mask <- t.initial - 1;
  t.shift <- shift_for t.initial

let iter f t =
  let keys = t.keys in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> free then f k (Array.unsafe_get t.vals i)
  done

let fold f t acc =
  let keys = t.keys and acc = ref acc in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> free then acc := f k (Array.unsafe_get t.vals i) !acc
  done;
  !acc

(* One lap of the slots from a free one.  A run never wraps past a free
   slot, and a deletion only moves later keys of its run back into the
   slot just visited, so that slot is looked at again and every binding
   meets [f] exactly once. *)
let filter_map_inplace f t =
  if t.size > 0 then begin
    let c = t.mask + 1 in
    let rec first_free i =
      if t.keys.(i) = free then i else first_free (i + 1)
    in
    let start = first_free 0 in
    let rec visit n =
      if n < c then begin
        let i = (start + n) land t.mask in
        let k = t.keys.(i) in
        if k = free then visit (n + 1)
        else
          match f k t.vals.(i) with
          | Some v -> t.vals.(i) <- v; visit (n + 1)
          | None -> delete_at t i; visit n
      end
    in
    visit 1
  end

let longest_probe t =
  let longest = ref 0 in
  Array.iteri
    (fun i k ->
       if k <> free then
         longest := max !longest (((i - home t k) land t.mask) + 1))
    t.keys;
  !longest

(* Two fields in one key, the TLB's asid above its vpn: [hi] in bits 32
   to 61, [lo] in bits 0 to 31, so a packed key is never negative and
   two pairs that fit never share a key. *)
let lo_bits = 32
let hi_bits = Sys.int_size - 1 - lo_bits

let pair_fits hi lo = (hi lsr hi_bits) lor (lo lsr lo_bits) = 0

let pair hi lo =
  if not (pair_fits hi lo) then invalid_arg "Int_tbl.pair: field out of range";
  (hi lsl lo_bits) lor lo

let pair_hi k = k lsr lo_bits
let pair_lo k = k land ((1 lsl lo_bits) - 1)

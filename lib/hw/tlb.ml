type entry = { asid : int; vpn : int; pfn : int; prot : Prot.t }

(* An entry is keyed by one int, [(asid lsl vpn_bits) lor vpn], so a
   lookup or refill hashes an int and allocates no key.  Both parts must
   fit their fields and the key stays non-negative.  Not
   [Mach_util.Int_tbl]: the polymorphic hash of an int folds bits 32 and
   up onto the low half by xor, so every key would land in the bucket
   of [asid lxor vpn] (8 asids by 8 vpns fill 15 of 64 buckets).  The
   multiply carries the vpn into the high half and the fold brings the
   asid down, so both parts reach the low bits a bucket is picked by. *)
module Key_tbl = Hashtbl.Make (struct
    type t = int

    let equal (a : int) b = a = b

    let hash k =
      let h = k * 0x2545f4914f6cdd1d in
      (h lxor (h lsr 32)) land max_int
  end)

let vpn_bits = 32
let asid_bits = Sys.int_size - 1 - vpn_bits

let fits ~asid ~vpn = (asid lsr asid_bits) lor (vpn lsr vpn_bits) = 0

let pack ~asid ~vpn = (asid lsl vpn_bits) lor vpn

let key_asid key = key lsr vpn_bits
let key_vpn key = key land ((1 lsl vpn_bits) - 1)

(* Fully-associative with FIFO replacement.  The order of insertion lives
   in an int ring of [2 * capacity + 2] slots, oldest first from [head]:
   [compact] runs before the ring would pass [2 * capacity + 1] keys, so
   it never overflows.  Invalidation leaves a key's slot behind; such a
   stale slot is skipped by [evict_one] and dropped by [compact].  A key
   inserted again after an invalidation has two slots, and the older one
   is the one [evict_one] acts on. *)
type t = {
  capacity : int;
  table : entry Key_tbl.t;
  ring : int array;
  mutable head : int;
  mutable len : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Tlb.create: negative capacity";
  let ring = if capacity = 0 then [||] else Array.make ((2 * capacity) + 2) 0 in
  { capacity; table = Key_tbl.create 64; ring; head = 0; len = 0 }

let capacity t = t.capacity

let lookup t ~asid ~vpn =
  if fits ~asid ~vpn then Key_tbl.find_opt t.table (pack ~asid ~vpn) else None

let slot t i =
  let j = t.head + i in
  if j >= Array.length t.ring then j - Array.length t.ring else j

let push t key =
  t.ring.(slot t t.len) <- key;
  t.len <- t.len + 1

let rec evict_one t =
  if t.len > 0 then begin
    let key = t.ring.(t.head) in
    t.head <- slot t 1;
    t.len <- t.len - 1;
    if Key_tbl.mem t.table key then Key_tbl.remove t.table key
    else evict_one t
  end

(* Rebuild the ring in place, keeping the first slot of each live key
   (the position [evict_one] would act on), once it holds more dead
   weight than live entries, so the ring stays O(capacity). *)
let compact t =
  let seen = Key_tbl.create (Key_tbl.length t.table) in
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    let key = t.ring.(slot t i) in
    if Key_tbl.mem t.table key && not (Key_tbl.mem seen key) then begin
      Key_tbl.add seen key ();
      t.ring.(slot t !kept) <- key;
      incr kept
    end
  done;
  t.len <- !kept

let insert t e =
  if t.capacity = 0 then ()
  else begin
    if not (fits ~asid:e.asid ~vpn:e.vpn) then
      invalid_arg "Tlb.insert: asid or vpn out of range";
    let key = pack ~asid:e.asid ~vpn:e.vpn in
    if not (Key_tbl.mem t.table key) then begin
      if Key_tbl.length t.table >= t.capacity then evict_one t;
      if t.len > 2 * t.capacity then compact t;
      push t key
    end;
    Key_tbl.replace t.table key e
  end

let invalidate_page t ~asid ~vpn =
  if fits ~asid ~vpn then Key_tbl.remove t.table (pack ~asid ~vpn)

(* A read-only pass over the table, then the removals.  Not a walk over
   the ring: its stale slots of earlier flushes of the same asid would
   each cost a removal again, and asid flushes are most of smp's TLB
   work.  An empty table (always, on a zero-capacity TLB such as the
   SUN 3's) returns at once rather than fold over its empty buckets. *)
let invalidate_asid_vpns t ~asid ~lo_vpn ~hi_vpn =
  if Key_tbl.length t.table > 0 then begin
    let doomed =
      Key_tbl.fold
        (fun key _ acc ->
           if key_asid key = asid && key_vpn key >= lo_vpn
              && key_vpn key < hi_vpn
           then key :: acc
           else acc)
        t.table []
    in
    List.iter (Key_tbl.remove t.table) doomed
  end

let invalidate_range t ~asid ~lo_vpn ~hi_vpn =
  (* Walk whichever side is smaller: the span or the current contents. *)
  if hi_vpn - lo_vpn <= Key_tbl.length t.table then
    for vpn = lo_vpn to hi_vpn - 1 do
      invalidate_page t ~asid ~vpn
    done
  else invalidate_asid_vpns t ~asid ~lo_vpn ~hi_vpn

let invalidate_asid t ~asid =
  invalidate_asid_vpns t ~asid ~lo_vpn:0 ~hi_vpn:(1 lsl vpn_bits)

let entries t =
  List.init t.len (fun i -> Key_tbl.find_opt t.table t.ring.(slot t i))
  |> List.filter_map Fun.id

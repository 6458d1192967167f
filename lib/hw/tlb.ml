type entry = { asid : int; vpn : int; pfn : int; prot : Prot.t }

module Int_tbl = Mach_util.Int_tbl

(* An entry is keyed by one int, [(asid lsl vpn_bits) lor vpn], so a
   lookup or refill hashes an int and allocates no key.  Both parts must
   fit their fields and the key stays non-negative. *)
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
   is the one [evict_one] acts on.  [sole] is the asid of every entry
   in the table, or -1 once an entry of another asid has joined them
   (until the table is empty again). *)
type t = {
  capacity : int;
  table : entry Int_tbl.t;
  ring : int array;
  mutable head : int;
  mutable len : int;
  mutable sole : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Tlb.create: negative capacity";
  let ring = if capacity = 0 then [||] else Array.make ((2 * capacity) + 2) 0 in
  { capacity; table = Int_tbl.create 64; ring; head = 0; len = 0; sole = -1 }

let capacity t = t.capacity

let lookup t ~asid ~vpn =
  if fits ~asid ~vpn then Int_tbl.find_opt t.table (pack ~asid ~vpn) else None

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
    if Int_tbl.mem t.table key then Int_tbl.remove t.table key
    else evict_one t
  end

(* Rebuild the ring in place, keeping the first slot of each live key
   (the position [evict_one] would act on), once it holds more dead
   weight than live entries, so the ring stays O(capacity). *)
let compact t =
  let seen = Int_tbl.create (Int_tbl.length t.table) in
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    let key = t.ring.(slot t i) in
    if Int_tbl.mem t.table key && not (Int_tbl.mem seen key) then begin
      Int_tbl.add seen key ();
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
    if Int_tbl.length t.table = 0 then t.sole <- e.asid
    else if t.sole <> e.asid then t.sole <- -1;
    if not (Int_tbl.mem t.table key) then begin
      if Int_tbl.length t.table >= t.capacity then evict_one t;
      if t.len > 2 * t.capacity then compact t;
      push t key
    end;
    Int_tbl.replace t.table key e
  end

let invalidate_page t ~asid ~vpn =
  if fits ~asid ~vpn then Int_tbl.remove t.table (pack ~asid ~vpn)

(* One pass over the table, dropping entries in place.  Not a walk over
   the ring: its stale slots of earlier flushes of the same asid would
   each cost a removal again, and asid flushes are most of smp's TLB
   work.  An empty table (always, on a zero-capacity TLB such as the
   SUN 3's) returns at once rather than fold over its empty buckets. *)
let invalidate_asid_vpns t ~asid ~lo_vpn ~hi_vpn =
  if Int_tbl.length t.table > 0 then
    Int_tbl.filter_map_inplace
      (fun key e ->
         if key_asid key = asid && key_vpn key >= lo_vpn && key_vpn key < hi_vpn
         then None
         else Some e)
      t.table

let invalidate_range t ~asid ~lo_vpn ~hi_vpn =
  (* Walk whichever side is smaller: the span or the current contents. *)
  if hi_vpn - lo_vpn <= Int_tbl.length t.table then
    for vpn = lo_vpn to hi_vpn - 1 do
      invalidate_page t ~asid ~vpn
    done
  else invalidate_asid_vpns t ~asid ~lo_vpn ~hi_vpn

(* A TLB that holds one asid's entries alone (each of smp's 8, which
   all run one task) drops them all by emptying its buckets, with no
   call per entry; the ring keeps its stale slots either way. *)
let invalidate_asid t ~asid =
  if asid = t.sole then Int_tbl.clear t.table
  else invalidate_asid_vpns t ~asid ~lo_vpn:0 ~hi_vpn:(1 lsl vpn_bits)

let entries t =
  List.init t.len (fun i -> Int_tbl.find_opt t.table t.ring.(slot t i))
  |> List.filter_map Fun.id

type entry = { asid : int; vpn : int; pfn : int; prot : Prot.t }

(* Keyed by (asid, vpn). *)
module Asid_vpn = Mach_util.Int_pair.Tbl

(* Fully-associative with FIFO replacement.  Capacities are tiny (tens of
   entries), so a linear scan over a Queue mirror is adequate and keeps the
   replacement order explicit. *)
type t = {
  capacity : int;
  table : entry Asid_vpn.t;
  order : (int * int) Queue.t;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Tlb.create: negative capacity";
  { capacity; table = Asid_vpn.create 64; order = Queue.create () }

let capacity t = t.capacity

let lookup t ~asid ~vpn = Asid_vpn.find_opt t.table (asid, vpn)

let rec evict_one t =
  match Queue.take_opt t.order with
  | None -> ()
  | Some key ->
    (* The queue may hold stale keys for entries already invalidated;
       skip them and evict the first live one. *)
    if Asid_vpn.mem t.table key then Asid_vpn.remove t.table key
    else evict_one t

(* Entries invalidated by page/asid leave dead keys behind in the FIFO
   queue.  Rebuild it (keeping the first occurrence of each live key, the
   position [evict_one] would act on) once it holds more dead weight than
   live entries, so the queue stays O(capacity). *)
let compact t =
  let seen = Asid_vpn.create (Asid_vpn.length t.table) in
  let live = Queue.create () in
  Queue.iter
    (fun key ->
       if Asid_vpn.mem t.table key && not (Asid_vpn.mem seen key) then begin
         Asid_vpn.add seen key ();
         Queue.add key live
       end)
    t.order;
  Queue.clear t.order;
  Queue.transfer live t.order

let insert t e =
  if t.capacity = 0 then ()
  else begin
    let key = (e.asid, e.vpn) in
    if not (Asid_vpn.mem t.table key) then begin
      if Asid_vpn.length t.table >= t.capacity then evict_one t;
      if Queue.length t.order > 2 * t.capacity then compact t;
      Queue.add key t.order
    end;
    Asid_vpn.replace t.table key e
  end

let invalidate_page t ~asid ~vpn = Asid_vpn.remove t.table (asid, vpn)

let invalidate_range t ~asid ~lo_vpn ~hi_vpn =
  (* Walk whichever side is smaller: the span or the current contents. *)
  if hi_vpn - lo_vpn <= Asid_vpn.length t.table then
    for vpn = lo_vpn to hi_vpn - 1 do
      Asid_vpn.remove t.table (asid, vpn)
    done
  else begin
    let doomed =
      Asid_vpn.fold
        (fun ((a, v) as key) _ acc ->
           if a = asid && v >= lo_vpn && v < hi_vpn then key :: acc else acc)
        t.table []
    in
    List.iter (Asid_vpn.remove t.table) doomed
  end

let invalidate_asid t ~asid =
  let doomed =
    Asid_vpn.fold
      (fun (a, v) _ acc -> if a = asid then (a, v) :: acc else acc)
      t.table []
  in
  List.iter (Asid_vpn.remove t.table) doomed

let invalidate_all t =
  Asid_vpn.reset t.table;
  Queue.clear t.order

let entries t =
  Queue.fold
    (fun acc key ->
       match Asid_vpn.find_opt t.table key with
       | Some e -> e :: acc
       | None -> acc)
    [] t.order
  |> List.rev

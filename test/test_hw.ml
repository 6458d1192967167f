(* Tests for mach_hw: protections, physical memory, TLB and the machine's
   translation/fault/shootdown behaviour. *)

open Mach_hw

(* ---- Prot -------------------------------------------------------------- *)

let prot_gen =
  QCheck2.Gen.(
    map3
      (fun r w x -> Prot.make ~read:r ~write:w ~execute:x)
      bool bool bool)

let prot_qcheck name f = QCheck2.Test.make ~name ~count:200 prot_gen f

let prot_pair_qcheck name f =
  QCheck2.Test.make ~name ~count:200 (QCheck2.Gen.pair prot_gen prot_gen) f

let no_access = Prot.make ~read:false ~write:false ~execute:false

let test_prot_constants () =
  Alcotest.(check string) "pp none" "---" (Prot.to_string no_access);
  Alcotest.(check string) "pp rw" "rw-" (Prot.to_string Prot.read_write);
  Alcotest.(check string) "pp all" "rwx" (Prot.to_string Prot.all);
  Alcotest.(check string) "pp ro" "r--" (Prot.to_string Prot.read_only);
  Alcotest.(check string) "pp rx" "r-x" (Prot.to_string Prot.read_execute)

let test_prot_allows () =
  Alcotest.(check bool) "ro allows read" true
    (Prot.allows Prot.read_only ~write:false);
  Alcotest.(check bool) "ro rejects write" false
    (Prot.allows Prot.read_only ~write:true);
  Alcotest.(check bool) "rw allows write" true
    (Prot.allows Prot.read_write ~write:true);
  Alcotest.(check bool) "none rejects read" false
    (Prot.allows no_access ~write:false)

let test_prot_remove_write () =
  Alcotest.(check bool) "no write" false
    (Prot.allows (Prot.remove_write Prot.all) ~write:true);
  Alcotest.(check bool) "keeps read" true
    (Prot.allows (Prot.remove_write Prot.all) ~write:false)

let prot_lattice_tests =
  [ prot_pair_qcheck "inter is subset of both" (fun (p, q) ->
        Prot.subset (Prot.inter p q) ~of_:p
        && Prot.subset (Prot.inter p q) ~of_:q);
    prot_qcheck "subset reflexive" (fun p -> Prot.subset p ~of_:p);
    prot_qcheck "none subset of all" (fun p ->
        Prot.subset no_access ~of_:p && Prot.subset p ~of_:Prot.all);
    prot_pair_qcheck "inter commutative" (fun (p, q) ->
        Prot.inter p q = Prot.inter q p);
    prot_qcheck "remove_write idempotent" (fun p ->
        Prot.remove_write (Prot.remove_write p) = Prot.remove_write p) ]

(* ---- Phys_mem ----------------------------------------------------------- *)

let test_phys_rw () =
  let m = Phys_mem.create ~page_size:512 ~frames:8 () in
  Phys_mem.write m 3 ~offset:100 (Bytes.of_string "hello");
  Alcotest.(check string) "read back" "hello"
    (Bytes.to_string (Phys_mem.read m 3 ~offset:100 ~len:5));
  Alcotest.(check char) "byte" 'e' (Phys_mem.read_byte m 3 ~offset:101)

let test_phys_zero_copy () =
  let m = Phys_mem.create ~page_size:128 ~frames:4 () in
  Phys_mem.write m 0 ~offset:0 (Bytes.make 128 'z');
  let frame f = Bytes.to_string (Phys_mem.read m f ~offset:0 ~len:128) in
  Phys_mem.copy_frame m ~src:0 ~dst:1;
  Alcotest.(check string) "copied" (frame 0) (frame 1);
  Phys_mem.zero_span m 0 ~offset:0 ~len:128;
  Alcotest.(check string) "zeroed" (String.make 128 '\000') (frame 0);
  Alcotest.(check string) "copy kept" (String.make 128 'z') (frame 1)

let test_phys_holes () =
  let m = Phys_mem.create ~page_size:512 ~frames:10 ~holes:[ (4, 6) ] () in
  Alcotest.(check bool) "3 exists" true (Phys_mem.frame_exists m 3);
  Alcotest.(check bool) "5 absent" false (Phys_mem.frame_exists m 5);
  Alcotest.(check int) "present count" 7
    (List.length (Phys_mem.present_frames m));
  Alcotest.check_raises "access hole"
    (Invalid_argument "Phys_mem: access to absent frame") (fun () ->
        ignore (Phys_mem.read m 5 ~offset:0 ~len:1))

let test_phys_bounds () =
  let m = Phys_mem.create ~page_size:64 ~frames:2 () in
  Alcotest.check_raises "overrun"
    (Invalid_argument "Phys_mem.read: out of frame") (fun () ->
        ignore (Phys_mem.read m 0 ~offset:60 ~len:8))

let test_phys_bad_page_size () =
  Alcotest.check_raises "not a power of two"
    (Invalid_argument "Phys_mem.create: page size must be a power of two")
    (fun () -> ignore (Phys_mem.create ~page_size:100 ~frames:2 ()))

(* Span operations against the same operations done frame by frame on
   a second memory and on a plain byte model.  A span that runs past the
   end of memory must raise and change nothing. *)
type span_op =
  | Write of int * int * int * int  (* frame, offset, len, fill seed *)
  | Zero of int * int * int
  | Copy of int * int * int         (* src, dst, frames *)
  | Read of int * int * int

let span_frames = 6
let span_page = 16

let span_op_gen =
  let open QCheck2.Gen in
  let f = int_range 0 span_frames and off = int_range 0 40
  and len = int_range 0 50 in
  oneof
    [ map3 (fun f o (l, c) -> Write (f, o, l, c)) f off
        (pair len (int_range 0 255));
      map3 (fun f o l -> Zero (f, o, l)) f off len;
      map3 (fun s d n -> Copy (s, d, n)) f f (int_range 0 3);
      map3 (fun f o l -> Read (f, o, l)) f off len ]

(* A span names an existing frame and ends inside memory. *)
let fits f ~offset ~len =
  f < span_frames && (f * span_page) + offset + len <= span_frames * span_page

(* Apply [g frame foff pos n] to each single-frame piece of a span. *)
let each_piece f ~offset ~len g =
  let rec go i =
    if i < len then begin
      let abs = offset + i in
      let n = min (span_page - (abs mod span_page)) (len - i) in
      g (f + (abs / span_page)) (abs mod span_page) i n;
      go (i + n)
    end
  in
  go 0

let pattern ~len ~seed = Bytes.init len (fun i -> Char.chr ((seed + i) land 255))

let span_matches_frames ops =
  let mk () = Phys_mem.create ~page_size:span_page ~frames:span_frames () in
  let spans = mk () and frames = mk () in
  let model = Bytes.make (span_frames * span_page) '\000' in
  let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
  let read_frames f ~offset ~len =
    let buf = Bytes.create len in
    each_piece f ~offset ~len (fun g foff pos n ->
        Phys_mem.blit_out frames g ~offset:foff ~len:n buf ~pos);
    buf
  in
  let step ok op =
    ok
    &&
    match op with
    | Write (f, offset, len, seed) ->
      let data = pattern ~len ~seed in
      if not (fits f ~offset ~len) then
        raises (fun () -> Phys_mem.write_span spans f ~offset data)
      else begin
        Phys_mem.write_span spans f ~offset data;
        each_piece f ~offset ~len (fun g foff pos n ->
            Phys_mem.write frames g ~offset:foff ~pos ~len:n data);
        Bytes.blit data 0 model ((f * span_page) + offset) len;
        true
      end
    | Zero (f, offset, len) ->
      if not (fits f ~offset ~len) then
        raises (fun () -> Phys_mem.zero_span spans f ~offset ~len)
      else begin
        Phys_mem.zero_span spans f ~offset ~len;
        each_piece f ~offset ~len (fun g foff _ n ->
            Phys_mem.write frames g ~offset:foff (Bytes.make n '\000'));
        Bytes.fill model ((f * span_page) + offset) len '\000';
        true
      end
    | Copy (src, dst, n) ->
      let len = n * span_page in
      if not (fits src ~offset:0 ~len && fits dst ~offset:0 ~len) then
        raises (fun () -> Phys_mem.copy_frames spans ~src ~dst ~frames:n)
      else if abs (src - dst) < n then true (* pages never overlap *)
      else begin
        Phys_mem.copy_frames spans ~src ~dst ~frames:n;
        for j = 0 to n - 1 do
          Phys_mem.copy_frame frames ~src:(src + j) ~dst:(dst + j)
        done;
        Bytes.blit model (src * span_page) model (dst * span_page) len;
        true
      end
    | Read (f, offset, len) ->
      let buf = Bytes.create len in
      if not (fits f ~offset ~len) then
        raises (fun () ->
            Phys_mem.blit_out_span spans f ~offset ~len buf ~pos:0)
      else begin
        Phys_mem.blit_out_span spans f ~offset ~len buf ~pos:0;
        Bytes.equal buf (read_frames f ~offset ~len)
        && Bytes.equal buf (Bytes.sub model ((f * span_page) + offset) len)
      end
  in
  List.fold_left step true ops
  && List.for_all
    (fun f ->
       let whole m = Phys_mem.read m f ~offset:0 ~len:span_page in
       Bytes.equal (whole spans) (whole frames)
       && Bytes.equal (whole spans) (Bytes.sub model (f * span_page) span_page))
    (List.init span_frames Fun.id)

let span_property =
  QCheck2.Test.make ~name:"span moves equal per-frame moves" ~count:300
    ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
    QCheck2.Gen.(list_size (int_range 1 30) span_op_gen)
    span_matches_frames

let test_phys_span_holes () =
  let m = Phys_mem.create ~page_size:64 ~frames:6 ~holes:[ (3, 3) ] () in
  let buf = Bytes.create 256 in
  let absent = Invalid_argument "Phys_mem: access to absent frame" in
  (* Frames 1 and 2 end just before the hole. *)
  Phys_mem.blit_out_span m 1 ~offset:0 ~len:128 buf ~pos:0;
  Alcotest.check_raises "read one byte into the hole" absent (fun () ->
      Phys_mem.blit_out_span m 1 ~offset:0 ~len:129 buf ~pos:0);
  Alcotest.check_raises "write across the hole" absent (fun () ->
      Phys_mem.write_span m 2 ~offset:60 (Bytes.make 80 'x'));
  Alcotest.check_raises "zero starting past frame 2" absent (fun () ->
      Phys_mem.zero_span m 2 ~offset:64 ~len:1);
  Alcotest.check_raises "copy from across the hole" absent (fun () ->
      Phys_mem.copy_frames m ~src:2 ~dst:4 ~frames:2);
  Alcotest.(check char) "failed write left frame 2 alone" '\000'
    (Phys_mem.read_byte m 2 ~offset:63)

let test_phys_byte_bounds () =
  let m = Phys_mem.create ~page_size:64 ~frames:2 () in
  Phys_mem.write_byte m 1 ~offset:0 'n';
  let out = Invalid_argument "Phys_mem: byte out of frame" in
  Alcotest.check_raises "read_byte at page_size" out (fun () ->
      ignore (Phys_mem.read_byte m 0 ~offset:64));
  Alcotest.check_raises "write_byte at page_size" out (fun () ->
      Phys_mem.write_byte m 0 ~offset:64 'x');
  Alcotest.(check char) "next frame untouched" 'n'
    (Phys_mem.read_byte m 1 ~offset:0)

(* ---- Tlb ----------------------------------------------------------------- *)

let entry ~asid ~vpn ~pfn = { Tlb.asid; vpn; pfn; prot = Prot.read_write }

let test_tlb_hit_miss () =
  let t = Tlb.create ~capacity:4 in
  Alcotest.(check bool) "miss" true (Tlb.lookup t ~asid:1 ~vpn:5 = None);
  Tlb.insert t (entry ~asid:1 ~vpn:5 ~pfn:9);
  (match Tlb.lookup t ~asid:1 ~vpn:5 with
   | Some e -> Alcotest.(check int) "pfn" 9 e.Tlb.pfn
   | None -> Alcotest.fail "expected hit")

let test_tlb_fifo_eviction () =
  let t = Tlb.create ~capacity:2 in
  Tlb.insert t (entry ~asid:1 ~vpn:1 ~pfn:1);
  Tlb.insert t (entry ~asid:1 ~vpn:2 ~pfn:2);
  Tlb.insert t (entry ~asid:1 ~vpn:3 ~pfn:3);
  Alcotest.(check bool) "oldest gone" true (Tlb.lookup t ~asid:1 ~vpn:1 = None);
  Alcotest.(check bool) "newest present" true
    (Tlb.lookup t ~asid:1 ~vpn:3 <> None)

let test_tlb_replace_same_key () =
  let t = Tlb.create ~capacity:2 in
  Tlb.insert t (entry ~asid:1 ~vpn:1 ~pfn:1);
  Tlb.insert t (entry ~asid:1 ~vpn:1 ~pfn:42);
  (match Tlb.lookup t ~asid:1 ~vpn:1 with
   | Some e -> Alcotest.(check int) "updated" 42 e.Tlb.pfn
   | None -> Alcotest.fail "expected hit");
  Alcotest.(check int) "one entry" 1 (List.length (Tlb.entries t))

let test_tlb_invalidate () =
  let t = Tlb.create ~capacity:8 in
  Tlb.insert t (entry ~asid:1 ~vpn:1 ~pfn:1);
  Tlb.insert t (entry ~asid:1 ~vpn:2 ~pfn:2);
  Tlb.insert t (entry ~asid:2 ~vpn:1 ~pfn:3);
  Tlb.invalidate_page t ~asid:1 ~vpn:1;
  Alcotest.(check bool) "page gone" true (Tlb.lookup t ~asid:1 ~vpn:1 = None);
  Tlb.invalidate_asid t ~asid:1;
  Alcotest.(check bool) "asid gone" true (Tlb.lookup t ~asid:1 ~vpn:2 = None);
  Alcotest.(check bool) "other asid stays" true
    (Tlb.lookup t ~asid:2 ~vpn:1 <> None);
  Tlb.invalidate_asid t ~asid:2;
  Alcotest.(check int) "empty" 0 (List.length (Tlb.entries t))

let test_tlb_zero_capacity () =
  let t = Tlb.create ~capacity:0 in
  Tlb.insert t (entry ~asid:1 ~vpn:1 ~pfn:1);
  Alcotest.(check bool) "never caches" true (Tlb.lookup t ~asid:1 ~vpn:1 = None)

(* The TLB as it was kept before its keys were packed into one int: a
   [Hashtbl] keyed by (asid, vpn) and a [Queue] of keys in FIFO order.
   The model property below holds the packed TLB to exactly this
   replacement order, stale slots and all. *)
module Ref_tlb = struct
  type t = {
    capacity : int;
    table : (int * int, Tlb.entry) Hashtbl.t;
    order : (int * int) Queue.t;
  }

  let create ~capacity =
    { capacity; table = Hashtbl.create 64; order = Queue.create () }

  let lookup t ~asid ~vpn = Hashtbl.find_opt t.table (asid, vpn)

  let rec evict_one t =
    match Queue.take_opt t.order with
    | None -> ()
    | Some key ->
      if Hashtbl.mem t.table key then Hashtbl.remove t.table key
      else evict_one t

  let compact t =
    let seen = Hashtbl.create 16 in
    let live = Queue.create () in
    Queue.iter
      (fun key ->
         if Hashtbl.mem t.table key && not (Hashtbl.mem seen key) then begin
           Hashtbl.add seen key ();
           Queue.add key live
         end)
      t.order;
    Queue.clear t.order;
    Queue.transfer live t.order

  let insert t (e : Tlb.entry) =
    if t.capacity > 0 then begin
      let key = (e.Tlb.asid, e.Tlb.vpn) in
      if not (Hashtbl.mem t.table key) then begin
        if Hashtbl.length t.table >= t.capacity then evict_one t;
        if Queue.length t.order > 2 * t.capacity then compact t;
        Queue.add key t.order
      end;
      Hashtbl.replace t.table key e
    end

  let drop t pred =
    Hashtbl.filter_map_inplace
      (fun key e -> if pred key then None else Some e)
      t.table

  let invalidate_page t ~asid ~vpn = Hashtbl.remove t.table (asid, vpn)

  let invalidate_range t ~asid ~lo_vpn ~hi_vpn =
    drop t (fun (a, v) -> a = asid && v >= lo_vpn && v < hi_vpn)

  let invalidate_asid t ~asid = drop t (fun (a, _) -> a = asid)

  let entries t =
    Queue.fold
      (fun acc key ->
         match Hashtbl.find_opt t.table key with
         | Some e -> e :: acc
         | None -> acc)
      [] t.order
    |> List.rev
end

type tlb_op =
  | Insert of int * int * int  (* asid, vpn, pfn *)
  | Lookup of int * int
  | Inv_page of int * int
  | Inv_range of int * int * int  (* asid, lo, hi *)
  | Inv_asid of int

let tlb_asids = 3
let tlb_vpns = 10

(* Few asids and vpns, so keys come back after an invalidation and
   stale FIFO slots meet live ones. *)
let tlb_op_gen =
  let open QCheck2.Gen in
  let asid = int_range 0 (tlb_asids - 1) and vpn = int_range 0 (tlb_vpns - 1) in
  frequency
    [ (6, map3 (fun a v p -> Insert (a, v, p)) asid vpn (int_range 0 99));
      (2, map2 (fun a v -> Lookup (a, v)) asid vpn);
      (2, map2 (fun a v -> Inv_page (a, v)) asid vpn);
      (1, map3 (fun a lo n -> Inv_range (a, lo, lo + n)) asid vpn
            (int_range (-1) 6));
      (1, map (fun a -> Inv_asid a) asid) ]

let show_tlb_op = function
  | Insert (a, v, p) -> Printf.sprintf "insert %d:%d->%d" a v p
  | Lookup (a, v) -> Printf.sprintf "lookup %d:%d" a v
  | Inv_page (a, v) -> Printf.sprintf "inv_page %d:%d" a v
  | Inv_range (a, lo, hi) -> Printf.sprintf "inv_range %d:[%d,%d)" a lo hi
  | Inv_asid a -> Printf.sprintf "inv_asid %d" a

let tlb_matches_reference (capacity, ops) =
  let t = Tlb.create ~capacity and r = Ref_tlb.create ~capacity in
  let same_lookups () =
    List.for_all
      (fun asid ->
         List.for_all
           (fun vpn -> Tlb.lookup t ~asid ~vpn = Ref_tlb.lookup r ~asid ~vpn)
           (List.init tlb_vpns Fun.id))
      (List.init tlb_asids Fun.id)
  in
  List.for_all
    (fun op ->
       (match op with
        | Insert (asid, vpn, pfn) ->
          let e = { Tlb.asid; vpn; pfn; prot = Prot.read_write } in
          Tlb.insert t e;
          Ref_tlb.insert r e
        | Lookup _ -> ()
        | Inv_page (asid, vpn) ->
          Tlb.invalidate_page t ~asid ~vpn;
          Ref_tlb.invalidate_page r ~asid ~vpn
        | Inv_range (asid, lo_vpn, hi_vpn) ->
          Tlb.invalidate_range t ~asid ~lo_vpn ~hi_vpn;
          Ref_tlb.invalidate_range r ~asid ~lo_vpn ~hi_vpn
        | Inv_asid asid ->
          Tlb.invalidate_asid t ~asid;
          Ref_tlb.invalidate_asid r ~asid);
       same_lookups () && Tlb.entries t = Ref_tlb.entries r)
    ops

let tlb_model_property =
  QCheck2.Test.make ~name:"tlb matches the Hashtbl+Queue reference"
    ~count:500
    ~print:(fun (c, ops) ->
        Printf.sprintf "capacity %d: %s" c
          (String.concat "; " (List.map show_tlb_op ops)))
    QCheck2.Gen.(
      pair (oneofl [ 0; 1; 2; 3; 8; 64 ])
        (list_size (int_range 1 120) tlb_op_gen))
    tlb_matches_reference

let test_tlb_key_range () =
  let t = Tlb.create ~capacity:4 in
  let refused what e =
    Alcotest.check_raises what
      (Invalid_argument "Tlb.insert: asid or vpn out of range") (fun () ->
        Tlb.insert t e)
  in
  refused "vpn too wide" (entry ~asid:1 ~vpn:(1 lsl 32) ~pfn:1);
  refused "negative vpn" (entry ~asid:1 ~vpn:(-1) ~pfn:1);
  refused "asid too wide" (entry ~asid:(1 lsl 30) ~vpn:0 ~pfn:1);
  refused "negative asid" (entry ~asid:(-1) ~vpn:0 ~pfn:1);
  let top = entry ~asid:((1 lsl 30) - 1) ~vpn:((1 lsl 32) - 1) ~pfn:7 in
  Tlb.insert t top;
  Alcotest.(check bool) "widest key cached" true
    (Tlb.lookup t ~asid:top.Tlb.asid ~vpn:top.Tlb.vpn = Some top);
  Alcotest.(check bool) "neighbour asid misses" true
    (Tlb.lookup t ~asid:(top.Tlb.asid - 1) ~vpn:top.Tlb.vpn = None);
  Alcotest.(check bool) "unfit vpn looks up as a miss" true
    (Tlb.lookup t ~asid:1 ~vpn:(1 lsl 32) = None)

(* ---- Machine ------------------------------------------------------------ *)

(* A tiny translator over a mutable mapping table. *)
let make_translator ~asid table =
  { Translator.asid;
    lookup =
      (fun vpn ->
         match Hashtbl.find_opt table vpn with
         | Some (pfn, prot) -> Translator.Mapped { pfn; prot }
         | None -> Translator.Missing);
    walk_cost = 10; hw_walk = true }

let test_machine ?(cpus = 1) () =
  Machine.create ~arch:Arch.uvax2 ~memory_frames:64 ~cpus ()

let test_machine_translate_and_data () =
  let m = test_machine () in
  let table = Hashtbl.create 8 in
  Hashtbl.replace table 0 (7, Prot.read_write);
  Hashtbl.replace table 1 (3, Prot.read_write);
  Machine.set_translator m ~cpu:0 (Some (make_translator ~asid:1 table));
  (* Write spanning the page boundary at 512. *)
  Machine.write m ~cpu:0 ~va:508 (Bytes.of_string "ABCDEFGH");
  Alcotest.(check string) "spanning read" "ABCDEFGH"
    (Bytes.to_string (Machine.read m ~cpu:0 ~va:508 ~len:8));
  (* Data physically landed in frames 7 then 3. *)
  Alcotest.(check string) "frame 7 tail" "ABCD"
    (Bytes.to_string (Phys_mem.read (Machine.phys m) 7 ~offset:508 ~len:4));
  Alcotest.(check string) "frame 3 head" "EFGH"
    (Bytes.to_string (Phys_mem.read (Machine.phys m) 3 ~offset:0 ~len:4))

let test_machine_fault_handler_repairs () =
  let m = test_machine () in
  let table = Hashtbl.create 8 in
  Machine.set_translator m ~cpu:0 (Some (make_translator ~asid:1 table));
  let faults = ref 0 in
  Machine.set_fault_handler m (fun ~cpu:_ f ->
      incr faults;
      Hashtbl.replace table (f.Machine.fault_va / 512) (5, Prot.read_write));
  Machine.write_byte m ~cpu:0 ~va:100 'x';
  Alcotest.(check int) "one fault" 1 !faults;
  Alcotest.(check char) "then works" 'x' (Machine.read_byte m ~cpu:0 ~va:100);
  Alcotest.(check int) "no more faults" 1 !faults

let test_machine_violation_without_handler () =
  let m = test_machine () in
  Machine.set_translator m ~cpu:0
    (Some (make_translator ~asid:1 (Hashtbl.create 1)));
  (try
     ignore (Machine.read_byte m ~cpu:0 ~va:0);
     Alcotest.fail "expected violation"
   with Machine.Memory_violation _ -> ())

let test_machine_unresolved_fault () =
  let m = test_machine () in
  Machine.set_translator m ~cpu:0
    (Some (make_translator ~asid:1 (Hashtbl.create 1)));
  (* A handler that claims success but fixes nothing must not loop
     forever. *)
  Machine.set_fault_handler m (fun ~cpu:_ _ -> ());
  (try
     ignore (Machine.read_byte m ~cpu:0 ~va:0);
     Alcotest.fail "expected Unresolved_fault"
   with Machine.Unresolved_fault _ -> ())

let test_machine_protection_fault_on_write () =
  let m = test_machine () in
  let table = Hashtbl.create 8 in
  Hashtbl.replace table 0 (2, Prot.read_only);
  Machine.set_translator m ~cpu:0 (Some (make_translator ~asid:1 table));
  let upgraded = ref false in
  Machine.set_fault_handler m (fun ~cpu:_ f ->
      Alcotest.(check bool) "protection kind" true
        (f.Machine.fault_kind = `Protection);
      upgraded := true;
      Hashtbl.replace table 0 (2, Prot.read_write));
  ignore (Machine.read_byte m ~cpu:0 ~va:8);
  Alcotest.(check bool) "read ok without fault" false !upgraded;
  Machine.write_byte m ~cpu:0 ~va:8 'w';
  Alcotest.(check bool) "write faulted and repaired" true !upgraded

let test_machine_clock_charging () =
  let m = test_machine ~cpus:2 () in
  Machine.charge m ~cpu:0 100;
  Machine.charge m ~cpu:1 250;
  Alcotest.(check int) "cpu0" 100 (Machine.cycles m ~cpu:0);
  Alcotest.(check int) "cpu1" 250 (Machine.cycles m ~cpu:1);
  Alcotest.(check int) "max" 250 (Machine.max_cycles m);
  Machine.reset_clocks m;
  Alcotest.(check int) "reset" 0 (Machine.max_cycles m)

let test_machine_disk_charge () =
  let m = test_machine () in
  Machine.charge_disk m ~cpu:0 ~write:false ~bytes:4096;
  let s = Machine.stats m in
  Alcotest.(check int) "ops" 1 s.Machine.disk_ops;
  Alcotest.(check int) "bytes" 4096 s.Machine.disk_bytes;
  Alcotest.(check bool) "charged" true (Machine.cycles m ~cpu:0 > 0)

let shootdown_setup strategy =
  let m =
    Machine.create ~arch:Arch.uvax2 ~memory_frames:64 ~cpus:2
      ~shootdown:strategy ()
  in
  let table = Hashtbl.create 8 in
  Hashtbl.replace table 0 (7, Prot.read_write);
  let tr = make_translator ~asid:1 table in
  Machine.set_translator m ~cpu:0 (Some tr);
  Machine.set_translator m ~cpu:1 (Some tr);
  (* Warm both TLBs. *)
  ignore (Machine.read_byte m ~cpu:0 ~va:0);
  ignore (Machine.read_byte m ~cpu:1 ~va:0);
  (m, table)

let test_shootdown_immediate () =
  let m, table = shootdown_setup Machine.Immediate_ipi in
  Hashtbl.remove table 0;
  Machine.shootdown m ~initiator:0 ~targets:[ 0; 1 ]
    [ Machine.Flush_page { asid = 1; vpn = 0 } ] ~urgent:false;
  Alcotest.(check int) "one IPI" 1 (Machine.stats m).Machine.ipis;
  (* CPU 1's TLB entry is gone: the next access faults. *)
  Machine.set_fault_handler m (fun ~cpu:_ _ ->
      Hashtbl.replace table 0 (7, Prot.read_write));
  ignore (Machine.read_byte m ~cpu:1 ~va:0);
  Alcotest.(check int) "faulted" 1 (Machine.stats m).Machine.faults

let test_shootdown_deferred_waits () =
  let m, _table = shootdown_setup Machine.Deferred_timer in
  let before = Machine.cycles m ~cpu:0 in
  Machine.shootdown m ~initiator:0 ~targets:[ 0; 1 ] [ Machine.Flush_asid 1 ]
    ~urgent:false;
  Alcotest.(check int) "no IPIs" 0 (Machine.stats m).Machine.ipis;
  Alcotest.(check bool) "initiator waited for the tick" true
    (Machine.cycles m ~cpu:0 - before > 1000);
  Alcotest.(check int) "flush applied at tick" 1
    (Machine.stats m).Machine.deferred_flushes

let test_shootdown_lazy_stale () =
  let m, _table = shootdown_setup Machine.Lazy_local in
  Machine.shootdown m ~initiator:0 ~targets:[ 0; 1 ]
    [ Machine.Flush_page { asid = 1; vpn = 0 } ] ~urgent:false;
  (* CPU 1 still hits its stale entry, pending on the remote; the machine
     counts it. *)
  ignore (Machine.read_byte m ~cpu:1 ~va:0);
  Alcotest.(check int) "stale use counted" 1
    (Machine.stats m).Machine.stale_tlb_uses;
  Machine.tick m;
  Alcotest.(check int) "drained: deferred flush counted" 1
    (Machine.stats m).Machine.deferred_flushes;
  ignore (Machine.read_byte m ~cpu:1 ~va:0);
  Alcotest.(check int) "no stale use after the tick" 1
    (Machine.stats m).Machine.stale_tlb_uses

let test_shootdown_urgent_overrides_lazy () =
  let m, _table = shootdown_setup Machine.Lazy_local in
  Machine.shootdown m ~initiator:0 ~targets:[ 0; 1 ]
    [ Machine.Flush_page { asid = 1; vpn = 0 } ] ~urgent:true;
  Alcotest.(check int) "IPI despite lazy strategy" 1
    (Machine.stats m).Machine.ipis;
  Machine.tick m;
  Alcotest.(check int) "nothing pending" 0
    (Machine.stats m).Machine.deferred_flushes

let test_rmw_bug_reporting () =
  (* On the NS32082, a write that protection-faults is reported as a
     read. *)
  let m = Machine.create ~arch:Arch.ns32082 ~memory_frames:64 () in
  let table = Hashtbl.create 8 in
  Hashtbl.replace table 0 (1, Prot.read_only);
  Machine.set_translator m ~cpu:0 (Some (make_translator ~asid:1 table));
  let reported = ref None in
  Machine.set_fault_handler m (fun ~cpu:_ f ->
      reported := Some f.Machine.fault_write;
      Hashtbl.replace table 0 (1, Prot.read_write));
  Machine.write_byte m ~cpu:0 ~va:4 'w';
  Alcotest.(check (option bool)) "write reported as read" (Some false)
    !reported

let test_no_address_space () =
  let m = test_machine () in
  (try
     ignore (Machine.read_byte m ~cpu:0 ~va:0);
     Alcotest.fail "expected violation"
   with Machine.Memory_violation reason ->
     Alcotest.(check string) "reason" "no address space" reason)

let test_tlb_used_on_second_access () =
  let m = test_machine () in
  let table = Hashtbl.create 8 in
  Hashtbl.replace table 0 (7, Prot.read_write);
  Machine.set_translator m ~cpu:0 (Some (make_translator ~asid:1 table));
  ignore (Machine.read_byte m ~cpu:0 ~va:0);
  let misses = (Machine.stats m).Machine.tlb_miss_count in
  ignore (Machine.read_byte m ~cpu:0 ~va:4);
  Alcotest.(check int) "no new misses" misses
    (Machine.stats m).Machine.tlb_miss_count;
  Alcotest.(check bool) "hit recorded" true
    ((Machine.stats m).Machine.tlb_hit_count >= 1)

(* ---- Arch sanity ---------------------------------------------------------- *)

let test_arch_catalogue () =
  Alcotest.(check int) "seven architectures" 7 (List.length Arch.all);
  let names = List.map (fun a -> a.Arch.name) Arch.all in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun a ->
       let p = a.Arch.hw_page_size in
       Alcotest.(check bool) (a.Arch.name ^ ": page power of two") true
         (p > 0 && p land (p - 1) = 0);
       Alcotest.(check bool) (a.Arch.name ^ ": positive clock") true
         (a.Arch.cycles_per_ms > 0);
       let c = a.Arch.cost in
       Alcotest.(check bool) (a.Arch.name ^ ": sane costs") true
         (c.Arch.mem_op > 0 && c.Arch.move_16b > 0
          && c.Arch.fault_overhead > 0 && c.Arch.disk_latency > 0))
    Arch.all

let test_cycles_to_ms () =
  Alcotest.(check (float 0.001)) "1 ms on uVAX II" 1.0
    (Arch.cycles_to_ms Arch.uvax2 Arch.uvax2.Arch.cycles_per_ms);
  Alcotest.(check (float 0.001)) "half ms" 0.5
    (Arch.cycles_to_ms Arch.vax8650 (Arch.vax8650.Arch.cycles_per_ms / 2))

let test_machine_zero_len_access () =
  let m = test_machine () in
  let table = Hashtbl.create 4 in
  Hashtbl.replace table 0 (1, Prot.read_write);
  Machine.set_translator m ~cpu:0 (Some (make_translator ~asid:1 table));
  Alcotest.(check int) "empty read" 0
    (Bytes.length (Machine.read m ~cpu:0 ~va:0 ~len:0));
  Machine.write m ~cpu:0 ~va:0 (Bytes.create 0)

let () =
  Alcotest.run "mach_hw"
    [ ( "prot",
        [ Alcotest.test_case "constants" `Quick test_prot_constants;
          Alcotest.test_case "allows" `Quick test_prot_allows;
          Alcotest.test_case "remove_write" `Quick test_prot_remove_write ]
        @ List.map QCheck_alcotest.to_alcotest prot_lattice_tests );
      ( "phys_mem",
        [ Alcotest.test_case "read/write" `Quick test_phys_rw;
          Alcotest.test_case "zero/copy frames" `Quick test_phys_zero_copy;
          Alcotest.test_case "holes" `Quick test_phys_holes;
          Alcotest.test_case "bounds" `Quick test_phys_bounds;
          Alcotest.test_case "bad page size" `Quick test_phys_bad_page_size;
          Alcotest.test_case "span into a hole" `Quick test_phys_span_holes;
          Alcotest.test_case "byte bounds" `Quick test_phys_byte_bounds;
          QCheck_alcotest.to_alcotest span_property ] );
      ( "tlb",
        [ Alcotest.test_case "hit/miss" `Quick test_tlb_hit_miss;
          Alcotest.test_case "fifo eviction" `Quick test_tlb_fifo_eviction;
          Alcotest.test_case "replace same key" `Quick
            test_tlb_replace_same_key;
          Alcotest.test_case "invalidate" `Quick test_tlb_invalidate;
          Alcotest.test_case "zero capacity" `Quick test_tlb_zero_capacity;
          Alcotest.test_case "key range" `Quick test_tlb_key_range;
          QCheck_alcotest.to_alcotest tlb_model_property ]
      );
      ( "machine",
        [ Alcotest.test_case "translate + data" `Quick
            test_machine_translate_and_data;
          Alcotest.test_case "fault handler repairs" `Quick
            test_machine_fault_handler_repairs;
          Alcotest.test_case "violation without handler" `Quick
            test_machine_violation_without_handler;
          Alcotest.test_case "unresolved fault detected" `Quick
            test_machine_unresolved_fault;
          Alcotest.test_case "protection fault on write" `Quick
            test_machine_protection_fault_on_write;
          Alcotest.test_case "clock charging" `Quick
            test_machine_clock_charging;
          Alcotest.test_case "disk charge" `Quick test_machine_disk_charge;
          Alcotest.test_case "no address space" `Quick test_no_address_space;
          Alcotest.test_case "TLB used on second access" `Quick
            test_tlb_used_on_second_access;
          Alcotest.test_case "rmw bug reporting" `Quick test_rmw_bug_reporting
        ] );
      ( "arch",
        [ Alcotest.test_case "catalogue" `Quick test_arch_catalogue;
          Alcotest.test_case "cycles_to_ms" `Quick test_cycles_to_ms;
          Alcotest.test_case "zero-length access" `Quick
            test_machine_zero_len_access ] );
      ( "shootdown",
        [ Alcotest.test_case "immediate IPI" `Quick test_shootdown_immediate;
          Alcotest.test_case "deferred waits for tick" `Quick
            test_shootdown_deferred_waits;
          Alcotest.test_case "lazy leaves stale entries" `Quick
            test_shootdown_lazy_stale;
          Alcotest.test_case "urgent overrides lazy" `Quick
            test_shootdown_urgent_overrides_lazy ] ) ]

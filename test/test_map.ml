(* Tests for Vm_map: entry management, clipping, allocation, protection
   and inheritance attributes, fork semantics at the map level, virtual
   copies, and the sorted-non-overlapping invariant under random ops. *)

open Mach_hw
open Mach_core
open Mach_pmap

let ps = 4096 (* uVAX II with page_multiple 8 *)

let setup () =
  let machine = Machine.create ~arch:Arch.uvax2 ~memory_frames:2048 () in
  let kernel = Kernel.create ~page_multiple:8 machine in
  (machine, kernel, Kernel.sys kernel)

let fresh_map sys =
  let pmap = Pmap_domain.create_pmap sys.Vm_sys.domain in
  Vm_map.create sys ~pmap:(Some pmap) ~low:ps ~high:(1 lsl 30)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Kr.to_string e)

let err name expected = function
  | Ok _ -> Alcotest.fail (name ^ ": expected error")
  | Error e ->
    Alcotest.(check string) name (Kr.to_string expected) (Kr.to_string e)

(* The structural invariant: entries sorted, page aligned, non
   overlapping, within bounds. *)
let check_invariant m =
  let rec walk last = function
    | [] -> ()
    | e :: rest ->
      Alcotest.(check bool) "aligned start" true
        (e.Types.e_start mod ps = 0);
      Alcotest.(check bool) "aligned end" true (e.Types.e_end mod ps = 0);
      Alcotest.(check bool) "non-empty" true
        (e.Types.e_end > e.Types.e_start);
      Alcotest.(check bool) "sorted, no overlap" true
        (e.Types.e_start >= last);
      walk e.Types.e_end rest
  in
  walk min_int (Vm_map.entries m)

(* ---- allocation ---------------------------------------------------- *)

let test_allocate_anywhere () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:(3 * ps) ~anywhere:true ()) in
  let b = ok (Vm_map.allocate sys m ~size:ps ~anywhere:true ()) in
  Alcotest.(check bool) "disjoint" true (b >= a + (3 * ps) || b + ps <= a);
  Alcotest.(check int) "two entries" 2 (Vm_map.entry_count m);
  check_invariant m

let test_allocate_rounds_size () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:100 ~anywhere:true ()) in
  (match Vm_map.find m ~va:a with
   | Some e ->
     Alcotest.(check int) "rounded to page" ps (Types.entry_size e)
   | None -> Alcotest.fail "entry missing")

let test_allocate_at () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let at = 16 * ps in
  let a = ok (Vm_map.allocate sys m ~at ~size:ps ~anywhere:false ()) in
  Alcotest.(check int) "exact placement" at a;
  err "overlap" Kr.No_space
    (Vm_map.allocate sys m ~at ~size:ps ~anywhere:false ());
  (* Anywhere with a taken hint still succeeds elsewhere. *)
  let b = ok (Vm_map.allocate sys m ~at ~size:ps ~anywhere:true ()) in
  Alcotest.(check bool) "moved" true (b <> at)

let test_allocate_fills_gap () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:(2 * ps) ~anywhere:true ()) in
  let _b = ok (Vm_map.allocate sys m ~size:(2 * ps) ~anywhere:true ()) in
  ok (Vm_map.deallocate_range sys m ~addr:a ~size:(2 * ps));
  let c = ok (Vm_map.allocate sys m ~size:ps ~anywhere:true ()) in
  Alcotest.(check int) "first fit reuses gap" a c

let test_allocate_bad_args () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  err "zero size" Kr.Invalid_argument
    (Vm_map.allocate sys m ~size:0 ~anywhere:true ());
  err "no at" Kr.Invalid_argument
    (Vm_map.allocate sys m ~size:ps ~anywhere:false ());
  err "below map" Kr.Invalid_address
    (Vm_map.allocate sys m ~at:0 ~size:ps ~anywhere:false ())

let test_allocate_no_space () =
  let _, _, sys = setup () in
  let pmap = Pmap_domain.create_pmap sys.Vm_sys.domain in
  let m = Vm_map.create sys ~pmap:(Some pmap) ~low:ps ~high:(4 * ps) in
  let _ = ok (Vm_map.allocate sys m ~size:(3 * ps) ~anywhere:true ()) in
  err "full" Kr.No_space (Vm_map.allocate sys m ~size:ps ~anywhere:true ())

(* ---- deallocate and clipping ---------------------------------------- *)

let test_deallocate_middle_clips () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:(5 * ps) ~anywhere:true ()) in
  ok (Vm_map.deallocate_range sys m ~addr:(a + (2 * ps)) ~size:ps);
  Alcotest.(check int) "split into two" 2 (Vm_map.entry_count m);
  Alcotest.(check bool) "hole unmapped" true
    (Vm_map.find m ~va:(a + (2 * ps)) = None);
  Alcotest.(check bool) "left present" true (Vm_map.find m ~va:a <> None);
  Alcotest.(check bool) "right present" true
    (Vm_map.find m ~va:(a + (4 * ps)) <> None);
  check_invariant m

let test_deallocate_unallocated_is_noop () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  ok (Vm_map.deallocate_range sys m ~addr:(64 * ps) ~size:(4 * ps));
  Alcotest.(check int) "still empty" 0 (Vm_map.entry_count m)

let test_deallocate_spanning_entries () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:(2 * ps) ~anywhere:true ()) in
  let b = ok (Vm_map.allocate sys m ~size:(2 * ps) ~anywhere:true ()) in
  Alcotest.(check int) "adjacent" (a + (2 * ps)) b;
  (* Remove the back half of the first and front half of the second. *)
  ok (Vm_map.deallocate_range sys m ~addr:(a + ps) ~size:(2 * ps));
  Alcotest.(check bool) "a kept" true (Vm_map.find m ~va:a <> None);
  Alcotest.(check bool) "a+1 gone" true (Vm_map.find m ~va:(a + ps) = None);
  Alcotest.(check bool) "b gone" true (Vm_map.find m ~va:b = None);
  Alcotest.(check bool) "b+1 kept" true (Vm_map.find m ~va:(b + ps) <> None);
  check_invariant m

(* ---- protection ------------------------------------------------------ *)

let test_protect_clips_and_sets () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:(4 * ps) ~anywhere:true ()) in
  ok
    (Vm_map.protect sys m ~addr:(a + ps) ~size:ps ~set_max:false
       ~prot:Prot.read_only);
  Alcotest.(check int) "three entries" 3 (Vm_map.entry_count m);
  (match Vm_map.find m ~va:(a + ps) with
   | Some e ->
     Alcotest.(check string) "ro" "r--" (Prot.to_string e.Types.e_prot)
   | None -> Alcotest.fail "entry missing");
  (match Vm_map.find m ~va:a with
   | Some e ->
     Alcotest.(check string) "rw" "rw-" (Prot.to_string e.Types.e_prot)
   | None -> Alcotest.fail "entry missing");
  check_invariant m

let test_protect_max_rules () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:ps ~anywhere:true ()) in
  (* Lower the maximum below current: current is dragged down. *)
  ok
    (Vm_map.protect sys m ~addr:a ~size:ps ~set_max:true
       ~prot:Prot.read_only);
  (match Vm_map.find m ~va:a with
   | Some e ->
     Alcotest.(check string) "current dragged" "r--"
       (Prot.to_string e.Types.e_prot);
     Alcotest.(check string) "max lowered" "r--"
       (Prot.to_string e.Types.e_max_prot)
   | None -> Alcotest.fail "entry missing");
  (* Raising current above the (lowered) maximum fails. *)
  err "beyond max" Kr.Protection_failure
    (Vm_map.protect sys m ~addr:a ~size:ps ~set_max:false
       ~prot:Prot.read_write)

let test_inheritance_attr () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:(2 * ps) ~anywhere:true ()) in
  ok (Vm_map.set_inheritance sys m ~addr:a ~size:ps Inheritance.Shared);
  let regions = Vm_map.regions m in
  Alcotest.(check int) "clipped" 2 (List.length regions);
  let r0 = List.hd regions in
  Alcotest.(check string) "shared" "shared"
    (Inheritance.to_string r0.Vm_map.ri_inherit);
  let r1 = List.nth regions 1 in
  Alcotest.(check string) "copy" "copy"
    (Inheritance.to_string r1.Vm_map.ri_inherit)

(* ---- hint behaviour --------------------------------------------------- *)

let test_find_uses_hint () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let addrs =
    List.init 8 (fun _ -> ok (Vm_map.allocate sys m ~size:ps ~anywhere:true ()))
  in
  (* Sequential finds, then a backward find. *)
  List.iter (fun a -> ignore (Vm_map.find m ~va:a)) addrs;
  let first = List.hd addrs in
  (match Vm_map.find m ~va:first with
   | Some e -> Alcotest.(check int) "found first again" first e.Types.e_start
   | None -> Alcotest.fail "hint broke backward search")

(* ---- fork at the map level -------------------------------------------- *)

let child_of sys parent =
  let pmap = Pmap_domain.create_pmap sys.Vm_sys.domain in
  Vm_map.fork sys parent ~child_pmap:pmap

let test_fork_inheritance_shapes () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a_copy = ok (Vm_map.allocate sys m ~size:ps ~anywhere:true ()) in
  let a_share = ok (Vm_map.allocate sys m ~size:ps ~anywhere:true ()) in
  let a_none = ok (Vm_map.allocate sys m ~size:ps ~anywhere:true ()) in
  ok (Vm_map.set_inheritance sys m ~addr:a_share ~size:ps Inheritance.Shared);
  ok (Vm_map.set_inheritance sys m ~addr:a_none ~size:ps Inheritance.None_);
  let child = child_of sys m in
  Alcotest.(check bool) "copy present" true
    (Vm_map.find child ~va:a_copy <> None);
  Alcotest.(check bool) "shared present" true
    (Vm_map.find child ~va:a_share <> None);
  Alcotest.(check bool) "none absent" true
    (Vm_map.find child ~va:a_none = None);
  (* Shared entries now point at a sharing map in both parent and child. *)
  let shared_region parent_or_child =
    List.find
      (fun r -> r.Vm_map.ri_start = a_share)
      (Vm_map.regions parent_or_child)
  in
  Alcotest.(check bool) "parent shared" true
    (shared_region m).Vm_map.ri_shared;
  Alcotest.(check bool) "child shared" true
    (shared_region child).Vm_map.ri_shared;
  check_invariant child

let test_fork_untouched_region_stays_lazy () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:ps ~anywhere:true ()) in
  let child = child_of sys m in
  (match Vm_map.find child ~va:a with
   | Some e ->
     Alcotest.(check bool) "no backing yet" true
       (e.Types.e_backing = Types.No_backing);
     Alcotest.(check bool) "no needs_copy" false e.Types.e_needs_copy
   | None -> Alcotest.fail "child entry missing")

let test_fork_marks_both_sides_cow () =
  let machine, kernel, sys = setup () in
  ignore kernel;
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:ps ~anywhere:true ()) in
  (* Touch to force a backing object. *)
  ignore (ok (Vm_fault.fault sys m ~va:a ~write:true));
  let child = child_of sys m in
  let needs_copy map =
    match Vm_map.find map ~va:a with
    | Some e -> e.Types.e_needs_copy
    | None -> false
  in
  Alcotest.(check bool) "parent cow" true (needs_copy m);
  Alcotest.(check bool) "child cow" true (needs_copy child);
  (* Both reference the same object. *)
  (match
     ( Vm_map.resolve_object_at sys m ~va:a,
       Vm_map.resolve_object_at sys child ~va:a )
   with
   | Some (o1, _), Some (o2, _) ->
     Alcotest.(check bool) "same object" true (o1 == o2);
     Alcotest.(check int) "two refs" 2 o1.Types.obj_ref
   | _ -> Alcotest.fail "objects missing");
  ignore machine

(* What each entry of [m] carries: ((start, end, offset), ((prot,
   max_prot, inheritance), needs_copy)). *)
let shapes m =
  List.map
    (fun e ->
       Types.
         ( (e.e_start, e.e_end, e.e_offset),
           ( ( Prot.to_string e.e_prot, Prot.to_string e.e_max_prot,
               Inheritance.to_string e.e_inherit ),
             e.e_needs_copy ) ))
    (Vm_map.entries m)

let shape_t =
  Alcotest.(
    list (pair (triple int int int) (pair (triple string string string) bool)))

(* A Copy entry's lowered rights survive fork: the child entry keeps the
   parent's prot, max_prot and inheritance, backed or not. *)
let test_fork_keeps_lowered_rights () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:(2 * ps) ~anywhere:true ()) in
  let b = ok (Vm_map.allocate sys m ~size:ps ~anywhere:true ()) in
  ignore (ok (Vm_fault.fault sys m ~va:a ~write:true));
  List.iter
    (fun (addr, size) ->
       ok
         (Vm_map.protect sys m ~addr ~size ~set_max:true
            ~prot:Prot.read_execute);
       ok
         (Vm_map.protect sys m ~addr ~size ~set_max:false
            ~prot:Prot.read_only);
       ok (Vm_map.set_inheritance sys m ~addr ~size Inheritance.Copy))
    [ (a, 2 * ps); (b, ps) ];
  let child = child_of sys m in
  let r = Prot.to_string Prot.read_only
  and rx = Prot.to_string Prot.read_execute
  and copy = Inheritance.to_string Inheritance.Copy in
  Alcotest.check shape_t "child entries keep the parent's rights"
    [ ((a, a + (2 * ps), 0), ((r, rx, copy), true));
      ((b, b + ps, 0), ((r, rx, copy), false)) ]
    (shapes child);
  check_invariant child

(* An entry that a first fork turned into a sharing map, set to Copy
   later, forks into one needs-copy child entry per piece of the sharing
   map its window covers, each with the outer entry's rights. *)
let test_fork_copies_sharing_map_pieces () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:(4 * ps) ~anywhere:true ()) in
  ignore (ok (Vm_fault.fault sys m ~va:a ~write:true));
  ok (Vm_map.set_inheritance sys m ~addr:a ~size:(4 * ps) Inheritance.Shared);
  let sharer = child_of sys m in
  (* The sharer copies its second page into a grandchild, which clips
     the sharing map into three pieces under the parent's one entry. *)
  ok
    (Vm_map.set_inheritance sys sharer ~addr:(a + ps) ~size:ps
       Inheritance.Copy);
  ignore (child_of sys sharer);
  Alcotest.(check int) "the parent keeps one entry" 1 (Vm_map.entry_count m);
  ok
    (Vm_map.protect sys m ~addr:a ~size:(4 * ps) ~set_max:true
       ~prot:Prot.read_execute);
  ok (Vm_map.set_inheritance sys m ~addr:a ~size:(4 * ps) Inheritance.Copy);
  let child = child_of sys m in
  let rights =
    ( Prot.to_string Prot.read_only, Prot.to_string Prot.read_execute,
      Inheritance.to_string Inheritance.Copy )
  in
  Alcotest.check shape_t "one needs-copy entry per piece"
    [ ((a, a + ps, 0), (rights, true));
      ((a + ps, a + (2 * ps), ps), (rights, true));
      ((a + (2 * ps), a + (4 * ps), 2 * ps), (rights, true)) ]
    (shapes child);
  List.iter
    (fun r ->
       Alcotest.(check bool) "not shared" false r.Vm_map.ri_shared)
    (Vm_map.regions child);
  check_invariant child

(* A virtual copy is mapped read/write, with the default maximum and
   inheritance, whatever rights its source had. *)
let test_copy_gets_default_rights () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:(2 * ps) ~anywhere:true ()) in
  ignore (ok (Vm_fault.fault sys m ~va:a ~write:true));
  ok
    (Vm_map.protect sys m ~addr:a ~size:(2 * ps) ~set_max:true
       ~prot:Prot.read_only);
  ok (Vm_map.set_inheritance sys m ~addr:a ~size:(2 * ps) Inheritance.None_);
  let c = ok (Vm_map.extract_copy sys m ~addr:a ~size:(2 * ps)) in
  let m2 = fresh_map sys in
  let b = ok (Vm_map.insert_copy sys m2 c ()) in
  Alcotest.check shape_t "read/write, default maximum and inheritance"
    [ ((b, b + (2 * ps), 0),
       ( ( Prot.to_string Prot.read_write, Prot.to_string Prot.all,
           Inheritance.to_string Inheritance.default ),
         true )) ]
    (shapes m2)

(* ---- virtual copies --------------------------------------------------- *)

let test_extract_insert_copy () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:(2 * ps) ~anywhere:true ()) in
  ignore (ok (Vm_fault.fault sys m ~va:a ~write:true));
  let c = ok (Vm_map.extract_copy sys m ~addr:a ~size:(2 * ps)) in
  Alcotest.(check int) "copy size" (2 * ps) (Vm_map.copy_size c);
  let m2 = fresh_map sys in
  let b = ok (Vm_map.insert_copy sys m2 c ()) in
  Alcotest.(check bool) "mapped in target" true (Vm_map.find m2 ~va:b <> None);
  (* Touched part shares the object (copy-on-write). *)
  (match
     ( Vm_map.resolve_object_at sys m ~va:a,
       Vm_map.resolve_object_at sys m2 ~va:b )
   with
   | Some (o1, _), Some (o2, _) ->
     Alcotest.(check bool) "same object" true (o1 == o2)
   | _ -> Alcotest.fail "objects missing");
  check_invariant m2

let test_extract_copy_gap_fails () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:ps ~anywhere:true ()) in
  err "gap" Kr.Invalid_address
    (Vm_map.extract_copy sys m ~addr:a ~size:(3 * ps))

let test_discard_copy_releases () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:ps ~anywhere:true ()) in
  ignore (ok (Vm_fault.fault sys m ~va:a ~write:true));
  let o =
    match Vm_map.resolve_object_at sys m ~va:a with
    | Some (o, _) -> o
    | None -> Alcotest.fail "no object"
  in
  let c = ok (Vm_map.extract_copy sys m ~addr:a ~size:ps) in
  Alcotest.(check int) "ref taken" 2 o.Types.obj_ref;
  Vm_map.discard_copy sys c;
  Alcotest.(check int) "ref released" 1 o.Types.obj_ref

(* ---- map deallocate releases references ------------------------------- *)

let test_map_deallocate_releases_objects () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:ps ~anywhere:true ()) in
  ignore (ok (Vm_fault.fault sys m ~va:a ~write:true));
  let o =
    match Vm_map.resolve_object_at sys m ~va:a with
    | Some (o, _) -> o
    | None -> Alcotest.fail "no object"
  in
  Vm_map.deallocate sys m;
  Alcotest.(check bool) "object dead" true o.Types.obj_dead

(* ---- more edge cases ---------------------------------------------------- *)

let test_allocate_object_at_offset () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let o = Vm_object.create_anonymous sys ~size:(8 * ps) in
  let a =
    ok
      (Vm_map.allocate_object sys m o ~offset:(2 * ps) ~size:(4 * ps))
  in
  (match Vm_map.resolve_object_at sys m ~va:(a + ps) with
   | Some (o', off) ->
     Alcotest.(check bool) "same object" true (o == o');
     Alcotest.(check int) "offset translated" (3 * ps) off
   | None -> Alcotest.fail "no object")

let test_insert_copy_at_fixed_address () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:ps ~anywhere:true ()) in
  ignore (ok (Vm_fault.fault sys m ~va:a ~write:true));
  let c = ok (Vm_map.extract_copy sys m ~addr:a ~size:ps) in
  let m2 = fresh_map sys in
  let at = 64 * ps in
  let b = ok (Vm_map.insert_copy sys m2 c ~at ()) in
  Alcotest.(check int) "landed at the requested address" at b;
  (* Inserting into an occupied range fails and does not corrupt. *)
  let c2 = ok (Vm_map.extract_copy sys m ~addr:a ~size:ps) in
  err "occupied" Kr.No_space (Vm_map.insert_copy sys m2 c2 ~at ());
  Vm_map.discard_copy sys c2;
  check_invariant m2

let test_regions_reflect_fork_cow () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:ps ~anywhere:true ()) in
  ignore (ok (Vm_fault.fault sys m ~va:a ~write:true));
  let _child = child_of sys m in
  let r = List.hd (Vm_map.regions m) in
  Alcotest.(check bool) "parent marked cow" true r.Vm_map.ri_needs_copy

let test_protect_unallocated_is_noop () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  ok
    (Vm_map.protect sys m ~addr:(100 * ps) ~size:(4 * ps) ~set_max:false
       ~prot:Prot.read_only);
  Alcotest.(check int) "no entries appeared" 0 (Vm_map.entry_count m)

let test_deallocate_then_simplify_stays_clean () =
  let _, _, sys = setup () in
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:(6 * ps) ~anywhere:true ()) in
  ok (Vm_map.deallocate_range sys m ~addr:(a + ps) ~size:ps);
  ok (Vm_map.deallocate_range sys m ~addr:(a + (3 * ps)) ~size:ps);
  check_invariant m;
  Alcotest.(check bool) "holes preserved" true
    (Vm_map.find m ~va:(a + ps) = None
     && Vm_map.find m ~va:(a + (3 * ps)) = None)

let test_fork_twice_from_same_parent () =
  let machine, _, sys = setup () in
  ignore machine;
  let m = fresh_map sys in
  let a = ok (Vm_map.allocate sys m ~size:ps ~anywhere:true ()) in
  ignore (ok (Vm_fault.fault sys m ~va:a ~write:true));
  let c1 = child_of sys m in
  let c2 = child_of sys m in
  (match
     ( Vm_map.resolve_object_at sys c1 ~va:a,
       Vm_map.resolve_object_at sys c2 ~va:a )
   with
   | Some (o1, _), Some (o2, _) ->
     Alcotest.(check bool) "both reference the original" true (o1 == o2);
     Alcotest.(check int) "three refs" 3 o1.Types.obj_ref
   | _ -> Alcotest.fail "missing objects")

(* ---- qcheck: random allocate/deallocate keeps the invariant ------------ *)

let map_invariant_qcheck =
  let open QCheck2 in
  Test.make ~name:"random alloc/dealloc/protect keeps map invariant"
    ~count:100
    Gen.(list (triple (int_range 0 2) (int_range 0 30) (int_range 1 4)))
    (fun ops ->
       let _, _, sys = setup () in
       let m = fresh_map sys in
       List.iter
         (fun (op, slot, pages) ->
            let addr = ps + (slot * ps) in
            match op with
            | 0 ->
              ignore
                (Vm_map.allocate sys m ~at:addr ~size:(pages * ps)
                   ~anywhere:false ())
            | 1 ->
              ignore
                (Vm_map.deallocate_range sys m ~addr ~size:(pages * ps))
            | _ ->
              ignore
                (Vm_map.protect sys m ~addr ~size:(pages * ps)
                   ~set_max:false ~prot:Prot.read_only))
         ops;
       (* Re-state the structural invariant as a boolean. *)
       let rec walk last = function
         | [] -> true
         | e :: rest ->
           e.Types.e_start mod ps = 0
           && e.Types.e_end mod ps = 0
           && e.Types.e_end > e.Types.e_start
           && e.Types.e_start >= last
           && walk e.Types.e_end rest
       in
       walk min_int (Vm_map.entries m))

let () =
  Alcotest.run "vm_map"
    [ ( "allocate",
        [ Alcotest.test_case "anywhere" `Quick test_allocate_anywhere;
          Alcotest.test_case "rounds size" `Quick test_allocate_rounds_size;
          Alcotest.test_case "at fixed address" `Quick test_allocate_at;
          Alcotest.test_case "first fit reuses gaps" `Quick
            test_allocate_fills_gap;
          Alcotest.test_case "bad arguments" `Quick test_allocate_bad_args;
          Alcotest.test_case "no space" `Quick test_allocate_no_space ] );
      ( "deallocate",
        [ Alcotest.test_case "middle clips" `Quick
            test_deallocate_middle_clips;
          Alcotest.test_case "unallocated is noop" `Quick
            test_deallocate_unallocated_is_noop;
          Alcotest.test_case "spanning entries" `Quick
            test_deallocate_spanning_entries ] );
      ( "protect",
        [ Alcotest.test_case "clips and sets" `Quick
            test_protect_clips_and_sets;
          Alcotest.test_case "maximum rules" `Quick test_protect_max_rules ]
      );
      ( "attributes",
        [ Alcotest.test_case "inheritance" `Quick test_inheritance_attr;
          Alcotest.test_case "hint survives" `Quick test_find_uses_hint ] );
      ( "fork",
        [ Alcotest.test_case "inheritance shapes" `Quick
            test_fork_inheritance_shapes;
          Alcotest.test_case "untouched stays lazy" `Quick
            test_fork_untouched_region_stays_lazy;
          Alcotest.test_case "marks both sides cow" `Quick
            test_fork_marks_both_sides_cow;
          Alcotest.test_case "copy keeps lowered rights" `Quick
            test_fork_keeps_lowered_rights;
          Alcotest.test_case "sharing map copied per piece" `Quick
            test_fork_copies_sharing_map_pieces ] );
      ( "copies",
        [ Alcotest.test_case "extract and insert" `Quick
            test_extract_insert_copy;
          Alcotest.test_case "gap fails" `Quick test_extract_copy_gap_fails;
          Alcotest.test_case "discard releases" `Quick
            test_discard_copy_releases;
          Alcotest.test_case "destination gets default rights" `Quick
            test_copy_gets_default_rights;
          Alcotest.test_case "deallocate releases objects" `Quick
            test_map_deallocate_releases_objects ] );
      ( "edges",
        [ Alcotest.test_case "allocate_object at offset" `Quick
            test_allocate_object_at_offset;
          Alcotest.test_case "insert copy at address" `Quick
            test_insert_copy_at_fixed_address;
          Alcotest.test_case "regions reflect cow" `Quick
            test_regions_reflect_fork_cow;
          Alcotest.test_case "protect unallocated" `Quick
            test_protect_unallocated_is_noop;
          Alcotest.test_case "dealloc + simplify" `Quick
            test_deallocate_then_simplify_stays_clean;
          Alcotest.test_case "fork twice" `Quick
            test_fork_twice_from_same_parent ] );
      ("invariant", [ QCheck_alcotest.to_alcotest map_invariant_qcheck ]) ]

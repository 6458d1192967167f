(* Tests for mach_util: doubly-linked lists, the deterministic PRNG, the
   table formatter and the int-keyed tables. *)

open Mach_util

(* ---- Dlist ------------------------------------------------------------ *)

let test_dlist_empty () =
  let l : int Dlist.t = Dlist.create () in
  Alcotest.(check int) "length" 0 (Dlist.length l);
  Alcotest.(check (option int)) "pop_front" None (Dlist.pop_front l);
  Alcotest.(check (list int)) "to_list" [] (Dlist.to_list l)

let test_dlist_push_order () =
  let l = Dlist.create () in
  ignore (Dlist.push_back l 1);
  ignore (Dlist.push_back l 2);
  Dlist.push_front_node l (Dlist.node 0);
  Alcotest.(check (list int)) "order" [ 0; 1; 2 ] (Dlist.to_list l);
  Alcotest.(check int) "length" 3 (Dlist.length l)

(* One node for life: unlinked from one list, relinked into another,
   never linked twice. *)
let test_dlist_relink_node () =
  let a = Dlist.create () and b = Dlist.create () in
  let n = Dlist.node 'n' in
  Alcotest.(check bool) "made unlinked" false (Dlist.linked n);
  ignore (Dlist.push_back a 'x');
  Dlist.push_back_node a n;
  Alcotest.(check (list char)) "linked at the tail" [ 'x'; 'n' ]
    (Dlist.to_list a);
  (match Dlist.push_front_node b n with
   | () -> Alcotest.fail "a linked node was linked again"
   | exception Assert_failure _ -> ());
  Dlist.remove a n;
  ignore (Dlist.push_back b 'y');
  Dlist.push_front_node b n;
  Alcotest.(check (list char)) "relinked at the head" [ 'n'; 'y' ]
    (Dlist.to_list b);
  Alcotest.(check (list char)) "gone from the first" [ 'x' ]
    (Dlist.to_list a)

let test_dlist_remove_middle () =
  let l = Dlist.create () in
  let _a = Dlist.push_back l 'a' in
  let b = Dlist.push_back l 'b' in
  let _c = Dlist.push_back l 'c' in
  Dlist.remove l b;
  Alcotest.(check (list char)) "removed middle" [ 'a'; 'c' ] (Dlist.to_list l);
  Alcotest.(check bool) "unlinked" false (Dlist.linked b)

let test_dlist_remove_ends () =
  let l = Dlist.create () in
  let a = Dlist.push_back l 1 in
  let b = Dlist.push_back l 2 in
  let c = Dlist.push_back l 3 in
  Dlist.remove l a;
  Dlist.remove l c;
  Alcotest.(check (list int)) "only middle" [ 2 ] (Dlist.to_list l);
  Dlist.remove l b;
  Alcotest.(check int) "empty" 0 (Dlist.length l)

let test_dlist_insert_before_after () =
  let l = Dlist.create () in
  let b = Dlist.push_back l 20 in
  ignore (Dlist.insert_before l b 10);
  ignore (Dlist.insert_after l b 30);
  Alcotest.(check (list int)) "inserted" [ 10; 20; 30 ] (Dlist.to_list l)

let test_dlist_insert_before_head () =
  let l = Dlist.create () in
  let h = Dlist.push_back l 2 in
  ignore (Dlist.insert_before l h 1);
  Alcotest.(check (option int)) "new head" (Some 1)
    (Option.map Dlist.value (Dlist.first l))

(* The head leaves by [pop_front], the tail by its node. *)
let test_dlist_pop () =
  let l = Dlist.create () in
  ignore (Dlist.push_back l 1);
  ignore (Dlist.push_back l 2);
  let tail = Dlist.push_back l 3 in
  Alcotest.(check (option int)) "front" (Some 1) (Dlist.pop_front l);
  Dlist.remove l tail;
  Alcotest.(check (list int)) "rest" [ 2 ] (Dlist.to_list l)

let test_dlist_iter_nodes_remove () =
  (* iter_nodes must tolerate the callback removing the node it holds. *)
  let l = Dlist.create () in
  List.iter (fun v -> ignore (Dlist.push_back l v)) [ 1; 2; 3; 4 ];
  Dlist.iter_nodes
    (fun n -> if Dlist.value n mod 2 = 0 then Dlist.remove l n)
    l;
  Alcotest.(check (list int)) "odds remain" [ 1; 3 ] (Dlist.to_list l)

let test_dlist_fold () =
  let l = Dlist.create () in
  List.iter (fun v -> ignore (Dlist.push_back l v)) [ 1; 2; 3 ];
  Alcotest.(check int) "sum" 6 (Dlist.fold ( + ) 0 l)

(* Model-based qcheck: a random sequence of operations against an OCaml
   list of the nodes linked, in order.  Every value is a fresh int, so
   a node is found in the model by its value; removed nodes are kept
   and relinked later, as the resident queues relink a page's one
   node.  After each operation the list's values, its length, a walk by
   [first]/[next] and every node's [linked] must agree with the
   model. *)
let dlist_model_test =
  let open QCheck2 in
  Test.make ~name:"dlist agrees with list model" ~count:500
    Gen.(list_size (int_range 0 120) (pair (int_range 0 8) small_nat))
    (fun ops ->
       let l = Dlist.create () in
       let model = ref [] and spare = ref [] and fresh = ref 0 in
       let next_value () = incr fresh; !fresh in
       let nth k = List.nth !model (k mod List.length !model) in
       let drop n = model := List.filter (fun m -> m != n) !model in
       (* [model] with [n] put before (or after) [pos]. *)
       let place ~before pos n =
         model :=
           List.concat_map
             (fun m ->
                if m != pos then [ m ]
                else if before then [ n; m ]
                else [ m; n ])
             !model
       in
       let agrees () =
         let rec walk acc = function
           | None -> List.rev acc
           | Some n -> walk (n :: acc) (Dlist.next n)
         in
         let walked = walk [] (Dlist.first l) in
         Dlist.to_list l = List.map Dlist.value !model
         && Dlist.length l = List.length !model
         && List.length walked = List.length !model
         && List.for_all2 ( == ) walked !model
         && List.for_all Dlist.linked !model
         && not (List.exists Dlist.linked !spare)
       in
       List.for_all
         (fun (op, k) ->
            (match op with
             | 0 ->
               let n = Dlist.push_back l (next_value ()) in
               model := !model @ [ n ]
             | 1 ->
               let n = Dlist.node (next_value ()) in
               Dlist.push_front_node l n;
               model := n :: !model
             | 2 ->
               let n = Dlist.node (next_value ()) in
               Dlist.push_back_node l n;
               model := !model @ [ n ]
             | 3 -> (
                 match Dlist.pop_front l, !model with
                 | Some x, m :: rest ->
                   assert (x = Dlist.value m);
                   model := rest;
                   spare := m :: !spare
                 | None, [] -> ()
                 | _ -> assert false)
             | 4 | 5 when !model <> [] ->
               let pos = nth k in
               let v = next_value () in
               let n =
                 if op = 4 then Dlist.insert_before l pos v
                 else Dlist.insert_after l pos v
               in
               place ~before:(op = 4) pos n
             | 6 when !model <> [] ->
               let n = nth k in
               Dlist.remove l n;
               drop n;
               spare := n :: !spare
             | 7 ->
               (* Remove, from inside the walk, every node whose value
                  is [k] modulo 3. *)
               Dlist.iter_nodes
                 (fun n ->
                    if Dlist.value n mod 3 = k mod 3 then begin
                      Dlist.remove l n;
                      drop n;
                      spare := n :: !spare
                    end)
                 l
             | 8 when !spare <> [] ->
               let n = List.nth !spare (k mod List.length !spare) in
               spare := List.filter (fun m -> m != n) !spare;
               if k mod 2 = 0 then begin
                 Dlist.push_front_node l n;
                 model := n :: !model
               end
               else begin
                 Dlist.push_back_node l n;
                 model := !model @ [ n ]
               end
             | _ -> ());
            agrees ())
         ops)

(* ---- Det_rng ----------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Det_rng.create ~seed:42 in
  let b = Det_rng.create ~seed:42 in
  for _ = 1 to 50 do
    Alcotest.(check int) "same stream" (Det_rng.int a 1000)
      (Det_rng.int b 1000)
  done

let test_rng_seed_changes_stream () =
  let a = Det_rng.create ~seed:1 in
  let b = Det_rng.create ~seed:2 in
  let sa = List.init 20 (fun _ -> Det_rng.int a 1_000_000) in
  let sb = List.init 20 (fun _ -> Det_rng.int b 1_000_000) in
  Alcotest.(check bool) "different" true (sa <> sb)

let test_rng_bounds () =
  let r = Det_rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Det_rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

(* ---- Tablefmt ----------------------------------------------------------- *)

(* What [Tablefmt.print t] writes to standard output. *)
let printed t =
  let file = Filename.temp_file "tablefmt" ".txt" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    (fun () -> Tablefmt.print t)
    ~finally:(fun () ->
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved);
  let s = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  s

let test_table_alignment () =
  let t = Tablefmt.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Tablefmt.row t [ "xxxx"; "y" ];
  let s = printed t in
  Alcotest.(check bool) "mentions title" true
    (String.length s > 0 && String.sub s 0 1 = "T");
  (* Header and row lines are equally padded. *)
  let lines = String.split_on_char '\n' s in
  let headers = List.filter (fun l -> String.length l > 0 && l.[0] = ' ') lines in
  (match headers with
   | h :: r :: _ ->
     Alcotest.(check int) "equal width" (String.length h) (String.length r)
   | _ -> Alcotest.fail "expected two content lines")

let test_table_pads_short_rows () =
  let t = Tablefmt.create ~title:"T" ~columns:[ "a"; "b"; "c" ] in
  Tablefmt.row t [ "1" ];
  ignore (printed t)

let test_table_rejects_long_rows () =
  let t = Tablefmt.create ~title:"T" ~columns:[ "a" ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Tablefmt.row: too many cells") (fun () ->
        Tablefmt.row t [ "1"; "2" ])

(* ---- Int_tbl ---------------------------------------------------------- *)

(* The slot [k] hashes to in a table of [capacity] slots, as
   [Int_tbl]'s multiply-and-fold picks it. *)
let home ~capacity k =
  let h = k * 0x2545f4914f6cdd1d in
  (h lxor (h lsr 32)) land (capacity - 1)

(* Keys that collide and runs that wrap: 8 keys for each of the last
   three slots of an 8-slot table and 8 for its first, and a few odd
   ones (negative, zero, [max_int]).  A table made with room for 8
   starts at 8 slots, so its runs wrap from the end to the start; a
   slot of a larger table is the top bits of the product too, so the
   same keys crowd the end of the 16- and 32-slot tables it grows
   into.  A deletion must then shift back across the wrap, and leave in
   place a key whose home lies between the hole and the end. *)
let colliding_keys =
  let rec pick ~slot k acc n =
    if n = 0 then acc
    else if home ~capacity:8 k = slot then pick ~slot (k + 1) (k :: acc) (n - 1)
    else pick ~slot (k + 1) acc n
  in
  Array.of_list
    (List.concat_map (fun slot -> pick ~slot 0 [] 8) [ 5; 6; 7; 0 ]
     @ [ -1; -4096; 0; max_int; 1 lsl 40 ])

(* Model-based qcheck against [Stdlib.Hashtbl] with [replace]
   semantics: after each operation the two hold the same bindings, and
   every lookup agrees. *)
let int_tbl_model_test =
  let open QCheck2 in
  Test.make ~name:"int_tbl agrees with a Hashtbl model" ~count:500
    Gen.(
      list_size (int_range 0 200)
        (triple (int_range 0 15)
           (int_bound (Array.length colliding_keys - 1))
           small_nat))
    (fun ops ->
       let t = Int_tbl.create 8 and model = Hashtbl.create 8 in
       let bindings fold tbl =
         List.sort compare (fold (fun k v acc -> (k, v) :: acc) tbl [])
       in
       List.for_all
         (fun (op, i, v) ->
            let k = colliding_keys.(i) in
            let lookups_agree =
              match op with
              | 0 | 1 | 2 | 3 | 15 ->
                Int_tbl.replace t k v;
                Hashtbl.replace model k v;
                true
              | 4 ->
                if not (Hashtbl.mem model k) then begin
                  Int_tbl.add t k v;
                  Hashtbl.replace model k v
                end;
                true
              | 5 | 6 | 7 ->
                Int_tbl.remove t k;
                Hashtbl.remove model k;
                true
              | 8 ->
                Int_tbl.find_opt t k = Hashtbl.find_opt model k
                && Int_tbl.find_or t k (-1)
                   = Option.value (Hashtbl.find_opt model k) ~default:(-1)
                && (match Int_tbl.find t k with
                    | x -> Hashtbl.find_opt model k = Some x
                    | exception Not_found -> not (Hashtbl.mem model k))
              | 9 -> Int_tbl.mem t k = Hashtbl.mem model k
              | 10 ->
                (* Keep, bumped, the bindings with [k + value] not a
                   multiple of 3 (a key seen through [v]). *)
                let f key x =
                  if (key + x + v) mod 3 = 0 then None else Some (x + 1)
                in
                Int_tbl.filter_map_inplace f t;
                Hashtbl.filter_map_inplace f model;
                true
              | 11 ->
                let seen = ref [] in
                Int_tbl.iter (fun k x -> seen := (k, x) :: !seen) t;
                List.sort compare !seen = bindings Hashtbl.fold model
              | 12 -> Int_tbl.length t = Hashtbl.length model
              | 13 ->
                Int_tbl.clear t;
                Hashtbl.clear model;
                true
              | _ ->
                Int_tbl.reset t;
                Hashtbl.reset model;
                true
            in
            lookups_agree
            && Int_tbl.length t = Hashtbl.length model
            && bindings Int_tbl.fold t = bindings Hashtbl.fold model)
         ops)

let test_int_tbl_refusals () =
  let t = Int_tbl.create 4 in
  Int_tbl.add t 5 "five";
  Alcotest.check_raises "add of a bound key"
    (Invalid_argument "Int_tbl.add: key already bound") (fun () ->
        Int_tbl.add t 5 "again");
  Alcotest.check_raises "min_int is no key"
    (Invalid_argument "Int_tbl: min_int is no key") (fun () ->
        Int_tbl.replace t min_int "none");
  Alcotest.(check bool) "min_int is never found" false (Int_tbl.mem t min_int);
  Alcotest.(check (option string)) "the binding stands" (Some "five")
    (Int_tbl.find_opt t 5)

(* [pair] round-trips every field value at the edges of its range,
   gives distinct pairs distinct keys, and refuses rather than aliases
   a field out of range. *)
let test_int_tbl_pair () =
  let his = [ 0; 1; 7; (1 lsl 30) - 1 ]
  and los = [ 0; 1; 4096; (1 lsl 32) - 1 ] in
  let keys =
    List.concat_map
      (fun hi ->
         List.map
           (fun lo ->
              let k = Int_tbl.pair hi lo in
              Alcotest.(check (pair int int))
                (Printf.sprintf "(%d, %d) round-trips" hi lo) (hi, lo)
                (Int_tbl.pair_hi k, Int_tbl.pair_lo k);
              Alcotest.(check bool) "non-negative" true (k >= 0);
              k)
           los)
      his
  in
  Alcotest.(check int) "distinct keys"
    (List.length keys) (List.length (List.sort_uniq compare keys));
  List.iter
    (fun (hi, lo) ->
       Alcotest.(check bool)
         (Printf.sprintf "(%d, %d) does not fit" hi lo) false
         (Int_tbl.pair_fits hi lo);
       Alcotest.check_raises
         (Printf.sprintf "(%d, %d) raises" hi lo)
         (Invalid_argument "Int_tbl.pair: field out of range") (fun () ->
             ignore (Int_tbl.pair hi lo)))
    [ (1 lsl 30, 0); (-1, 0); (0, 1 lsl 32); (0, -1); (max_int, max_int) ]

(* Longest probe run after binding [keys] in a table made with room for
   1,024 (it grows to 2,048 slots on the way, half full at the end). *)
let longest_run keys =
  let t = Int_tbl.create 1024 in
  List.iter (fun k -> Int_tbl.replace t k ()) keys;
  Int_tbl.longest_probe t

(* Each key shape the simulator packs must spread: 1,024 consecutive
   pages of one object by byte offset, at every page size the
   architectures use, 1,024 consecutive vpns of one address space, and
   offset 0 of 1,024 objects.  A slot picked from the raw key's low
   bits would put every page-aligned offset in one run. *)
let test_int_tbl_spread () =
  let pages = List.init 1024 Fun.id in
  List.iter
    (fun ps ->
       let m = longest_run (List.map (fun i -> Int_tbl.pair 7 (i * ps)) pages) in
       Alcotest.(check bool)
         (Printf.sprintf "%d-byte page offsets: longest probe %d" ps m)
         true (m <= 8))
    [ 512; 2048; 4096; 8192 ];
  let m = longest_run (List.map (fun v -> Int_tbl.pair 3 v) pages) in
  Alcotest.(check bool)
    (Printf.sprintf "consecutive vpns: longest probe %d" m) true (m <= 8);
  let m = longest_run (List.map (fun o -> Int_tbl.pair o 0) pages) in
  Alcotest.(check bool)
    (Printf.sprintf "offset 0 of many objects: longest probe %d" m)
    true (m <= 8)

let () =
  Alcotest.run "mach_util"
    [ ( "dlist",
        [ Alcotest.test_case "empty" `Quick test_dlist_empty;
          Alcotest.test_case "push order" `Quick test_dlist_push_order;
          Alcotest.test_case "remove middle" `Quick test_dlist_remove_middle;
          Alcotest.test_case "relink one node" `Quick test_dlist_relink_node;
          Alcotest.test_case "remove ends" `Quick test_dlist_remove_ends;
          Alcotest.test_case "insert before/after" `Quick
            test_dlist_insert_before_after;
          Alcotest.test_case "insert before head" `Quick
            test_dlist_insert_before_head;
          Alcotest.test_case "pop both ends" `Quick test_dlist_pop;
          Alcotest.test_case "iter_nodes with removal" `Quick
            test_dlist_iter_nodes_remove;
          Alcotest.test_case "fold" `Quick test_dlist_fold;
          QCheck_alcotest.to_alcotest dlist_model_test ] );
      ( "det_rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed changes stream" `Quick
            test_rng_seed_changes_stream;
          Alcotest.test_case "bounds" `Quick test_rng_bounds ] );
      ( "tablefmt",
        [ Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "pads short rows" `Quick
            test_table_pads_short_rows;
          Alcotest.test_case "rejects long rows" `Quick
            test_table_rejects_long_rows ] );
      ( "int_tbl",
        [ Alcotest.test_case "spread" `Quick test_int_tbl_spread;
          Alcotest.test_case "refusals" `Quick test_int_tbl_refusals;
          Alcotest.test_case "pair round trip" `Quick test_int_tbl_pair;
          QCheck_alcotest.to_alcotest int_tbl_model_test ] ) ]

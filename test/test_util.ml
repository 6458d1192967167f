(* Tests for mach_util: doubly-linked lists, the deterministic PRNG and
   the table formatter. *)

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
   list reference. *)
let dlist_model_test =
  let open QCheck2 in
  Test.make ~name:"dlist agrees with list model" ~count:300
    Gen.(list (pair (int_range 0 3) small_int))
    (fun ops ->
       let l = Dlist.create () in
       let model = ref [] in
       List.iter
         (fun (op, v) ->
            match op with
            | 0 ->
              ignore (Dlist.push_back l v);
              model := !model @ [ v ]
            | 1 ->
              Dlist.push_front_node l (Dlist.node v);
              model := v :: !model
            | 2 -> (
                match Dlist.pop_front l, !model with
                | Some x, m :: rest ->
                  assert (x = m);
                  model := rest
                | None, [] -> ()
                | _ -> assert false)
            | _ -> (
                match Dlist.first l, !model with
                | Some n, m :: rest ->
                  ignore (Dlist.insert_after l n v);
                  model := m :: v :: rest
                | None, [] -> ()
                | _ -> assert false))
         ops;
       Dlist.to_list l = !model && Dlist.length l = List.length !model)

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

(* ---- int_pair -------------------------------------------------------- *)

(* Longest bucket after binding [keys] in a 1,024-bucket table (it does
   not resize below 2,048 bindings). *)
let max_bucket keys =
  let module T = Mach_util.Int_pair.Tbl in
  let t = T.create 1024 in
  List.iter (fun k -> T.replace t k ()) keys;
  (T.stats t).Hashtbl.max_bucket_length

(* Both key shapes must spread: 1,024 consecutive pages of one object by
   byte offset, at every page size the architectures use, and 1,024
   consecutive vpns of one address space.  A hash of the raw pair puts
   every page-aligned offset in one bucket, since the table indexes
   with the low bits. *)
let test_int_pair_spread () =
  let pages = List.init 1024 Fun.id in
  List.iter
    (fun ps ->
       let m = max_bucket (List.map (fun i -> (7, i * ps)) pages) in
       Alcotest.(check bool)
         (Printf.sprintf "%d-byte page offsets: longest bucket %d" ps m)
         true (m <= 8))
    [ 512; 2048; 4096; 8192 ];
  let m = max_bucket (List.map (fun v -> (3, v)) pages) in
  Alcotest.(check bool)
    (Printf.sprintf "consecutive vpns: longest bucket %d" m) true (m <= 8);
  let m = max_bucket (List.map (fun o -> (o, 0)) pages) in
  Alcotest.(check bool)
    (Printf.sprintf "offset 0 of many objects: longest bucket %d" m)
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
      ( "int_pair",
        [ Alcotest.test_case "spread" `Quick test_int_pair_spread ] ) ]

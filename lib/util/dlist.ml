(* Doubly-linked lists with externally held nodes.

   Each node records whether it is currently linked ([in_list]) so that
   double-removal and foreign-node insertion are caught by assertions
   rather than silently corrupting the list. *)

type 'a node = {
  value : 'a;
  mutable prev : 'a node option;
  mutable next : 'a node option;
  mutable in_list : bool;
}

type 'a t = {
  mutable head : 'a node option;
  mutable tail : 'a node option;
  mutable length : int;
}

let create () = { head = None; tail = None; length = 0 }

let length t = t.length

let value n = n.value

let linked n = n.in_list

let node v = { value = v; prev = None; next = None; in_list = false }

let fresh_node v = { value = v; prev = None; next = None; in_list = true }

(* Link an unlinked node, whose neighbours [node] or [remove] left at
   [None]. *)
let push_front_node t n =
  assert (not n.in_list);
  n.in_list <- true;
  (match t.head with
   | None -> t.tail <- Some n
   | Some h -> h.prev <- Some n; n.next <- Some h);
  t.head <- Some n;
  t.length <- t.length + 1

let push_back_node t n =
  assert (not n.in_list);
  n.in_list <- true;
  (match t.tail with
   | None -> t.head <- Some n
   | Some l -> l.next <- Some n; n.prev <- Some l);
  t.tail <- Some n;
  t.length <- t.length + 1

let push_front t v =
  let n = node v in
  push_front_node t n;
  n

let push_back t v =
  let n = node v in
  push_back_node t n;
  n

let insert_before t pos v =
  assert pos.in_list;
  match pos.prev with
  | None ->
    push_front t v
  | Some p ->
    let n = fresh_node v in
    n.prev <- Some p;
    n.next <- Some pos;
    p.next <- Some n;
    pos.prev <- Some n;
    t.length <- t.length + 1;
    n

let insert_after t pos v =
  assert pos.in_list;
  match pos.next with
  | None ->
    push_back t v
  | Some s ->
    let n = fresh_node v in
    n.next <- Some s;
    n.prev <- Some pos;
    s.prev <- Some n;
    pos.next <- Some n;
    t.length <- t.length + 1;
    n

let remove t n =
  assert n.in_list;
  (match n.prev with
   | None -> t.head <- n.next
   | Some p -> p.next <- n.next);
  (match n.next with
   | None -> t.tail <- n.prev
   | Some s -> s.prev <- n.prev);
  n.prev <- None;
  n.next <- None;
  n.in_list <- false;
  t.length <- t.length - 1

let first t = t.head

let next n = n.next

let pop_front t =
  match t.head with
  | None -> None
  | Some n -> remove t n; Some n.value

let iter_nodes f t =
  let rec loop = function
    | None -> ()
    | Some n ->
      let succ = n.next in
      f n;
      loop succ
  in
  loop t.head

let iter f t = iter_nodes (fun n -> f n.value) t

let fold f acc t =
  let acc = ref acc in
  iter (fun v -> acc := f !acc v) t;
  !acc

let to_list t = List.rev (fold (fun acc v -> v :: acc) [] t)

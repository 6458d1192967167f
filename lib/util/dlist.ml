(* Doubly-linked lists with externally held nodes.

   A link is a node or [Nil], an immediate, so linking and unlinking
   store pointers and allocate nothing.  Each node keeps [me], the
   [Some node] that [first] and [next] hand out, built once with the
   node.  Each node records whether it is currently linked ([in_list])
   so that double-removal and foreign-node insertion are caught by
   assertions rather than silently corrupting the list. *)

type 'a node =
  | Nil
  | Node of {
      value : 'a;
      mutable prev : 'a node;
      mutable next : 'a node;
      mutable in_list : bool;
      me : 'a node option;
    }

type 'a t = {
  mutable head : 'a node;
  mutable tail : 'a node;
  mutable length : int;
}

let create () = { head = Nil; tail = Nil; length = 0 }

let length t = t.length

let value = function
  | Node { value; _ } -> value
  | Nil -> invalid_arg "Dlist.value: no node"

let linked = function Node { in_list; _ } -> in_list | Nil -> false

let node v =
  let rec n =
    Node { value = v; prev = Nil; next = Nil; in_list = false; me = Some n }
  in
  n

let set_prev n p = match n with Node r -> r.prev <- p | Nil -> ()
let set_next n s = match n with Node r -> r.next <- s | Nil -> ()
let prev_of = function Node { prev; _ } -> prev | Nil -> Nil
let next_of = function Node { next; _ } -> next | Nil -> Nil

(* Mark [n] linked between [p] and [s] (either may be [Nil]: then [n]
   becomes the head or tail). *)
let link t n p s =
  (match n with
   | Node r ->
     assert (not (linked n));
     r.in_list <- true;
     r.prev <- p;
     r.next <- s
   | Nil -> invalid_arg "Dlist: no node");
  (match p with Nil -> t.head <- n | Node _ -> set_next p n);
  (match s with Nil -> t.tail <- n | Node _ -> set_prev s n);
  t.length <- t.length + 1

let push_front_node t n = link t n Nil t.head
let push_back_node t n = link t n t.tail Nil

let push_back t v =
  let n = node v in
  push_back_node t n;
  n

let insert_before t pos v =
  assert (linked pos);
  let n = node v in
  link t n (prev_of pos) pos;
  n

let insert_after t pos v =
  assert (linked pos);
  let n = node v in
  link t n pos (next_of pos);
  n

let remove t = function
  | Nil -> invalid_arg "Dlist.remove: no node"
  | Node ({ prev; next; in_list; _ } as r) ->
    assert in_list;
    (match prev with Nil -> t.head <- next | p -> set_next p next);
    (match next with Nil -> t.tail <- prev | s -> set_prev s prev);
    r.prev <- Nil;
    r.next <- Nil;
    r.in_list <- false;
    t.length <- t.length - 1

let me = function Node { me; _ } -> me | Nil -> None

let first t = me t.head

let next n = me (next_of n)

let pop_front t =
  match t.head with
  | Nil -> None
  | Node { value; _ } as n -> remove t n; Some value

let iter_nodes f t =
  let rec loop = function
    | Nil -> ()
    | Node { next; _ } as n ->
      f n;
      loop next
  in
  loop t.head

let iter f t =
  let rec loop = function
    | Nil -> ()
    | Node { value; next; _ } ->
      f value;
      loop next
  in
  loop t.head

let fold f acc t =
  let rec loop acc = function
    | Nil -> acc
    | Node { value; next; _ } -> loop (f acc value) next
  in
  loop acc t.head

let to_list t = List.rev (fold (fun acc v -> v :: acc) [] t)

(** Doubly-linked lists with externally held nodes.

    The machine-independent VM keeps address-map entries and resident-page
    queues in doubly-linked lists so that insertion, removal and in-place
    splitting are O(1) given a node (Section 3.2 of the paper).  Nodes are
    first-class: callers store the node of an element and later remove or
    re-insert it without searching. *)

type 'a node
(** A list cell carrying one value.  A node belongs to at most one list. *)

type 'a t
(** A mutable doubly-linked list. *)

val create : unit -> 'a t
(** [create ()] is a fresh empty list. *)

val length : 'a t -> int
(** [length t] is the number of nodes currently linked into [t]. *)

val value : 'a node -> 'a
(** [value n] is the element carried by [n]. *)

val push_back : 'a t -> 'a -> 'a node
(** [push_back t v] links a new node carrying [v] at the tail of [t]. *)

val node : 'a -> 'a node
(** [node v] is a new node carrying [v], linked into no list: a caller
    that moves one element between lists keeps one node for it for life
    and relinks it with {!push_front_node} or {!push_back_node}. *)

val push_front_node : 'a t -> 'a node -> unit
(** [push_front_node t n] links [n] at the head of [t].  [n] must be in
    no list (checked by assertion). *)

val push_back_node : 'a t -> 'a node -> unit
(** [push_back_node t n] links [n] at the tail of [t].  [n] must be in
    no list (checked by assertion). *)

val insert_before : 'a t -> 'a node -> 'a -> 'a node
(** [insert_before t n v] links a new node carrying [v] immediately before
    [n], which must belong to [t]. *)

val insert_after : 'a t -> 'a node -> 'a -> 'a node
(** [insert_after t n v] links a new node carrying [v] immediately after
    [n], which must belong to [t]. *)

val remove : 'a t -> 'a node -> unit
(** [remove t n] unlinks [n] from [t].  Removing a node twice is an error
    detected by assertion. *)

val first : 'a t -> 'a node option
(** [first t] is the head node, if any. *)

val next : 'a node -> 'a node option
(** [next n] is the node after [n] in its list. *)

val pop_front : 'a t -> 'a option
(** [pop_front t] unlinks and returns the head value, if any. *)

val iter : ('a -> unit) -> 'a t -> unit
(** [iter f t] applies [f] to each element from head to tail. *)

val iter_nodes : ('a node -> unit) -> 'a t -> unit
(** [iter_nodes f t] applies [f] to each node from head to tail.  [f] may
    remove the node it is given. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** [fold f acc t] folds [f] over elements from head to tail. *)

val to_list : 'a t -> 'a list
(** [to_list t] is the elements from head to tail. *)

val linked : 'a node -> bool
(** [linked n] is [true] while [n] belongs to some list. *)

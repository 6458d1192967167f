type outcome = Mapped of { pfn : int; prot : Prot.t } | Missing

type t = {
  asid : int;
  lookup : int -> outcome;
  walk_cost : int;
  hw_walk : bool;
}

let software ~asid lookup = { asid; lookup; walk_cost = 0; hw_walk = false }

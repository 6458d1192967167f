type stats = {
  mutable enters : int;
  mutable removals : int;
  mutable protect_ops : int;
  mutable alias_evictions : int;
  mutable context_steals : int;
  mutable cache_drops : int;
}

type t = {
  asid : int;
  reference : unit -> unit;
  enter : va:int -> pfn:int -> prot:Mach_hw.Prot.t -> wired:bool -> unit;
  remove : start_va:int -> end_va:int -> unit;
  protect : start_va:int -> end_va:int -> prot:Mach_hw.Prot.t -> unit;
  extract : int -> int option;
  activate : cpu:int -> unit;
  deactivate : cpu:int -> unit;
  copy :
    (dst:t -> dst_start:int -> len:int -> src_start:int -> unit) option;
  resident_count : unit -> int;
  map_bytes : unit -> int;
  collect : unit -> unit;
  destroy : unit -> unit;
  stats : stats;
}

let fresh_stats () =
  { enters = 0; removals = 0; protect_ops = 0; alias_evictions = 0;
    context_steals = 0; cache_drops = 0 }

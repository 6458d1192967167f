(** The hardware translation interface between the machine and a pmap.

    A CPU translates a virtual page number by consulting its TLB and, on a
    miss, walking whatever hardware-defined structure the active pmap
    maintains.  The machine knows nothing about those structures: it sees
    only this record, provided by the pmap layer when a pmap is activated
    on a CPU ([pmap_activate], Table 3-3).  This is the simulated analogue
    of the MMU's table-walk hardware. *)

type outcome =
  | Mapped of { pfn : int; prot : Prot.t }
      (** A valid translation with its hardware permissions. *)
  | Missing
      (** No translation; the access must fault to the kernel. *)

type t = {
  asid : int;
      (** Address-space identifier; unique per pmap, keys TLB entries. *)
  lookup : int -> outcome;
      (** [lookup vpn] walks the hardware structure for virtual page
          [vpn]. *)
  walk_cost : int;
      (** Cycles charged for one walk (0 for MMUs whose mapping RAM is the
          translation path itself, as on the SUN 3). *)
  hw_walk : bool;
      (** Whether the MMU walks [lookup] on a TLB miss.  [false] on
          TLB-only machines: every miss traps to the kernel, which refills
          the TLB from its software table; [lookup] then reads that table
          for consistency checks only ({!Machine.tlb_overreach}). *)
}

val software : asid:int -> (int -> outcome) -> t
(** [software ~asid lookup] is the translator of a TLB-only pmap whose
    software table is [lookup]: the hardware never walks it, so every
    miss traps to software. *)

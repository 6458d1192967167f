(** Simulated architecture descriptors.

    The paper ports Mach to the VAX family, the IBM RT PC, the SUN 3 and
    NS32082-based multiprocessors (Encore MultiMax, Sequent Balance), plus a
    TLB-only machine (the IBM RP3 simulator).  An [Arch.t] captures what the
    pmap layer needs to know about each: hardware page size, address-space
    limits, TLB geometry, per-architecture quirks, and a cycle cost model
    used by the simulated machine to account time.

    Costs are expressed in abstract CPU cycles; [cycles_per_ms] converts
    them to milliseconds for paper-style tables.  The constants are
    calibrated so the *ratios* of the paper's measurements are reproduced;
    absolute values are documentation, not measurement. *)

type kind =
  | Vax        (** linear page tables per region, 512-byte pages *)
  | Rt_pc      (** hashed inverted page table, one mapping per physical page *)
  | Sun3       (** segment + page tables, 8 hardware contexts *)
  | Ns32082    (** two-level tables, 16 MB VA / 32 MB PA limits, r-m-w bug *)
  | Tlb_only   (** no hardware-defined memory structure; software TLB fill *)

type cost = {
  mem_op : int;          (** one memory touch that hits the TLB *)
  move_16b : int;        (** copying or zeroing 16 bytes of memory *)
  tlb_fill : int;        (** hardware translation-table walk on TLB miss *)
  fault_overhead : int;  (** trap, kernel entry and exit for a page fault *)
  pte_write : int;       (** creating or changing one hardware map entry *)
  tlb_flush : int;       (** flushing one local TLB *)
  ipi : int;             (** interrupting a remote CPU *)
  context_switch : int;  (** switching the active address space *)
  syscall : int;         (** kernel call entry and exit *)
  proc_work : int;       (** process creation/teardown machinery charged
                             once per fork (proc table, u-area, wait) *)
  disk_latency : int;    (** fixed latency of one disk operation *)
  disk_per_kb : int;     (** transfer cost per KB moved to or from disk *)
}

type t = {
  kind : kind;
  name : string;                    (** e.g. ["uVAX II"] *)
  hw_page_size : int;               (** hardware page size in bytes *)
  user_va_limit : int;              (** highest user virtual address + 1 *)
  phys_limit : int option;          (** max addressable physical bytes *)
  tlb_entries : int;                (** per-CPU TLB capacity *)
  contexts : int option;            (** hardware contexts (SUN 3: 8) *)
  pte_bytes : int;                  (** size of one hardware map entry *)
  reports_rmw_as_read : bool;       (** NS32082 bug: write faults on
                                        read-modify-write report as reads *)
  cycles_per_ms : int;              (** clock rate for ms conversion *)
  cost : cost;
}

val uvax2 : t
(** MicroVAX II: VAX architecture, ~1 MIPS. *)

val vax8200 : t
(** VAX 8200: VAX architecture, used for the file-reading rows of
    Table 7-1. *)

val vax8650 : t
(** VAX 8650: fast VAX used for the compilation rows of Table 7-2. *)

val rt_pc : t
(** IBM RT PC: inverted page table, 2 KB pages. *)

val sun3_160 : t
(** SUN 3/160: segment and page tables, 8 KB pages, 8 contexts, and a
    physical address hole where display memory lives. *)

val ns32082 : t
(** National NS32082 MMU as used by the Encore MultiMax and Sequent
    Balance: 16 MB virtual / 32 MB physical limits and the
    read-modify-write fault-reporting bug. *)

val rp3_tlb : t
(** TLB-only experimental machine (the IBM RP3 simulation of Section 5):
    every TLB miss traps to software. *)

val all : t list
(** All predefined architectures, in the order above. *)

val cycles_to_ms : t -> int -> float
(** [cycles_to_ms t c] converts a cycle count to milliseconds on [t]. *)

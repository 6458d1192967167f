type kind = Vax | Rt_pc | Sun3 | Ns32082 | Tlb_only

type cost = {
  mem_op : int;
  move_16b : int;
  tlb_fill : int;
  fault_overhead : int;
  pte_write : int;
  tlb_flush : int;
  ipi : int;
  context_switch : int;
  syscall : int;
  proc_work : int;
  disk_latency : int;
  disk_per_kb : int;
}

type t = {
  kind : kind;
  name : string;
  hw_page_size : int;
  user_va_limit : int;
  phys_limit : int option;
  tlb_entries : int;
  contexts : int option;
  pte_bytes : int;
  reports_rmw_as_read : bool;
  cycles_per_ms : int;
  cost : cost;
}

(* Calibration.
   ============
   Costs are abstract cycles; [cycles_per_ms] makes one cycle roughly one
   instruction time on each machine (uVAX II ~0.9 MIPS, RT PC ~2 MIPS,
   SUN 3/160 ~3 MIPS, VAX 8650 ~6 MIPS).  The per-architecture tweaks
   below were fitted against the *ratios* of Table 7-1, e.g. for the
   uVAX II:

     zero-fill per KB  = pages_per_KB * (fault_overhead
                         + page_bytes/16 * move_16b + enters)
                      ~= 2 * (200 + 32*6 + 6) cycles ~= 0.44 ms  (paper .58)
     Mach fork 256K    = proc_work + resident_pages * (pte + tlb_flush)
                      ~= 35000 + 64*(6+40)            ~= 42 ms   (paper 59)
     UNIX fork 256K    = proc_work + hw_pages * (copy + pte + overhead)
                      ~= 35000 + 512*(192+6+180)      ~= 250 ms  (paper 220)

   [proc_work] is the fixed process-machinery charge (proc table, u-area,
   wait) both operating systems pay per fork; it dominates the SUN 3 rows
   where both systems are copy-on-write.  EXPERIMENTS.md records the
   resulting paper-vs-measured tables.

   Disk timing is real time, so its cycle cost scales with the clock
   rate: roughly 3 ms effective latency per clustered operation and
   1.5 ms per KB transferred (a late-1980s winchester doing sequential
   clustered I/O). *)
let base_cost ~cycles_per_ms =
  {
    mem_op = 2;
    move_16b = 6;
    tlb_fill = 20;
    fault_overhead = 200;
    pte_write = 8;
    tlb_flush = 50;
    ipi = 400;
    context_switch = 150;
    syscall = 150;
    proc_work = 30_000;
    disk_latency = 3 * cycles_per_ms;
    disk_per_kb = (3 * cycles_per_ms) / 2;
  }

let gib = 1024 * 1024 * 1024
let mib = 1024 * 1024

let make ~kind ~name ~hw_page_size ~user_va_limit ?phys_limit ~tlb_entries
    ?contexts ~pte_bytes ?(reports_rmw_as_read = false) ~cycles_per_ms
    ?(tweak = fun c -> c) () =
  {
    kind;
    name;
    hw_page_size;
    user_va_limit;
    phys_limit;
    tlb_entries;
    contexts;
    pte_bytes;
    reports_rmw_as_read;
    cycles_per_ms;
    cost = tweak (base_cost ~cycles_per_ms);
  }

let uvax2 =
  make ~kind:Vax ~name:"uVAX II" ~hw_page_size:512 ~user_va_limit:(2 * gib)
    ~tlb_entries:64 ~pte_bytes:4 ~cycles_per_ms:900
    ~tweak:(fun c ->
        { c with move_16b = 6; fault_overhead = 200; pte_write = 6;
          tlb_flush = 40; syscall = 120; proc_work = 35_000 })
    ()

let vax8200 =
  make ~kind:Vax ~name:"VAX 8200" ~hw_page_size:512 ~user_va_limit:(2 * gib)
    ~tlb_entries:128 ~pte_bytes:4 ~cycles_per_ms:1200
    ~tweak:(fun c ->
        { c with move_16b = 4; fault_overhead = 180; pte_write = 6;
          proc_work = 35_000 })
    ()

let vax8650 =
  make ~kind:Vax ~name:"VAX 8650" ~hw_page_size:512 ~user_va_limit:(2 * gib)
    ~tlb_entries:512 ~pte_bytes:4 ~cycles_per_ms:6000
    ~tweak:(fun c -> { c with move_16b = 6 })
    ()

let rt_pc =
  make ~kind:Rt_pc ~name:"RT PC" ~hw_page_size:2048 ~user_va_limit:(4 * gib)
    ~tlb_entries:64 ~pte_bytes:16 ~cycles_per_ms:2000
    ~tweak:(fun c ->
        { c with move_16b = 12; fault_overhead = 220; tlb_flush = 60;
          proc_work = 60_000 })
    ()

let sun3_160 =
  make ~kind:Sun3 ~name:"SUN 3/160" ~hw_page_size:8192
    ~user_va_limit:(256 * mib) ~tlb_entries:0 ~contexts:8 ~pte_bytes:4
    ~cycles_per_ms:3000
    ~tweak:(fun c ->
        { c with move_16b = 10; fault_overhead = 200; tlb_flush = 20;
          proc_work = 190_000 })
    ()

let ns32082 =
  make ~kind:Ns32082 ~name:"NS32082" ~hw_page_size:512
    ~user_va_limit:(16 * mib) ~phys_limit:(32 * mib) ~tlb_entries:32
    ~pte_bytes:4 ~reports_rmw_as_read:true ~cycles_per_ms:1500 ()

let rp3_tlb =
  make ~kind:Tlb_only ~name:"RP3 (TLB only)" ~hw_page_size:4096
    ~user_va_limit:(4 * gib) ~tlb_entries:128 ~pte_bytes:0
    ~cycles_per_ms:2000 ()

let all = [ uvax2; vax8200; vax8650; rt_pc; sun3_160; ns32082; rp3_tlb ]

let cycles_to_ms t c = float_of_int c /. float_of_int t.cycles_per_ms

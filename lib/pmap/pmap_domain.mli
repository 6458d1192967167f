(** A pmap domain: all machine-dependent mapping state of one kernel.

    The domain owns the physical-to-virtual tracking and provides the
    page-level operations of Table 3-3 that act on {e every} mapping of a
    physical page — [pmap_remove_all], [pmap_copy_on_write], the
    modify/reference-bit calls, and [pmap_zero_page]/[pmap_copy_page] —
    plus pmap creation for the machine's architecture.

    Full information about which processors use which maps, and when maps
    must be correct, flows from machine-independent code: the kernel tells
    the domain which CPU is executing ({!set_current_cpu}) and whether an
    invalidation is time-critical ([urgent]). *)

type t
(** A domain, bound to one {!Mach_hw.Machine.t}. *)

val create : ?page_multiple:int -> Mach_hw.Machine.t -> t
(** [create machine] builds the domain for [machine]'s architecture and
    installs the MMU hook that maintains per-frame reference and modify
    bits.  The machine-independent page is [page_multiple] (default 1)
    consecutive hardware frames, starting at a multiple of it (the
    boot-time page size of Section 3.1).  Raises [Invalid_argument]
    unless [page_multiple] is a positive power of two. *)

val page_multiple : t -> int
(** Hardware frames per machine-independent page. *)

val create_pmap : t -> Pmap.t
(** [create_pmap t] is [pmap_create]: a fresh, empty physical map.  Its
    [enter] and final [destroy] each run in one flush batch, so a
    re-enter that lowers rights costs one exchange. *)

val find_pmap : t -> asid:int -> Pmap.t option
(** [find_pmap t ~asid] is the live pmap with that asid, if any. *)

val set_current_cpu : t -> int -> unit
(** [set_current_cpu t cpu] records the CPU on which kernel code is
    executing; subsequent pmap costs are charged to its clock and it
    initiates any TLB shootdowns. *)

val current_cpu : t -> int
(** The CPU recorded by {!set_current_cpu} (initially 0). *)

val set_on_first_touch : t -> (asid:int -> pfn:int -> unit) -> unit
(** [set_on_first_touch t f] arranges for [f ~asid ~pfn] to run whenever
    a frame's referenced bit transitions from clear to set (i.e. on the
    first access since the bit was last cleared), before the bit is set;
    [asid] is the address space the access was translated through and
    [pfn] the first frame of the frame's page.  The VM layer uses this
    to observe the first touch of pages it mapped speculatively (burst
    faulting): such pages never re-fault, so the fault path cannot see
    their first use.  The hook must not charge cycles — it runs on the
    translation fast path. *)

val set_on_unmap : t -> (asid:int -> pfn:int -> unit) -> unit
(** [set_on_unmap t f] arranges for [f ~asid ~pfn] to run once whenever
    a mapping in address space [asid] of the page whose first frame is
    [pfn] is dropped, for any reason: range remove, {!remove_all}, a
    context steal, a page replaced by a new enter, pmap destruction.
    The VM layer uses it to see speculative mappings vanish before they
    were used.  Must not charge cycles. *)

(** {1 Flush batching}

    Machine-independent code can bracket a burst of pmap mutations so all
    their TLB shootdowns are delivered as one batched exchange (a single
    IPI round per target CPU) when the outermost {!batched} call returns.
    Batches nest; urgency and strategy semantics are unchanged — only the
    number of exchanges shrinks, never the time at which consistency is
    restored. *)

val batched : t -> (unit -> 'a) -> 'a
(** [batched t f] runs [f] inside a batch, closing it on exceptions. *)

(** {1 Page-level operations (Table 3-3)}

    The page these act on is the machine-independent page: the
    {!page_multiple} consecutive hardware frames starting at [pfn], its
    first frame.  Pmaps map pages whole, each with one pv record, so
    every mapping is updated by one range request over its page, all
    inside one flush batch: the TLB-consistency cost is one exchange per
    call, however many hardware frames the page spans. *)

val remove_all : t -> pfn:int -> urgent:bool -> unit
(** [pmap_remove_all]: remove the physical page from all maps.  Used by
    pageout; with [urgent:true] the invalidations are propagated with
    interrupts no matter the machine's shootdown strategy (the paper's
    case 1), otherwise the configured strategy applies. *)

val copy_on_write : t -> pfn:int -> unit
(** [pmap_copy_on_write]: remove write access to the page in all maps.
    Used by virtual copy of shared pages. *)

(** The modify/reference calls answer for the page that contains frame
    [pfn], so a caller may pass any frame of it.  The simulated MMU sets
    the bits per frame on every translated access. *)

val is_modified : t -> pfn:int -> bool
(** Whether any frame of the page was written since the last
    {!clear_modified}. *)

val is_referenced : t -> pfn:int -> bool
(** Whether any frame of the page was touched since the last
    {!clear_referenced}. *)

val clear_modified : t -> pfn:int -> unit
val clear_referenced : t -> pfn:int -> unit
(** Clear the bit on every frame of the page. *)

val mapping_count : t -> pfn:int -> int
(** How many virtual mappings of the page holding [pfn] exist now. *)

val mapped_by : t -> pfn:int -> asid:int -> bool
(** [mapped_by t ~pfn ~asid] is whether address space [asid] maps the
    page holding [pfn]; it allocates nothing. *)

val mappings_of : t -> pfn:int -> (int * int) list
(** [mappings_of t ~pfn] lists the (asid, first vpn) pairs currently
    mapping the page holding [pfn]; used by consistency checkers. *)

val zero_page : t -> pfn:int -> unit
(** [pmap_zero_page]: zero-fill the page in one move, charging the
    architecture's copy cost per frame to the current CPU. *)

val copy_page : t -> src:int -> dst:int -> unit
(** [pmap_copy_page]: copy page [src] over page [dst] in one move,
    charging cost per frame. *)

(** {1 Accounting} *)

val total_map_bytes : t -> int
(** [shared_map_bytes] plus the sum of live pmaps' [map_bytes]. *)

val total_stats : t -> Pmap.stats
(** Sum of all live pmaps' counters. *)

type fault = {
  fault_va : int;
  fault_write : bool;
  fault_kind : [ `Invalid | `Protection ];
}

exception Memory_violation of string
exception Unresolved_fault of fault

type shootdown_strategy = Immediate_ipi | Deferred_timer | Lazy_local

type flush_request =
  | Flush_page of { asid : int; vpn : int }
  | Flush_range of { asid : int; lo_vpn : int; hi_vpn : int }
  | Flush_asid of int

type stats = {
  mutable faults : int;
  mutable ipis : int;
  mutable shootdowns : int;
  mutable deferred_flushes : int;
  mutable stale_tlb_uses : int;
  mutable disk_ops : int;
  mutable disk_bytes : int;
  mutable disk_errors : int;
  mutable disk_retries : int;
  mutable disk_waits : int;
  mutable disk_wait_cycles : int;
  mutable disk_overlap_cycles : int;
  mutable tlb_hit_count : int;
  mutable tlb_miss_count : int;
}

type cpu = {
  id : int;
  tlb : Tlb.t;
  mutable translator : Translator.t option;
  mutable clock : int;
  pending : flush_request Queue.t;
}

type t = {
  arch : Arch.t;
  phys : Phys_mem.t;
  cpus : cpu array;
  shootdown_mode : shootdown_strategy;
  stats : stats;
  mutable fault_handler : (cpu:int -> fault -> unit) option;
  mutable on_translated : (asid:int -> pfn:int -> write:bool -> unit) option;
  mutable tracer : Mach_obs.Obs.t;
  (* Completion stamps of disk requests, newest first; pruned at each
     submit to those still in flight, for the depth gauge. *)
  mutable disk_pending : int list;
  (* vmstat sampler: a callback fired every [sample_every] cycles of
     simulated time.  [next_sample] is [max_int] when no sampler is
     installed, so the hot charge path pays one compare. *)
  mutable sampler : (unit -> unit) option;
  mutable sample_every : int;
  mutable next_sample : int;
  (* A stamp is [stamp_origin] plus the cycle count it was set at.
     [stamp_high] is the largest stamp set so far; [reset_clocks] moves
     the origin past it, which expires every stamp set before. *)
  mutable stamp_origin : int;
  mutable stamp_high : int;
  (* Run after [reset_clocks] zeroes the clocks and stats, so subsystems
     holding their own counters (the page allocator) reset with the
     measurement window. *)
  mutable reset_hooks : (unit -> unit) list;
}

let fresh_stats () =
  { faults = 0; ipis = 0; shootdowns = 0; deferred_flushes = 0;
    stale_tlb_uses = 0; disk_ops = 0; disk_bytes = 0;
    disk_errors = 0; disk_retries = 0;
    disk_waits = 0; disk_wait_cycles = 0; disk_overlap_cycles = 0;
    tlb_hit_count = 0; tlb_miss_count = 0 }

let create ~arch ~memory_frames ?(holes = []) ?(cpus = 1)
    ?(shootdown = Immediate_ipi) () =
  if cpus < 1 then invalid_arg "Machine.create: need at least one CPU";
  let phys =
    Phys_mem.create ~page_size:arch.Arch.hw_page_size ~frames:memory_frames
      ~holes ()
  in
  let mk_cpu id =
    { id; tlb = Tlb.create ~capacity:arch.Arch.tlb_entries;
      translator = None; clock = 0; pending = Queue.create () }
  in
  { arch; phys; cpus = Array.init cpus mk_cpu;
    shootdown_mode = shootdown;
    stats = fresh_stats (); fault_handler = None; on_translated = None;
    tracer = Mach_obs.Obs.null;
    disk_pending = [];
    sampler = None; sample_every = 0; next_sample = max_int;
    stamp_origin = 0; stamp_high = 0; reset_hooks = [] }

let arch t = t.arch
let phys t = t.phys
let cpu_count t = Array.length t.cpus
let stats t = t.stats

let tracer t = t.tracer
let set_tracer t tr = t.tracer <- tr

(* Instrumentation sites check [Obs.enabled] themselves before building
   the event, so disabled tracing costs one load-and-branch. *)
let traced t = Mach_obs.Obs.enabled t.tracer

let set_fault_handler t h = t.fault_handler <- Some h
let set_on_translated t f = t.on_translated <- Some f

let cpu_of t id =
  if id < 0 || id >= Array.length t.cpus then
    invalid_arg "Machine: bad CPU id";
  t.cpus.(id)

let cycles t ~cpu = (cpu_of t cpu).clock

let max_cycles t =
  Array.fold_left (fun acc c -> max acc c.clock) 0 t.cpus

let elapsed_ms t = Arch.cycles_to_ms t.arch (max_cycles t)

(* Fire the vmstat sampler for every interval boundary the clock just
   crossed.  The trigger advances before the callback runs, so charges
   the callback itself makes cannot recurse into it. *)
let run_sampler t =
  match t.sampler with
  | None -> t.next_sample <- max_int
  | Some f ->
    while max_cycles t >= t.next_sample do
      t.next_sample <- t.next_sample + t.sample_every
    done;
    f ()

(* Every clock mutation in this module funnels through [bump]/[bump_as]:
   the cycles are attributed to the tracer (innermost open category, or
   an explicit one) and the sampler trigger is checked.  With tracing
   off and no sampler this is two compares on top of the add — and the
   simulated clock itself is identical either way. *)
let bump t (c : cpu) n =
  c.clock <- c.clock + n;
  if Mach_obs.Obs.enabled t.tracer then
    Mach_obs.Obs.attr_charge t.tracer ~cpu:c.id n;
  if c.clock >= t.next_sample then run_sampler t

let bump_as t (c : cpu) cat n =
  c.clock <- c.clock + n;
  if Mach_obs.Obs.enabled t.tracer then
    Mach_obs.Obs.attr_charge_as t.tracer ~cpu:c.id cat n;
  if c.clock >= t.next_sample then run_sampler t

let charge t ~cpu c = bump t (cpu_of t cpu) c

let charge_category t ~cpu cat c = bump_as t (cpu_of t cpu) cat c

type stamp = int

let expired = -1

let stamp t cycle =
  let s = t.stamp_origin + cycle in
  if s > t.stamp_high then t.stamp_high <- s;
  s

let stamp_live t s = s >= t.stamp_origin

(* An expired stamp lies below the origin, so its residue is negative
   against any clock and clamps to 0. *)
let stamp_residue t s ~cpu = max 0 (s - t.stamp_origin - (cpu_of t cpu).clock)

let add_reset_hook t f = t.reset_hooks <- f :: t.reset_hooks

(* A CPU stalled on a contended (simulated) lock: the wait is real
   simulated time, attributed to [Lock_wait] explicitly so it never
   masquerades as the work the caller was trying to do. *)
let lock_stall t ~cpu n =
  if n > 0 then bump_as t (cpu_of t cpu) Mach_obs.Obs.Lock_wait n

let with_category t ~cpu cat f =
  if Mach_obs.Obs.enabled t.tracer then begin
    Mach_obs.Obs.attr_push t.tracer ~cpu cat;
    match f () with
    | v ->
      Mach_obs.Obs.attr_pop t.tracer ~cpu;
      v
    | exception e ->
      Mach_obs.Obs.attr_pop t.tracer ~cpu;
      raise e
  end
  else f ()

let set_sampler t ~every_ms f =
  if every_ms <= 0 then invalid_arg "Machine.set_sampler";
  t.sampler <- Some f;
  t.sample_every <- every_ms * t.arch.Arch.cycles_per_ms;
  t.next_sample <- max_cycles t + t.sample_every

let reset_clocks t =
  Array.iter (fun c -> c.clock <- 0) t.cpus;
  t.stamp_origin <- t.stamp_high + 1;
  (* Pending stamps are absolute cycle counts; stale ones would count
     as in flight long after the reset. *)
  t.disk_pending <- [];
  (* Attribution totals must keep summing to the (zeroed) clocks. *)
  if Mach_obs.Obs.enabled t.tracer then
    Mach_obs.Obs.attr_reset_totals t.tracer;
  if Option.is_some t.sampler then t.next_sample <- t.sample_every;
  let s = t.stats in
  s.faults <- 0; s.ipis <- 0; s.shootdowns <- 0; s.deferred_flushes <- 0;
  s.stale_tlb_uses <- 0; s.disk_ops <- 0; s.disk_bytes <- 0;
  s.disk_errors <- 0; s.disk_retries <- 0;
  s.disk_waits <- 0; s.disk_wait_cycles <- 0; s.disk_overlap_cycles <- 0;
  s.tlb_hit_count <- 0; s.tlb_miss_count <- 0;
  List.iter (fun f -> f ()) t.reset_hooks

(* Device time for one transfer of [bytes]: fixed latency plus per-KB
   transfer cost. *)
let disk_service_cycles t ~bytes =
  let cost = t.arch.Arch.cost in
  let kb = (bytes + 1023) / 1024 in
  cost.Arch.disk_latency + (kb * cost.Arch.disk_per_kb)

(* The bookkeeping every transfer shares, whoever pays for it: count the
   operation and its bytes and trace it at the CPU's current clock. *)
let account_disk t ~cpu ~write ~bytes ~cycles =
  t.stats.disk_ops <- t.stats.disk_ops + 1;
  t.stats.disk_bytes <- t.stats.disk_bytes + bytes;
  if traced t then
    Mach_obs.Obs.record t.tracer ~ts:(cpu_of t cpu).clock ~cpu
      (Mach_obs.Obs.Disk_io { write; bytes; cycles })

(* A blocking transfer with no stamp: device time is always
   [Disk_wait], whatever kernel path asked. *)
let charge_disk t ~cpu ~write ~bytes =
  let cycles = disk_service_cycles t ~bytes in
  charge_category t ~cpu Mach_obs.Obs.Disk_wait cycles;
  account_disk t ~cpu ~write ~bytes ~cycles

(* --- Disk requests ------------------------------------------------- *)

type io = { io_start : int; io_completion : int; io_service : int }

let io_none = { io_start = 0; io_completion = 0; io_service = 0 }

(* A transfer streams its bytes in order after the fixed latency, so
   the first [bytes] of it have landed once that many KB have moved. *)
let io_landed t io ~bytes =
  min io.io_completion
    (io.io_start + ((bytes + 1023) / 1024 * t.arch.Arch.cost.Arch.disk_per_kb))

(* Block until [completion]: charge only the cycles still outstanding.
   Whatever the CPU managed to do between submit and here is overlap;
   [service] is the device time this wait stands for, so [service -
   residue] (clamped) is the saving.  Callers that share one request
   across several waits split [service] between them so the overlap is
   counted once. *)
let wait_disk t ~cpu ~completion ~service =
  let c = cpu_of t cpu in
  let residue = max 0 (completion - c.clock) in
  if residue > 0 then bump_as t c Mach_obs.Obs.Disk_wait residue;
  t.stats.disk_waits <- t.stats.disk_waits + 1;
  t.stats.disk_wait_cycles <- t.stats.disk_wait_cycles + residue;
  let overlap = max 0 (service - residue) in
  t.stats.disk_overlap_cycles <- t.stats.disk_overlap_cycles + overlap;
  if traced t then
    Mach_obs.Obs.record t.tracer ~ts:c.clock ~cpu
      (Mach_obs.Obs.Disk_wait { cycles = residue; overlap })

(* A blocking caller's wait on a whole transfer: nothing to do for a
   reply that involved no device ([io_none]). *)
let wait_io t ~cpu io =
  if io.io_service > 0 then
    wait_disk t ~cpu ~completion:io.io_completion ~service:io.io_service

(* Submit one transfer and return its stamp.  There is no device
   queue: a request starts at once, no earlier than [after] (the
   previous run of a transfer split into runs), as if every CPU had a
   disk to itself; it moves its bytes after the fixed latency and
   completes [service] cycles after it started. *)
let submit ?(after = 0) t ~cpu ~write ~bytes =
  let c = cpu_of t cpu in
  let service = disk_service_cycles t ~bytes in
  let now = c.clock in
  let start = max now after in
  let completion = start + service in
  t.disk_pending <- completion :: List.filter (fun c -> c > now) t.disk_pending;
  account_disk t ~cpu ~write ~bytes ~cycles:service;
  if traced t then
    Mach_obs.Obs.record t.tracer ~ts:now ~cpu
      (Mach_obs.Obs.Disk_submit
         { write; bytes; depth = List.length t.disk_pending;
           latency = completion - now });
  { io_start = start + t.arch.Arch.cost.Arch.disk_latency;
    io_completion = completion; io_service = service }

(* A read charges nothing at submit: the caller waits only for the bytes
   it needs ({!io_landed}). *)
let submit_disk ?after t ~cpu ~bytes =
  submit ?after t ~cpu ~write:false ~bytes

(* A write blocks its CPU until it completes, so it leaves nothing to
   wait on. *)
let write_disk ?after t ~cpu ~bytes =
  wait_io t ~cpu (submit ?after t ~cpu ~write:true ~bytes)

(* Requests still in flight, judged at the latest CPU clock; the vmstat
   sampler's depth gauge. *)
let disk_inflight t =
  let now = max_cycles t in
  List.length (List.filter (fun c -> c > now) t.disk_pending)

(* --- TLB maintenance ------------------------------------------------- *)

let apply_flush c = function
  | Flush_page { asid; vpn } -> Tlb.invalidate_page c.tlb ~asid ~vpn
  | Flush_range { asid; lo_vpn; hi_vpn } ->
    Tlb.invalidate_range c.tlb ~asid ~lo_vpn ~hi_vpn
  | Flush_asid asid -> Tlb.invalidate_asid c.tlb ~asid

let flush_kind_of = function
  | Flush_page _ -> Mach_obs.Obs.Fl_page
  | Flush_range _ -> Mach_obs.Obs.Fl_range
  | Flush_asid _ -> Mach_obs.Obs.Fl_asid

let note_flush t c req ~deferred =
  if traced t then
    Mach_obs.Obs.record t.tracer ~ts:c.clock ~cpu:c.id
      (Mach_obs.Obs.Tlb_flush { kind = flush_kind_of req; deferred })

let flush_local t ~cpu req =
  let c = cpu_of t cpu in
  apply_flush c req;
  charge t ~cpu t.arch.Arch.cost.Arch.tlb_flush;
  note_flush t c req ~deferred:false

let drain_pending t c =
  if not (Queue.is_empty c.pending) then begin
    Queue.iter
      (fun req ->
         apply_flush c req;
         note_flush t c req ~deferred:true)
      c.pending;
    t.stats.deferred_flushes <- t.stats.deferred_flushes + Queue.length c.pending;
    Queue.clear c.pending;
    (* Deferred flush work is TLB-consistency cost wherever it lands. *)
    bump_as t c Mach_obs.Obs.Shootdown_ipi t.arch.Arch.cost.Arch.tlb_flush
  end

let tick t = Array.iter (fun c -> drain_pending t c) t.cpus

(* The timer-interrupt period that bounds the deferred strategy. *)
let tick_interval_ms = 10

(* Case 2: the initiator may not use the changed mapping until every CPU
   has taken a timer interrupt, so it waits out the rest of the current
   tick period, after which all pending flushes land. *)
let deferred_wait t ~initiator =
  let c = cpu_of t initiator in
  let period = tick_interval_ms * t.arch.Arch.cycles_per_ms in
  let remainder = period - (c.clock mod period) in
  bump_as t c Mach_obs.Obs.Shootdown_ipi remainder;
  tick t

(* One TLB-consistency exchange covering a list of flush requests (a lone
   flush is a batch of one).  The initiator interrupts each target CPU
   once for the entire list instead of once per request, so the IPI cost
   scales with the number of target CPUs, not the number of pages
   touched.  When the change must be visible immediately (Immediate_ipi
   or urgent) each target applies every request before the initiator
   proceeds; under Deferred_timer/Lazy_local the requests are queued on
   each target, so batching changes how many exchanges occur, never
   *when* consistency is restored. *)
let shootdown t ~initiator ~targets reqs ~urgent =
  match reqs with
  | [] -> ()
  | _ :: _ ->
    with_category t ~cpu:initiator Mach_obs.Obs.Shootdown_ipi @@ fun () ->
    t.stats.shootdowns <- t.stats.shootdowns + 1;
    let init = cpu_of t initiator in
    let start_clock = init.clock in
    let tlb_flush = t.arch.Arch.cost.Arch.tlb_flush in
    List.iter (flush_local t ~cpu:initiator) reqs;
    let remote = List.filter (fun id -> id <> initiator) targets in
    if urgent || t.shootdown_mode = Immediate_ipi then
      List.iter
        (fun id ->
           let target = cpu_of t id in
           (* One interrupt delivers the whole request list; the
              initiator spins until the target acknowledges, so both
              sides pay for it, and the target then pays a flush per
              request. *)
           t.stats.ipis <- t.stats.ipis + 1;
           bump t init t.arch.Arch.cost.Arch.ipi;
           bump_as t target Mach_obs.Obs.Shootdown_ipi
             t.arch.Arch.cost.Arch.ipi;
           List.iter
             (fun req ->
                apply_flush target req;
                note_flush t target req ~deferred:false;
                bump_as t target Mach_obs.Obs.Shootdown_ipi tlb_flush)
             reqs)
        remote
    else begin
      match remote with
      | [] -> ()
      | _ :: _ ->
        List.iter
          (fun id ->
             let pending = (cpu_of t id).pending in
             List.iter (fun req -> Queue.add req pending) reqs)
          remote;
        if t.shootdown_mode = Deferred_timer then deferred_wait t ~initiator
    end;
    if traced t then begin
      let span_pages =
        List.fold_left
          (fun acc -> function
             | Flush_page _ -> acc + 1
             | Flush_range { lo_vpn; hi_vpn; _ } -> acc + (hi_vpn - lo_vpn)
             | Flush_asid _ -> acc)
          0 reqs
      in
      Mach_obs.Obs.record t.tracer ~ts:init.clock ~cpu:initiator
        (Mach_obs.Obs.Shootdown
           { initiator; targets = List.length remote;
             requests = List.length reqs; span_pages; urgent;
             cycles = init.clock - start_clock })
    end

(* --- Translation and access ------------------------------------------ *)

let stale_hit c ~asid ~vpn =
  Queue.fold
    (fun acc req ->
       acc
       ||
       match req with
       | Flush_page p -> p.asid = asid && p.vpn = vpn
       | Flush_range r -> r.asid = asid && vpn >= r.lo_vpn && vpn < r.hi_vpn
       | Flush_asid a -> a = asid)
    false c.pending

let set_translator t ~cpu tr =
  let c = cpu_of t cpu in
  let changed =
    match c.translator, tr with
    | None, None -> false
    | Some a, Some b -> a.Translator.asid <> b.Translator.asid
    | None, Some _ | Some _, None -> true
  in
  if changed then charge t ~cpu t.arch.Arch.cost.Arch.context_switch;
  c.translator <- tr

let active_translator t ~cpu = (cpu_of t cpu).translator

let tlb_fill t ~cpu e = Tlb.insert (cpu_of t cpu).tlb e

(* The handler's work: trap overhead, then the handler. *)
let run_handler t ~cpu f =
  charge t ~cpu t.arch.Arch.cost.Arch.fault_overhead;
  match t.fault_handler with
  | None -> raise (Memory_violation "no fault handler installed")
  | Some h -> h ~cpu f

(* Everything the handler does — trap overhead included — counts as
   fault service unless a nested frame (pmap, disk, pager...) claims
   it.  The pop is exception-safe: the handler may raise
   [Memory_violation].  Untraced, there is no frame and no closure. *)
let deliver_fault t ~cpu f =
  t.stats.faults <- t.stats.faults + 1;
  if Mach_obs.Obs.enabled t.tracer then
    with_category t ~cpu Mach_obs.Obs.Fault_service (fun () ->
        run_handler t ~cpu f)
  else run_handler t ~cpu f

(* The NS32082 reports a write access that faults on a read-only page as a
   read fault (Section 5.1); the kernel has to recognise and repair this. *)
let reported_write t ~write ~kind =
  match kind with
  | `Protection when write && t.arch.Arch.reports_rmw_as_read -> false
  | `Protection | `Invalid -> write

(* Built only on trap paths, so the hot hit path allocates nothing. *)
let trap_fault t ~va ~write kind =
  { fault_va = va;
    fault_write = reported_write t ~write ~kind;
    fault_kind = kind }

(* One try at translating [va] (page [vpn]) on CPU [c]; a fault
   retries once the handler returns, up to 16 times. *)
let rec attempt t c ~cpu ~va ~vpn ~write retries =
  if retries > 16 then
    raise (Unresolved_fault (trap_fault t ~va ~write `Invalid));
  match c.translator with
  | None -> raise (Memory_violation "no address space")
  | Some tr ->
    let asid = tr.Translator.asid in
    (match
       if Tlb.capacity c.tlb = 0 then None else Tlb.lookup c.tlb ~asid ~vpn
     with
     | Some e ->
       t.stats.tlb_hit_count <- t.stats.tlb_hit_count + 1;
       if Prot.allows e.Tlb.prot ~write then begin
         if not (Queue.is_empty c.pending) && stale_hit c ~asid ~vpn then
           t.stats.stale_tlb_uses <- t.stats.stale_tlb_uses + 1;
         bump t c t.arch.Arch.cost.Arch.mem_op;
         (match t.on_translated with
          | None -> ()
          | Some f -> f ~asid ~pfn:e.Tlb.pfn ~write);
         e.Tlb.pfn
       end
       else begin
         (* Protection faults drop the stale entry before trapping. *)
         Tlb.invalidate_page c.tlb ~asid ~vpn;
         deliver_fault t ~cpu (trap_fault t ~va ~write `Protection);
         attempt t c ~cpu ~va ~vpn ~write (retries + 1)
       end
     | None ->
       t.stats.tlb_miss_count <- t.stats.tlb_miss_count + 1;
       bump t c tr.Translator.walk_cost;
       (match
          if tr.Translator.hw_walk then tr.Translator.lookup vpn
          else Translator.Missing
        with
        | Translator.Mapped { pfn; prot } ->
          if Tlb.capacity c.tlb > 0 then
            Tlb.insert c.tlb { Tlb.asid; vpn; pfn; prot };
          if Prot.allows prot ~write then begin
            bump t c t.arch.Arch.cost.Arch.mem_op;
            (match t.on_translated with
             | None -> ()
             | Some f -> f ~asid ~pfn ~write);
            pfn
          end
          else begin
            deliver_fault t ~cpu (trap_fault t ~va ~write `Protection);
            attempt t c ~cpu ~va ~vpn ~write (retries + 1)
          end
        | Translator.Missing ->
          deliver_fault t ~cpu (trap_fault t ~va ~write `Invalid);
          attempt t c ~cpu ~va ~vpn ~write (retries + 1)))

let translate t ~cpu ~va ~write =
  if va < 0 then
    raise (Memory_violation "negative address");
  attempt t (cpu_of t cpu) ~cpu ~va ~vpn:(va / t.arch.Arch.hw_page_size)
    ~write 0

let move_cost t len =
  let cost = t.arch.Arch.cost in
  ((len + 15) / 16) * cost.Arch.move_16b

(* Split [va, va+len) into per-page runs and apply [f va offset_in_buffer
   run_len]. *)
let iter_page_runs t ~va ~len f =
  let page = t.arch.Arch.hw_page_size in
  let rec loop va done_ =
    if done_ < len then begin
      let in_page = page - (va mod page) in
      let run = min in_page (len - done_) in
      f va done_ run;
      loop (va + run) (done_ + run)
    end
  in
  if len < 0 then invalid_arg "Machine: negative length";
  loop va 0

let read t ~cpu ~va ~len =
  let buf = Bytes.create len in
  iter_page_runs t ~va ~len (fun va off run ->
      let pfn = translate t ~cpu ~va ~write:false in
      let page = t.arch.Arch.hw_page_size in
      Phys_mem.blit_out t.phys pfn ~offset:(va mod page) ~len:run buf
        ~pos:off;
      charge t ~cpu (move_cost t run));
  buf

let write t ~cpu ~va data =
  let len = Bytes.length data in
  iter_page_runs t ~va ~len (fun va off run ->
      let pfn = translate t ~cpu ~va ~write:true in
      let page = t.arch.Arch.hw_page_size in
      Phys_mem.write t.phys pfn ~offset:(va mod page) ~pos:off ~len:run data;
      charge t ~cpu (move_cost t run))

let read_byte t ~cpu ~va =
  let pfn = translate t ~cpu ~va ~write:false in
  Phys_mem.read_byte t.phys pfn ~offset:(va mod t.arch.Arch.hw_page_size)

let write_byte t ~cpu ~va ch =
  let pfn = translate t ~cpu ~va ~write:true in
  Phys_mem.write_byte t.phys pfn ~offset:(va mod t.arch.Arch.hw_page_size) ch

let touch t ~cpu ~va ~write =
  if write then begin
    let current = read_byte t ~cpu ~va in
    write_byte t ~cpu ~va current
  end
  else ignore (read_byte t ~cpu ~va)

let tlb_overreach t =
  Array.fold_right
    (fun c acc ->
       match c.translator with
       | None -> acc
       | Some tr ->
         List.fold_right
           (fun (e : Tlb.entry) acc ->
              if e.Tlb.asid <> tr.Translator.asid
                 || stale_hit c ~asid:e.Tlb.asid ~vpn:e.Tlb.vpn
              then acc
              else
                match tr.Translator.lookup e.Tlb.vpn with
                | Translator.Mapped { pfn; prot }
                  when pfn = e.Tlb.pfn && Prot.subset e.Tlb.prot ~of_:prot ->
                  acc
                | Translator.Mapped _ | Translator.Missing -> (c.id, e) :: acc)
           (Tlb.entries c.tlb) acc)
    t.cpus []

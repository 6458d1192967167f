(* Shared context and shell for pmap implementations within one domain.

   Holds what every architecture's pmap module needs: the machine (for
   cycle charging and TLB shootdowns), the physical-to-virtual tracking,
   asid allocation, and the CPU currently executing kernel code (set by the
   kernel on every entry, so pmap costs land on the right clock).  The
   machine-independent half of every pmap is written here once: a backend
   describes its mapping store and supplies [pmap_enter]; {!pmap} builds
   range removal, protection, collection and activation over it.  A
   mapping is a whole machine-independent page, with one pv record;
   charges, counters and shootdowns still count hardware ptes and vpns. *)

open Mach_hw
open Mach_util

(* Above this many hardware vpns of one address space, a batch flushes
   the whole space rather than its pages. *)
let flush_whole_space_threshold = 8

(* One side of a flush batch (the pages to shoot, or to flush on this
   CPU only): each page once, by its first vpn, as the pair
   [(p.(2i), p.(2i+1)) = (asid, vpn)] for [i < len], in record order.
   The array is kept from batch to batch, so a batch records without
   allocating once the array has grown to its size. *)
type pages = { mutable p : int array; mutable len : int }

(* Accumulator for flush batching.  While a batch is open (depth > 0),
   page and asid shootdowns are collected here instead of being issued
   one exchange at a time; the outermost [end_batch] turns the lot into
   a single [Machine.shootdown] — one IPI round per target CPU for
   the whole operation. *)
type batch = {
  mutable depth : int;
  limit : int;
      (* [flush_whole_space_threshold] in pages: an asid with more pages
         than this to shoot is flushed whole *)
  shot : pages;                (* pages to shoot on every target *)
  local : pages;               (* pages to flush on this CPU only *)
  mutable whole : int array;   (* asids flushed wholesale: the first *)
  mutable whole_len : int;     (*   [whole_len] *)
  seen : int array;            (* [limit + 1] slots: one asid's pages *)
  b_targets : bool array;      (* union of presences *)
  mutable b_urgent : bool;     (* OR of urgency at collect *)
}

type ctx = {
  machine : Machine.t;
  pv : Pv.t;
  mutable next_asid : int;
  mutable cur_cpu : int;
  mutable urgent_mode : bool;
      (* Set by the domain around pageout-style operations: all shootdowns
         become time-critical (case 1 of Section 5.2) regardless of the
         machine's configured strategy. *)
  batch : batch;
  page_frames : int;
      (* Hardware frames per machine-independent page (the boot-time
         page multiple, a power of two); pages start at multiples of it. *)
  mutable on_unmap : asid:int -> pfn:int -> unit;
      (* Called with the page's first frame for every page mapping this
         domain drops — range remove, remove_all, context steal,
         replacement by a new page, pmap destruction — after the pv
         record is gone.  The VM layer uses it to retire speculative
         (burst) mappings that were never used.  Charges nothing. *)
}

(* Which CPUs a pmap is active on now, and which may still cache its
   translations (shootdown targets). *)
type presence = { active : bool array; ran_on : bool array }

let new_pages () = { p = Array.make 8 0; len = 0 }

let create ~page_frames machine =
  let frames = Phys_mem.frame_count (Machine.phys machine) in
  { machine; pv = Pv.create ~frames ~page_frames; next_asid = 1; cur_cpu = 0;
    urgent_mode = false; page_frames;
    batch =
      (let limit = flush_whole_space_threshold / page_frames in
       { depth = 0; limit; shot = new_pages (); local = new_pages ();
         whole = Array.make 1 0; whole_len = 0; seen = Array.make (limit + 1) 0;
         b_targets = Array.make (Machine.cpu_count machine) false;
         b_urgent = false });
    on_unmap = (fun ~asid:_ ~pfn:_ -> ()) }

let arch ctx = Machine.arch ctx.machine
let page_size ctx = (arch ctx).Arch.hw_page_size
let cost ctx = (arch ctx).Arch.cost
let charge ctx c = Machine.charge ctx.machine ~cpu:ctx.cur_cpu c

(* The first frame (or vpn) of the machine-independent page holding
   frame (or vpn) [n]. *)
let page_of ctx n = n land lnot (ctx.page_frames - 1)

(* Refuse, with [what], unless [a] and [b] each start a page. *)
let on_pages ctx what a b =
  if page_of ctx a <> a || page_of ctx b <> b then invalid_arg what

(* The first vpn of the page [pmap_enter] maps at [va] to [pfn]. *)
let page_vpn ctx ~va ~pfn =
  let vpn = va / page_size ctx in
  on_pages ctx "pmap_enter: va and pfn must start a page" vpn pfn;
  vpn

(* Charge [c] once per frame of a page. *)
let charge_frames ctx c =
  for _ = 1 to ctx.page_frames do
    charge ctx c
  done

let shoot_targets p =
  let acc = ref [] in
  for i = Array.length p.ran_on - 1 downto 0 do
    if p.ran_on.(i) then acc := i :: !acc
  done;
  !acc

(* Send [req] to [p]'s CPUs now, outside any batch (see [target]). *)
let shoot ctx p req =
  Machine.shootdown ctx.machine ~initiator:ctx.cur_cpu
    ~targets:(shoot_targets p) [ req ] ~urgent:ctx.urgent_mode

(* --- Flush batching --------------------------------------------------- *)

let accumulating ctx = ctx.batch.depth > 0

let begin_batch ctx = ctx.batch.depth <- ctx.batch.depth + 1

let add_targets b p =
  for i = 0 to Array.length p.ran_on - 1 do
    if p.ran_on.(i) then b.b_targets.(i) <- true
  done

(* [a] with its length doubled, its contents kept. *)
let grow a =
  let a' = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Record page [vpn] of [asid] on side [ps], unless it is there already
   or [asid] has [2 * limit + 1] pages there.  No page past that changes
   the asid's requests: on the shot side more than [limit] pages are one
   whole-space flush, and the local side loses at most [limit] pages to
   the shot side (with more, the asid's local flushes are dropped), so
   the pages kept still number more than [limit], and flush the whole
   space too. *)
let rec add_page ps ~limit ~asid ~vpn i n =
  if i = ps.len then begin
    if n <= 2 * limit then begin
      if 2 * i = Array.length ps.p then ps.p <- grow ps.p;
      ps.p.(2 * i) <- asid;
      ps.p.((2 * i) + 1) <- vpn;
      ps.len <- i + 1
    end
  end
  else if ps.p.(2 * i) <> asid then add_page ps ~limit ~asid ~vpn (i + 1) n
  else if ps.p.((2 * i) + 1) <> vpn then
    add_page ps ~limit ~asid ~vpn (i + 1) (n + 1)

let rec holds ps ~asid ~vpn i =
  i < ps.len
  && ((ps.p.(2 * i) = asid && ps.p.((2 * i) + 1) = vpn)
      || holds ps ~asid ~vpn (i + 1))

(* Whether pair [i] of [ps] is the first of its asid (call with [j = 0]). *)
let rec first_of_asid ps i j =
  j = i || (ps.p.(2 * j) <> ps.p.(2 * i) && first_of_asid ps i (j + 1))

(* Gather into [b.seen] the pages side [ps] holds for [asid] from pair
   [i] on, less, with [minus], those the shot side holds for it; the
   count [n] stops as soon as it passes [b.limit].  Returns the count. *)
let rec gather b ps ~asid ~minus i n =
  if i = ps.len || n > b.limit then n
  else
    let vpn = ps.p.((2 * i) + 1) in
    if ps.p.(2 * i) = asid && not (minus && holds b.shot ~asid ~vpn 0) then begin
      b.seen.(n) <- vpn;
      gather b ps ~asid ~minus (i + 1) (n + 1)
    end
    else gather b ps ~asid ~minus (i + 1) n

let run_request ~asid lo hi =
  if hi = lo + 1 then Machine.Flush_page { asid; vpn = lo }
  else Machine.Flush_range { asid; lo_vpn = lo; hi_vpn = hi }

(* Coalesce the sorted pages [b.seen.(i .. n-1)] into runs of adjacent
   pages on [acc], the run [\[lo, hi)] in progress included: each run
   covers every vpn of its pages, the highest run first. *)
let rec runs ctx ~asid i n lo hi acc =
  if i = n then run_request ~asid lo hi :: acc
  else
    let vpn = ctx.batch.seen.(i) in
    if vpn = hi then runs ctx ~asid (i + 1) n lo (hi + ctx.page_frames) acc
    else
      runs ctx ~asid (i + 1) n vpn (vpn + ctx.page_frames)
        (run_request ~asid lo hi :: acc)

(* The requests for the [n] pages of [asid] gathered in [seen], on
   [acc]: past the limit one whole-space flush, unsorted; else the pages
   sorted and coalesced into runs. *)
let requests_of_asid ctx ~asid n acc =
  let seen = ctx.batch.seen in
  if n > ctx.batch.limit then Machine.Flush_asid asid :: acc
  else if n = 0 then acc
  else begin
    for i = 1 to n - 1 do
      let vpn = seen.(i) and j = ref (i - 1) in
      while !j >= 0 && seen.(!j) > vpn do
        seen.(!j + 1) <- seen.(!j);
        decr j
      done;
      seen.(!j + 1) <- vpn
    done;
    runs ctx ~asid 1 n seen.(0) (seen.(0) + ctx.page_frames) acc
  end

let rec whole_asid b asid i =
  i < b.whole_len && (b.whole.(i) = asid || whole_asid b asid (i + 1))

(* The initiator's local-only flushes of an open batch: an asid's pages
   less those the exchange shoots, and none for an asid it flushes
   wholesale, its pages or whole space.  Asids recorded later come
   first. *)
let local_requests ctx =
  let b = ctx.batch and acc = ref [] in
  for i = 0 to b.local.len - 1 do
    let asid = b.local.p.(2 * i) in
    if
      first_of_asid b.local i 0
      && (not (whole_asid b asid 0))
      && gather b b.shot ~asid ~minus:false 0 0 <= b.limit
    then
      acc :=
        requests_of_asid ctx ~asid
          (gather b b.local ~asid ~minus:true i 0)
          !acc
  done;
  !acc

(* The exchange's requests: each asid's pages, then the wholesale
   flushes; an asid with both gets only the latter.  Asids recorded
   later come first. *)
let shot_requests ctx =
  let b = ctx.batch and acc = ref [] in
  for i = 0 to b.whole_len - 1 do
    acc := Machine.Flush_asid b.whole.(i) :: !acc
  done;
  for i = 0 to b.shot.len - 1 do
    let asid = b.shot.p.(2 * i) in
    if first_of_asid b.shot i 0 && not (whole_asid b asid 0) then
      acc :=
        requests_of_asid ctx ~asid (gather b b.shot ~asid ~minus:false i 0)
          !acc
  done;
  !acc

(* The initiator's local-only flushes go first, as an exchange's own
   local flushes would. *)
let flush_batch ctx =
  List.iter
    (Machine.flush_local ctx.machine ~cpu:ctx.cur_cpu)
    (local_requests ctx);
  let b = ctx.batch in
  let reqs = shot_requests ctx in
  let targets = ref [] in
  for i = Array.length b.b_targets - 1 downto 0 do
    if b.b_targets.(i) then targets := i :: !targets
  done;
  let urgent = b.b_urgent in
  b.shot.len <- 0;
  b.local.len <- 0;
  b.whole_len <- 0;
  Array.fill b.b_targets 0 (Array.length b.b_targets) false;
  b.b_urgent <- false;
  Machine.shootdown ctx.machine ~initiator:ctx.cur_cpu ~targets:!targets reqs
    ~urgent

let end_batch ctx =
  let b = ctx.batch in
  if b.depth <= 0 then invalid_arg "Backend.end_batch: no open batch";
  b.depth <- b.depth - 1;
  (* A batch that collected nothing closes at once: its exchange would
     carry no request, and the targets and urgency are only ever set
     together with a collected page or asid. *)
  if
    b.depth = 0
    && (b.local.len > 0 || b.shot.len > 0 || b.whole_len > 0)
  then flush_batch ctx

(* Run [f ()] inside a batch, closing it even on exceptions. *)
let batched ctx f =
  begin_batch ctx;
  match f () with
  | v ->
    end_batch ctx;
    v
  | exception e ->
    end_batch ctx;
    raise e

(* Every flush below is collected into the open batch, which each pmap
   operation opens ({!pmap}'s range operations here, [enter] and
   [destroy] in {!Pmap_domain}): one collected outside a batch would be
   lost.  Only {!shoot} sends at once: a stolen SUN 3 context and a
   TLB-only enter must be flushed before they are refilled.  [target]
   adds [p]'s CPUs to the batch's exchange. *)
let target ctx p =
  assert (accumulating ctx);
  add_targets ctx.batch p;
  if ctx.urgent_mode then ctx.batch.b_urgent <- true

(* Shoot the page whose first vpn is [vpn]: its request covers each of
   its frames' vpns, and the whole-space threshold counts them. *)
let shoot_page ctx p ~asid ~vpn =
  target ctx p;
  add_page ctx.batch.shot ~limit:ctx.batch.limit ~asid ~vpn 0 0

let shoot_asid ctx p ~asid =
  target ctx p;
  let b = ctx.batch in
  if not (whole_asid b asid 0) then begin
    if b.whole_len = Array.length b.whole then b.whole <- grow b.whole;
    b.whole.(b.whole_len) <- asid;
    b.whole_len <- b.whole_len + 1
  end

(* --- The shootdown rule ------------------------------------------------ *)

(* A cached translation needs a TLB-consistency exchange only when it
   loses rights or its frame (the 4.4BSD/Mach pmap_protect contract).
   Rights that are only gained need none: a weaker entry still cached
   on some CPU is dropped by the protection fault [Machine.translate]
   takes on its first disallowed access, and the retry walks the new
   pte.  The shell's pmap_protect and backends' pmap_enter (through
   [reenter] below) apply the rule to a translation that keeps its frame;
   only the TLB-only pmap's enter, which must flush before it refills,
   tests [loses] itself. *)
let loses ~old ~prot = not (Prot.subset old ~of_:prot)

(* pmap_enter over a page that keeps its frames: an exchange only when
   the new rights [prot] lose some of [old].  Gained rights flush just
   the local entries — the ones a protection fault's walk has just
   cached from the old ptes, which the retry would otherwise hit and
   fault on again — batched like a shootdown, without the IPIs. *)
let reenter ctx p ~asid ~vpn ~old ~prot =
  if loses ~old ~prot then shoot_page ctx p ~asid ~vpn
  else begin
    assert (accumulating ctx);
    add_page ctx.batch.local ~limit:ctx.batch.limit ~asid ~vpn 0 0
  end

(* The pv record of a page mapping: [pfn] and [vpn] are the page's
   first frame and vpn. *)
let pv_insert ctx ~pfn ~asid ~vpn =
  Pv.insert ctx.pv ~pfn { Pv.pv_asid = asid; pv_vpn = vpn }

let pv_remove ctx ~pfn ~asid ~vpn =
  Pv.remove ctx.pv ~pfn { Pv.pv_asid = asid; pv_vpn = vpn };
  ctx.on_unmap ~asid ~pfn

(* Charge for zeroing or copying [bytes] of memory. *)
let move_cost ctx bytes = ((bytes + 15) / 16) * (cost ctx).Arch.move_16b

(* --- The pmap shell ------------------------------------------------------ *)

(* What every pmap has, whatever its hardware: an address-space id, its
   counters, and the CPUs it runs on or may still be cached on. *)
type shell = { asid : int; stats : Pmap.stats; presence : presence }

let shell ctx =
  let asid = ctx.next_asid and n = Machine.cpu_count ctx.machine in
  ctx.next_asid <- asid + 1;
  { asid; stats = Pmap.fresh_stats ();
    presence = { active = Array.make n false; ran_on = Array.make n false } }

(* A backend's mapping store, as the shell sees it; ['m] is one live
   page mapping, named with the page's first vpn. *)
type 'm store = {
  iter_range : int -> int -> (int -> 'm -> unit) -> unit;
      (* [iter_range lo hi f] applies [f vpn m] to each live page
         mapping whose first vpn lies in [lo, hi), in ascending vpn
         order, where it sits: [f] may drop or reprotect the mapping it
         is given, and no other *)
  drop : int -> 'm -> unit;
      (* invalidate one page mapping: its store entries, its pv record,
         a pte-write charge and a [removals] count per frame; the caller
         flushes *)
  prot_of : int -> 'm -> Prot.t;
  set_prot : int -> 'm -> Prot.t -> unit;  (* every frame's rights *)
  wired : int -> 'm -> bool;
  pte : bool;  (* false: a software-only table, whose writes cost nothing *)
}

(* A page mapping in a software table keyed by the page's first vpn —
   the SUN 3's context RAM, a pmap's share of the RT PC's inverted
   table, the TLB-only pmap's shadow table; [m_pfn] is the page's first
   frame. *)
type mapping = { m_pfn : int; m_prot : Prot.t; m_wired : bool }

(* What a lookup in such a table gives for an unbound vpn, told apart by
   [==]: no lookup allocates an option. *)
let absent = { m_pfn = -1; m_prot = Prot.read_only; m_wired = false }

(* An [iter_range] over a table keyed by a page's first vpn.  A range
   of no more pages than the table holds is looked up page by page; the
   first vpns of a longer one are picked out of the table first, then
   sorted.  Either way [f] may unbind the vpn it is given. *)
let iter_table ctx tbl lo hi f =
  let n = ctx.page_frames in
  let visit vpn =
    let m = Int_tbl.find_or tbl vpn absent in
    if m != absent then f vpn m
  in
  if hi - lo <= n * Int_tbl.length tbl then begin
    let vpn = ref (page_of ctx (lo + n - 1)) in
    while !vpn < hi do
      visit !vpn;
      vpn := !vpn + n
    done
  end
  else begin
    let vpns = Array.make (Int_tbl.length tbl) 0 and k = ref 0 in
    Int_tbl.iter
      (fun vpn _ ->
         if vpn >= lo && vpn < hi then begin
           vpns.(!k) <- vpn;
           incr k
         end)
      tbl;
    let vpns = Array.sub vpns 0 !k in
    Array.sort Int.compare vpns;
    Array.iter visit vpns
  end

(* What such a table gives for hardware page [vpn]. *)
let lookup_in ctx tbl vpn =
  let first = page_of ctx vpn in
  let m = Int_tbl.find_or tbl first absent in
  if m == absent then Translator.Missing
  else Translator.Mapped { pfn = m.m_pfn + vpn - first; prot = m.m_prot }

(* The store of shell [sh] over the table [table ()].  [pte]: whether
   its writes are charged; [on_set] sees each page [set_prot] wrote. *)
let table_store ctx sh ~pte ?(on_set = fun _ _ -> ()) table =
  { iter_range = (fun lo hi f -> iter_table ctx (table ()) lo hi f);
    drop =
      (fun vpn m ->
         Int_tbl.remove (table ()) vpn;
         pv_remove ctx ~pfn:m.m_pfn ~asid:sh.asid ~vpn;
         if pte then charge_frames ctx (cost ctx).Arch.pte_write;
         sh.stats.Pmap.removals <- sh.stats.Pmap.removals + ctx.page_frames);
    prot_of = (fun _ m -> m.m_prot);
    set_prot =
      (fun vpn m prot ->
         let m = { m with m_prot = prot } in
         Int_tbl.replace (table ()) vpn m;
         on_set vpn m);
    wired = (fun _ m -> m.m_wired);
    pte }

(* Drop one page mapping and shoot its hardware pages. *)
let unmap ctx sh store vpn m =
  store.drop vpn m;
  shoot_page ctx sh.presence ~asid:sh.asid ~vpn

(* Drop every page mapping with its first vpn in [lo, hi), as one
   batch. *)
let unmap_range ctx sh store lo hi =
  batched ctx (fun () ->
      store.iter_range lo hi (fun vpn m -> unmap ctx sh store vpn m))

(* The vpns of [\[start_va, end_va)], rounded out to hardware pages,
   which must cover whole machine-independent pages. *)
let page_range ctx ~start_va ~end_va =
  let page = page_size ctx in
  let lo = start_va / page and hi = (end_va + page - 1) / page in
  on_pages ctx "pmap_remove/pmap_protect: range must cover whole pages" lo hi;
  (lo, hi)

(* Build the [Pmap.t] of shell [sh] over [store].  The backend supplies
   what depends on its hardware: [enter] (address limits, eviction,
   context grabs, prefill), [resident_count], [destroy], the translator
   (whose [lookup] also answers [extract]) and, optionally, [map_bytes], [copy] and an [on_activate]
   step.  Range removal, protection and collection are the same on every
   architecture: each visits the store's mappings inside one flush
   batch.  [reference] is a placeholder; {!Pmap_domain} counts
   references. *)
let pmap ctx sh store ~translator ~enter ~resident_count ~destroy
    ?(map_bytes = fun () -> 0) ?copy ?(on_activate = ignore) () =
  let installed = Some translator in
  let extract va =
    match translator.Translator.lookup (va / page_size ctx) with
    | Translator.Mapped { pfn; _ } -> Some pfn
    | Translator.Missing -> None
  in
  let remove ~start_va ~end_va =
    let lo, hi = page_range ctx ~start_va ~end_va in
    unmap_range ctx sh store lo hi
  in
  (* pmap_protect: a page that loses rights gets the reduced rights, each
     frame's pte write is charged (unless the table is software-only) and
     its hardware pages are shot; one that keeps every right is not
     written, charged or flushed. *)
  let protect ~start_va ~end_va ~prot =
    sh.stats.Pmap.protect_ops <- sh.stats.Pmap.protect_ops + 1;
    let lo, hi = page_range ctx ~start_va ~end_va in
    batched ctx (fun () ->
        store.iter_range lo hi (fun vpn m ->
            let old = store.prot_of vpn m in
            if loses ~old ~prot then begin
              store.set_prot vpn m (Prot.inter old prot);
              if store.pte then charge_frames ctx (cost ctx).Arch.pte_write;
              shoot_page ctx sh.presence ~asid:sh.asid ~vpn
            end))
  in
  (* Drop every non-wired mapping: the pmap-as-cache behaviour. *)
  let collect () =
    batched ctx (fun () ->
        store.iter_range 0 max_int (fun vpn m ->
            if not (store.wired vpn m) then begin
              unmap ctx sh store vpn m;
              sh.stats.Pmap.cache_drops <-
                sh.stats.Pmap.cache_drops + ctx.page_frames
            end))
  in
  { Pmap.asid = sh.asid;
    reference = (fun () -> ());
    enter; remove; protect; extract;
    activate =
      (fun ~cpu ->
         on_activate ();
         sh.presence.active.(cpu) <- true;
         sh.presence.ran_on.(cpu) <- true;
         Machine.set_translator ctx.machine ~cpu installed);
    deactivate =
      (fun ~cpu ->
         sh.presence.active.(cpu) <- false;
         match Machine.active_translator ctx.machine ~cpu with
         | Some tr when tr.Translator.asid = sh.asid ->
           Machine.set_translator ctx.machine ~cpu None
         | Some _ | None -> ());
    copy; resident_count; map_bytes; collect; destroy;
    stats = sh.stats }

(* What each architecture module hands the domain: a pmap constructor plus
   an accounting of hardware structures shared by all pmaps (the RT PC's
   single inverted page table, the SUN 3's context mapping RAM). *)
type factory = {
  new_pmap : unit -> Pmap.t;
  shared_map_bytes : unit -> int;
}

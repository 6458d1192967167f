open Mach_hw
open Mach_pmap
open Mach_pagers

type variant = {
  v_name : string;
  v_cow_fork : bool;
  v_page_overhead : int;
}

let bsd43 = { v_name = "4.3bsd"; v_cow_fork = false; v_page_overhead = 180 }

let acis42 =
  { v_name = "ACIS 4.2a"; v_cow_fork = false; v_page_overhead = 480 }

(* SunOS 3.2 forks copy-on-write, but every page operation updates its
   internally simulated VAX mapping structures on top of the real ones. *)
let sunos32 =
  { v_name = "SunOS 3.2"; v_cow_fork = true; v_page_overhead = 900 }

let variant_for (arch : Arch.t) =
  match arch.Arch.kind with
  | Arch.Sun3 -> sunos32
  | Arch.Rt_pc -> acis42
  | Arch.Vax | Arch.Ns32082 | Arch.Tlb_only -> bsd43

type region = { r_start : int; r_size : int }

type proc = {
  p_name : string;
  p_pmap : Pmap.t;
  mutable p_regions : region list;
  p_pages : (int, int) Hashtbl.t;   (* vpn -> frame *)
  p_swap : (int, Bytes.t) Hashtbl.t; (* vpn -> evicted contents *)
  mutable p_brk : int;
  mutable p_dead : bool;
}

type t = {
  machine : Machine.t;
  domain : Pmap_domain.t;
  variant : variant;
  fs : Simfs.t;
  cache : Buffer_cache.t;
  free_frames : int Queue.t;
  frame_refs : int array;
  alloc_order : (proc * int * int) Queue.t; (* proc, vpn, frame *)
  current : proc option array;
  page : int;
}

let machine t = t.machine

let charge t ~cpu c = Machine.charge t.machine ~cpu c
let cost t = (Machine.arch t.machine).Arch.cost
let move_cost t len = ((len + 15) / 16) * (cost t).Arch.move_16b

let overhead t ~cpu = charge t ~cpu t.variant.v_page_overhead

let in_region p va =
  List.exists
    (fun r -> va >= r.r_start && va < r.r_start + r.r_size)
    p.p_regions

let violation reason = raise (Machine.Memory_violation reason)

(* Take a free frame, evicting the oldest single-referenced resident page
   to its owner's swap when none remain. *)
let alloc_frame t ~cpu =
  match Queue.take_opt t.free_frames with
  | Some f -> f
  | None ->
    let guard = ref (2 * Queue.length t.alloc_order) in
    let rec evict () =
      if !guard <= 0 then failwith "bsd_vm: out of memory";
      decr guard;
      match Queue.take_opt t.alloc_order with
      | None -> failwith "bsd_vm: out of memory"
      | Some (p, vpn, frame) ->
        let live =
          (not p.p_dead)
          && Option.equal Int.equal
               (Hashtbl.find_opt p.p_pages vpn) (Some frame)
        in
        if not live then evict ()
        else if t.frame_refs.(frame) > 1 then begin
          Queue.add (p, vpn, frame) t.alloc_order;
          evict ()
        end
        else begin
          let data =
            Phys_mem.read (Machine.phys t.machine) frame ~offset:0
              ~len:t.page
          in
          Hashtbl.replace p.p_swap vpn data;
          Machine.charge_disk t.machine ~cpu ~write:true ~bytes:t.page;
          p.p_pmap.Pmap.remove ~start_va:(vpn * t.page)
            ~end_va:((vpn + 1) * t.page);
          Hashtbl.remove p.p_pages vpn;
          t.frame_refs.(frame) <- 0;
          frame
        end
    in
    evict ()

let grab_frame t ~cpu p ~vpn =
  let frame = alloc_frame t ~cpu in
  t.frame_refs.(frame) <- 1;
  Hashtbl.replace p.p_pages vpn frame;
  Queue.add (p, vpn, frame) t.alloc_order;
  frame

let enter t ~cpu:_ p ~vpn ~frame ~prot =
  p.p_pmap.Pmap.enter ~va:(vpn * t.page) ~pfn:frame ~prot ~wired:false

let effective_write t (f : Machine.fault) =
  f.Machine.fault_write
  || (f.Machine.fault_kind = `Protection
      && (Machine.arch t.machine).Arch.reports_rmw_as_read)

let handle_fault t ~cpu (f : Machine.fault) =
  Pmap_domain.set_current_cpu t.domain cpu;
  match t.current.(cpu) with
  | None -> violation "no current process"
  | Some p ->
    let va = f.Machine.fault_va in
    if not (in_region p va) then violation "segmentation violation";
    let vpn = va / t.page in
    let write = effective_write t f in
    overhead t ~cpu;
    (match Hashtbl.find_opt p.p_pages vpn with
     | Some frame ->
       if write && t.frame_refs.(frame) > 1 then begin
         (* copy-on-write copy (SunOS variant) *)
         let nf = alloc_frame t ~cpu in
         t.frame_refs.(nf) <- 1;
         t.frame_refs.(frame) <- t.frame_refs.(frame) - 1;
         Pmap_domain.copy_page t.domain ~src:frame ~dst:nf;
         Hashtbl.replace p.p_pages vpn nf;
         Queue.add (p, vpn, nf) t.alloc_order;
         enter t ~cpu p ~vpn ~frame:nf ~prot:Prot.read_write
       end
       else begin
         let prot =
           if t.frame_refs.(frame) > 1 then Prot.read_only
           else Prot.read_write
         in
         enter t ~cpu p ~vpn ~frame ~prot
       end
     | None ->
       (match Hashtbl.find_opt p.p_swap vpn with
        | Some data ->
          let frame = grab_frame t ~cpu p ~vpn in
          Machine.charge_disk t.machine ~cpu ~write:false ~bytes:t.page;
          Phys_mem.write (Machine.phys t.machine) frame ~offset:0 data;
          Hashtbl.remove p.p_swap vpn;
          enter t ~cpu p ~vpn ~frame ~prot:Prot.read_write
        | None ->
          let frame = grab_frame t ~cpu p ~vpn in
          Pmap_domain.zero_page t.domain ~pfn:frame;
          enter t ~cpu p ~vpn ~frame ~prot:Prot.read_write))

let create machine ~fs ~buffers =
  let variant = variant_for (Machine.arch machine) in
  let domain = Pmap_domain.create machine in
  let phys = Machine.phys machine in
  let t =
    {
      machine;
      domain;
      variant;
      fs;
      cache = Buffer_cache.create fs ~buffers;
      free_frames = Queue.create ();
      frame_refs = Array.make (Phys_mem.frame_count phys) 0;
      alloc_order = Queue.create ();
      current = Array.make (Machine.cpu_count machine) None;
      page = Phys_mem.page_size phys;
    }
  in
  List.iter (fun f -> Queue.add f t.free_frames) (Phys_mem.present_frames phys);
  Machine.set_fault_handler machine (fun ~cpu f -> handle_fault t ~cpu f);
  Machine.set_on_translated machine (fun ~asid:_ ~pfn:_ ~write:_ -> ());
  t

let create_proc t ?(name = "proc") () =
  {
    p_name = name;
    p_pmap = Pmap_domain.create_pmap t.domain;
    p_regions = [];
    p_pages = Hashtbl.create 64;
    p_swap = Hashtbl.create 16;
    p_brk = t.page;
    p_dead = false;
  }

let run_proc t ~cpu p =
  Pmap_domain.set_current_cpu t.domain cpu;
  (match t.current.(cpu) with
   | Some prev when prev == p -> ()
   | Some prev -> prev.p_pmap.Pmap.deactivate ~cpu
   | None -> ());
  t.current.(cpu) <- Some p;
  p.p_pmap.Pmap.activate ~cpu

let sbrk t ~cpu p ~size =
  charge t ~cpu (cost t).Arch.syscall;
  let size = (size + t.page - 1) / t.page * t.page in
  let base = p.p_brk in
  p.p_regions <- { r_start = base; r_size = size } :: p.p_regions;
  p.p_brk <- base + size;
  base

let fork t ~cpu parent =
  Pmap_domain.set_current_cpu t.domain cpu;
  charge t ~cpu (cost t).Arch.proc_work;
  let child = create_proc t ~name:(parent.p_name ^ "-child") () in
  child.p_regions <- parent.p_regions;
  child.p_brk <- parent.p_brk;
  Hashtbl.iter (fun vpn data -> Hashtbl.replace child.p_swap vpn data)
    parent.p_swap;
  if t.variant.v_cow_fork then
    Hashtbl.iter
      (fun vpn frame ->
         t.frame_refs.(frame) <- t.frame_refs.(frame) + 1;
         Hashtbl.replace child.p_pages vpn frame;
         Queue.add (child, vpn, frame) t.alloc_order;
         (* Both sides lose write permission until a copying fault. *)
         parent.p_pmap.Pmap.protect ~start_va:(vpn * t.page)
           ~end_va:((vpn + 1) * t.page) ~prot:Prot.read_only;
         enter t ~cpu child ~vpn ~frame ~prot:Prot.read_only;
         overhead t ~cpu)
      parent.p_pages
  else
    Hashtbl.iter
      (fun vpn frame ->
         let nf = alloc_frame t ~cpu in
         t.frame_refs.(nf) <- 1;
         Pmap_domain.copy_page t.domain ~src:frame ~dst:nf;
         Hashtbl.replace child.p_pages vpn nf;
         Queue.add (child, vpn, nf) t.alloc_order;
         enter t ~cpu child ~vpn ~frame:nf ~prot:Prot.read_write;
         overhead t ~cpu)
      parent.p_pages;
  child

let exit t ~cpu p =
  Pmap_domain.set_current_cpu t.domain cpu;
  p.p_dead <- true;
  Array.iteri
    (fun i cur ->
       match cur with
       | Some running when running == p ->
         p.p_pmap.Pmap.deactivate ~cpu:i;
         t.current.(i) <- None
       | Some _ | None -> ())
    t.current;
  Hashtbl.iter
    (fun _ frame ->
       t.frame_refs.(frame) <- t.frame_refs.(frame) - 1;
       if t.frame_refs.(frame) = 0 then Queue.add frame t.free_frames)
    p.p_pages;
  Hashtbl.reset p.p_pages;
  Hashtbl.reset p.p_swap;
  p.p_pmap.Pmap.destroy ()

let exec t ~cpu p ~text =
  charge t ~cpu (cost t).Arch.syscall;
  let size = Simfs.file_size t.fs ~name:text in
  let base = sbrk t ~cpu p ~size in
  let pages = (size + t.page - 1) / t.page in
  for i = 0 to pages - 1 do
    let vpn = (base / t.page) + i in
    let frame = grab_frame t ~cpu p ~vpn in
    let data =
      Buffer_cache.read t.cache ~cpu ~name:text ~offset:(i * t.page)
        ~len:t.page
    in
    Phys_mem.write (Machine.phys t.machine) frame ~offset:0
      (if Bytes.length data = t.page then data
       else begin
         let b = Bytes.make t.page '\000' in
         Bytes.blit data 0 b 0 (Bytes.length data);
         b
       end);
    charge t ~cpu (move_cost t t.page);
    enter t ~cpu p ~vpn ~frame ~prot:Prot.read_execute;
    overhead t ~cpu
  done;
  base

let read_file t ~cpu ~name ~offset ~len =
  charge t ~cpu (cost t).Arch.syscall;
  let data = Buffer_cache.read t.cache ~cpu ~name ~offset ~len in
  (* the copy from kernel buffers to the user buffer *)
  charge t ~cpu (move_cost t (Bytes.length data));
  data

let write_file t ~cpu ~name ~offset ~data =
  charge t ~cpu (cost t).Arch.syscall;
  charge t ~cpu (move_cost t (Bytes.length data));
  Buffer_cache.write t.cache ~cpu ~name ~offset ~data

open Mach_hw
open Mach_pmap

type t = {
  task_id : int;
  task_name : string;
  task_map : Types.vmap;
  task_pmap : Pmap.t;
  mutable task_dead : bool;
  mutable task_oom_killed : bool;
}

let addr_limits (sys : Vm_sys.t) =
  let arch = Machine.arch sys.Vm_sys.machine in
  (sys.Vm_sys.page_size, arch.Arch.user_va_limit)

(* Anonymous resident pages this task holds, the OOM victim metric: for
   each entry backed by temporary (anonymous) memory, the pages of its
   shadow chain down to the first object something else also references
   — those are what killing the task actually gives back. *)
let anon_resident t =
  let count_chain o =
    let rec loop acc (o : Types.obj) exclusive =
      if not o.Types.obj_temporary then acc
      else
        let acc =
          if exclusive then acc + Mach_util.Dlist.length o.Types.obj_pages
          else acc
        in
        match o.Types.obj_shadow with
        | Some next -> loop acc next (exclusive && next.Types.obj_ref = 1)
        | None -> acc
    in
    loop 0 o true
  in
  Mach_util.Dlist.fold
    (fun total (e : Types.entry) ->
       match e.Types.e_backing with
       | Types.Backed o -> total + count_chain o
       | Types.No_backing | Types.Submap _ -> total)
    0 t.task_map.Types.map_entries

let terminate sys t =
  if not t.task_dead then begin
    t.task_dead <- true;
    Vm_sys.oom_unregister sys ~id:t.task_id;
    Vm_map.deallocate sys t.task_map
  end

(* Register the task with the OOM policy.  Closures keep Vm_sys below
   Task in the dependency order; the kill path marks the task so later
   faults and Vm_user calls surface KERN_MEMORY_ERROR, then reclaims
   everything through the ordinary termination path (which frees the
   pages and releases the swap stores). *)
let oom_arm sys t =
  Vm_sys.oom_register sys
    {
      Vm_sys.oc_id = t.task_id;
      oc_name = t.task_name;
      oc_map_id = t.task_map.Types.map_id;
      oc_resident = (fun () -> if t.task_dead then 0 else anon_resident t);
      oc_kill =
        (fun () ->
           t.task_oom_killed <- true;
           terminate sys t);
    }

let create sys ?(name = "task") () =
  let low, high = addr_limits sys in
  let pmap = Pmap_domain.create_pmap sys.Vm_sys.domain in
  let t =
    {
      task_id = Vm_sys.fresh_task_id sys;
      task_name = name;
      task_map = Vm_map.create sys ~pmap:(Some pmap) ~low ~high;
      task_pmap = pmap;
      task_dead = false;
      task_oom_killed = false;
    }
  in
  oom_arm sys t;
  t

let fork sys parent =
  assert (not parent.task_dead);
  let pmap = Pmap_domain.create_pmap sys.Vm_sys.domain in
  let map = Vm_map.fork sys parent.task_map ~child_pmap:pmap in
  let t =
    {
      task_id = Vm_sys.fresh_task_id sys;
      task_name = parent.task_name ^ "-child";
      task_map = map;
      task_pmap = pmap;
      task_dead = false;
      task_oom_killed = false;
    }
  in
  oom_arm sys t;
  t

let map t = t.task_map

let pmap t = t.task_pmap

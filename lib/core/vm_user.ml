open Mach_hw

include Vm_stats

let syscall (sys : Vm_sys.t) = Vm_sys.charge sys (Vm_sys.cost sys).Arch.syscall

(* A task killed by the OOM policy has no address space left; every
   operation on it answers KERN_MEMORY_ERROR, the same code its faults
   report, so user programs see one consistent story. *)
let check_alive (task : Task.t) f =
  if task.Task.task_oom_killed then Error Kr.Memory_error else f ()

let allocate sys task ?at ~size ~anywhere () =
  syscall sys;
  check_alive task @@ fun () ->
  Vm_map.allocate sys (Task.map task) ?at ~size ~anywhere ()

let allocate_with_pager sys task ~pager ~offset ~size =
  syscall sys;
  check_alive task @@ fun () ->
  if offset < 0 || offset mod sys.Vm_sys.page_size <> 0 then
    Error Kr.Invalid_argument
  else begin
    let size = ((size + sys.Vm_sys.page_size - 1) / sys.Vm_sys.page_size)
               * sys.Vm_sys.page_size
    in
    let o = Vm_object.create_with_pager sys pager ~size:(offset + size) in
    match
      Vm_map.allocate_object sys (Task.map task) o ~offset ~size
    with
    | Ok _ as r -> r
    | Error _ as e ->
      Vm_object.deallocate sys o;
      e
  end

let deallocate sys task ~addr ~size =
  syscall sys;
  check_alive task @@ fun () ->
  Vm_map.deallocate_range sys (Task.map task) ~addr ~size

let protect sys task ~addr ~size ~set_max ~prot =
  syscall sys;
  check_alive task @@ fun () ->
  Vm_map.protect sys (Task.map task) ~addr ~size ~set_max ~prot

let inherit_ sys task ~addr ~size inh =
  syscall sys;
  check_alive task @@ fun () ->
  Vm_map.set_inheritance sys (Task.map task) ~addr ~size inh

let copy sys task ~src ~dst ~size =
  syscall sys;
  check_alive task @@ fun () ->
  let map = Task.map task in
  match Vm_map.extract_copy sys map ~addr:src ~size with
  | Error _ as e -> e
  | Ok c ->
    (match Vm_map.deallocate_range sys map ~addr:dst ~size with
     | Error _ as e ->
       Vm_map.discard_copy sys c;
       e
     | Ok () ->
       (match Vm_map.insert_copy sys map c ~at:dst () with
        | Ok _ -> Ok ()
        | Error _ as e ->
          Vm_map.discard_copy sys c;
          e))

(* Kernel-mode data movement between a task's space and a buffer: fault
   each page in, then copy through physical memory, charging move cost. *)
let move sys task ~addr ~len ~f =
  let ps = sys.Vm_sys.page_size in
  let write = (match f with `Into_task _ -> true | `Out_of_task _ -> false) in
  let rec loop addr done_ =
    if done_ >= len then Ok ()
    else begin
      match Vm_fault.fault sys (Task.map task) ~va:addr ~write with
      | Error _ as e -> e
      | Ok page ->
        let off = addr mod ps in
        let run = min (ps - off) (len - done_) in
        (match f with
         | `Out_of_task buf ->
           Page_io.blit_out sys page ~off ~len:run buf ~pos:done_
         | `Into_task buf ->
           Page_io.blit_in sys page ~off buf ~pos:done_ ~len:run);
        loop (addr + run) (done_ + run)
    end
  in
  loop addr 0

let read sys task ~addr ~size =
  syscall sys;
  check_alive task @@ fun () ->
  if size < 0 then Error Kr.Invalid_argument
  else begin
    let buf = Bytes.create size in
    match move sys task ~addr ~len:size ~f:(`Out_of_task buf) with
    | Ok () -> Ok buf
    | Error _ as e -> e
  end

let write sys task ~addr ~data =
  syscall sys;
  check_alive task @@ fun () ->
  move sys task ~addr ~len:(Bytes.length data) ~f:(`Into_task data)

let regions sys task =
  syscall sys;
  Vm_map.regions (Task.map task)

let statistics (sys : Vm_sys.t) =
  let res = sys.Vm_sys.resident in
  { sys.Vm_sys.stats with
    vs_page_size = sys.Vm_sys.page_size;
    vs_pages_total = Resident.total_pages res;
    vs_pages_free = Resident.free_count res;
    vs_pages_active = Resident.active_count res;
    vs_pages_inactive = Resident.inactive_count res;
    vs_swap_capacity = sys.Vm_sys.swap_capacity }

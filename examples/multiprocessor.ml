(* Multiprocessor Mach (Sections 2 and 5.2): threads of one task running
   in parallel on a 4-CPU NS32082 (Sequent Balance flavour), sharing the
   address space, with TLB consistency maintained by each of the three
   strategies the paper describes.

     dune exec examples/multiprocessor.exe *)

open Mach_hw
open Mach_core

let check = function
  | Ok v -> v
  | Error e -> failwith (Kr.to_string e)

let kb = 1024

let run_with strategy =
  let machine =
    Machine.create ~arch:Arch.ns32082 ~memory_frames:8192 ~cpus:4
      ~shootdown:strategy ()
  in
  let kernel = Kernel.create ~page_multiple:8 machine in
  let sys = Kernel.sys kernel in
  let task = Kernel.create_task kernel ~name:"workers" () in
  Kernel.run_task kernel ~cpu:0 task;
  let size = 64 * kb in
  let addr = check (Vm_user.allocate sys task ~size ~anywhere:true ()) in
  let ps = Kernel.page_size kernel in
  (* Populate the region first (single threaded). *)
  for w = 0 to 3 do
    let base = addr + (w * size / 4) in
    for i = 0 to (size / 4 / ps) - 1 do
      Machine.write machine ~cpu:0 ~va:(base + (i * ps))
        (Bytes.of_string (Printf.sprintf "w%d-%02d" w i))
    done
  done;
  Machine.reset_clocks machine;
  let sched = Sched.create kernel in
  (* Four reader threads sweep disjoint slices of the shared region in
     parallel... *)
  for w = 0 to 3 do
    let base = addr + (w * size / 4) in
    ignore
      (Sched.spawn sched ~task
         (List.init (size / 4 / ps) (fun i ->
              fun ~cpu ->
                ignore (Machine.read machine ~cpu ~va:(base + (i * ps)) ~len:5))))
  done;
  (* ...while a fifth thread repeatedly revokes and restores write
     access, forcing TLB shootdowns under each strategy. *)
  ignore
    (Sched.spawn sched ~task
       (List.concat
          (List.init 4 (fun _ ->
               [ (fun ~cpu:_ ->
                    check
                      (Vm_user.protect sys task ~addr ~size ~set_max:false
                         ~prot:Prot.read_only));
                 (fun ~cpu:_ ->
                    check
                      (Vm_user.protect sys task ~addr ~size ~set_max:false
                         ~prot:Prot.read_write)) ]))));
  Sched.run sched;
  (* All writes landed despite the interleaved protection changes. *)
  let ok = ref true in
  for w = 0 to 3 do
    for i = 0 to (size / 4 / ps) - 1 do
      let got =
        Bytes.to_string
          (Machine.read machine ~cpu:0
             ~va:(addr + (w * size / 4) + (i * ps))
             ~len:5)
      in
      if got <> Printf.sprintf "w%d-%02d" w i then ok := false
    done
  done;
  let s = Machine.stats machine in
  Printf.printf
    "%-28s data %s; IPIs=%3d deferred=%3d stale=%2d elapsed=%6.2f ms\n"
    (match strategy with
     | Machine.Immediate_ipi -> "interrupt all CPUs"
     | Machine.Deferred_timer -> "defer to timer tick"
     | Machine.Lazy_local -> "temporary inconsistency")
    (if !ok then "intact" else "CORRUPT")
    s.Machine.ipis s.Machine.deferred_flushes s.Machine.stale_tlb_uses
    (Machine.elapsed_ms machine)

let () =
  print_endline
    "4 worker threads + 1 protection-flipping thread on a 4-CPU NS32082:";
  List.iter run_with
    [ Machine.Immediate_ipi; Machine.Deferred_timer; Machine.Lazy_local ];
  print_endline "multiprocessor done"

open Mach_hw

type t = {
  kernel : Kernel.t;
  ready : Kthread.t Queue.t;
  mutable all : Kthread.t list; (* newest first *)
}

let create kernel = { kernel; ready = Queue.create (); all = [] }

let spawn t ~task steps =
  let th = Kthread.make ~task steps in
  t.all <- th :: t.all;
  Queue.add th t.ready;
  th

(* Pop ready threads, skipping those suspended or terminated while
   queued (they re-enter via resume + requeue below). *)
let rec next_ready t =
  match Queue.take_opt t.ready with
  | None -> None
  | Some th ->
    (match Kthread.status th with
     | Kthread.Ready -> Some th
     | Kthread.Suspended | Kthread.Terminated | Kthread.Running _ ->
       next_ready t)

(* Suspended threads that were resumed need requeueing; do it lazily at
   the start of each round. *)
let requeue_resumed t =
  List.iter
    (fun th ->
       if
         Kthread.status th = Kthread.Ready
         && not (Queue.fold (fun acc q -> acc || q == th) false t.ready)
       then Queue.add th t.ready)
    (List.rev t.all)

(* One scheduling round: every CPU that can get a ready thread executes
   one of its steps.  [false] when no thread could run. *)
let step t =
  requeue_resumed t;
  let machine = Kernel.machine t.kernel in
  let dispatched = ref false in
  for cpu = 0 to Machine.cpu_count machine - 1 do
    match next_ready t with
    | None -> ()
    | Some th ->
      dispatched := true;
      Kernel.run_task t.kernel ~cpu (Kthread.task th);
      Kthread.run_one_step th ~cpu;
      if Kthread.status th = Kthread.Ready then Queue.add th t.ready
  done;
  !dispatched

(* Rounds after which [run] gives up on runaway threads. *)
let max_rounds = 100_000

let run t =
  let rec loop n =
    if n > max_rounds then failwith "Sched.run: max rounds exceeded";
    if step t then loop (n + 1)
  in
  loop 0

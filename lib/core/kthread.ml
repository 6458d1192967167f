type status = Ready | Running of int | Suspended | Terminated

type step = cpu:int -> unit

type t = {
  th_task : Task.t;
  mutable th_status : status;
  mutable th_steps : step list;
}

let make ~task steps = { th_task = task; th_status = Ready; th_steps = steps }

let task t = t.th_task
let status t = t.th_status

let suspend t =
  match t.th_status with
  | Terminated -> ()
  | Ready | Running _ | Suspended -> t.th_status <- Suspended

let resume t =
  match t.th_status with
  | Suspended -> t.th_status <- Ready
  | Ready | Running _ | Terminated -> ()

let run_one_step t ~cpu =
  match t.th_steps with
  | [] -> t.th_status <- Terminated
  | step :: rest ->
    t.th_status <- Running cpu;
    step ~cpu;
    t.th_steps <- rest;
    (match t.th_status with
     | Suspended -> () (* the step suspended itself *)
     | Running _ | Ready ->
       t.th_status <- (match rest with [] -> Terminated | _ :: _ -> Ready)
     | Terminated -> ())

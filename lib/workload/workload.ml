open Mach_util

type op =
  | Spawn of int
  | Fork of int * int
  | Exit of int
  | Alloc of int * int
  | Touch of int * int * bool
  | Exec of int * string
  | Read_file of string * int
  | Write_file of string * int

type t = {
  wl_files : (string * int) list;
  wl_ops : op list;
}

let kb = 1024

let slots = 6

let generate ~seed ~ops =
  let rng = Det_rng.create ~seed in
  let files =
    List.init 4 (fun i ->
        (Printf.sprintf "/wl/file%d" i, (4 + Det_rng.int rng 60) * kb))
  in
  let programs =
    List.init 2 (fun i ->
        (Printf.sprintf "/wl/prog%d" i, (64 + Det_rng.int rng 128) * kb))
  in
  let any_file () =
    fst (List.nth files (Det_rng.int rng (List.length files)))
  in
  let any_program () =
    fst (List.nth programs (Det_rng.int rng (List.length programs)))
  in
  let op () =
    let slot = Det_rng.int rng slots in
    match Det_rng.int rng 100 with
    | n when n < 10 -> Spawn slot
    | n when n < 18 -> Fork (slot, Det_rng.int rng slots)
    | n when n < 23 -> Exit slot
    | n when n < 38 -> Alloc (slot, (1 + Det_rng.int rng 16) * 4 * kb)
    | n when n < 70 -> Touch (slot, Det_rng.int rng 4, Det_rng.bool rng)
    | n when n < 78 -> Exec (slot, any_program ())
    | n when n < 92 -> Read_file (any_file (), (1 + Det_rng.int rng 32) * kb)
    | _ -> Write_file (any_file (), (1 + Det_rng.int rng 8) * kb)
  in
  { wl_files = files @ programs; wl_ops = List.init ops (fun _ -> op ()) }

let setup (os : Os_iface.t) t =
  List.iter
    (fun (name, size) ->
       os.Os_iface.install_file ~name ~data:(Bytes.make size 'w'))
    t.wl_files

type slot_state = {
  mutable proc : Os_iface.proc option;
  mutable regions : (int * int) list; (* base, size; newest first *)
}

let run (os : Os_iface.t) t =
  let cpu = 0 in
  let state = Array.init slots (fun _ -> { proc = None; regions = [] }) in
  let with_proc slot f =
    match state.(slot).proc with
    | Some p ->
      os.Os_iface.proc_run ~cpu p;
      f p
    | None -> ()
  in
  os.Os_iface.reset ();
  List.iter
    (fun op ->
       match op with
       | Spawn slot ->
         if Option.is_none state.(slot).proc then begin
           state.(slot).proc
           <- Some (os.Os_iface.proc_create
                      ~name:(Printf.sprintf "wl%d" slot));
           state.(slot).regions <- []
         end
       | Fork (parent, child) ->
         if parent <> child && Option.is_none state.(child).proc then
           with_proc parent (fun p ->
               state.(child).proc <- Some (os.Os_iface.proc_fork ~cpu p);
               state.(child).regions <- state.(parent).regions)
       | Exit slot ->
         with_proc slot (fun p ->
             os.Os_iface.proc_exit ~cpu p;
             state.(slot).proc <- None;
             state.(slot).regions <- [])
       | Alloc (slot, size) ->
         with_proc slot (fun p ->
             let base = os.Os_iface.alloc ~cpu p ~size in
             state.(slot).regions <- (base, size) :: state.(slot).regions)
       | Touch (slot, region, write) ->
         with_proc slot (fun p ->
             match List.nth_opt state.(slot).regions region with
             | Some (base, size) ->
               os.Os_iface.touch ~cpu p ~addr:base ~size ~write
             | None -> ())
       | Exec (slot, prog) ->
         with_proc slot (fun p -> os.Os_iface.exec ~cpu p ~text:prog)
       | Read_file (name, len) ->
         ignore (os.Os_iface.read_file ~cpu ~name ~offset:0 ~len)
       | Write_file (name, len) ->
         os.Os_iface.write_file ~cpu ~name ~offset:0
           ~data:(Bytes.make len 'x'))
    t.wl_ops;
  (* Clean up so repeated runs start equal. *)
  Array.iter
    (fun s ->
       match s.proc with
       | Some p ->
         os.Os_iface.proc_run ~cpu p;
         os.Os_iface.proc_exit ~cpu p;
         s.proc <- None
       | None -> ())
    state;
  os.Os_iface.elapsed_ms ()

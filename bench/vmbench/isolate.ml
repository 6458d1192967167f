(* Each repetition runs in a forked child: the simulator keeps global
   tables (memoized vnode pagers, swap stores) that would otherwise carry
   one repetition's kernel into the next, and every repetition should
   start from the same heap.  The child sends its result back over a
   pipe and exits; the parent waits for it. *)

let in_child (f : unit -> World.result) : (World.result, string) result =
  flush_all ();
  Gc.compact ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc (r : (World.result, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r =
      try (Marshal.from_channel ic : (World.result, string) result)
      with End_of_file -> Error "repetition died without a result"
    in
    close_in ic;
    (match Unix.waitpid [] pid with
     | _, Unix.WEXITED 0 -> r
     | _, _ -> Error "repetition exited abnormally")

let repetition ?chrome kind ~seed ~quick ~traced =
  in_child (fun () ->
      World.repetition ?chrome (Workload.generate kind ~seed ~quick) ~traced)

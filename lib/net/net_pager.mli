(** Network pagers: memory objects served by a pager on another machine.

    The paper (Section 6): "It is likewise possible to implement shared
    copy-on-reference or read/write data in a network or loosely coupled
    multiprocessor.  Tasks may map into their address spaces references
    to memory objects which can be implemented by pagers anywhere on the
    network."

    A {!server} exports files of its machine's file system; {!import}
    builds, for a {e client} kernel, a pager whose [pager_data_request]
    is an RPC to the server — pages cross the network only when first
    referenced (copy-on-reference), and dirty pages are written back the
    same way.  The server reads through its own resident page cache, so
    hot pages cost it no disk I/O. *)

type server
(** A memory server running on one node. *)

val serve : node:int -> Mach_core.Vm_sys.t -> Mach_pagers.Simfs.t -> server
(** [serve ~node sys fs] exports [fs] (on machine [node], whose
    kernel state is [sys]) to the other nodes. *)

val map_remote :
  Netlink.t -> node:int -> Mach_core.Vm_sys.t -> Mach_core.Task.t ->
  server -> name:string -> unit -> (int * int, Mach_core.Kr.t) result
(** [map_remote link ~node sys task server ~name ()] maps the remote file
    anywhere in [task]'s address space copy-on-reference, shared with
    every other mapping of it, returning [(address, size)].  A private
    copy is [vm_copy]'s ({!Mach_core.Vm_user.copy}) of the mapping. *)

val fetch_whole :
  Netlink.t -> node:int -> Mach_core.Vm_sys.t -> server -> name:string ->
  Bytes.t
(** [fetch_whole link ~node sys server ~name] transfers the entire file
    in one exchange — the eager alternative the copy-on-reference bench
    compares against. *)

(** Shared plumbing for mapping a pager-backed object into a task.

    [Vnode_pager.map_file], [Net_pager.map_remote] and
    [Chaos_pager.map_wrapped] all follow the same shape: resolve a name
    to a (pager, size) pair — which may fail — then allocate a region
    backed by that pager.  This helper owns the error plumbing once. *)

val map_object :
  Mach_core.Vm_sys.t -> Mach_core.Task.t ->
  resolve:(unit -> Mach_core.Types.pager * int) ->
  (int * int, Mach_core.Kr.t) result
(** [map_object sys task ~resolve] calls [resolve ()] for the pager
    and the object size in bytes ([Not_found] becomes
    [Kr.Invalid_argument]), then maps the object anywhere, shared, with
    [vm_allocate_with_pager], returning [(address, size)].  A private
    copy of the mapping is [vm_copy]'s ({!Mach_core.Vm_user.copy}). *)

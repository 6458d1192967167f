(** Fault-injecting interposition on any pager.

    [wrap] returns a pager with the same identity (id, name, caching
    flag) whose request/write paths first consult a {!Mach_fail.Fail}
    injector, modelling every way an external pager can misbehave under
    the Table 3-2 protocol: error replies ([Data_error]/[Write_error]),
    no reply within the deadline (the kernel's wait is charged in
    simulated cycles and [Obs.Pager_timeout] is emitted), latency
    spikes, and short or corrupted data.  Because the identity is
    preserved, object memoization ([Vm_object.create_with_pager]) and
    [Swap_pager.stored_bytes] keep working through the wrapper.

    [Vm_sys.pager_decorator] can be set to [wrap sys inj] so even the
    kernel-created default pager is exposed to injection. *)

val wrap :
  Mach_core.Vm_sys.t -> Mach_fail.Fail.t -> Mach_core.Types.pager ->
  Mach_core.Types.pager
(** [wrap sys inj pager] interposes [inj] on [pager].  Decisions are
    taken at the sites ["pager.request"] and ["pager.write"].  [Drop]
    charges the kernel's no-reply timeout, 20,000 cycles, before
    failing the call. *)

val map_wrapped :
  Mach_core.Vm_sys.t -> Mach_core.Task.t -> Mach_fail.Fail.t ->
  pager:Mach_core.Types.pager -> size:int -> unit ->
  (int * int, Mach_core.Kr.t) result
(** [map_wrapped sys task inj ~pager ~size ()] maps [wrap sys inj
    pager] anywhere in [task], shared, through {!Pager_map.map_object}:
    the same plumbing the vnode and network pagers use. *)

open Mach_core

let map_object sys task ~resolve =
  match resolve () with
  | exception Not_found -> Error Kr.Invalid_argument
  | (pager, size) ->
    Result.map
      (fun addr -> (addr, size))
      (Vm_user.allocate_with_pager sys task ~pager ~offset:0 ~size)

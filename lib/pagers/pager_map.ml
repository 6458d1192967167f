open Mach_core

let map_object sys task ~resolve ?at ?(copy = false) () =
  match resolve () with
  | exception Not_found -> Error Kr.Invalid_argument
  | (pager, size) ->
    let anywhere = Option.is_none at in
    (match
       Vm_user.allocate_with_pager sys task ~pager ~offset:0 ?at ~size
         ~anywhere ~copy ()
     with
     | Ok addr -> Ok (addr, size)
     | Error _ as e -> e)

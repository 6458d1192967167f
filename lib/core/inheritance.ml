type t = Shared | Copy | None_

let default = Copy

let to_string = function
  | Shared -> "shared"
  | Copy -> "copy"
  | None_ -> "none"

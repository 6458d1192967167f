type t =
  | Invalid_address
  | No_space
  | Protection_failure
  | Invalid_argument
  | Resource_shortage
  | Memory_error

let to_string = function
  | Invalid_address -> "KERN_INVALID_ADDRESS"
  | No_space -> "KERN_NO_SPACE"
  | Protection_failure -> "KERN_PROTECTION_FAILURE"
  | Invalid_argument -> "KERN_INVALID_ARGUMENT"
  | Resource_shortage -> "KERN_RESOURCE_SHORTAGE"
  | Memory_error -> "KERN_MEMORY_ERROR"

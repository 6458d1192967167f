type t = { read : bool; write : bool; execute : bool }

let make ~read ~write ~execute = { read; write; execute }

let read_only = { read = true; write = false; execute = false }
let read_write = { read = true; write = true; execute = false }
let read_execute = { read = true; write = false; execute = true }
let all = { read = true; write = true; execute = true }

let subset p ~of_ =
  (not p.read || of_.read)
  && (not p.write || of_.write)
  && (not p.execute || of_.execute)

let inter p q =
  { read = p.read && q.read;
    write = p.write && q.write;
    execute = p.execute && q.execute }

let remove_write p = { p with write = false }

let allows p ~write = if write then p.write else p.read

let to_string p =
  Printf.sprintf "%c%c%c"
    (if p.read then 'r' else '-')
    (if p.write then 'w' else '-')
    (if p.execute then 'x' else '-')

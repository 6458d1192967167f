type slice = { buf : Bytes.t; pos : int; len : int }

type t = slice list

let of_bytes b = [ { buf = b; pos = 0; len = Bytes.length b } ]

let length t = List.fold_left (fun n s -> n + s.len) 0 t

(* Call [f buf pos n ~at] for each piece of bytes [src, src + len) of
   [t], in order: [n] bytes of [buf] from [pos], which are bytes [at ..
   at + n) of the range. *)
let iter t ~src ~len f =
  if src < 0 || len < 0 then invalid_arg "Lent.iter";
  let rec go t ~skip ~at =
    if at < len then
      match t with
      | [] -> invalid_arg "Lent.iter"
      | { buf; pos; len = n } :: rest ->
        if skip >= n then go rest ~skip:(skip - n) ~at
        else begin
          let k = min (n - skip) (len - at) in
          f buf (pos + skip) k ~at;
          go rest ~skip:0 ~at:(at + k)
        end
  in
  go t ~skip:src ~at:0

let blit t ~src dst ~dst_pos ~len =
  iter t ~src ~len (fun buf pos n ~at ->
      Bytes.blit buf pos dst (dst_pos + at) n)

let sub t ~pos ~len =
  let b = Bytes.create len in
  blit t ~src:pos b ~dst_pos:0 ~len;
  b

let to_bytes t = sub t ~pos:0 ~len:(length t)

let rec truncate t n =
  match t with
  | [] -> []
  | s :: rest ->
    if n <= 0 then []
    else if s.len >= n then [ { s with len = n } ]
    else s :: truncate rest (n - s.len)

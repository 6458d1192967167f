type 'a t = {
  data : 'a option array;
  mutable next : int; (* total pushes since creation/clear *)
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Ring.create: negative capacity";
  { data = Array.make capacity None; next = 0 }

let push t x =
  let cap = Array.length t.data in
  if cap > 0 then t.data.(t.next mod cap) <- Some x;
  t.next <- t.next + 1

let length t = min t.next (Array.length t.data)

let pushed t = t.next

let dropped t = t.next - length t

let iter f t =
  let cap = Array.length t.data in
  let n = length t in
  let first = t.next - n in
  for i = first to t.next - 1 do
    match t.data.(i mod cap) with
    | Some x -> f x
    | None -> assert false
  done

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then begin
      (* %.12g round-trips every value this tree produces and never
         prints inf/nan, which JSON forbids. *)
      let s = Printf.sprintf "%.12g" f in
      Buffer.add_string buf s
    end
    else Buffer.add_string buf "null"
  | Str s -> escape_to buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
         if i > 0 then Buffer.add_char buf ',';
         to_buffer buf x)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
         if i > 0 then Buffer.add_char buf ',';
         escape_to buf k;
         Buffer.add_char buf ':';
         to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 4096 in
  to_buffer buf j;
  Buffer.contents buf

let write_file path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
       output_string oc (to_string j);
       output_char oc '\n')

(* Recursive descent over [s]; [Malformed] carries the offset of the
   first bad token out to [of_string]. *)
exception Malformed of int * string

let of_string s =
  let n = String.length s and pos = ref 0 in
  let fail msg = raise (Malformed (!pos, msg)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let eat c = peek () = c && (incr pos; true) in
  let expect c = if not (eat c) then fail (Printf.sprintf "expected '%c'" c) in
  let rec ws () =
    if String.contains " \t\n\r" (peek ()) then (incr pos; ws ())
  in
  let span ok =
    let start = !pos in
    while !pos < n && ok s.[!pos] do incr pos done;
    String.sub s start (!pos - start)
  in
  let word w v =
    if span (fun c -> c >= 'a' && c <= 'z') = w then v else fail "bad literal"
  in
  let is_hex c = String.contains "0123456789abcdefABCDEF" c in
  let rec chars b =
    if !pos >= n then fail "unterminated string";
    match s.[!pos] with
    | '"' -> incr pos; Buffer.contents b
    | '\\' ->
      incr pos;
      let e = peek () in
      incr pos;
      (match e with
       | '"' | '\\' -> Buffer.add_char b e
       | 'n' -> Buffer.add_char b '\n'
       | 'r' -> Buffer.add_char b '\r'
       | 't' -> Buffer.add_char b '\t'
       | 'u' when !pos + 4 <= n && String.for_all is_hex (String.sub s !pos 4)
         ->
         let code = int_of_string ("0x" ^ String.sub s !pos 4) in
         if code >= 0x80 then fail "\\u escape beyond ASCII";
         Buffer.add_char b (Char.chr code);
         pos := !pos + 4
       | _ -> fail "bad escape");
      chars b
    | c when c < ' ' -> fail "control character in string"
    | c -> Buffer.add_char b c; incr pos; chars b
  in
  let str () = expect '"'; chars (Buffer.create 16) in
  let number () =
    let lit = span (String.contains "+-.eE0123456789") in
    let parsed =
      if String.exists (String.contains ".eE") lit then
        Option.map (fun f -> Float f) (float_of_string_opt lit)
      else Option.map (fun i -> Int i) (int_of_string_opt lit)
    in
    match parsed with
    | Some v when lit.[0] <> '+' -> v
    | _ -> fail (if lit = "" then "expected a value" else "bad number")
  in
  (* [seq close elt] reads [elt (, elt)* close], or just [close]. *)
  let rec seq : 'a. char -> (unit -> 'a) -> 'a list =
   fun close elt ->
    let rec more acc =
      let acc = elt () :: acc in
      ws ();
      if eat ',' then more acc else (expect close; List.rev acc)
    in
    ws ();
    if eat close then [] else more []
  and field () =
    let k = (ws (); str ()) in
    ws (); expect ':'; (k, value ())
  and value () =
    ws ();
    match peek () with
    | '{' -> incr pos; Obj (seq '}' field)
    | '[' -> incr pos; Arr (seq ']' value)
    | '"' -> Str (str ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | _ -> number ()
  in
  match value () with
  | exception Malformed (at, msg) ->
    Error (Printf.sprintf "offset %d: %s" at msg)
  | v ->
    ws ();
    if !pos = n then Ok v
    else Error (Printf.sprintf "offset %d: trailing characters" !pos)

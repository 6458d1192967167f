(* [--check]: compare a run against the committed baseline.json.

   Deterministic metrics (simulated time, percentiles, fail_frac, the
   live heap) and the trace digests must match exactly; host-time
   metrics may be worse than the baseline by at most their tolerance.
   Jout only writes JSON, so a reader for the subset it writes lives
   here. *)

module J = Mach_obs.Jout

(* How a metric is compared with the baseline: a host time may be worse
   by at most the given share, a deterministic metric must be equal, and
   an informational one is not compared. *)
type kind = Host of float | Exact | Info

exception Parse_error of int

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' -> incr pos; skip ()
    | _ -> ()
  in
  let expect c = skip (); if peek () = c then incr pos else raise (Parse_error !pos) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else raise (Parse_error !pos)
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        Buffer.add_char b s.[!pos + 1];
        pos := !pos + 2;
        go ()
      | '\000' -> raise (Parse_error !pos)
      | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      skip ();
      if peek () = '}' then (incr pos; J.Obj [])
      else
        let rec fields acc =
          let k = string () in
          expect ':';
          let v = value () in
          skip ();
          match peek () with
          | ',' -> incr pos; fields ((k, v) :: acc)
          | '}' -> incr pos; J.Obj (List.rev ((k, v) :: acc))
          | _ -> raise (Parse_error !pos)
        in
        fields []
    | '[' ->
      incr pos;
      skip ();
      if peek () = ']' then (incr pos; J.Arr [])
      else
        let rec items acc =
          let v = value () in
          skip ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; J.Arr (List.rev (v :: acc))
          | _ -> raise (Parse_error !pos)
        in
        items []
    | '"' -> J.Str (string ())
    | 't' -> literal "true" (J.Bool true)
    | 'f' -> literal "false" (J.Bool false)
    | 'n' -> literal "null" J.Null
    | _ ->
      let start = !pos in
      while
        !pos < n
        && (match s.[!pos] with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
            | _ -> false)
      do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
       | Some f -> J.Float f
       | None -> raise (Parse_error start))
  in
  value ()

let field k = function
  | J.Obj fs -> List.assoc_opt k fs
  | _ -> None

let rec path j = function [] -> Some j | k :: ks -> Option.bind (field k j) (fun j -> path j ks)

let number = function
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

(* [check ~path ~kind run] prints every disagreement between [run] and
   the baseline at [path]; [kind m] says how metric [m] is compared. *)
let check ~path:file ~kind run =
  let base =
    In_channel.with_open_bin file In_channel.input_all |> parse
  in
  let ok = ref true in
  let bad fmt =
    ok := false;
    Printf.printf ("check FAILED " ^^ fmt ^^ "\n")
  in
  (match field "workloads" run with
   | Some (J.Obj ws) ->
     List.iter
       (fun (w, cur) ->
          (match (path cur [ "digest" ], path base [ "workloads"; w; "digest" ]) with
           | Some (J.Str a), Some (J.Str b) when a = b -> ()
           | _ -> bad "%s: trace digest differs from the baseline" w);
          match path cur [ "metrics" ] with
          | Some (J.Obj ms) ->
            List.iter
              (fun (m, _) ->
                 let get j = number (path j [ "metrics"; m; "value" ]) in
                 match
                   (get cur, number (path base [ "workloads"; w; "metrics"; m; "value" ]))
                 with
                 | Some c, Some b -> (
                     match kind m with
                     | Host t ->
                       if c > b *. (1. +. t) then
                         bad "%s %s: %.6g is more than %.0f%% above baseline %.6g"
                           w m c (100. *. t) b
                     | Exact ->
                       if J.to_string (J.Float c) <> J.to_string (J.Float b) then
                         bad "%s %s: %.12g differs from baseline %.12g" w m c b
                     | Info -> ())
                 | _ -> bad "%s %s: missing" w m)
              ms
          | _ -> bad "%s: no metrics" w)
       ws
   | _ -> bad "run has no workloads");
  if !ok then Printf.printf "check ok against %s\n" file;
  !ok

(* Deterministic fault injection: a pure decision engine consulted by
   Simdisk and the pager stack at named sites.  See fail.mli. *)

open Mach_util

type decision =
  | Pass
  | Fail
  | Drop
  | Delay of int
  | Short of int
  | Garbage

type rule =
  | Always of decision
  | With_probability of float * decision
  | Fail_n_then_recover of int * decision
  | After of int * rule

type plan = rule list

type event = { ev_site : string; ev_op : int; ev_decision : decision }

type site = {
  s_rng : Det_rng.t;
  mutable s_plan : plan;
  mutable s_ops : int;
}

type t = {
  seed : int;
  sites : (string, site) Hashtbl.t;
  mutable events : event list;  (* reverse chronological *)
  mutable injections : int;
}

(* FNV-1a so the per-site stream depends only on the seed and the site
   name, not on Hashtbl.hash internals. *)
let hash_name name =
  let h = ref 0x3bf29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    name;
  !h

let create ~seed = { seed; sites = Hashtbl.create 8; events = []; injections = 0 }

let seed t = t.seed

let site t name =
  match Hashtbl.find_opt t.sites name with
  | Some s -> s
  | None ->
    let s =
      { s_rng = Det_rng.create ~seed:(t.seed lxor hash_name name);
        s_plan = []; s_ops = 0 }
    in
    Hashtbl.add t.sites name s;
    s

let attach t ~site:name plan = (site t name).s_plan <- plan

(* Evaluate one rule at operation index [op].  Every
   [With_probability] in scope draws from the stream whether or not its
   window is active, so a rule triggering early never shifts the draws
   of later rules. *)
let rec eval rng ~op ~active = function
  | Always d -> if active then Some d else None
  | With_probability (p, d) ->
    let roll = Det_rng.float rng 1.0 in
    if active && roll < p then Some d else None
  | Fail_n_then_recover (n, d) -> if active && op < n then Some d else None
  | After (n, r) -> eval rng ~op ~active:(active && op >= n) r

let decide t ~site:name =
  let s = site t name in
  let op = s.s_ops in
  s.s_ops <- op + 1;
  let taken =
    List.fold_left
      (fun acc rule ->
        (* evaluate every rule (to keep the stream in lockstep), first
           trigger wins *)
        match eval s.s_rng ~op ~active:true rule with
        | Some d when Option.is_none acc -> Some d
        | _ -> acc)
      None s.s_plan
  in
  match taken with
  | None | Some Pass -> Pass
  | Some d ->
    t.injections <- t.injections + 1;
    t.events <- { ev_site = name; ev_op = op; ev_decision = d } :: t.events;
    d

let injections t = t.injections
let trace t = List.rev t.events

let decision_name = function
  | Pass -> "pass"
  | Fail -> "fail"
  | Drop -> "drop"
  | Delay c -> Printf.sprintf "delay(%d)" c
  | Short n -> Printf.sprintf "short(%d)" n
  | Garbage -> "garbage"

let fingerprint t =
  let h = ref 0x3bf29ce484222325 in
  let mix s =
    String.iter
      (fun c ->
        h := !h lxor Char.code c;
        h := !h * 0x100000001b3)
      s
  in
  List.iter
    (fun ev ->
      mix ev.ev_site;
      mix (string_of_int ev.ev_op);
      mix (decision_name ev.ev_decision))
    (trace t);
  Printf.sprintf "%d:%016x" t.injections (!h land max_int)

let scramble data =
  Bytes.map (fun c -> Char.chr (Char.code c lxor 0xA5)) data

(* Canned profiles ------------------------------------------------- *)

let profiles =
  [ ("flaky",
     [ ("disk.read", [ With_probability (0.03, Fail); With_probability (0.02, Delay 400) ]);
       ("disk.write", [ With_probability (0.03, Fail) ]);
       ("pager.request",
        [ With_probability (0.04, Fail); With_probability (0.02, Drop);
          With_probability (0.01, Short 16) ]);
       ("pager.write", [ With_probability (0.04, Fail) ]) ]);
    ("disk",
     [ ("disk.read", [ With_probability (0.05, Fail); With_probability (0.05, Delay 600) ]);
       ("disk.write", [ With_probability (0.05, Fail) ]) ]);
    ("pagerdeath",
     [ ("pager.write", [ After (4, Always Fail) ]);
       ("pager.request", [ After (32, Always Fail) ]) ]);
    (* Memory-pressure companion: runs alongside a small --mem/--swap
       configuration and leans on the paths pressure exercises hardest —
       pageout writes fail or crawl (dirty pages bounce back to the
       active queue, driving the requeue-limit escalation), and pageins
       are occasionally slow, stretching the time allocations spend
       waiting on the daemon. *)
    ("lowmem",
     [ ("pager.write",
        [ With_probability (0.10, Fail); With_probability (0.05, Delay 900) ]);
       ("disk.write", [ With_probability (0.05, Delay 700) ]);
       ("disk.read", [ With_probability (0.03, Delay 500) ]);
       ("pager.request", [ With_probability (0.02, Fail) ]) ]) ]

let profile name = List.assoc_opt name profiles
let profile_names = List.map fst profiles

let parse_spec spec =
  let seed_str, prof =
    match String.index_opt spec ':' with
    | None -> (spec, "flaky")
    | Some i ->
      (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
  in
  match int_of_string_opt seed_str with
  | None -> Error (Printf.sprintf "invalid chaos seed %S (want SEED[:PROFILE])" seed_str)
  | Some seed ->
    if List.mem_assoc prof profiles then Ok (seed, prof)
    else
      Error
        (Printf.sprintf "unknown chaos profile %S (known: %s)" prof
           (String.concat ", " profile_names))

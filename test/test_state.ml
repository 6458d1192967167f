(* Guards on the shape of lib/.

   No module-level mutable state: every kernel keeps its own state, so
   two kernels in one process are independent values.  The first guard
   parses each lib/**/*.ml and fails on a value evaluated when the
   module initialises (outside any function) that allocates a [ref], a
   [Hashtbl]/[*Tbl]/[Queue]/[Stack]/[Buffer] through [create], or an
   [Atomic.make].  Constant tables (arrays of names, canned profiles)
   allocate none of these and pass.

   Every export has a caller: the second guard parses each [val] in
   lib/**/*.mli and looks for a use of it in the .ml files under lib/,
   bin/, bench/, tools/ and examples/, outside its own module.  Tests
   do not count; an export that only a test calls belongs in its
   caller, or on [no_caller_needed] with the reason it stays. *)

open Parsetree

let lib_root = "../lib"

let caller_roots = [ lib_root; "../bin"; "../bench"; "../tools"; "../examples" ]

let rec files ~suffix dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then files ~suffix path
      else if Filename.check_suffix name suffix then [ path ]
      else [])

let ml_files = files ~suffix:".ml"
let read path = In_channel.with_open_bin path In_channel.input_all

let mutable_container m =
  let m = String.lowercase_ascii m in
  List.mem m [ "hashtbl"; "queue"; "stack"; "buffer" ]
  || String.ends_with ~suffix:"tbl" m

(* The allocation an identifier names, when applied. *)
let allocator (lid : Longident.t) =
  match lid with
  | Lident "ref" -> Some "ref"
  | Ldot (Lident "Atomic", "make") -> Some "Atomic.make"
  | Ldot (path, "create") ->
    (match List.rev (Longident.flatten path) with
     | m :: _ when mutable_container m ->
       Some (String.concat "." (Longident.flatten path) ^ ".create")
     | _ -> None)
  | _ -> None

(* Allocations evaluated at module initialisation: the iterator walks
   every structure item but stops at function bodies and lazy values,
   which run later and per call. *)
let init_allocations ~path src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  let found = ref [] in
  let expr (it : Ast_iterator.iterator) e =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> ()
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
      when Option.is_some (allocator txt) ->
      let line = e.pexp_loc.Location.loc_start.Lexing.pos_lnum in
      found :=
        Printf.sprintf "%s:%d: %s" path line (Option.get (allocator txt))
        :: !found;
      Ast_iterator.default_iterator.expr it e
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it (Parse.implementation lexbuf);
  List.rev !found

let test_no_module_level_state () =
  let files = ml_files lib_root in
  Alcotest.(check bool) "lib/ sources found" true (List.length files > 50);
  Alcotest.(check (list string)) "module-level mutable values" []
    (List.concat_map (fun path -> init_allocations ~path (read path)) files)

(* The guard itself: it must see through nesting and type annotations,
   and let functions and constant tables pass. *)
let test_guard_detects () =
  let scan src = List.length (init_allocations ~path:"case.ml" src) in
  Alcotest.(check int) "ref" 1 (scan "let next_id = ref 0");
  Alcotest.(check int) "annotated table" 1
    (scan "let t : (int, int) Hashtbl.t = Hashtbl.create 16");
  Alcotest.(check int) "nested module, Int_pair.Tbl" 1
    (scan "module M = struct let t = Mach_util.Int_pair.Tbl.create 8 end");
  Alcotest.(check int) "state behind a closure" 1
    (scan "let next = let r = ref 0 in fun () -> incr r; !r");
  Alcotest.(check int) "queue and atomic" 2
    (scan "let q = Queue.create ()\nlet a = Atomic.make 0");
  Alcotest.(check int) "functions and constants pass" 0
    (scan
       "let make () = ref 0\n\
        let tbl n = Hashtbl.create n\n\
        let names = [| \"a\"; \"b\" |]\n\
        let prots = Array.init 8 (fun b -> b * 2)")

(* Exports a caller need not have, as "Module.value", with the reason
   each stays. *)
let no_caller_needed =
  let pager_call = "a pager-to-kernel call of Table 3-2"
  and task_port = "the Table 2-1 interface by message on task and thread ports"
  and auditor = "an auditor: the tests' consistency checks"
  and wiring = "wired mappings, the pmap interface's [wired] (Section 5)" in
  [ ("Pager_ops.clean_request", pager_call);
    ("Pager_ops.flush_request", pager_call);
    ("Pager_ops.set_caching", pager_call);
    ("Pager_ops.lock_request", pager_call);
    ("Pager_ops.readonly", pager_call);
    ("Pager_ops.is_readonly", "what Pager_ops.readonly set on the object");
    ("Port_pager.make", "pager_server of Table 3-1: a handler as a pager");
    ("Syscall_server.create", task_port);
    ("Syscall_server.task_create", task_port);
    ("Syscall_server.task_port", task_port);
    ("Syscall_server.thread_port", task_port);
    ("Syscall_server.call", task_port);
    ("Syscall_server.kr_of_reply", task_port);
    ("Syscall_server.prot_bits", task_port);
    ("Syscall_server.prot_of_bits", task_port);
    ("Vm_fault.wire", wiring);
    ("Vm_fault.unwire", wiring);
    ("Vm_debug.assert_ok", auditor);
    ("Vm_debug.check_map", auditor);
    ("Vm_debug.check_resident", auditor);
    ("Phys_mem.copy_frame", "the one-frame reference for copy_frames") ]

let module_of path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let parse_with parse ~path src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  parse lexbuf

(* The [val]s an interface declares. *)
let exports ~path src =
  parse_with Parse.interface ~path src
  |> List.filter_map (fun item ->
      match item.psig_desc with
      | Psig_value vd -> Some vd.pval_name.txt
      | _ -> None)

let last path = List.nth path (List.length path - 1)

(* Every value a source file may name, as (module path, value): [M.v]
   through the file's module aliases, and an unqualified [v] once for
   each module open where it stands.  Over-approximates (a local [v]
   under [open M] counts as [M.v]), so the guard errs towards keeping
   an export. *)
let uses ~path src =
  let aliases = Hashtbl.create 8 in
  let resolve lid =
    match Longident.flatten lid with
    | m :: rest when Hashtbl.mem aliases m -> Hashtbl.find aliases m @ rest
    | p -> p
  in
  let alias name (me : module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> Hashtbl.replace aliases name (resolve txt)
    | _ -> ()
  in
  let opens = ref [] and found = ref [] in
  let scoped f =
    let saved = !opens in
    f ();
    opens := saved
  in
  let expr (it : Ast_iterator.iterator) e =
    match e.pexp_desc with
    | Pexp_ident { txt = Lident v; _ } ->
      List.iter (fun m -> found := (m, v) :: !found) !opens
    | Pexp_ident { txt = Ldot (m, v); _ } -> found := (resolve m, v) :: !found
    | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident m; _ }; _ }, body) ->
      scoped (fun () ->
          opens := resolve m.txt :: !opens;
          it.expr it body)
    | Pexp_letmodule ({ txt = Some name; _ }, me, _) ->
      alias name me;
      Ast_iterator.default_iterator.expr it e
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let structure_item (it : Ast_iterator.iterator) item =
    match item.pstr_desc with
    | Pstr_open { popen_expr = { pmod_desc = Pmod_ident m; _ }; _ } ->
      opens := resolve m.txt :: !opens
    | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } ->
      alias name pmb_expr;
      Ast_iterator.default_iterator.structure_item it item
    | _ -> Ast_iterator.default_iterator.structure_item it item
  in
  let structure (it : Ast_iterator.iterator) items =
    scoped (fun () -> List.iter (it.structure_item it) items)
  in
  let it =
    { Ast_iterator.default_iterator with expr; structure_item; structure }
  in
  it.structure it (parse_with Parse.implementation ~path src);
  List.filter (fun (m, _) -> m <> []) !found

(* "Module.value" for each export in [interfaces] (path, source) that
   no file in [callers] (path, source) uses, outside the export's own
   implementation.  A module next to a caller outside lib/ shadows a
   lib/ module of the same name, as it does for the compiler. *)
let uncalled ~interfaces ~callers =
  let used = Hashtbl.create 4096 in
  List.iter
    (fun (path, src) ->
       let dir = Filename.dirname path and self = module_of path in
       let local m =
         (not (String.starts_with ~prefix:lib_root dir))
         && Sys.file_exists
              (Filename.concat dir (String.uncapitalize_ascii m ^ ".ml"))
       in
       let own m = m = self && String.starts_with ~prefix:lib_root dir in
       List.iter
         (fun (mpath, v) ->
            let m = last mpath in
            let shadowed = List.length mpath = 1 && local m in
            if not (shadowed || own m) then
              Hashtbl.replace used (m ^ "." ^ v) ())
         (uses ~path src))
    callers;
  List.concat_map
    (fun (path, src) ->
       let m = module_of path in
       List.filter_map
         (fun v ->
            let name = m ^ "." ^ v in
            if Hashtbl.mem used name then None else Some name)
         (exports ~path src))
    interfaces

let sources roots suffix =
  List.concat_map (files ~suffix) roots |> List.map (fun p -> (p, read p))

let test_every_export_called () =
  let interfaces = sources [ lib_root ] ".mli" in
  Alcotest.(check bool) "lib/ interfaces found" true
    (List.length interfaces > 50);
  let uncalled =
    uncalled ~interfaces ~callers:(sources caller_roots ".ml")
  in
  let allowed = List.map fst no_caller_needed in
  Alcotest.(check (list string)) "exports with no caller outside test/" []
    (List.filter (fun name -> not (List.mem name allowed)) uncalled);
  Alcotest.(check (list string))
    "allowlisted exports that have a caller or are gone" []
    (List.filter (fun name -> not (List.mem name uncalled)) allowed)

(* The detector on snippets: qualified uses through aliases, the three
   forms of open, shadowing by a neighbour module, and the module's own
   implementation. *)
let test_export_guard_detects () =
  let interfaces =
    [ ("../lib/x/m.mli",
       "val a : int\nval b : int\nval c : int\nval d : int\nval e : int") ]
  in
  let check name expected callers =
    Alcotest.(check (list string)) name expected
      (uncalled ~interfaces ~callers)
  in
  let all = [ "M.a"; "M.b"; "M.c"; "M.d"; "M.e" ] in
  check "no callers" all [];
  check "own implementation does not count" all
    [ ("../lib/x/m.ml", "let a = 1 let b = a let c = M.a") ];
  check "qualified and aliased" [ "M.c"; "M.d"; "M.e" ]
    [ ("../bin/u.ml", "let x = Lib.M.a\nmodule N = Lib.M\nlet y = N.b") ];
  check "open, let open, local open" [ "M.d"; "M.e" ]
    [ ("../bin/u.ml",
       "let x = let open Lib.M in a\n\
        let y = Lib.M.(b + 1)\n\
        open Lib.M\n\
        let z = c") ];
  check "an open ends with its scope" [ "M.b"; "M.c"; "M.d"; "M.e" ]
    [ ("../bin/u.ml",
       "module S = struct open Lib.M let x = a end\nlet y = b") ];
  check "a let module alias" [ "M.b"; "M.c"; "M.d"; "M.e" ]
    [ ("../bench/u.ml", "let x = let module N = Lib.M in N.a") ];
  (* bench/vmbench has a workload.ml of its own. *)
  let interfaces = [ ("../lib/x/workload.mli", "val run : int") ] in
  Alcotest.(check (list string)) "a neighbour module shadows"
    [ "Workload.run" ]
    (uncalled ~interfaces
       ~callers:[ ("../bench/vmbench/u.ml", "let x = Workload.run") ]);
  Alcotest.(check (list string)) "no neighbour, no shadow" []
    (uncalled ~interfaces
       ~callers:[ ("../bin/u.ml", "let x = Workload.run") ])

let () =
  Alcotest.run "state"
    [ ( "lib",
        [ Alcotest.test_case "no module-level mutable state" `Quick
            test_no_module_level_state;
          Alcotest.test_case "guard detects module-level state" `Quick
            test_guard_detects;
          Alcotest.test_case "every export has a non-test caller" `Quick
            test_every_export_called;
          Alcotest.test_case "guard detects uncalled exports" `Quick
            test_export_guard_detects ] ) ]

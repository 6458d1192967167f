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
   caller, or on [no_caller_needed] with the reason it stays.

   Every constructor is built and every field is read: the third guard
   collects the variant and extension constructors (exceptions
   included) and the record fields declared in lib/, and fails on a
   constructor that no expression in those same trees builds, or a
   field that no [e.f] or record pattern there reads.  Tests do not
   count here either; the exceptions are on [unbuilt_or_unread_ok].

   Each file is parsed once and the parse is shared by the guards. *)

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
let init_allocations ~path (str : structure) =
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
  it.structure it str;
  List.rev !found

let parse_with parse ~path src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  parse lexbuf

let parse_impl = parse_with Parse.implementation
let parse_intf = parse_with Parse.interface

let in_lib (path, _) = String.starts_with ~prefix:lib_root path

(* Every .ml under the caller roots and every lib/ .mli, each parsed
   once for all the guards. *)
let implementations =
  lazy
    (List.concat_map ml_files caller_roots
     |> List.map (fun path -> (path, parse_impl ~path (read path))))

let interfaces =
  lazy
    (files ~suffix:".mli" lib_root
     |> List.map (fun path -> (path, parse_intf ~path (read path))))

let test_no_module_level_state () =
  let files = List.filter in_lib (Lazy.force implementations) in
  Alcotest.(check bool) "lib/ sources found" true (List.length files > 50);
  Alcotest.(check (list string)) "module-level mutable values" []
    (List.concat_map (fun (path, str) -> init_allocations ~path str) files)

(* The guard itself: it must see through nesting and type annotations,
   and let functions and constant tables pass. *)
let test_guard_detects () =
  let scan src =
    let path = "case.ml" in
    List.length (init_allocations ~path (parse_impl ~path src))
  in
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

(* The [val]s an interface declares. *)
let exports (sg : signature) =
  sg
  |> List.filter_map (fun item ->
      match item.psig_desc with
      | Psig_value vd -> Some vd.pval_name.txt
      | _ -> None)

let last path = List.nth path (List.length path - 1)

(* What a source file refers to, each as (module path, name) after its
   module aliases.  [values]: [M.v], and an unqualified [v] once for
   each module open where it stands, which over-approximates (a local
   [v] under [open M] counts as [M.v]), so the export guard errs
   towards keeping an export.  [built]: the constructors its
   expressions apply.  [read]: the fields of its [e.f] and record
   patterns.  An unqualified constructor or field has the empty path. *)
type refs = {
  values : (string list * string) list;
  built : (string list * string) list;
  read : (string list * string) list;
}

let refs (str : structure) =
  let aliases = Hashtbl.create 8 in
  let resolve lid =
    match Longident.flatten lid with
    | m :: rest when Hashtbl.mem aliases m -> Hashtbl.find aliases m @ rest
    | p -> p
  in
  let split : Longident.t -> _ = function
    | Ldot (m, name) -> (resolve m, name)
    | lid -> ([], Longident.last lid)
  in
  let alias name (me : module_expr) =
    match me.pmod_desc with
    | Pmod_ident { txt; _ } -> Hashtbl.replace aliases name (resolve txt)
    | _ -> ()
  in
  let opens = ref [] and values = ref [] in
  let built = ref [] and read = ref [] in
  let scoped f =
    let saved = !opens in
    f ();
    opens := saved
  in
  let expr (it : Ast_iterator.iterator) e =
    match e.pexp_desc with
    | Pexp_ident { txt = Lident v; _ } ->
      List.iter (fun m -> values := (m, v) :: !values) !opens
    | Pexp_ident { txt = Ldot (m, v); _ } ->
      values := (resolve m, v) :: !values
    | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident m; _ }; _ }, body) ->
      scoped (fun () ->
          opens := resolve m.txt :: !opens;
          it.expr it body)
    | Pexp_letmodule ({ txt = Some name; _ }, me, _) ->
      alias name me;
      Ast_iterator.default_iterator.expr it e
    | Pexp_construct ({ txt; _ }, _) ->
      built := split txt :: !built;
      Ast_iterator.default_iterator.expr it e
    | Pexp_field (_, { txt; _ }) ->
      read := split txt :: !read;
      Ast_iterator.default_iterator.expr it e
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let pat (it : Ast_iterator.iterator) p =
    (match p.ppat_desc with
     | Ppat_record (fields, _) ->
       List.iter (fun ({ Location.txt; _ }, _) -> read := split txt :: !read)
         fields
     | _ -> ());
    Ast_iterator.default_iterator.pat it p
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
    { Ast_iterator.default_iterator with expr; pat; structure_item; structure }
  in
  it.structure it str;
  { values = List.filter (fun (m, _) -> m <> []) !values;
    built = !built; read = !read }

let caller_refs =
  lazy
    (List.map (fun (path, str) -> (path, refs str))
       (Lazy.force implementations))

(* The detectors' snippets, (path, source), as the guards see files. *)
let snippet_refs =
  List.map (fun (path, src) -> (path, refs (parse_impl ~path src)))

(* "Module.value" for each export in [interfaces] (path, signature)
   that no file in [callers] (path, refs) uses, outside the export's own
   implementation.  A module next to a caller outside lib/ shadows a
   lib/ module of the same name, as it does for the compiler. *)
let uncalled ~interfaces ~callers =
  let used = Hashtbl.create 4096 in
  List.iter
    (fun (path, refs) ->
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
         refs.values)
    callers;
  List.concat_map
    (fun (path, sg) ->
       let m = module_of path in
       List.filter_map
         (fun v ->
            let name = m ^ "." ^ v in
            if Hashtbl.mem used name then None else Some name)
         (exports sg))
    interfaces

let test_every_export_called () =
  let interfaces = Lazy.force interfaces in
  Alcotest.(check bool) "lib/ interfaces found" true
    (List.length interfaces > 50);
  let uncalled =
    uncalled ~interfaces ~callers:(Lazy.force caller_refs)
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
  let uncalled ~interfaces ~callers =
    uncalled
      ~interfaces:
        (List.map (fun (path, src) -> (path, parse_intf ~path src)) interfaces)
      ~callers:(snippet_refs callers)
  in
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

(* Constructors nothing needs to build and fields nothing needs to
   read, with the reason each stays. *)
let unbuilt_or_unread_ok =
  let pmap_call = "Table 3-3's pmap interface" in
  [ ("Pmap.t.collect", pmap_call);
    ("Pmap.t.reference", pmap_call);
    ("Pmap.t.resident_count", pmap_call);
    ("Fail.Garbage", "the corrupt-reply fake of test_fail's chaos property") ]

(* The constructors (variant and extension, exceptions included) and
   the fields of record types a file declares, as (module, name, report
   name): the report name is "M.C" for a constructor and "M.t.f" for a
   field.  Inline records of constructors are not collected. *)
let declarations ~path walk =
  let m = module_of path and found = ref [] in
  let add kind name shown = found := (kind, m, name, shown) :: !found in
  let type_declaration (it : Ast_iterator.iterator) td =
    (match td.ptype_kind with
     | Ptype_variant cds ->
       List.iter
         (fun cd -> add `Built cd.pcd_name.txt (m ^ "." ^ cd.pcd_name.txt))
         cds
     | Ptype_record lds ->
       List.iter
         (fun ld ->
            add `Read ld.pld_name.txt
              (String.concat "." [ m; td.ptype_name.txt; ld.pld_name.txt ]))
         lds
     | Ptype_abstract | Ptype_open -> ());
    Ast_iterator.default_iterator.type_declaration it td
  in
  let extension_constructor (it : Ast_iterator.iterator) ec =
    add `Built ec.pext_name.txt (m ^ "." ^ ec.pext_name.txt);
    Ast_iterator.default_iterator.extension_constructor it ec
  in
  walk
    { Ast_iterator.default_iterator with type_declaration;
                                         extension_constructor };
  !found

(* The report names of the [declared] constructors that no file in
   [callers] (path, refs) builds and of the fields none reads, sorted.
   A use counts for a declaration of the same name when it is
   unqualified or names the declaring module anywhere in its path, so
   the guard errs towards keeping a declaration. *)
let unbuilt_or_unread ~declared ~callers =
  let uses = Hashtbl.create 4096 in
  let note kind (path, name) = Hashtbl.add uses (kind, name) path in
  List.iter
    (fun (_, r) ->
       List.iter (note `Built) r.built;
       List.iter (note `Read) r.read)
    callers;
  List.filter_map
    (fun (kind, m, name, shown) ->
       let used path = path = [] || List.mem m path in
       if List.exists used (Hashtbl.find_all uses (kind, name)) then None
       else Some shown)
    declared
  |> List.sort_uniq compare

let lib_declarations () =
  List.concat_map
    (fun (path, str) ->
       declarations ~path (fun it -> it.Ast_iterator.structure it str))
    (List.filter in_lib (Lazy.force implementations))
  @ List.concat_map
      (fun (path, sg) ->
         declarations ~path (fun it -> it.Ast_iterator.signature it sg))
      (Lazy.force interfaces)

let test_every_constructor_built () =
  let declared = lib_declarations () in
  Alcotest.(check bool) "lib/ declarations found" true
    (List.length declared > 500);
  let unused =
    unbuilt_or_unread ~declared ~callers:(Lazy.force caller_refs)
  in
  let allowed = List.map fst unbuilt_or_unread_ok in
  Alcotest.(check (list string))
    "constructors no expression builds, fields nothing reads" []
    (List.filter (fun name -> not (List.mem name allowed)) unused);
  Alcotest.(check (list string))
    "allowlisted names that are used or are gone" []
    (List.filter (fun name -> not (List.mem name unused)) allowed)

(* The detector on snippets: a constructor only matched, a field only
   written, a field read by a pattern, qualified uses, and a local
   exception. *)
let test_construct_guard_detects () =
  let check name expected ~decl callers =
    let path = "../lib/x/m.ml" in
    let str = parse_impl ~path decl in
    let declared =
      declarations ~path (fun it -> it.Ast_iterator.structure it str)
    in
    Alcotest.(check (list string)) name expected
      (unbuilt_or_unread ~declared ~callers:(snippet_refs callers))
  in
  let decl = "type v = A | B\ntype r = { f : int; mutable g : int }" in
  check "nothing used" [ "M.A"; "M.B"; "M.r.f"; "M.r.g" ] ~decl [];
  check "a constructor seen only in patterns" [ "M.B"; "M.r.f"; "M.r.g" ]
    ~decl
    [ ("../bin/u.ml",
       "let x = M.A\nlet is_b = function M.B -> true | M.A -> false") ];
  check "a field only written" [ "M.A"; "M.B"; "M.r.g" ] ~decl
    [ ("../bin/u.ml",
       "let r = { M.f = 1; g = 2 }\nlet () = r.g <- 3\nlet f = r.M.f") ];
  check "a record pattern reads" [ "M.A"; "M.B"; "M.r.f" ] ~decl
    [ ("../bin/u.ml", "let g { M.g; _ } = g") ];
  check "another module's name does not count" [ "M.A"; "M.B"; "M.r.f" ]
    ~decl
    [ ("../bin/u.ml", "let x = N.A\nlet y = r.N.f\nlet g { M.g; _ } = g") ];
  check "an alias and an unqualified use count" [ "M.r.f"; "M.r.g" ] ~decl
    [ ("../bin/u.ml", "module N = Lib.M\nlet x = N.A\nlet y = B") ];
  let decl = "let f () = let exception Stop in try () with Stop -> ()" in
  check "a local exception only caught" [ "M.Stop" ] ~decl [];
  check "a local exception raised" [] ~decl
    [ ("../lib/x/m.ml", "let f () = raise Stop") ]

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
            test_export_guard_detects;
          Alcotest.test_case "every constructor built, every field read"
            `Quick test_every_constructor_built;
          Alcotest.test_case
            "guard detects unbuilt constructors and unread fields" `Quick
            test_construct_guard_detects ] ) ]

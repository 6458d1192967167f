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
   field that no [e.f] or record pattern there reads (a self-update
   [e.f <- e.f + k] is no read).  Tests do not count here either; the
   exceptions are on [unbuilt_or_unread_ok].

   Every optional argument is passed: the fourth guard fails on a [?x]
   of a lib/ [val] that no application outside its module passes as
   [~x] or [?x].  The fifth fails on a [mutable] field that no [e.f <-
   v] assigns, and the sixth on an inline-record field of a constructor
   that no pattern of that constructor reads.  The seventh reads the
   dune files and fails on a [(libraries ...)] entry that no module of
   its stanza names.  Each has an allowlist, and an entry that is used
   or gone fails its case too.

   Pager traffic goes through Pager_guard: the eighth guard fails on a
   [pgr_request] or [pgr_write] that a lib/core module other than
   Pager_guard reads, so the kernel's failure policy sits on every
   pager call.  The ninth fails on a [Machine.wait_io] or
   [Machine.wait_disk] in such a module: the kernel blocks on the disk
   in Pager_guard alone.

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
let values (sg : signature) =
  List.filter_map
    (fun item ->
       match item.psig_desc with Psig_value vd -> Some vd | _ -> None)
    sg

let exports sg = List.map (fun vd -> vd.pval_name.txt) (values sg)

(* Each optional parameter of each [val], as "v ?x". *)
let optional_params sg =
  let rec optionals t =
    match t.ptyp_desc with
    | Ptyp_arrow (Optional x, _, rest) -> x :: optionals rest
    | Ptyp_arrow (_, _, rest) | Ptyp_poly (_, rest) -> optionals rest
    | _ -> []
  in
  List.concat_map
    (fun vd ->
       List.map (fun x -> vd.pval_name.txt ^ " ?" ^ x) (optionals vd.pval_type))
    (values sg)

let last path = List.nth path (List.length path - 1)

(* What a source file refers to, each as (module path, name) after its
   module aliases.  [values]: [M.v], and an unqualified [v] once for
   each module open where it stands, which over-approximates (a local
   [v] under [open M] counts as [M.v]), so the export guard errs
   towards keeping an export.  [passed]: "v ?x" for each [~x] or [?x]
   an application of [v] passes, resolved as [values] are.  [built]:
   the constructors its expressions apply.  [read]: the fields of its
   [e.f] and record patterns, except an [e.f] inside the value of its
   own self-update [e.f <- ... e.f ...]: a field whose value only feeds
   itself is never read.  [set]: the fields of its [e.f <- v].
   [inline]: "C.f" for each field [f] of a [C { f; ... }] pattern, with
   the path of [C].  An unqualified constructor or field has the empty
   path. *)
type refs = {
  values : (string list * string) list;
  passed : (string list * string) list;
  built : (string list * string) list;
  read : (string list * string) list;
  set : (string list * string) list;
  inline : (string list * string) list;
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
  let opens = ref [] and values = ref [] and passed = ref [] in
  let built = ref [] and read = ref [] and set = ref [] and inline = ref [] in
  (* The fields being self-updated around the current expression, each
     as its receiver's printed text and its name. *)
  let updating = ref [] in
  let self_update r txt =
    (Format.asprintf "%a" Pprintast.expression r, Longident.last txt)
  in
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
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
      let paths, v =
        match split txt with
        | [], v -> (!opens, v)
        | m, v -> ([ m ], v)
      in
      List.iter
        (function
          | (Asttypes.Labelled x | Optional x), _ ->
            List.iter (fun m -> passed := (m, v ^ " ?" ^ x) :: !passed) paths
          | Nolabel, _ -> ())
        args;
      Ast_iterator.default_iterator.expr it e
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
    | Pexp_field (r, { txt; _ }) ->
      if not (!updating <> [] && List.mem (self_update r txt) !updating)
      then read := split txt :: !read;
      Ast_iterator.default_iterator.expr it e
    | Pexp_setfield (r, { txt; _ }, v) ->
      set := split txt :: !set;
      it.expr it r;
      let saved = !updating in
      updating := self_update r txt :: saved;
      it.expr it v;
      updating := saved
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  (* A [C { f; ... }] pattern reads [C]'s inline field [f] and no record
     field, so only its field patterns are visited, not the record
     pattern they sit in.  (The parser cannot tell a record matched
     directly under a constructor, [Some { f; _ }], from an inline one:
     its fields count as [Some.f].) *)
  let pat (it : Ast_iterator.iterator) p =
    match p.ppat_desc with
    | Ppat_construct
        ({ txt; _ }, Some (_, { ppat_desc = Ppat_record (fields, _); _ })) ->
      let m, c = split txt in
      List.iter
        (fun ({ Location.txt = f; _ }, fp) ->
           inline := (m, c ^ "." ^ Longident.last f) :: !inline;
           it.pat it fp)
        fields
    | Ppat_record (fields, _) ->
      List.iter (fun ({ Location.txt; _ }, _) -> read := split txt :: !read)
        fields;
      Ast_iterator.default_iterator.pat it p
    | _ -> Ast_iterator.default_iterator.pat it p
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
  let qualified l = List.filter (fun (m, _) -> m <> []) l in
  { values = qualified !values; passed = qualified !passed; built = !built;
    read = !read; set = !set; inline = !inline }

let caller_refs =
  lazy
    (List.map (fun (path, str) -> (path, refs str))
       (Lazy.force implementations))

(* The detectors' snippets, (path, source), as the guards see files. *)
let snippet_refs =
  List.map (fun (path, src) -> (path, refs (parse_impl ~path src)))

(* "Module.e" for each [e] of [exports sg] of each interface in
   [interfaces] (path, signature) that no file in [callers] (path, refs)
   [uses], outside the export's own implementation.  A module next to a
   caller outside lib/ shadows a lib/ module of the same name, as it
   does for the compiler. *)
let unused_exports ~exports ~uses ~interfaces ~callers =
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
         (uses refs))
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

let uncalled = unused_exports ~exports ~uses:(fun r -> r.values)
let unpassed =
  unused_exports ~exports:optional_params ~uses:(fun r -> r.passed)

(* [found] must be exactly the names of [allowlist] (name, reason):
   the first check lists what a guard found that the allowlist does not
   excuse, the second the entries that are used or gone. *)
let check_allowlist ~found ~stale found_names allowlist =
  let allowed = List.map fst allowlist in
  Alcotest.(check (list string)) found []
    (List.filter (fun name -> not (List.mem name allowed)) found_names);
  Alcotest.(check (list string)) stale []
    (List.filter (fun name -> not (List.mem name found_names)) allowed)

let test_every_export_called () =
  let interfaces = Lazy.force interfaces in
  Alcotest.(check bool) "lib/ interfaces found" true
    (List.length interfaces > 50);
  check_allowlist ~found:"exports with no caller outside test/"
    ~stale:"allowlisted exports that have a caller or are gone"
    (uncalled ~interfaces ~callers:(Lazy.force caller_refs))
    no_caller_needed

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
    ("Fail.Garbage", "the corrupt-reply fake of test_fail's chaos property");
    ("Vm_sys.t.map_scan_steps",
     "a probe only: test_cluster's hint case counts range-scan steps") ]

(* What a file declares, as (kind, module, name, report name):
   [`Built] for each constructor (variant and extension, exceptions
   included), reported "M.C"; [`Read] for each field of a record type,
   reported "M.t.f"; [`Set] for each mutable field, of a record type or
   of an inline record, reported "M.t.f" or "M.C.f"; [`Inline] for each
   field [f] of a constructor [C]'s inline record, named "C.f" and
   reported "M.C.f". *)
let declarations ~path walk =
  let m = module_of path and found = ref [] in
  let add kind name shown = found := (kind, m, name, shown) :: !found in
  let fields ~inline owner lds =
    List.iter
      (fun ld ->
         let f = ld.pld_name.txt in
         let shown = String.concat "." [ m; owner; f ] in
         if inline then add `Inline (owner ^ "." ^ f) shown
         else add `Read f shown;
         if ld.pld_mutable = Mutable then add `Set f shown)
      lds
  in
  let constructor c args =
    add `Built c (m ^ "." ^ c);
    match args with
    | Pcstr_record lds -> fields ~inline:true c lds
    | Pcstr_tuple _ -> ()
  in
  let type_declaration (it : Ast_iterator.iterator) td =
    (match td.ptype_kind with
     | Ptype_variant cds ->
       List.iter (fun cd -> constructor cd.pcd_name.txt cd.pcd_args) cds
     | Ptype_record lds -> fields ~inline:false td.ptype_name.txt lds
     | Ptype_abstract | Ptype_open -> ());
    Ast_iterator.default_iterator.type_declaration it td
  in
  let extension_constructor (it : Ast_iterator.iterator) ec =
    let c = ec.pext_name.txt in
    (match ec.pext_kind with
     | Pext_decl (_, args, _) -> constructor c args
     | Pext_rebind _ -> add `Built c (m ^ "." ^ c));
    Ast_iterator.default_iterator.extension_constructor it ec
  in
  walk
    { Ast_iterator.default_iterator with type_declaration;
                                         extension_constructor };
  !found

(* The report names of the [declared] declarations of [kinds] that no
   file in [callers] (path, refs) uses, sorted: a constructor none
   builds, a field none reads or a mutable one none sets, an inline
   field no pattern of its constructor reads.  A use counts for a
   declaration of the same name when it is unqualified or names the
   declaring module anywhere in its path, so the guard errs towards
   keeping a declaration. *)
let unused_declarations ~kinds ~declared ~callers =
  let uses = Hashtbl.create 4096 in
  let note kind (path, name) = Hashtbl.add uses (kind, name) path in
  List.iter
    (fun (_, r) ->
       List.iter (note `Built) r.built;
       List.iter (note `Read) r.read;
       List.iter (note `Set) r.set;
       List.iter (note `Inline) r.inline)
    callers;
  List.filter_map
    (fun (kind, m, name, shown) ->
       let used path = path = [] || List.mem m path in
       if not (List.mem kind kinds)
       || List.exists used (Hashtbl.find_all uses (kind, name))
       then None
       else Some shown)
    declared
  |> List.sort_uniq compare

let unbuilt_or_unread = unused_declarations ~kinds:[ `Built; `Read ]

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
  check_allowlist
    ~found:"constructors no expression builds, fields nothing reads"
    ~stale:"allowlisted names that are used or are gone"
    (unbuilt_or_unread ~declared ~callers:(Lazy.force caller_refs))
    unbuilt_or_unread_ok

(* The detector on snippets: a constructor only matched, a field only
   written or only self-updated, a field read by a pattern (but not by
   another constructor's inline-record pattern of the same name),
   qualified uses, and a local exception. *)
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
  check "a self-update reads nothing" [ "M.A"; "M.B"; "M.r.g" ] ~decl
    [ ("../bin/u.ml",
       "let bump r = r.M.g <- r.M.g + 1\nlet f r = r.M.f") ];
  check "another record's field is read" [ "M.A"; "M.B"; "M.r.f" ] ~decl
    [ ("../bin/u.ml", "let copy r s = r.M.g <- s.M.g + 1") ];
  check "a record pattern reads" [ "M.A"; "M.B"; "M.r.f" ] ~decl
    [ ("../bin/u.ml", "let g { M.g; _ } = g") ];
  check "another module's name does not count" [ "M.A"; "M.B"; "M.r.f" ]
    ~decl
    [ ("../bin/u.ml", "let x = N.A\nlet y = r.N.f\nlet g { M.g; _ } = g") ];
  check "an alias and an unqualified use count" [ "M.r.f"; "M.r.g" ] ~decl
    [ ("../bin/u.ml", "module N = Lib.M\nlet x = N.A\nlet y = B") ];
  check "another constructor's inline pattern reads no record field"
    [ "M.A"; "M.B"; "M.r.f"; "M.r.g" ] ~decl
    [ ("../bin/u.ml", "let h = function N.C { f; g } -> f + g") ];
  check "a record pattern inside an inline one reads" [ "M.A"; "M.B"; "M.r.g" ]
    ~decl
    [ ("../bin/u.ml", "let h = function N.C { x = { M.f; _ } } -> f") ];
  let decl = "let f () = let exception Stop in try () with Stop -> ()" in
  check "a local exception only caught" [ "M.Stop" ] ~decl [];
  check "a local exception raised" [] ~decl
    [ ("../lib/x/m.ml", "let f () = raise Stop") ]

(* Optional parameters no caller needs to pass, as "Module.value ?x",
   with the reason each stays. *)
let unpassed_ok =
  [ ("Machine.create ?holes",
     "the SUN 3's display-memory hole in physical space, which Pmap_sun3 \
      handles machine-dependently (Section 5.1)") ]

let test_every_optional_passed () =
  check_allowlist ~found:"optional parameters no caller outside test/ passes"
    ~stale:"allowlisted parameters that a caller passes or are gone"
    (unpassed ~interfaces:(Lazy.force interfaces)
       ~callers:(Lazy.force caller_refs))
    unpassed_ok

(* The detector on snippets: a label passed inside its own module, by
   a qualified call, through an open, and as [?x]. *)
let test_optional_guard_detects () =
  let path = "../lib/x/m.mli" in
  let sg =
    parse_intf ~path
      "val f : ?a:int -> ?b:int -> int -> int\n\
       val g : x:int -> ?c:bool -> unit -> unit"
  in
  let check name expected callers =
    Alcotest.(check (list string)) name expected
      (unpassed ~interfaces:[ (path, sg) ] ~callers:(snippet_refs callers))
  in
  let all = [ "M.f ?a"; "M.f ?b"; "M.g ?c" ] in
  check "no callers" all [];
  check "passed only inside its module" all
    [ ("../lib/x/m.ml",
       "let f ?(a = 1) ?(b = 2) x = x + a + b\nlet y = f ~a:3 0") ];
  check "a call that passes none" all
    [ ("../bin/u.ml", "let y = M.f 1\nlet () = M.g ~x:1 ()") ];
  check "qualified, opened and passed on" [ "M.f ?b" ]
    [ ("../bin/u.ml",
       "let y = Lib.M.f ~a:1 2\n\
        let z ?c () = Lib.M.(g ~x:1 ?c ())") ];
  check "an aliased module" [ "M.f ?a"; "M.g ?c" ]
    [ ("../bench/u.ml", "module N = Lib.M\nlet y = N.f ~b:1 2") ]

(* Mutable fields nothing needs to assign, as "Module.t.f", with the
   reason each stays. *)
let never_set_ok : (string * string) list = []

let test_every_mutable_set () =
  check_allowlist ~found:"mutable fields no expression outside test/ assigns"
    ~stale:"allowlisted fields that are assigned or are gone"
    (unused_declarations ~kinds:[ `Set ] ~declared:(lib_declarations ())
       ~callers:(Lazy.force caller_refs))
    never_set_ok

(* Inline-record fields nothing needs to read, as "Module.C.f", with
   the reason each stays. *)
let inline_unread_ok : (string * string) list = []

let test_every_inline_field_read () =
  check_allowlist
    ~found:"inline-record fields no pattern of their constructor reads"
    ~stale:"allowlisted inline fields that are read or are gone"
    (unused_declarations ~kinds:[ `Inline ] ~declared:(lib_declarations ())
       ~callers:(Lazy.force caller_refs))
    inline_unread_ok

(* Both detectors on snippets: a mutable field only read or only built,
   and an inline field read through a constructor of another module or
   by a wildcard. *)
let test_set_and_inline_guards_detect () =
  let check name ~kinds expected ~decl callers =
    let path = "../lib/x/m.ml" in
    let str = parse_impl ~path decl in
    let declared =
      declarations ~path (fun it -> it.Ast_iterator.structure it str)
    in
    Alcotest.(check (list string)) name expected
      (unused_declarations ~kinds ~declared ~callers:(snippet_refs callers))
  in
  let decl =
    "type r = { f : int; mutable g : int; mutable h : int }\n\
     exception E of { write : bool; block : int }"
  in
  let set = check ~kinds:[ `Set ] ~decl
  and inline = check ~kinds:[ `Inline ] ~decl in
  set "nothing assigned" [ "M.r.g"; "M.r.h" ] [];
  set "read and built, never assigned" [ "M.r.g"; "M.r.h" ]
    [ ("../bin/u.ml", "let r = { M.f = 1; g = 2; h = 3 }\nlet x = r.M.g") ];
  set "assigned" [ "M.r.h" ] [ ("../bin/u.ml", "let s r = r.M.g <- 1") ];
  inline "matched with a wildcard" [ "M.E.block"; "M.E.write" ]
    [ ("../lib/x/v.ml", "let f g = try g () with M.E _ -> ()") ];
  inline "another constructor's field" [ "M.E.block"; "M.E.write" ]
    [ ("../lib/x/v.ml",
       "let f = function Obs.E { write; block } -> write && block > 0")
    ];
  inline "read through its constructor" [ "M.E.block" ]
    [ ("../lib/x/v.ml", "let f g = try g () with M.E { write; _ } -> write")
    ]

(* A dune file as s-expressions: atoms, quoted strings and lists;
   comments are skipped. *)
type sexp = Atom of string | List of sexp list

let parse_sexps src =
  let n = String.length src in
  let rec items i acc =
    if i >= n then (List.rev acc, i)
    else
      match src.[i] with
      | ')' -> (List.rev acc, i)
      | ' ' | '\t' | '\n' | '\r' -> items (i + 1) acc
      | ';' ->
        items (Option.value (String.index_from_opt src i '\n') ~default:n) acc
      | '(' ->
        let l, j = items (i + 1) [] in
        items (j + 1) (List l :: acc)
      | '"' ->
        let j = String.index_from src (i + 1) '"' in
        items (j + 1) (Atom (String.sub src (i + 1) (j - i - 1)) :: acc)
      | _ ->
        let j = ref i in
        while !j < n && not (String.contains " \t\n\r();\"" src.[!j]) do
          incr j
        done;
        items !j (Atom (String.sub src i (!j - i)) :: acc)
  in
  fst (items 0 [])

(* Every dune file under the caller roots, parsed once. *)
let dune_files =
  lazy
    (let rec dunes dir =
       Sys.readdir dir |> Array.to_list |> List.sort compare
       |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if Sys.is_directory path then dunes path
           else if name = "dune" then [ path ]
           else [])
     in
     List.concat_map dunes caller_roots
     |> List.map (fun path -> (path, parse_sexps (read path))))

(* The modules of each library outside this tree that a stanza may
   link: a library missing here fails the guard. *)
let external_modules =
  [ ("fmt", [ "Fmt" ]);
    ("logs", [ "Logs" ]);
    ("cmdliner", [ "Cmdliner" ]);
    ("unix", [ "Unix"; "UnixLabels" ]);
    ("bechamel", [ "Bechamel" ]);
    ("bechamel.monotonic_clock", [ "Monotonic_clock" ]) ]

(* The first component of each module path a file names: [M] in [M.x],
   [M.t], [M.C], [M.f] and [M.N], and a module [M] itself. *)
let named_modules walk =
  let found = ref [] in
  let add (lid : Longident.t) =
    match Longident.flatten lid with
    | m :: _ :: _ -> found := m :: !found
    | _ -> ()
  in
  let add_module lid = found := List.hd (Longident.flatten lid) :: !found in
  let expr (it : Ast_iterator.iterator) e =
    (match e.pexp_desc with
     | Pexp_ident { txt; _ } | Pexp_construct ({ txt; _ }, _)
     | Pexp_field (_, { txt; _ }) | Pexp_setfield (_, { txt; _ }, _) ->
       add txt
     | Pexp_record (fields, _) ->
       List.iter (fun ({ Location.txt; _ }, _) -> add txt) fields
     | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let pat (it : Ast_iterator.iterator) p =
    (match p.ppat_desc with
     | Ppat_construct ({ txt; _ }, _) -> add txt
     | Ppat_record (fields, _) ->
       List.iter (fun ({ Location.txt; _ }, _) -> add txt) fields
     | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let typ (it : Ast_iterator.iterator) t =
    (match t.ptyp_desc with
     | Ptyp_constr ({ txt; _ }, _) -> add txt
     | _ -> ());
    Ast_iterator.default_iterator.typ it t
  in
  let module_expr (it : Ast_iterator.iterator) me =
    (match me.pmod_desc with Pmod_ident { txt; _ } -> add_module txt | _ -> ());
    Ast_iterator.default_iterator.module_expr it me
  in
  let module_type (it : Ast_iterator.iterator) mt =
    (match mt.pmty_desc with
     | Pmty_ident { txt; _ } | Pmty_alias { txt; _ } -> add_module txt
     | _ -> ());
    Ast_iterator.default_iterator.module_type it mt
  in
  let type_extension (it : Ast_iterator.iterator) te =
    add te.ptyext_path.txt;
    Ast_iterator.default_iterator.type_extension it te
  in
  walk
    { Ast_iterator.default_iterator with expr; pat; typ; module_expr;
                                         module_type; type_extension };
  List.sort_uniq compare !found

(* "dir: lib" for each [(libraries ...)] entry of a stanza in [dunes]
   (path, sexps) that no module of the stanza names, or that is neither
   a library of [dunes] nor on [external_modules].  [named dir] gives
   the module names the source files in [dir] use: a stanza's modules
   are taken to be every module of its directory, which errs towards
   keeping a library. *)
let unnamed_libraries ~dunes ~named =
  let stanzas =
    List.concat_map
      (fun (path, sexps) ->
         List.filter_map
           (function
             | List (Atom kind :: fields) ->
               let field name =
                 List.concat_map
                   (function
                     | List (Atom f :: args) when f = name ->
                       List.filter_map
                         (function Atom a -> Some a | List _ -> None)
                         args
                     | _ -> [])
                   fields
               in
               Some (Filename.dirname path, kind, field)
             | _ -> None)
           sexps)
      dunes
  in
  let internal =
    List.filter_map
      (fun (_, kind, field) ->
         match (kind, field "name") with
         | "library", [ name ] -> Some (name, [ String.capitalize_ascii name ])
         | _ -> None)
      stanzas
  in
  List.concat_map
    (fun (dir, _, field) ->
       let uses = named dir in
       let shown = String.sub dir 3 (String.length dir - 3) ^ ": " in
       List.filter_map
         (fun lib ->
            match List.assoc_opt lib (internal @ external_modules) with
            | None -> Some (shown ^ lib ^ " (no module table entry)")
            | Some ms when List.exists (fun m -> List.mem m uses) ms -> None
            | Some _ -> Some (shown ^ lib))
         (field "libraries"))
    stanzas

let source_names =
  lazy
    (List.map
       (fun (path, str) ->
          (path, named_modules (fun it -> it.Ast_iterator.structure it str)))
       (Lazy.force implementations)
     @ List.map
         (fun (path, sg) ->
            (path, named_modules (fun it -> it.Ast_iterator.signature it sg)))
         (Lazy.force interfaces))

(* The names the files of [sources] (path, names) in [dir] use. *)
let named_in sources dir =
  List.concat_map
    (fun (path, names) -> if Filename.dirname path = dir then names else [])
    sources

(* Libraries a stanza may link without naming them, as "dir: lib", with
   the reason each stays. *)
let unnamed_ok : (string * string) list = []

let test_every_library_named () =
  let dunes = Lazy.force dune_files in
  Alcotest.(check bool) "dune files found" true (List.length dunes > 12);
  check_allowlist ~found:"libraries no module of their stanza names"
    ~stale:"allowlisted libraries that are named or are gone"
    (unnamed_libraries ~dunes ~named:(named_in (Lazy.force source_names)))
    unnamed_ok

(* The detector on snippets: a library named through an open, a type
   or a module alias counts; one only listed or named in a comment does
   not, an external library outside the table fails, and a stanza sees
   only the modules of its directory. *)
let test_library_guard_detects () =
  let sources =
    [ ("../lib/a/x.ml", "open Mach_util\nlet f (t : Mach_hw.Prot.t) = t");
      ("../lib/a/y.ml", "(* not Fmt.str *)\nmodule O = Mach_obs");
      ("../lib/b/z.ml", "let g = Fmt.str \"x\"") ]
    |> List.map (fun (path, src) ->
        let str = parse_impl ~path src in
        (path, named_modules (fun it -> it.Ast_iterator.structure it str)))
  in
  let libs =
    "(library (name mach_util))\n\
     (library (name mach_hw))\n\
     (library (name mach_obs))"
  in
  let check name expected dunes =
    Alcotest.(check (list string)) name expected
      (unnamed_libraries
         ~dunes:
           (List.map
              (fun (path, src) -> (path, parse_sexps src))
              (("../lib/u/dune", libs) :: dunes))
         ~named:(named_in sources))
  in
  let lib_a libs =
    ("../lib/a/dune",
     "; (libraries fmt)\n(library\n (name mach_a)\n (libraries " ^ libs ^ "))")
  in
  check "every library named" [] [ lib_a "mach_util mach_hw mach_obs" ];
  check "a library only listed" [ "lib/a: fmt" ] [ lib_a "mach_util fmt" ];
  check "outside the table" [ "lib/a: zarith (no module table entry)" ]
    [ lib_a "zarith" ];
  check "a stanza sees only its directory" [ "lib/b: mach_a" ]
    [ lib_a "mach_util";
      ("../lib/b/dune", "(library (name mach_b) (libraries fmt mach_a))") ]

(* "path: name" for each name [hit] finds in the refs of a lib/core
   file of [files] (path, refs) other than pager_guard.ml. *)
let outside_pager_guard hit files =
  List.concat_map
    (fun (path, r) ->
       if
         Filename.dirname path <> Filename.concat lib_root "core"
         || Filename.basename path = "pager_guard.ml"
       then []
       else
         let shown = String.sub path 3 (String.length path - 3) in
         List.map (fun name -> shown ^ ": " ^ name)
           (List.sort_uniq compare (hit r)))
    files

(* Each [pgr_request] or [pgr_write] read by [e.f] or a record pattern:
   a pager call past the failure policy. *)
let unguarded_pager_calls =
  outside_pager_guard (fun r ->
      List.filter_map
        (fun (_, f) ->
           if f = "pgr_request" || f = "pgr_write" then Some f else None)
        r.read)

(* Each use of [Machine.wait_io] or [Machine.wait_disk]: a disk wait
   outside the one module where the kernel blocks on the disk. *)
let unguarded_disk_waits =
  outside_pager_guard (fun r ->
      List.filter_map
        (fun (m, v) ->
           if (v = "wait_io" || v = "wait_disk") && last m = "Machine" then
             Some ("Machine." ^ v)
           else None)
        r.values)

let test_pager_calls_guarded () =
  Alcotest.(check (list string)) "pager calls outside Pager_guard" []
    (unguarded_pager_calls (Lazy.force caller_refs))

(* The detector on snippets: a call in another lib/core module is
   found; Pager_guard's own call, a pager record built in lib/core and a
   decorator's call outside lib/core are not. *)
let test_pager_call_guard_detects () =
  Alcotest.(check (list string)) "only the unguarded call"
    [ "lib/core/vm_cluster.ml: pgr_request" ]
    (unguarded_pager_calls
       (snippet_refs
          [ ("../lib/core/vm_cluster.ml",
             "let f p = p.Types.pgr_request ~offset:0 ~length:1");
            ("../lib/core/pager_guard.ml",
             "let g p = p.pgr_write ~offset:0 ~data:[]");
            ("../lib/core/swap_pager.ml",
             "let make r w = { pgr_request = r; pgr_write = w }");
            ("../lib/pagers/chaos_pager.ml",
             "let wrap p = p.Types.pgr_write") ]))

let test_disk_waits_guarded () =
  Alcotest.(check (list string)) "disk waits outside Pager_guard" []
    (unguarded_disk_waits (Lazy.force caller_refs))

(* The detector on snippets: a wait in another lib/core module is found,
   through a module alias too; Pager_guard's own waits and a pager's
   wait outside lib/core are not. *)
let test_disk_wait_guard_detects () =
  Alcotest.(check (list string)) "only the waits outside Pager_guard"
    [ "lib/core/vm_pageout.ml: Machine.wait_disk";
      "lib/core/vm_pageout.ml: Machine.wait_io" ]
    (unguarded_disk_waits
       (snippet_refs
          [ ("../lib/core/vm_pageout.ml",
             "module M = Mach_hw.Machine\n\
              let f m io = Mach_hw.Machine.wait_io m ~cpu:0 io\n\
              let g m = M.wait_disk m ~cpu:0 ~completion:1 ~service:1");
            ("../lib/core/pager_guard.ml",
             "let g m io = Mach_hw.Machine.wait_io m ~cpu:0 io");
            ("../lib/core/vm_fault.ml", "let h m = Mach_hw.Machine.cycles m");
            ("../lib/pagers/simfs.ml",
             "let w m io = Mach_hw.Machine.wait_io m ~cpu:0 io") ]))

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
            test_construct_guard_detects;
          Alcotest.test_case "every optional parameter passed" `Quick
            test_every_optional_passed;
          Alcotest.test_case "guard detects unpassed optional parameters"
            `Quick test_optional_guard_detects;
          Alcotest.test_case "every mutable field assigned" `Quick
            test_every_mutable_set;
          Alcotest.test_case "every inline-record field read" `Quick
            test_every_inline_field_read;
          Alcotest.test_case "guards detect unset and unread fields" `Quick
            test_set_and_inline_guards_detect;
          Alcotest.test_case "every library named" `Quick
            test_every_library_named;
          Alcotest.test_case "guard detects unnamed libraries" `Quick
            test_library_guard_detects;
          Alcotest.test_case "pager calls go through Pager_guard" `Quick
            test_pager_calls_guarded;
          Alcotest.test_case "guard detects unguarded pager calls" `Quick
            test_pager_call_guard_detects;
          Alcotest.test_case "disk waits go through Pager_guard" `Quick
            test_disk_waits_guarded;
          Alcotest.test_case "guard detects unguarded disk waits" `Quick
            test_disk_wait_guard_detects ] ) ]

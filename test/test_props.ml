(* Property-based tests (qcheck) across the substrate: data structures
   against reference models, and whole-system data-preservation
   properties under randomized operation sequences. *)

open Mach_hw
open Mach_core
open Mach_pagers

let kb = 1024

let boot ?cpus () =
  let machine =
    Machine.create ~arch:Arch.vax8200 ~memory_frames:1024 ?cpus ()
  in
  let kernel = Kernel.create ~page_multiple:8 machine in
  (machine, kernel, Kernel.sys kernel)

(* ---- TLB vs a model map -------------------------------------------------- *)

(* A TLB holding at most N entries never returns a translation that was
   not inserted (and not since invalidated). *)
let tlb_soundness =
  let open QCheck2 in
  Test.make ~name:"tlb never invents translations" ~count:200
    Gen.(list (triple (int_range 0 3) (int_range 0 9) (int_range 0 30)))
    (fun ops ->
       let t = Tlb.create ~capacity:4 in
       let model = Hashtbl.create 16 in
       List.iter
         (fun (op, asid, vpn) ->
            match op with
            | 0 ->
              Tlb.insert t { Tlb.asid; vpn; pfn = vpn + 100; prot = Prot.read_write };
              Hashtbl.replace model (asid, vpn) (vpn + 100)
            | 1 ->
              Tlb.invalidate_page t ~asid ~vpn;
              Hashtbl.remove model (asid, vpn)
            | 2 ->
              Tlb.invalidate_asid t ~asid;
              Hashtbl.iter
                (fun (a, v) _ ->
                   if a = asid then Hashtbl.remove model (a, v))
                (Hashtbl.copy model)
            | _ -> (
                match Tlb.lookup t ~asid ~vpn with
                | Some e ->
                  (* a hit must agree with the model *)
                  if Hashtbl.find_opt model (asid, vpn) <> Some e.Tlb.pfn
                  then failwith "tlb invented a translation"
                | None -> ()))
         ops;
       true)

(* ---- Page_io round trips -------------------------------------------------- *)

(* The reference read: bytes [off, off + len) of page [p], one byte at a
   time from whichever hardware frame holds it. *)
let copy_out sys p ~off ~len =
  let mem = Machine.phys sys.Vm_sys.machine in
  let fs = Phys_mem.page_size mem in
  Bytes.init len (fun i ->
      let a = off + i in
      Phys_mem.read_byte mem (p.Types.pfn + (a / fs)) ~offset:(a mod fs))

let page_bytes sys p = copy_out sys p ~off:0 ~len:sys.Vm_sys.page_size

let page_io_roundtrip =
  let open QCheck2 in
  Test.make ~name:"page_io copy_in/copy_out round trip" ~count:100
    Gen.(pair (int_range 0 4000) (string_size (int_range 1 96)))
    (fun (off, s) ->
       let _, _, sys = boot () in
       let off = min off (sys.Vm_sys.page_size - String.length s) in
       let p = Vm_sys.grab_page sys in
       Page_io.zero sys p;
       Page_io.blit_in sys p ~off (Bytes.of_string s) ~pos:0
         ~len:(String.length s);
       let back = copy_out sys p ~off ~len:(String.length s) in
       Resident.free_page sys.Vm_sys.resident p;
       Bytes.to_string back = s)

let page_io_fill_pads =
  let open QCheck2 in
  Test.make ~name:"page_io fill zero-pads the tail" ~count:50
    Gen.(string_size (int_range 0 200))
    (fun s ->
       let _, _, sys = boot () in
       let p = Vm_sys.grab_page sys in
       (* dirty the frame first *)
       Page_io.blit_in sys p ~off:0 (Bytes.make sys.Vm_sys.page_size 'x')
         ~pos:0 ~len:sys.Vm_sys.page_size;
       Page_io.fill sys p (Lent.of_bytes (Bytes.of_string s));
       let whole = page_bytes sys p in
       Resident.free_page sys.Vm_sys.resident p;
       String.length s = 0
       || (Bytes.to_string (Bytes.sub whole 0 (String.length s)) = s
           && Bytes.get whole (String.length s) = '\000'))

(* [fill]'s [pos] must lie within [data]: one past its end raises and
   leaves the page alone, where a silent zero page would hide a short
   reply; [pos] at the end is a page of zeros. *)
let test_page_io_fill_pos () =
  let _, _, sys = boot () in
  let ps = sys.Vm_sys.page_size in
  let p = Vm_sys.grab_page sys in
  let bytes = Bytes.make ps 'x' in
  let data = Lent.of_bytes bytes in
  Page_io.blit_in sys p ~off:0 bytes ~pos:0 ~len:ps;
  let bad = Invalid_argument "Page_io.fill" in
  Alcotest.check_raises "pos past the end" bad (fun () ->
      Page_io.fill sys p data ~pos:(ps + 1));
  Alcotest.check_raises "negative pos" bad (fun () ->
      Page_io.fill sys p data ~pos:(-1));
  Alcotest.(check bool) "page untouched" true
    (Bytes.equal (page_bytes sys p) bytes);
  Page_io.fill sys p data ~pos:ps;
  Alcotest.(check bool) "pos at the end zero-fills" true
    (Bytes.equal (page_bytes sys p) (Bytes.make ps '\000'));
  Resident.free_page sys.Vm_sys.resident p

(* [Page_io.blit_out] into a garbage-filled buffer writes exactly what
   the byte-wise [copy_out] reads, at [pos], and nothing outside it.
   The page spans eight 512-byte VAX frames, so most ranges straddle
   frames. *)
let page_io_blit_out =
  let open QCheck2 in
  Test.make ~name:"page_io blit_out equals copy_out" ~count:200
    Gen.(quad (int_range 0 4095) (int_range 0 4096) (int_range 0 64) char)
    (fun (off, len, pos, junk) ->
       let _, _, sys = boot () in
       let ps = sys.Vm_sys.page_size in
       let len = min len (ps - off) in
       let p = Vm_sys.grab_page sys in
       (* no period, so a byte from the wrong frame shows *)
       Page_io.blit_in sys p ~off:0
         (Bytes.init ps (fun i -> Char.chr (Hashtbl.hash i land 255)))
         ~pos:0 ~len:ps;
       let buf = Bytes.make (pos + len + 64) junk in
       Page_io.blit_out sys p ~off ~len buf ~pos;
       let want = copy_out sys p ~off ~len in
       Resident.free_page sys.Vm_sys.resident p;
       Bytes.equal (Bytes.sub buf pos len) want
       && Bytes.equal (Bytes.sub buf 0 pos) (Bytes.make pos junk)
       && Bytes.equal (Bytes.sub buf (pos + len) 64) (Bytes.make 64 junk))

(* [Simdisk.lend_run] lends each stored block of the run itself, the
   same buffer on every read, and a fresh zero block for each unwritten
   one; together they are the run's bytes. *)
let simdisk_lend_run =
  let open QCheck2 in
  let bs = 512 and blocks = 8 in
  Test.make ~name:"simdisk lend_run lends the stored blocks" ~count:200
    Gen.(
      pair (list_size (return blocks) bool)
        (pair (int_range 0 (blocks - 1)) (int_range 1 blocks)))
    (fun (written, (first, count)) ->
       let count = min count (blocks - first) in
       let machine = Machine.create ~arch:Arch.vax8200 ~memory_frames:64 () in
       let disk = Simdisk.create machine ~block_size:bs in
       let content b =
         if List.nth written b then Bytes.make bs (Char.chr (65 + b))
         else Bytes.make bs '\000'
       in
       List.iteri
         (fun b w ->
            if w then Simdisk.install disk ~block:b ~pos:0 ~len:bs (content b))
         written;
       let lend () = fst (Simdisk.lend_run disk ~cpu:0 ~first ~count) in
       let a = lend () and b = lend () in
       let want =
         Bytes.concat Bytes.empty
           (List.init count (fun i -> content (first + i)))
       in
       List.length a = count
       && Bytes.equal (Lent.to_bytes a) want
       && List.for_all2
            (fun (i, x) y ->
               x.Lent.pos = 0 && x.Lent.len = bs
               && (x.Lent.buf == y.Lent.buf) = List.nth written (first + i))
            (List.mapi (fun i x -> (i, x)) a) b)

(* ---- Simfs vs a byte-array model ------------------------------------------ *)

let simfs_model =
  let open QCheck2 in
  Test.make ~name:"simfs agrees with a bytes model" ~count:100
    Gen.(list (pair (int_range 0 6000) (string_size (int_range 1 700))))
    (fun writes ->
       let machine = Machine.create ~arch:Arch.vax8200 ~memory_frames:64 () in
       let fs = Simfs.create machine () in
       Simfs.install_file fs ~name:"/m" ~data:(Bytes.create 0);
       let model = ref (Bytes.create 0) in
       List.iter
         (fun (offset, s) ->
            let data = Bytes.of_string s in
            Simfs.write fs ~cpu:0 ~name:"/m" ~offset ~data;
            let needed = offset + Bytes.length data in
            if Bytes.length !model < needed then begin
              let grown = Bytes.make needed '\000' in
              Bytes.blit !model 0 grown 0 (Bytes.length !model);
              model := grown
            end;
            Bytes.blit data 0 !model offset (Bytes.length data))
         writes;
       let size = Simfs.file_size fs ~name:"/m" in
       size = Bytes.length !model
       && Bytes.equal (Simfs.read fs ~cpu:0 ~name:"/m" ~offset:0 ~len:size)
            !model)

(* ---- buffer cache is transparent ------------------------------------------ *)

let buffer_cache_transparent =
  let open QCheck2 in
  Test.make ~name:"buffer cache returns exactly what simfs holds" ~count:60
    Gen.(list (pair (int_range 0 3) (int_range 0 5000)))
    (fun reads ->
       let machine = Machine.create ~arch:Arch.vax8200 ~memory_frames:64 () in
       let fs = Simfs.create machine () in
       let files =
         List.init 4 (fun i ->
             let name = Printf.sprintf "/f%d" i in
             let data =
               Bytes.init ((i + 1) * 3000) (fun j ->
                   Char.chr (((i * 37) + j) mod 256))
             in
             Simfs.install_file fs ~name ~data;
             (name, data))
       in
       let cache = Mach_bsd.Buffer_cache.create fs ~buffers:3 in
       List.for_all
         (fun (idx, offset) ->
            let name, data = List.nth files idx in
            let len = 512 in
            let expected =
              if offset >= Bytes.length data then Bytes.create 0
              else
                Bytes.sub data offset
                  (min len (Bytes.length data - offset))
            in
            Bytes.equal
              (Mach_bsd.Buffer_cache.read cache ~cpu:0 ~name ~offset ~len)
              expected)
         reads)

(* ---- whole-system data properties ------------------------------------------ *)

(* Protection cycling never changes data.  Two CPUs share the task: the
   second caches each page read-only while it is lowered and rewrites it
   after the raise, through that stale entry, so the TLB-within-pmap
   invariant is audited after every step. *)
let protect_preserves_data =
  let open QCheck2 in
  Test.make ~name:"protect down/up cycles preserve memory contents"
    ~count:40
    Gen.(list (int_range 0 7))
    (fun pages ->
       let machine, kernel, sys = boot ~cpus:2 () in
       let t = Kernel.create_task kernel () in
       Kernel.run_task kernel ~cpu:0 t;
       Kernel.run_task kernel ~cpu:1 t;
       let audited () = Vm_debug.check_all sys ~maps:[ Task.map t ] = [] in
       let a =
         match Vm_user.allocate sys t ~size:(32 * kb) ~anywhere:true () with
         | Ok a -> a
         | Error _ -> failwith "alloc"
       in
       for i = 0 to 7 do
         Machine.write machine ~cpu:0 ~va:(a + (i * 4 * kb))
           (Bytes.of_string (Printf.sprintf "data%d" i))
       done;
       List.for_all
         (fun page ->
            let addr = a + (page * 4 * kb) in
            ignore
              (Vm_user.protect sys t ~addr ~size:(4 * kb) ~set_max:false
                 ~prot:Prot.read_only);
            let lowered = audited () in
            let data = Machine.read machine ~cpu:1 ~va:addr ~len:5 in
            ignore
              (Vm_user.protect sys t ~addr ~size:(4 * kb) ~set_max:false
                 ~prot:Prot.read_write);
            let raised = audited () in
            Machine.write machine ~cpu:1 ~va:addr data;
            lowered && raised && audited ())
         pages
       && List.for_all
         (fun i ->
            Bytes.to_string
              (Machine.read machine ~cpu:0 ~va:(a + (i * 4 * kb)) ~len:5)
            = Printf.sprintf "data%d" i)
         [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* vm_copy equals vm_read/vm_write composition. *)
let vm_copy_equals_read_write =
  let open QCheck2 in
  Test.make ~name:"vm_copy equals read-then-write" ~count:40
    Gen.(string_size (int_range 1 2000))
    (fun s ->
       let _, kernel, sys = boot () in
       let t = Kernel.create_task kernel () in
       Kernel.run_task kernel ~cpu:0 t;
       let alloc () =
         match Vm_user.allocate sys t ~size:(8 * kb) ~anywhere:true () with
         | Ok a -> a
         | Error _ -> failwith "alloc"
       in
       let src = alloc () and via_copy = alloc () and via_rw = alloc () in
       (match Vm_user.write sys t ~addr:src ~data:(Bytes.of_string s) with
        | Ok () -> ()
        | Error _ -> failwith "write");
       (match Vm_user.copy sys t ~src ~dst:via_copy ~size:(8 * kb) with
        | Ok () -> ()
        | Error _ -> failwith "copy");
       (match Vm_user.read sys t ~addr:src ~size:(8 * kb) with
        | Ok data ->
          (match Vm_user.write sys t ~addr:via_rw ~data with
           | Ok () -> ()
           | Error _ -> failwith "write2")
        | Error _ -> failwith "read");
       let get addr =
         match Vm_user.read sys t ~addr ~size:(String.length s) with
         | Ok b -> Bytes.to_string b
         | Error _ -> failwith "readback"
       in
       get via_copy = s && get via_rw = s)

(* Extracted map copies carry exactly the source bytes at insertion
   time, wherever they are inserted. *)
let map_copy_roundtrip =
  let open QCheck2 in
  Test.make ~name:"extract/insert map copy preserves bytes" ~count:40
    Gen.(string_size (int_range 1 1000))
    (fun s ->
       let machine, kernel, sys = boot () in
       let src_task = Kernel.create_task kernel () in
       Kernel.run_task kernel ~cpu:0 src_task;
       let a =
         match Vm_user.allocate sys src_task ~size:(8 * kb) ~anywhere:true () with
         | Ok a -> a
         | Error _ -> failwith "alloc"
       in
       Machine.write machine ~cpu:0 ~va:a (Bytes.of_string s);
       let copy =
         match Vm_map.extract_copy sys (Task.map src_task) ~addr:a ~size:(8 * kb) with
         | Ok c -> c
         | Error _ -> failwith "extract"
       in
       let dst_task = Kernel.create_task kernel () in
       let b =
         match Vm_map.insert_copy sys (Task.map dst_task) copy () with
         | Ok b -> b
         | Error _ -> failwith "insert"
       in
       Kernel.run_task kernel ~cpu:0 dst_task;
       let got =
         Bytes.to_string
           (Machine.read machine ~cpu:0 ~va:b ~len:(String.length s))
       in
       got = s)

(* After a fork, parent and child each see only their own writes,
   whichever hardware frame of a machine-independent page a write lands
   on.  Checked against a per-task byte model on machines whose page
   spans several hardware frames. *)
let fork_isolates_writes arch ~multiple =
  let open QCheck2 in
  let size = 16 * kb in
  let write_gen = Gen.(pair (int_range 0 (size - 1)) printable) in
  Test.make
    ~name:
      (Printf.sprintf "fork isolates parent and child writes [%s x%d]"
         arch.Arch.name multiple)
    ~count:40
    Gen.(
      pair
        (list_size (int_range 1 20) write_gen)
        (list_size (int_range 1 40) (pair bool write_gen)))
    (fun (before, after) ->
       let machine = Machine.create ~arch ~memory_frames:1024 () in
       let kernel = Kernel.create ~page_multiple:multiple machine in
       let sys = Kernel.sys kernel in
       let parent = Kernel.create_task kernel () in
       Kernel.run_task kernel ~cpu:0 parent;
       let a =
         match Vm_user.allocate sys parent ~size ~anywhere:true () with
         | Ok a -> a
         | Error _ -> failwith "alloc"
       in
       let write task model (off, c) =
         Kernel.run_task kernel ~cpu:0 task;
         Machine.write_byte machine ~cpu:0 ~va:(a + off) c;
         Bytes.set model off c
       in
       let parent_model = Bytes.make size '\000' in
       List.iter (write parent parent_model) before;
       let child = Kernel.fork_task kernel ~cpu:0 parent in
       let child_model = Bytes.copy parent_model in
       List.iter
         (fun (by_child, w) ->
            if by_child then write child child_model w
            else write parent parent_model w)
         after;
       let sees task model =
         Kernel.run_task kernel ~cpu:0 task;
         Bytes.equal (Machine.read machine ~cpu:0 ~va:a ~len:size) model
       in
       sees parent parent_model && sees child child_model)

let () =
  Alcotest.run "properties"
    [ ( "models",
        List.map QCheck_alcotest.to_alcotest
          [ tlb_soundness; simfs_model; buffer_cache_transparent;
            simdisk_lend_run ] );
      ( "page_io",
        List.map QCheck_alcotest.to_alcotest
          [ page_io_roundtrip; page_io_fill_pads; page_io_blit_out ]
        @ [ Alcotest.test_case "fill rejects a pos outside data" `Quick
              test_page_io_fill_pos ] );
      ( "system",
        List.map QCheck_alcotest.to_alcotest
          [ protect_preserves_data; vm_copy_equals_read_write;
            map_copy_roundtrip;
            fork_isolates_writes Arch.vax8200 ~multiple:8;
            fork_isolates_writes Arch.rt_pc ~multiple:2 ] ) ]

(* Linker and image tests: section concatenation (the descriptor-array
   trick of Section 5), symbol resolution, relocation arithmetic, and the
   page-protection model. *)

open Util
module Objfile = Mv_codegen.Objfile
module Linker = Mv_link.Linker
module Image = Mv_link.Image

let build_image sources = (build_units sources).Core.Compiler.p_image

let test_section_layout () =
  let img = build_image [ ("a", "int x; void f() { x = 1; }") ] in
  let text = Option.get (Image.section_range img Objfile.Text) in
  let data = Option.get (Image.section_range img Objfile.Data) in
  check_int "text base" Linker.text_base text.Image.sr_base;
  check_bool "data after text" true (data.Image.sr_base >= text.Image.sr_base + text.Image.sr_size);
  check_int "data page aligned" 0 (data.Image.sr_base mod Image.page_size);
  check_bool "heap after sections" true (img.Image.heap_base >= data.Image.sr_base + data.Image.sr_size);
  check_int "heap page aligned" 0 (img.Image.heap_base mod Image.page_size)

let test_cross_unit_symbols () =
  let img =
    build_image
      [
        ("defs", "int shared = 5; void helper() { shared = shared + 1; }");
        ("uses", "extern int shared; extern void helper(); int get() { helper(); return shared; }");
      ]
  in
  check_bool "shared resolved" true (Image.symbol_opt img "shared" <> None);
  check_bool "helper resolved" true (Image.symbol_opt img "helper" <> None);
  check_bool "get resolved" true (Image.symbol_opt img "get" <> None)

let test_descriptor_sections_concatenate () =
  (* two units each define one switch; the merged multiverse.variables
     section must be a contiguous 2-record array *)
  let img =
    build_image
      [
        ("u1", "multiverse int a; multiverse void f() { if (a) { } }");
        ("u2", "multiverse int b; multiverse void g() { if (b) { } }");
      ]
  in
  let vars = Core.Descriptor.parse_variables img in
  check_int "two variable records" 2 (List.length vars);
  let range = Option.get (Image.section_range img Objfile.Mv_variables) in
  check_int "section is exactly 2 x 32 bytes" 64 range.Image.sr_size;
  let addrs = List.map (fun (v : Core.Descriptor.variable) -> v.vr_addr) vars in
  check_bool "addresses are the symbols" true
    (List.mem (Image.symbol img "a") addrs && List.mem (Image.symbol img "b") addrs)

let test_undefined_symbol_errors () =
  match build_units [ ("u", "extern void missing(); void f() { missing(); }") ] with
  | exception Core.Compiler.Compile_error m ->
      check_bool "mentions the symbol" true
        (let needle = "missing" in
         let lh = String.length m and ln = String.length needle in
         let rec go i = i + ln <= lh && (String.sub m i ln = needle || go (i + 1)) in
         go 0)
  | _ -> Alcotest.fail "expected a link error"

let test_duplicate_symbol_errors () =
  match build_units [ ("u1", "int x;"); ("u2", "int x;") ] with
  | exception Core.Compiler.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected a duplicate-symbol error"

let test_rel32_resolution () =
  (* a cross-unit call must land exactly on the callee *)
  let sources =
    [
      ("callee", "int target() { return 99; }");
      ("caller", "extern int target(); int f() { return target(); }");
    ]
  in
  let s = session_units sources in
  check_int "cross-unit call executes" 99 (run s "f" []);
  let img = s.program.Core.Compiler.p_image in
  (* find the call instruction inside f and check its resolved target *)
  let f_addr = Image.symbol img "f" in
  let f_size = Image.symbol_size img "f" in
  let listing = Image.decode_range img ~addr:f_addr ~len:f_size in
  let call_target =
    List.find_map
      (fun (pos, i) ->
        match i with Mv_isa.Insn.Call rel -> Some (pos + 5 + rel) | _ -> None)
      listing
  in
  check_int "rel32 resolves to the callee" (Image.symbol img "target")
    (Option.get call_target)

let test_abs64_fnptr_init () =
  let s = session "int ten() { return 10; } fnptr op = &ten;" in
  let img = s.program.Core.Compiler.p_image in
  check_int "fnptr cell holds the function address" (Image.symbol img "ten")
    (Image.read img (Image.symbol img "op") 8)

let test_global_initializers () =
  let s = session "int a = 42; int b = -7; int c; uint8 d = 200;" in
  check_int "a" 42 (get_global s "a");
  check_int "b" (-7) (get_global s "b");
  check_int "c zero" 0 (get_global s "c");
  let img = s.program.Core.Compiler.p_image in
  check_int "d" 200 (Image.read img (Image.symbol img "d") 1)

let test_text_protection () =
  let img = build_image [ ("u", "void f() { }") ] in
  let f = Image.symbol img "f" in
  (* executing is allowed, writing is not *)
  Image.check_exec img f 1;
  (match Image.write img f 0x90 1 with
  | exception Image.Segfault _ -> ()
  | () -> Alcotest.fail "text must not be writable");
  (* after mprotect(rwx) the write goes through; restore rejects again *)
  Image.mprotect img ~addr:f ~len:1 Image.prot_rwx;
  Image.write img f 0x90 1;
  Image.mprotect img ~addr:f ~len:1 Image.prot_rx;
  match Image.write img f 0x90 1 with
  | exception Image.Segfault _ -> ()
  | () -> Alcotest.fail "protection must be restorable"

let test_data_not_executable () =
  let img = build_image [ ("u", "int x; void f() { x = 1; }") ] in
  let x = Image.symbol img "x" in
  match Image.check_exec img x 1 with
  | exception Image.Segfault _ -> ()
  | () -> Alcotest.fail "data must not be executable"

let test_out_of_bounds_faults () =
  let img = build_image [ ("u", "void f() { }") ] in
  (match Image.read img (-8) 8 with
  | exception Image.Segfault _ -> ()
  | _ -> Alcotest.fail "negative address must fault");
  match Image.read img (Image.size img) 8 with
  | exception Image.Segfault _ -> ()
  | _ -> Alcotest.fail "past-the-end read must fault"

let test_symbol_at_reverse_lookup () =
  let img = build_image [ ("u", "void first() { } void second() { __cli(); }") ] in
  let second = Image.symbol img "second" in
  check_bool "start of function" true (Image.symbol_at img second = Some "second");
  check_bool "inside function" true (Image.symbol_at img (second + 1) = Some "second")

let test_image_too_small () =
  match Core.Compiler.build ~mem_size:8192 [ ("u", "int big[100000];") ] with
  | exception Core.Compiler.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected an image-size error"

(* ------------------------------------------------------------------ *)
(* Demand-zero paged memory against a flat reference                   *)
(* ------------------------------------------------------------------ *)

(* The flat model the paged image must be indistinguishable from: one
   zero-filled [Bytes.t] and the same per-page protection rules, faulting
   with the same messages. *)
module Flat = struct
  type t = { mem : Bytes.t; prot : Image.protection array }

  let create size =
    {
      mem = Bytes.make size '\000';
      prot = Array.make ((size + Image.page_size - 1) / Image.page_size) Image.prot_rw;
    }

  let fault fmt = Printf.ksprintf (fun m -> raise (Image.Segfault m)) fmt

  let check t addr len access =
    if not (addr >= 0 && len >= 0 && addr + len <= Bytes.length t.mem) then
      fault "%s out of bounds at 0x%x (+%d)" access addr len

  let pages addr len = (addr / Image.page_size, (addr + max 0 (len - 1)) / Image.page_size)

  let check_prot t addr len ok access =
    check t addr len access;
    let first, last = pages addr len in
    for page = first to last do
      if not (ok t.prot.(page)) then
        fault "%s violation at 0x%x (page 0x%x)" access addr (page * Image.page_size)
    done

  let readable p = p.Image.p_read
  let writable p = p.Image.p_write

  let read t addr width =
    check_prot t addr width readable "read";
    match width with
    | 1 -> Char.code (Bytes.get t.mem addr)
    | 2 -> Bytes.get_uint16_le t.mem addr
    | 4 -> Int32.to_int (Bytes.get_int32_le t.mem addr) land 0xFFFFFFFF
    | 8 -> Int64.to_int (Bytes.get_int64_le t.mem addr)
    | w -> fault "bad read width %d" w

  let write t addr v width =
    check_prot t addr width writable "write";
    match width with
    | 1 -> Bytes.set t.mem addr (Char.chr (v land 0xFF))
    | 2 -> Bytes.set_uint16_le t.mem addr (v land 0xFFFF)
    | 4 -> Bytes.set_int32_le t.mem addr (Int32.of_int v)
    | 8 -> Bytes.set_int64_le t.mem addr (Int64.of_int v)
    | w -> fault "bad write width %d" w

  let read_bytes t addr len =
    check_prot t addr len readable "read";
    Bytes.sub t.mem addr len

  let write_bytes t addr b =
    check_prot t addr (Bytes.length b) writable "write";
    Bytes.blit b 0 t.mem addr (Bytes.length b)

  let mprotect t addr len p =
    check t addr len "mprotect";
    let first, last = pages addr len in
    for page = first to last do
      t.prot.(page) <- p
    done
end

type mem_op =
  | Read of int * int
  | Write of int * int * int
  | Read_bytes of int * int
  | Write_bytes of int * string
  | Mprotect of int * int * Image.protection
  | Decode of int

(* Four and a bit pages, so the last page is partial. *)
let paged_mem_size = (4 * Image.page_size) + 100

let gen_mem_op =
  let open QCheck.Gen in
  (* addresses cluster around page boundaries and the ends of memory,
     where straddling and bounds faults live *)
  let addr =
    frequency
      [
        (3, map2 (fun page d -> (page * Image.page_size) + d) (int_bound 5) (int_range (-9) 9));
        (2, int_bound (paged_mem_size + 16));
        (1, int_range (-16) (-1));
        (1, map (fun d -> paged_mem_size - d) (int_bound 12));
      ]
  in
  let width = frequency [ (6, oneofl [ 1; 2; 4; 8 ]); (1, oneofl [ 0; 3; -1 ]) ] in
  let prot = oneofl Image.[ prot_rw; prot_rx; prot_rwx; prot_none ] in
  frequency
    [
      (4, map2 (fun a w -> Read (a, w)) addr width);
      (4, map3 (fun a v w -> Write (a, v, w)) addr int width);
      (2, map2 (fun a n -> Read_bytes (a, n)) addr (int_range (-1) 20));
      (2, map2 (fun a s -> Write_bytes (a, s)) addr (string_size (int_bound 20)));
      (1, map3 (fun a n p -> Mprotect (a, n, p)) addr (int_bound 6000) prot);
      (1, map (fun a -> Decode a) addr);
    ]

let show_mem_op = function
  | Read (a, w) -> Printf.sprintf "read 0x%x/%d" a w
  | Write (a, v, w) -> Printf.sprintf "write 0x%x <- %d/%d" a v w
  | Read_bytes (a, n) -> Printf.sprintf "read_bytes 0x%x+%d" a n
  | Write_bytes (a, s) -> Printf.sprintf "write_bytes 0x%x %S" a s
  | Mprotect (a, n, _) -> Printf.sprintf "mprotect 0x%x+%d" a n
  | Decode a -> Printf.sprintf "decode 0x%x" a

(* An operation's observable outcome: its value, or the exception. *)
let outcome f = match f () with v -> v | exception e -> "raised " ^ Printexc.to_string e

let show_insn (insn, size) = Printf.sprintf "%s/%d" (Mv_isa.Asm.insn_to_string insn) size

let run_paged img = function
  | Read (a, w) -> outcome (fun () -> string_of_int (Image.read img a w))
  | Write (a, v, w) -> outcome (fun () -> Image.write img a v w; "ok")
  | Read_bytes (a, n) -> outcome (fun () -> Bytes.to_string (Image.read_bytes img a n))
  | Write_bytes (a, s) -> outcome (fun () -> Image.write_bytes img a (Bytes.of_string s); "ok")
  | Mprotect (a, n, p) -> outcome (fun () -> Image.mprotect img ~addr:a ~len:n p; "ok")
  | Decode a -> outcome (fun () -> show_insn (Image.decode img a))

let run_flat (flat : Flat.t) = function
  | Read (a, w) -> outcome (fun () -> string_of_int (Flat.read flat a w))
  | Write (a, v, w) -> outcome (fun () -> Flat.write flat a v w; "ok")
  | Read_bytes (a, n) -> outcome (fun () -> Bytes.to_string (Flat.read_bytes flat a n))
  | Write_bytes (a, s) -> outcome (fun () -> Flat.write_bytes flat a (Bytes.of_string s); "ok")
  | Mprotect (a, n, p) -> outcome (fun () -> Flat.mprotect flat a n p; "ok")
  | Decode a -> outcome (fun () -> show_insn (Mv_isa.Decode.decode flat.Flat.mem ~off:a))

let empty_image size =
  let none = { Image.sr_base = 0; sr_size = 0 } in
  Image.create ~mem_size:size ~sections:[] ~text:none ~vtext:none ~heap_base:0
    ~stack_base:(size - 16)

let prop_paged_matches_flat =
  QCheck.Test.make ~name:"paged image behaves like flat memory" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
       QCheck.Gen.(list_size (int_range 1 80) gen_mem_op))
    (fun ops ->
      let img = empty_image paged_mem_size and flat = Flat.create paged_mem_size in
      List.for_all
        (fun op ->
          let got = run_paged img op and want = run_flat flat op in
          got = want
          || QCheck.Test.fail_reportf "%s: paged %S, flat %S" (show_mem_op op) got want)
        ops
      && Bytes.equal (Image.sub img 0 paged_mem_size) flat.Flat.mem)

let test_untouched_pages_read_zero () =
  let img = empty_image (1 lsl 22) in
  check_int "no page resident" 0 (Image.resident_pages img);
  check_int "untouched word" 0 (Image.read img 0x12340 8);
  check_int "untouched last word" 0 (Image.read img ((1 lsl 22) - 8) 8);
  check_bool "untouched range" true (Bytes.equal (Image.sub img 4090 12) (Bytes.make 12 '\000'));
  check_int "reads allocate no page" 0 (Image.resident_pages img);
  Image.write img (Image.page_size - 4) 0x1122334455 8;
  check_int "a straddling write owns both pages" 2 (Image.resident_pages img);
  check_int "straddling read" 0x1122334455 (Image.read img (Image.page_size - 4) 8)

let test_linked_image_is_sparse () =
  let img = build_image [ ("a", "int x; int big[100000]; void f() { x = 1; }") ] in
  let data = Option.get (Image.section_range img Objfile.Data) in
  let touched = (data.Image.sr_base + data.Image.sr_size) / Image.page_size in
  check_bool "4 MiB image holds only the pages its sections wrote" true
    (Image.resident_pages img <= touched + 2);
  check_int "stack page untouched until used" 0 (Image.read img (img.Image.stack_base - 8) 8)

(* ------------------------------------------------------------------ *)
(* The variant-text region exists only on lazy builds                  *)
(* ------------------------------------------------------------------ *)

let vtext_src = "multiverse int m; int w; multiverse void f() { if (m) { w = 1; } } void g() { f(); }"

let test_eager_build_reserves_no_vtext () =
  let eager = Core.Compiler.build_string vtext_src in
  let reserved =
    Core.Compiler.build_string ~vtext_size:Linker.default_vtext_size vtext_src
  in
  let e = eager.Core.Compiler.p_image and r = reserved.Core.Compiler.p_image in
  check_int "eager vtext is empty" 0 e.Image.vtext.Image.sr_size;
  check_int "explicit vtext_size wins" Linker.default_vtext_size r.Image.vtext.Image.sr_size;
  check_bool "same section addresses" true (e.Image.sections = r.Image.sections);
  check_int "same vtext base" r.Image.vtext.Image.sr_base e.Image.vtext.Image.sr_base;
  check_int "same stack base" r.Image.stack_base e.Image.stack_base;
  check_int "stack base at the top of memory" (Image.size e - 16) e.Image.stack_base;
  check_bool "heap follows the sections" true
    (e.Image.heap_base = e.Image.vtext.Image.sr_base)

let test_lazy_build_reserves_vtext () =
  let lz = Core.Compiler.build_string ~lazy_variants:true vtext_src in
  let img = lz.Core.Compiler.p_image in
  check_int "lazy vtext reserved" Linker.default_vtext_size img.Image.vtext.Image.sr_size;
  check_bool "vtext is executable" true (Image.prot_at img img.Image.vtext.Image.sr_base).Image.p_exec;
  let units = lz.Core.Compiler.p_units in
  check_bool "units record the lazy flag" true
    (List.for_all (fun (u : Core.Compiler.compiled_unit) -> u.cu_lazy) units);
  let relinked = Core.Compiler.link units in
  check_int "Compiler.link defaults from the units" Linker.default_vtext_size
    relinked.Image.vtext.Image.sr_size;
  let none = Core.Compiler.link ~vtext_size:0 units in
  check_int "explicit 0 wins on a lazy build" 0 none.Image.vtext.Image.sr_size

let suite =
  [
    tc "section layout" test_section_layout;
    tc "cross-unit symbols" test_cross_unit_symbols;
    tc "descriptor sections concatenate (Section 5)" test_descriptor_sections_concatenate;
    tc "undefined symbols error" test_undefined_symbol_errors;
    tc "duplicate symbols error" test_duplicate_symbol_errors;
    tc "Rel32 resolution" test_rel32_resolution;
    tc "Abs64 fnptr initializer" test_abs64_fnptr_init;
    tc "global initializers" test_global_initializers;
    tc "text is write-protected (W^X)" test_text_protection;
    tc "data is not executable" test_data_not_executable;
    tc "out-of-bounds access faults" test_out_of_bounds_faults;
    tc "reverse symbol lookup" test_symbol_at_reverse_lookup;
    tc "image size limit" test_image_too_small;
    Test_props.to_alcotest prop_paged_matches_flat;
    tc "untouched pages read zero" test_untouched_pages_read_zero;
    tc "linked image is sparse" test_linked_image_is_sparse;
    tc "eager build reserves no vtext" test_eager_build_reserves_no_vtext;
    tc "lazy build reserves vtext" test_lazy_build_reserves_vtext;
  ]

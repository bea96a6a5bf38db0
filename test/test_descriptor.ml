(* Descriptor binary-layout tests: the record sizes of Section 5 hold
   exactly, and parsing a linked image recovers the generation-time
   structure. *)

open Util
module D = Core.Descriptor
module Image = Mv_link.Image
module Objfile = Mv_codegen.Objfile

let fig2 =
  {|
  multiverse bool a;
  multiverse int b;
  int w;
  void side() { w = w + 1; }
  multiverse void multi() {
    if (a) {
      side();
      if (b) { side(); }
    }
  }
  int foo() { multi(); return w; }
|}

let test_record_size_constants () =
  check_int "variable record" 32 D.variable_record_size;
  check_int "callsite record" 16 D.callsite_record_size;
  check_int "function header" 48 D.function_header_size;
  check_int "variant record" 32 D.variant_record_size;
  check_int "guard record" 16 D.guard_record_size;
  (* the paper's formula: 48 + #variants * (32 + #guards * 16) per function,
     with per-variant guards folded into the total *)
  check_int "formula" (48 + (3 * 32) + (5 * 16))
    (D.function_record_size ~variants:3 ~guards:5)

let test_section_sizes_match_formulas () =
  let p = build fig2 in
  let img = p.Core.Compiler.p_image in
  let vars = D.parse_variables img in
  let sites = D.parse_callsites img in
  let fns = D.parse_functions img in
  let vrange = Option.get (Image.section_range img Objfile.Mv_variables) in
  let crange = Option.get (Image.section_range img Objfile.Mv_callsites) in
  let frange = Option.get (Image.section_range img Objfile.Mv_functions) in
  check_int "variables section" (32 * List.length vars) vrange.Image.sr_size;
  check_int "callsites section" (16 * List.length sites) crange.Image.sr_size;
  let expected_fn_bytes =
    List.fold_left
      (fun acc (f : D.function_record) ->
        let guards =
          List.fold_left
            (fun acc (v : D.variant_record) -> acc + List.length v.va_guards)
            0 f.fd_variants
        in
        acc + D.function_record_size ~variants:(List.length f.fd_variants) ~guards)
      0 fns
  in
  check_int "functions section" expected_fn_bytes frange.Image.sr_size

let test_variable_record_fields () =
  let p = build fig2 in
  let img = p.Core.Compiler.p_image in
  let vars = D.parse_variables img in
  check_int "two switches" 2 (List.length vars);
  let by_addr addr = List.find (fun (v : D.variable) -> v.vr_addr = addr) vars in
  let a = by_addr (Image.symbol img "a") in
  check_int "bool width 1" 1 a.vr_width;
  check_bool "bool unsigned" false a.vr_signed;
  check_bool "not a fnptr" false a.vr_fnptr;
  let b = by_addr (Image.symbol img "b") in
  check_int "int width 8" 8 b.vr_width;
  check_bool "int signed" true b.vr_signed

let test_fnptr_variable_flag () =
  let p = build "void t() { } multiverse fnptr op = &t; void f() { op(); }" in
  let img = p.Core.Compiler.p_image in
  match D.parse_variables img with
  | [ v ] -> check_bool "fnptr flag" true v.vr_fnptr
  | l -> Alcotest.failf "expected one variable, got %d" (List.length l)

let test_function_record_fields () =
  let p = build fig2 in
  let img = p.Core.Compiler.p_image in
  match D.parse_functions img with
  | [ f ] ->
      check_int "generic address" (Image.symbol img "multi") f.fd_generic;
      check_int "generic size" (Image.symbol_size img "multi") f.fd_generic_size;
      check_int "variant records" 3 (List.length f.fd_variants);
      List.iter
        (fun (v : D.variant_record) ->
          let name = Option.get (Image.symbol_at img v.va_addr) in
          check_int (name ^ " size") (Image.symbol_size img name) v.va_size;
          check_int (name ^ " guards") 2 (List.length v.va_guards))
        f.fd_variants
  | l -> Alcotest.failf "expected one function record, got %d" (List.length l)

let test_callsite_record_fields () =
  let p = build fig2 in
  let img = p.Core.Compiler.p_image in
  match D.parse_callsites img with
  | [ cs ] ->
      check_int "target is generic multi" (Image.symbol img "multi") cs.cs_target;
      (* the site must lie inside foo and hold a call instruction *)
      let foo = Image.symbol img "foo" in
      let foo_size = Image.symbol_size img "foo" in
      check_bool "site inside foo" true (cs.cs_site >= foo && cs.cs_site < foo + foo_size);
      let insn, _ = Image.decode img cs.cs_site in
      (match insn with
      | Mv_isa.Insn.Call rel ->
          check_int "call targets multi" (Image.symbol img "multi") (cs.cs_site + 5 + rel)
      | i -> Alcotest.failf "site holds %s" (Mv_isa.Asm.insn_to_string i))
  | l -> Alcotest.failf "expected one call site, got %d" (List.length l)

let test_non_box_merge_gets_multiple_records () =
  (* a function whose merged assignments do NOT form a contiguous box must
     emit one variant record per point, all pointing at the same body *)
  let src =
    {|multiverse values(0, 1, 2) int m;
      int w;
      multiverse void f() {
        if (m == 1) { w = w + 1; }
      }|}
  in
  (* m=0 and m=2 merge (both skip the increment) but {0,2} is not
     contiguous: expect 3 records, two sharing a body address *)
  let p = build src in
  let img = p.Core.Compiler.p_image in
  match D.parse_functions img with
  | [ f ] ->
      check_int "three records" 3 (List.length f.fd_variants);
      let addrs = List.map (fun (v : D.variant_record) -> v.va_addr) f.fd_variants in
      let distinct = List.sort_uniq compare addrs in
      check_int "two distinct bodies" 2 (List.length distinct)
  | l -> Alcotest.failf "expected one function record, got %d" (List.length l)

let test_callsites_only_for_multiversed_callees () =
  let p =
    build
      {|int w;
        void plain() { w = w + 1; }
        multiverse int c;
        multiverse void special() { if (c) { w = w + 1; } }
        void caller() {
          plain();
          special();
          plain();
        }|}
  in
  let img = p.Core.Compiler.p_image in
  let sites = D.parse_callsites img in
  check_int "only the multiversed callee is recorded" 1 (List.length sites);
  check_int "it targets special" (Image.symbol img "special")
    (List.hd sites).D.cs_target

let test_stats_accounting () =
  let p = build fig2 in
  let stats = Core.Stats.of_program p in
  check_int "switches" 2 stats.Core.Stats.ps_switches;
  check_int "functions" 1 stats.Core.Stats.ps_mv_functions;
  check_int "variant records" 3 stats.Core.Stats.ps_variants;
  check_int "callsites" 1 stats.Core.Stats.ps_callsites;
  check_int "descriptor overhead"
    (stats.Core.Stats.ps_sections.Core.Stats.sz_variables
    + stats.Core.Stats.ps_sections.Core.Stats.sz_functions
    + stats.Core.Stats.ps_sections.Core.Stats.sz_callsites)
    (Core.Stats.descriptor_overhead stats.Core.Stats.ps_sections)

let suite =
  [
    tc "record size constants (Section 5)" test_record_size_constants;
    tc "section sizes match the formulas" test_section_sizes_match_formulas;
    tc "variable record fields" test_variable_record_fields;
    tc "fnptr variable flag" test_fnptr_variable_flag;
    tc "function record fields" test_function_record_fields;
    tc "callsite record fields" test_callsite_record_fields;
    tc "non-box merges emit multiple records" test_non_box_merge_gets_multiple_records;
    tc "callsites only for multiversed callees" test_callsites_only_for_multiversed_callees;
    tc "stats accounting" test_stats_accounting;
  ]

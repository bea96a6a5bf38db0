(* Variant-generation tests (Section 3): domain policies, the assignment
   cross product, merging, guard boxes, partial specialization, and the
   explosion cap. *)

open Util
module Ir = Mv_ir.Ir
module Vg = Core.Variantgen
module Domain = Core.Domain
module Guard = Core.Guard

let generate ?max_variants src =
  let prog = lower src in
  Vg.generate ?max_variants prog

let mv_fn result name =
  List.find (fun (mf : Vg.mv_function) -> String.equal mf.mf_name name)
    result.Vg.r_functions

(* ------------------------------------------------------------------ *)
(* Domains                                                             *)
(* ------------------------------------------------------------------ *)

let global_named prog name =
  List.find (fun (g : Ir.global) -> String.equal g.gl_name name) prog.Ir.p_globals

let test_default_domain () =
  let prog = lower "multiverse int c;" in
  match Domain.of_global (global_named prog "c") with
  | Domain.Values [ 0; 1 ] -> ()
  | _ -> Alcotest.fail "default domain must be {0, 1}"

let test_explicit_values_domain () =
  let prog = lower "multiverse values(3, 1, 2, 1) int c;" in
  match Domain.of_global (global_named prog "c") with
  | Domain.Values [ 1; 2; 3 ] -> ()  (* sorted, deduplicated *)
  | _ -> Alcotest.fail "explicit domain must be sorted and deduplicated"

let test_enum_domain () =
  let prog = lower "enum m { OFF = 0, LOW = 1, HIGH = 2 }; multiverse enum m c;" in
  match Domain.of_global (global_named prog "c") with
  | Domain.Values [ 0; 1; 2 ] -> ()
  | _ -> Alcotest.fail "enum domain must be the declared items"

let test_fnptr_domain () =
  let prog = lower "void f() { } multiverse fnptr c = &f;" in
  match Domain.of_global (global_named prog "c") with
  | Domain.Fnptr -> ()
  | _ -> Alcotest.fail "fnptr switches have no value domain"

let test_cross_product () =
  let assignments = Domain.cross_product [ ("a", [ 0; 1 ]); ("b", [ 0; 1; 2 ]) ] in
  check_int "size" 6 (List.length assignments);
  check_int "computed size" 6 (Domain.cross_product_size [ ("a", [ 0; 1 ]); ("b", [ 0; 1; 2 ]) ]);
  check_bool "contains (1, 2)" true (List.mem [ ("a", 1); ("b", 2) ] assignments)

(* ------------------------------------------------------------------ *)
(* Guard boxes                                                         *)
(* ------------------------------------------------------------------ *)

let test_single_box_cover () =
  (* {(a=0,b=0), (a=0,b=1)} is the product {0} x {0,1}: one box *)
  let boxes =
    Guard.boxes_of_assignments [ [ ("a", 0); ("b", 0) ]; [ ("a", 0); ("b", 1) ] ]
  in
  check_int "one box" 1 (List.length boxes);
  match boxes with
  | [ [ ra; rb ] ] ->
      check_string "var a" "a" ra.Guard.g_var;
      check_int "a lo" 0 ra.Guard.g_lo;
      check_int "a hi" 0 ra.Guard.g_hi;
      check_int "b lo" 0 rb.Guard.g_lo;
      check_int "b hi" 1 rb.Guard.g_hi
  | _ -> Alcotest.fail "unexpected box shape"

let test_non_product_set_splits () =
  (* {(0,0), (1,1)} is not a product: two point boxes *)
  let boxes =
    Guard.boxes_of_assignments [ [ ("a", 0); ("b", 0) ]; [ ("a", 1); ("b", 1) ] ]
  in
  check_int "two boxes" 2 (List.length boxes)

let test_non_contiguous_splits () =
  (* {0, 2} is a product but not contiguous: point boxes *)
  let boxes = Guard.boxes_of_assignments [ [ ("a", 0) ]; [ ("a", 2) ] ] in
  check_int "two boxes" 2 (List.length boxes)

let test_guard_satisfaction () =
  let g = [ { Guard.g_var = "a"; g_lo = 1; g_hi = 3 } ] in
  check_bool "inside" true (Guard.satisfied_by g (fun _ -> 2));
  check_bool "boundary low" true (Guard.satisfied_by g (fun _ -> 1));
  check_bool "boundary high" true (Guard.satisfied_by g (fun _ -> 3));
  check_bool "outside" false (Guard.satisfied_by g (fun _ -> 4))

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

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
|}

let test_figure2_generation () =
  let r = generate fig2 in
  let mf = mv_fn r "multi" in
  check_bool "switches sorted" true (mf.mf_switches = [ "a"; "b" ]);
  check_int "3 variants after merging" 3 (List.length mf.mf_variants);
  let symbols = List.map (fun (v : Vg.variant) -> v.v_symbol) mf.mf_variants in
  check_bool "merged symbol name" true (List.mem "multi.a=0.b=01" symbols);
  check_bool "a=1 b=0" true (List.mem "multi.a=1.b=0" symbols);
  check_bool "a=1 b=1" true (List.mem "multi.a=1.b=1" symbols)

let test_variants_are_appended_to_program () =
  let r = generate fig2 in
  let names = List.map (fun (f : Ir.fn) -> f.fn_name) r.Vg.r_prog.Ir.p_fns in
  check_bool "generic still present" true (List.mem "multi" names);
  check_bool "variant present" true (List.mem "multi.a=1.b=1" names);
  check_int "2 original + 3 variants" 5 (List.length names)

let test_variant_bodies_are_specialized () =
  let r = generate fig2 in
  let mf = mv_fn r "multi" in
  List.iter
    (fun (v : Vg.variant) ->
      (* no variant may still read a bound switch *)
      let reads = Ir.read_globals v.v_fn in
      check_bool (v.v_symbol ^ " reads no switch") true
        (not (List.mem "a" reads) && not (List.mem "b" reads));
      (* and no conditional branches remain for this two-switch function *)
      let branches =
        List.exists
          (fun (b : Ir.block) -> match b.b_term with Ir.Tbr _ -> true | _ -> false)
          v.v_fn.Ir.fn_blocks
      in
      check_bool (v.v_symbol ^ " branch-free") false branches)
    mf.mf_variants

let test_unreferenced_switch_not_bound () =
  let r =
    generate
      "multiverse int used; multiverse int unused; multiverse void f() { if (used) { } }"
  in
  let mf = mv_fn r "f" in
  check_bool "only the read switch binds" true (mf.mf_switches = [ "used" ])

let test_bind_restricts_switches () =
  let r =
    generate
      {|multiverse int a;
        multiverse int b;
        int w;
        multiverse bind(a) void f() {
          if (a) { w = w + 1; }
          if (b) { w = w + 2; }
        }|}
  in
  let mf = mv_fn r "f" in
  check_bool "only a is bound" true (mf.mf_switches = [ "a" ]);
  check_int "two variants" 2 (List.length mf.mf_variants);
  (* the variants still read b dynamically *)
  List.iter
    (fun (v : Vg.variant) ->
      check_bool (v.v_symbol ^ " still reads b") true
        (List.mem "b" (Ir.read_globals v.v_fn)))
    mf.mf_variants

let test_values_domain_generation () =
  let r =
    generate
      {|multiverse values(0, 1, 2) int mode;
        int w;
        multiverse void f() {
          if (mode == 1) { w = 1; }
          if (mode == 2) { w = 2; }
        }|}
  in
  let mf = mv_fn r "f" in
  check_int "three variants" 3 (List.length mf.mf_variants)

let test_explosion_cap () =
  let r =
    generate ~max_variants:8
      {|multiverse values(0, 1, 2, 3) int a;
        multiverse values(0, 1, 2, 3) int b;
        int w;
        multiverse void f() { if (a) { w = 1; } if (b) { w = 2; } }|}
  in
  let mf = mv_fn r "f" in
  check_int "no variants generated" 0 (List.length mf.mf_variants);
  check_bool "warning emitted" true
    (List.exists
       (fun w ->
         let needle = "cross product" in
         let lh = String.length w and ln = String.length needle in
         let rec go i = i + ln <= lh && (String.sub w i ln = needle || go (i + 1)) in
         go 0)
       r.Vg.r_warnings)

let test_no_switch_function () =
  let r = generate "multiverse void f() { }" in
  let mf = mv_fn r "f" in
  check_int "no variants" 0 (List.length mf.mf_variants);
  check_bool "no switches" true (mf.mf_switches = [])

let test_enum_switch_generation () =
  let r =
    generate
      {|enum mode { OFF, SLOW, FAST };
        multiverse enum mode m;
        int w;
        multiverse void f() {
          if (m == SLOW) { w = 1; }
          if (m == FAST) { w = 2; }
        }|}
  in
  let mf = mv_fn r "f" in
  check_int "one variant per enum item" 3 (List.length mf.mf_variants)

let test_variant_semantic_equivalence () =
  (* every variant must compute exactly what the generic computes under the
     variant's assignment — Section 7.4 soundness *)
  let prog = lower fig2 in
  let r = Vg.generate prog in
  let mf = mv_fn r "multi" in
  List.iter
    (fun (v : Vg.variant) ->
      List.iter
        (fun assignment ->
          (* generic run *)
          let p1 = lower fig2 in
          let t1 = Mv_ir.Interp.create [ p1 ] in
          List.iter (fun (sym, value) -> Mv_ir.Interp.write_global t1 sym value) assignment;
          let _ = Mv_ir.Interp.run t1 "multi" [] in
          let generic_w = Mv_ir.Interp.read_global t1 "w" in
          (* variant run: build a program where f is replaced by the variant *)
          let t2 = Mv_ir.Interp.create [ r.Vg.r_prog ] in
          List.iter (fun (sym, value) -> Mv_ir.Interp.write_global t2 sym value) assignment;
          let _ = Mv_ir.Interp.run t2 v.v_symbol [] in
          let variant_w = Mv_ir.Interp.read_global t2 "w" in
          check_int
            (Printf.sprintf "%s under %s" v.v_symbol
               (String.concat ","
                  (List.map (fun (s, x) -> Printf.sprintf "%s=%d" s x) assignment)))
            generic_w variant_w)
        v.v_assignments)
    mf.mf_variants

let test_mutual_mv_calls () =
  (* a multiversed function calling another multiversed function *)
  let r =
    generate
      {|multiverse int c;
        int w;
        multiverse void inner() { if (c) { w = w + 1; } }
        multiverse void outer() {
          inner();
          if (c) { w = w + 10; }
        }|}
  in
  check_int "both functions processed" 2 (List.length r.Vg.r_functions);
  let outer = mv_fn r "outer" in
  (* outer's variants keep the call to the *generic* inner *)
  List.iter
    (fun (v : Vg.variant) ->
      let calls_inner =
        List.exists
          (fun (b : Ir.block) ->
            List.exists
              (function Ir.Icall (_, "inner", _) -> true | _ -> false)
              b.b_instrs)
          v.v_fn.Ir.fn_blocks
      in
      check_bool (v.v_symbol ^ " calls inner") true calls_inner)
    outer.mf_variants

(* ------------------------------------------------------------------ *)
(* Structural hash (the variant cache's dedup key)                     *)
(* ------------------------------------------------------------------ *)

let fn_named (prog : Ir.prog) name =
  List.find (fun (f : Ir.fn) -> String.equal f.Ir.fn_name name) prog.Ir.p_fns

(* Byte-for-byte clones hash identically even though the functions have
   different names — the hash covers the canonical body only, so the
   cache can share one resident copy across functions. *)
let test_hash_collides_across_equal_clones () =
  let prog =
    lower
      {|
      int w;
      void f() { w = w + 1; }
      void g() { w = w + 1; }
      void h() { w = w + 2; }
    |}
  in
  let hash name = Vg.structural_hash (fn_named prog name) in
  check_string "clone bodies collide" (hash "f") (hash "g");
  check_bool "distinct bodies do not" true (hash "f" <> hash "h")

(* Any single-instruction difference — a constant, an operator, an
   operand — must change the hash: the dedup key may never alias two
   semantically distinct bodies. *)
let test_hash_sensitive_to_single_instruction () =
  let base = "int w; int g; void f() { w = (w + 1) * 3; }" in
  let mutants =
    [
      "int w; int g; void f() { w = (w + 2) * 3; }";  (* constant *)
      "int w; int g; void f() { w = (w - 1) * 3; }";  (* operator *)
      "int w; int g; void f() { w = (g + 1) * 3; }";  (* operand *)
      "int w; int g; void f() { w = (w + 1) * 3; g = 0; }";  (* extra store *)
    ]
  in
  let hash src = Vg.structural_hash (fn_named (lower src) "f") in
  let h0 = hash base in
  check_string "hash is a hex digest" h0 (hash base);
  List.iteri
    (fun i m ->
      check_bool (Printf.sprintf "mutant %d changes the hash" i) true
        (hash m <> h0))
    mutants

(* The hash is a pure function of the body: re-lowering and re-hashing
   the same source (fresh Ir.fn values, fresh registers, fresh physical
   identities) reproduces the same digest, and lazily specializing the
   same recipe twice yields colliding bodies — which is what makes the
   dedup key meaningful across materializations. *)
let test_hash_stable_across_runs () =
  let src =
    {|
    multiverse bool a;
    int w;
    multiverse void f() { if (a) { w = w + 1; } else { w = w * 2; } }
  |}
  in
  let hash_of_run () =
    let result = Vg.generate ~lazy_variants:true (lower src) in
    let recipe =
      List.find (fun (r : Vg.recipe) -> r.Vg.rc_name = "f") result.Vg.r_recipes
    in
    Vg.structural_hash (Vg.specialize_recipe recipe [ ("a", 1) ]).Vg.v_fn
  in
  let h1 = hash_of_run () in
  let h2 = hash_of_run () in
  check_string "same digest on independent runs" h1 h2;
  (* and the digest differs for a different point of the same recipe *)
  let result = Vg.generate ~lazy_variants:true (lower src) in
  let recipe =
    List.find (fun (r : Vg.recipe) -> r.Vg.rc_name = "f") result.Vg.r_recipes
  in
  let h0 = Vg.structural_hash (Vg.specialize_recipe recipe [ ("a", 0) ]).Vg.v_fn in
  check_bool "distinct valuations hash apart" true (h0 <> h1)

(* ------------------------------------------------------------------ *)
(* Variant symbol names                                                *)
(* ------------------------------------------------------------------ *)

let symbols_of (mf : Vg.mv_function) = List.map (fun (v : Vg.variant) -> v.v_symbol) mf.mf_variants

let distinct names = List.length (List.sort_uniq compare names) = List.length names

(* Two merges with the same per-switch value sets but different
   assignments — {a=0,b=0 | a=1,b=1} and {a=0,b=1 | a=1,b=0} — used to
   mangle to one name. *)
let test_non_product_merges_get_distinct_symbols () =
  let diag = [ [ ("a", 0); ("b", 0) ]; [ ("a", 1); ("b", 1) ] ] in
  let anti = [ [ ("a", 0); ("b", 1) ]; [ ("a", 1); ("b", 0) ] ] in
  check_string "diagonal" "f.a=01.b=01@00_11" (Vg.variant_symbol "f" [ "a"; "b" ] diag);
  check_string "anti-diagonal" "f.a=01.b=01@01_10" (Vg.variant_symbol "f" [ "a"; "b" ] anti);
  check_string "full product keeps the plain name" "f.a=01.b=0"
    (Vg.variant_symbol "f" [ "a"; "b" ] [ [ ("a", 0); ("b", 0) ]; [ ("a", 1); ("b", 0) ] ])

(* Fuzz case 101068 merged fn1's variants non-rectangularly, and the eager
   build died with "duplicate symbol fn1.s0=3.s1=01.s2=01". *)
let test_fuzz_case_101068_links () =
  let case = Mv_fuzz.Gen.case 101068 in
  let p = Core.Compiler.build_string case.Mv_fuzz.Gen.c_src in
  let mf =
    List.concat_map (fun (u : Core.Compiler.compiled_unit) -> u.cu_mv) p.Core.Compiler.p_units
    |> List.find (fun (mf : Vg.mv_function) -> mf.mf_name = "fn1")
  in
  check_bool "fn1 has merged variants" true (List.length mf.mf_variants > 1);
  check_bool "fn1's variant symbols are distinct" true (distinct (symbols_of mf));
  List.iter
    (fun oracle ->
      match
        Mv_fuzz.Oracle.run_named oracle case (Mv_fuzz.Driver.schedule_for case 0)
      with
      | None -> ()
      | Some d -> Alcotest.failf "%a" Mv_fuzz.Oracle.pp_divergence d)
    Mv_fuzz.Oracle.oracle_names

(* Any partition of a small cross product into merge groups — the shape
   structural merging produces — names every group differently. *)
let prop_partition_symbols_distinct =
  let gen =
    QCheck.Gen.(
      let* domains = list_size (int_range 1 3) (int_range 1 3) in
      let domains =
        List.mapi (fun i n -> (Printf.sprintf "s%d" i, List.init n (fun v -> v * 7))) domains
      in
      let size = Domain.cross_product_size domains in
      let* groups = list_repeat size (int_bound 3) in
      return (domains, groups))
  in
  QCheck.Test.make ~name:"variant symbols of a partition are pairwise distinct" ~count:300
    (QCheck.make gen) (fun (domains, groups) ->
      let assignments = Domain.cross_product domains in
      let names = List.map fst domains in
      let members g =
        List.filteri (fun i _ -> List.nth groups i = g) assignments
      in
      let symbols =
        List.filter_map
          (fun g ->
            match members g with [] -> None | m -> Some (Vg.variant_symbol "f" names m))
          [ 0; 1; 2; 3 ]
      in
      distinct symbols)

(* Every multiversed function of a generated program gets pairwise
   distinct variant symbols. *)
let prop_generated_symbols_distinct =
  QCheck.Test.make ~name:"generated functions' variant symbols are pairwise distinct"
    ~count:40 QCheck.(int_range 0 1_000_000) (fun seed ->
      let case = Mv_fuzz.Gen.case seed in
      let r = Vg.generate (lower case.Mv_fuzz.Gen.c_src) in
      List.for_all (fun mf -> distinct (symbols_of mf)) r.Vg.r_functions)

let suite =
  [
    tc "default domain {0,1}" test_default_domain;
    tc "explicit values domain" test_explicit_values_domain;
    tc "enum domain" test_enum_domain;
    tc "fnptr domain" test_fnptr_domain;
    tc "cross product" test_cross_product;
    tc "single-box cover" test_single_box_cover;
    tc "non-product assignment sets split" test_non_product_set_splits;
    tc "non-contiguous ranges split" test_non_contiguous_splits;
    tc "guard satisfaction" test_guard_satisfaction;
    tc "Figure 2 generation" test_figure2_generation;
    tc "variants appended to the program" test_variants_are_appended_to_program;
    tc "variant bodies are specialized" test_variant_bodies_are_specialized;
    tc "unreferenced switches not bound" test_unreferenced_switch_not_bound;
    tc "bind() partial specialization" test_bind_restricts_switches;
    tc "values() domain generation" test_values_domain_generation;
    tc "variant explosion cap" test_explosion_cap;
    tc "switch-less multiversed function" test_no_switch_function;
    tc "enum switch generation" test_enum_switch_generation;
    tc "variant semantic equivalence (Section 7.4)" test_variant_semantic_equivalence;
    tc "multiversed calling multiversed" test_mutual_mv_calls;
    tc "structural hash: clones collide across functions"
      test_hash_collides_across_equal_clones;
    tc "structural hash: single-instruction sensitivity"
      test_hash_sensitive_to_single_instruction;
    tc "structural hash: stable across runs" test_hash_stable_across_runs;
    tc "non-product merges get distinct symbols" test_non_product_merges_get_distinct_symbols;
    tc "fuzz case 101068 links and passes every oracle" test_fuzz_case_101068_links;
    Test_props.to_alcotest prop_partition_symbols_distinct;
    Test_props.to_alcotest prop_generated_symbols_distinct;
  ]

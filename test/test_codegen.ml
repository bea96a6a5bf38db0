(* Code-generation tests: the compiled machine code must agree with the
   reference IR interpreter (differential testing), the register allocator
   must survive high pressure (spilling), and the emitted call-site records
   must point at real call instructions. *)

open Util
module Ir = Mv_ir.Ir
module Insn = Mv_isa.Insn
module Emit = Mv_codegen.Emit
module Regalloc = Mv_codegen.Regalloc
module Image = Mv_link.Image

let check_diff ?(args = []) name src fn = check_differential ~args name src fn

let test_differential_basics () =
  check_diff "constant return" "int f() { return 42; }" "f";
  check_diff ~args:[ 5; 7 ] "parameters" "int f(int a, int b) { return a * 10 + b; }" "f";
  check_diff ~args:[ 9 ] "negation" "int f(int x) { return -x; }" "f";
  check_diff "void function" "int g; void f() { g = 3; } int h() { f(); return g; }" "h"

let test_differential_control_flow () =
  check_diff ~args:[ 10 ]
    "loop" "int f(int n) { int s = 0; for (int i = 0; i <= n; i++) { s += i; } return s; }" "f";
  check_diff ~args:[ 17 ] "branches"
    "int f(int x) { if (x > 10) { return 1; } else if (x > 5) { return 2; } return 3; }" "f";
  check_diff ~args:[ 6 ] "recursion"
    "int f(int n) { if (n <= 1) { return 1; } return n * f(n - 1); }" "f";
  check_diff ~args:[ 12 ] "short-circuit"
    "int f(int x) { return x > 10 && x < 20 || x == 0; }" "f"

let test_differential_memory () =
  check_diff "globals" "int a = 3; int b; int f() { b = a * 2; return a + b; }" "f";
  check_diff "arrays"
    "int t[16]; int f() { for (int i = 0; i < 16; i++) { t[i] = i * 3; } int s = 0; for (int i = 0; i < 16; i++) { s += t[i]; } return s; }"
    "f";
  check_diff "byte arrays"
    "uint8 t[8]; int f() { t[3] = 1000; return t[3]; }" "f";
  check_diff "pointers"
    "int t[4]; int f() { ptr p = t + 8; *p = 77; return t[1]; }" "f";
  check_diff "width stores"
    "int16 g; int f() { g = 70000; return g; }" "f"

let test_differential_calls () =
  check_diff "six arguments"
    "int g(int a, int b, int c, int d, int e, int f0) { return a + b * 2 + c * 3 + d * 4 + e * 5 + f0 * 6; } int f() { return g(1, 2, 3, 4, 5, 6); }"
    "f";
  check_diff "nested calls"
    "int inc(int x) { return x + 1; } int f() { return inc(inc(inc(0))); }" "f";
  check_diff "fnptr call"
    "int ten() { return 10; } fnptr op = &ten; int f() { return op(); }" "f"

let test_differential_intrinsics () =
  check_diff "atomic xchg"
    "int w; int f() { w = 3; int old = __atomic_xchg(&w, 8); return old * 10 + w; }" "f"

let test_register_pressure_spilling () =
  (* more than 12 simultaneously-live values forces spills *)
  let src =
    {|int f(int x) {
        int a = x + 1; int b = x + 2; int c = x + 3; int d = x + 4;
        int e = x + 5; int g = x + 6; int h = x + 7; int i = x + 8;
        int j = x + 9; int k = x + 10; int l = x + 11; int m = x + 12;
        int n = x + 13; int o = x + 14; int p = x + 15; int q = x + 16;
        return a + b + c + d + e + g + h + i + j + k + l + m + n + o + p + q;
      }|}
  in
  let prog = lower src in
  let f = List.hd prog.Ir.p_fns in
  let ra = Regalloc.allocate (Mv_opt.Liveness.compute f) f in
  check_bool "spill slots allocated" true (ra.Regalloc.frame_slots > 0);
  check_diff ~args:[ 100 ] "spilled function still correct" src "f"

let test_spill_across_calls () =
  let src =
    {|int id(int x) { return x; }
      int f(int x) {
        int a = id(x + 1); int b = id(x + 2); int c = id(x + 3);
        int d = id(x + 4); int e = id(x + 5); int g = id(x + 6);
        int h = id(x + 7); int i = id(x + 8); int j = id(x + 9);
        return a + b * 2 + c * 3 + d * 4 + e * 5 + g * 6 + h * 7 + i * 8 + j * 9;
      }|}
  in
  check_diff ~args:[ 10 ] "values live across calls" src "f"

let test_callsite_records_point_at_calls () =
  let prog = lower "void g() { } void f() { g(); g(); }" in
  let f = List.find (fun (fn : Ir.fn) -> fn.fn_name = "f") prog.Ir.p_fns in
  let frag = Emit.emit_fn f in
  check_int "two call sites" 2 (List.length frag.Emit.fr_callsites);
  List.iter
    (fun (cs : Emit.callsite) ->
      let insn, _ = Mv_isa.Decode.decode frag.Emit.fr_code ~off:cs.cs_insn_offset in
      match insn with
      | Insn.Call _ -> ()
      | i -> Alcotest.failf "call-site offset holds %s" (Mv_isa.Asm.insn_to_string i))
    frag.Emit.fr_callsites

let test_indirect_callsite_records () =
  let prog = lower "void g() { } fnptr p = &g; void f() { p(); }" in
  let f = List.find (fun (fn : Ir.fn) -> fn.fn_name = "f") prog.Ir.p_fns in
  let frag = Emit.emit_fn f in
  match frag.Emit.fr_callsites with
  | [ cs ] ->
      check_bool "marked indirect" true cs.cs_indirect;
      check_string "callee is the pointer" "p" cs.cs_callee;
      let insn, _ = Mv_isa.Decode.decode frag.Emit.fr_code ~off:cs.cs_insn_offset in
      (match insn with
      | Insn.Call_ind _ -> ()
      | i -> Alcotest.failf "site holds %s" (Mv_isa.Asm.insn_to_string i))
  | l -> Alcotest.failf "expected one call site, got %d" (List.length l)

let test_saveall_convention () =
  let prog = lower "saveall void f() { __cli(); }" in
  let f = List.hd prog.Ir.p_fns in
  let frag = Emit.emit_fn f in
  let listing =
    Mv_isa.Decode.decode_range frag.Emit.fr_code ~off:0 ~len:(Bytes.length frag.Emit.fr_code)
  in
  let pushes =
    List.length (List.filter (fun (_, i) -> match i with Insn.Push _ -> true | _ -> false) listing)
  in
  let pops =
    List.length (List.filter (fun (_, i) -> match i with Insn.Pop _ -> true | _ -> false) listing)
  in
  check_bool "saves the scratch registers" true (pushes >= 5);
  check_int "balanced pops" pushes pops

let test_leaf_functions_avoid_saves () =
  let prog = lower "int f(int x) { int y = x * 2; return y + 1; }" in
  let f = List.hd prog.Ir.p_fns in
  let frag = Emit.emit_fn f in
  let listing =
    Mv_isa.Decode.decode_range frag.Emit.fr_code ~off:0 ~len:(Bytes.length frag.Emit.fr_code)
  in
  check_bool "no pushes in a leaf" true
    (List.for_all (fun (_, i) -> match i with Insn.Push _ -> false | _ -> true) listing)

let test_tiny_leaf_body_is_inlineable_shape () =
  (* the PV-Ops native backends must compile to [cli; ret] for the runtime
     inliner to fire (Section 6.1) *)
  let prog = lower "void native_cli() { __cli(); }" in
  let f = List.hd prog.Ir.p_fns in
  let frag = Emit.emit_fn f in
  check_int "two bytes" 2 (Bytes.length frag.Emit.fr_code);
  let listing = Mv_isa.Decode.decode_range frag.Emit.fr_code ~off:0 ~len:2 in
  check_bool "cli; ret" true
    (List.map snd listing = [ Insn.Cli; Insn.Ret ])

let test_too_many_params_rejected () =
  let prog = lower "int f(int a, int b, int c, int d, int e, int g, int h) { return a; }" in
  let f = List.hd prog.Ir.p_fns in
  match Emit.emit_fn f with
  | exception Emit.Error _ -> ()
  | _ -> Alcotest.fail "expected emit to reject 7 parameters"

let suite =
  [
    tc "differential: basics" test_differential_basics;
    tc "differential: control flow" test_differential_control_flow;
    tc "differential: memory" test_differential_memory;
    tc "differential: calls" test_differential_calls;
    tc "differential: intrinsics" test_differential_intrinsics;
    tc "register pressure forces spills" test_register_pressure_spilling;
    tc "spills across calls" test_spill_across_calls;
    tc "call-site records point at calls" test_callsite_records_point_at_calls;
    tc "indirect call-site records" test_indirect_callsite_records;
    tc "saveall calling convention" test_saveall_convention;
    tc "leaf functions avoid saves" test_leaf_functions_avoid_saves;
    tc "tiny leaf body shape (cli; ret)" test_tiny_leaf_body_is_inlineable_shape;
    tc "too many parameters rejected" test_too_many_params_rejected;
  ]

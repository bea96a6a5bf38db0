(* Lowering + reference-interpreter tests: these pin down the language
   semantics that the whole back end is differentially tested against. *)

open Util
module Ir = Mv_ir.Ir
module Interp = Mv_ir.Interp



let check_run name src fn args expected =
  check_int name expected (interp_run src fn args)

(* ------------------------------------------------------------------ *)
(* Expression semantics                                                *)
(* ------------------------------------------------------------------ *)

let test_arithmetic () =
  check_run "add" "int f() { return 2 + 3; }" "f" [] 5;
  check_run "sub" "int f() { return 2 - 5; }" "f" [] (-3);
  check_run "mul" "int f() { return 6 * 7; }" "f" [] 42;
  check_run "div" "int f() { return 17 / 5; }" "f" [] 3;
  check_run "mod" "int f() { return 17 % 5; }" "f" [] 2;
  check_run "neg" "int f() { return -(3); }" "f" [] (-3);
  check_run "precedence" "int f() { return 2 + 3 * 4; }" "f" [] 14

let test_bitwise () =
  check_run "and" "int f() { return 12 & 10; }" "f" [] 8;
  check_run "or" "int f() { return 12 | 10; }" "f" [] 14;
  check_run "xor" "int f() { return 12 ^ 10; }" "f" [] 6;
  check_run "shl" "int f() { return 3 << 4; }" "f" [] 48;
  check_run "shr" "int f() { return 48 >> 4; }" "f" [] 3;
  check_run "shr negative" "int f() { return -16 >> 2; }" "f" [] (-4);
  check_run "bnot" "int f() { return ~0; }" "f" [] (-1)

let test_comparisons () =
  check_run "lt true" "int f() { return 1 < 2; }" "f" [] 1;
  check_run "lt false" "int f() { return 2 < 1; }" "f" [] 0;
  check_run "le eq" "int f() { return 2 <= 2; }" "f" [] 1;
  check_run "gt" "int f() { return 3 > 2; }" "f" [] 1;
  check_run "eq" "int f() { return 5 == 5; }" "f" [] 1;
  check_run "ne" "int f() { return 5 != 5; }" "f" [] 0;
  check_run "lnot" "int f() { return !5; }" "f" [] 0;
  check_run "lnot zero" "int f() { return !0; }" "f" [] 1

let test_short_circuit () =
  (* the right-hand side must not execute when short-circuited *)
  let src =
    {|
    int hits;
    int bump() { hits = hits + 1; return 1; }
    int and_false() { hits = 0; int r = 0 && bump(); return hits * 10 + r; }
    int and_true() { hits = 0; int r = 1 && bump(); return hits * 10 + r; }
    int or_true() { hits = 0; int r = 1 || bump(); return hits * 10 + r; }
    int or_false() { hits = 0; int r = 0 || bump(); return hits * 10 + r; }
  |}
  in
  check_run "&& skips rhs" src "and_false" [] 0;
  check_run "&& evaluates rhs" src "and_true" [] 11;
  check_run "|| skips rhs" src "or_true" [] 1;
  check_run "|| evaluates rhs" src "or_false" [] 11

let test_conditional_expr () =
  check_run "cond true" "int f(int c) { return c ? 10 : 20; }" "f" [ 1 ] 10;
  check_run "cond false" "int f(int c) { return c ? 10 : 20; }" "f" [ 0 ] 20;
  check_run "nested" "int f(int c) { return c == 1 ? 1 : c == 2 ? 2 : 3; }" "f" [ 2 ] 2

(* ------------------------------------------------------------------ *)
(* Statements and control flow                                         *)
(* ------------------------------------------------------------------ *)

let test_loops () =
  check_run "while sum" "int f(int n) { int s = 0; int i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }"
    "f" [ 10 ] 45;
  check_run "for sum" "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }"
    "f" [ 10 ] 45;
  check_run "do-while runs once" "int f() { int n = 0; do { n = n + 1; } while (0); return n; }"
    "f" [] 1;
  check_run "break" "int f() { int i = 0; while (1) { if (i == 5) { break; } i = i + 1; } return i; }"
    "f" [] 5;
  check_run "continue"
    "int f() { int s = 0; for (int i = 0; i < 10; i++) { if (i % 2) { continue; } s += i; } return s; }"
    "f" [] 20;
  check_run "nested break affects inner loop"
    {|int f() {
        int total = 0;
        for (int i = 0; i < 3; i++) {
          for (int j = 0; j < 10; j++) {
            if (j == 2) { break; }
            total = total + 1;
          }
        }
        return total;
      }|}
    "f" [] 6

let test_recursion () =
  check_run "factorial" "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }"
    "fact" [ 6 ] 720;
  check_run "fib" "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }"
    "fib" [ 10 ] 55;
  check_run "mutual"
    {|int is_odd(int n);
      int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }
      int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }|}
    "is_even" [ 10 ] 1

let test_globals_and_arrays () =
  check_run "global rw" "int g; int f() { g = 7; g = g + 1; return g; }" "f" [] 8;
  check_run "global init" "int g = 41; int f() { return g + 1; }" "f" [] 42;
  check_run "array rw"
    "int a[8]; int f() { for (int i = 0; i < 8; i++) { a[i] = i * i; } return a[5]; }" "f" [] 25;
  check_run "byte array"
    "uint8 b[4]; int f() { b[0] = 300; return b[0]; }" "f" [] 44 (* 300 mod 256 *);
  check_run "array decays to pointer"
    "int a[4]; int f() { ptr p = a; *p = 99; return a[0]; }" "f" [] 99;
  check_run "pointer arithmetic"
    "int a[4]; int f() { a[2] = 5; ptr p = a + 16; return *p; }" "f" [] 5

let test_width_access () =
  check_run "sub-word store truncates"
    "int16 g; int f() { g = 0x12345; return g; }" "f" [] 0x2345;
  check_run "width cast deref"
    "int a[2]; int f() { a[0] = 0x11223344; return *(int8*)(a + 1); }" "f" [] 0x33

let test_fnptr_dispatch () =
  let src =
    {|
    int ten() { return 10; }
    int twenty() { return 20; }
    fnptr op = &ten;
    int call_op() { return op(); }
    int switch_and_call() {
      op = &twenty;
      return op();
    }
  |}
  in
  check_run "initial target" src "call_op" [] 10;
  check_run "reassigned target" src "switch_and_call" [] 20

let test_intrinsics () =
  check_run "atomic xchg returns old"
    "int w; int f() { w = 5; int old = __atomic_xchg(&w, 9); return old * 100 + w; }" "f" [] 509;
  check_run "rdtsc monotone"
    "int f() { int a = __rdtsc(); int b = __rdtsc(); return b >= a; }" "f" [] 1

let test_faults () =
  let expect_fault src fn args =
    let prog = lower src in
    let t = Interp.create [ prog ] in
    match Interp.run t fn args with
    | exception Interp.Fault _ -> ()
    | v -> Alcotest.failf "expected a fault, got %d" v
  in
  expect_fault "int f(int n) { return 1 / n; }" "f" [ 0 ];
  expect_fault "int f(int n) { return 1 % n; }" "f" [ 0 ];
  expect_fault "int f() { ptr p = 0 - 8; return *p; }" "f" []

let test_step_limit () =
  let prog = lower "void f() { while (1) { } }" in
  let t = Interp.create ~step_limit:10_000 [ prog ] in
  match Interp.run t "f" [] with
  | exception Interp.Step_limit_exceeded -> ()
  | _ -> Alcotest.fail "expected the step limit to trip"

(* ------------------------------------------------------------------ *)
(* Interpreter memory                                                  *)
(* ------------------------------------------------------------------ *)

let expect_fault_msg name expected f =
  match f () with
  | exception Interp.Fault m -> check_string name expected m
  | _ -> Alcotest.failf "%s: expected Fault %S" name expected

let test_memory_faults () =
  let t = Interp.create [ lower "int g;" ] in
  let size = t.Interp.mem_size in
  expect_fault_msg "negative load"
    (Printf.sprintf "load out of bounds: 0x%x" (-8))
    (fun () -> Interp.load t (-8) 8);
  expect_fault_msg "load past the end"
    (Printf.sprintf "load out of bounds: 0x%x" (size - 4))
    (fun () -> Interp.load t (size - 4) 8);
  expect_fault_msg "store past the end"
    (Printf.sprintf "store out of bounds: 0x%x" size)
    (fun () -> Interp.store t size 1 1);
  expect_fault_msg "bad load width" "bad load width 3" (fun () -> Interp.load t 0x100 3);
  expect_fault_msg "bad store width" "bad store width 16" (fun () -> Interp.store t 0x100 0 16);
  expect_fault_msg "bad straddling width" "bad load width 3"
    (fun () -> Interp.load t (Interp.page_size - 1) 3);
  (* out of bounds wins over a bad width, as before *)
  expect_fault_msg "bad width out of bounds"
    (Printf.sprintf "store out of bounds: 0x%x" (-1))
    (fun () -> Interp.store t (-1) 0 3)

let test_memory_demand_zero () =
  let t =
    Interp.create [ lower "void h() { } int a = 5; uint8 b = 7; int arr[3]; int z; fnptr fp = &h;" ]
  in
  check_int "initialized int" 5 (Interp.read_global t "a");
  check_int "initialized uint8" 7 (Interp.read_global t "b");
  check_int "array reads zero" 0 (Interp.load t (Interp.global_addr t "arr" + 16) 8);
  check_int "uninitialized global reads zero" 0 (Interp.read_global t "z");
  check_int "fnptr points at its function" (Interp.symbol_addr t "h") (Interp.read_global t "fp");
  List.iter
    (fun a -> check_int (Printf.sprintf "untouched 0x%x reads zero" a) 0 (Interp.load t a 8))
    [ 0; t.Interp.heap_base; t.Interp.stack_base; t.Interp.mem_size - 8 ];
  (* a straddling store round-trips and touches only its two pages *)
  let a = (5 * Interp.page_size) - 3 in
  Interp.store t a (-2) 8;
  check_int "straddling load" (-2) (Interp.load t a 8);
  check_int "next page holds the high bytes" 0xFFFFFF (Interp.load t (a + 5) 4 land 0xFFFFFF);
  check_int "the page after reads zero" 0 (Interp.load t (6 * Interp.page_size) 8)

(* Memory costs host words only where it is touched: creating an
   interpreter for a small program allocates far less than its 2 MiB. *)
let test_memory_create_is_cheap () =
  let prog = lower "int a = 5; int arr[64]; int f(int n) { arr[n] = n; return a + n; }" in
  let w, t = alloc_words (fun () -> Interp.create [ prog ]) in
  check_bool (Printf.sprintf "Interp.create allocated %.0f words (< 20000)" w) true (w < 20_000.);
  check_int "and the program still runs" 12 (Interp.run t "f" [ 7 ])

(* ------------------------------------------------------------------ *)
(* IR structure                                                        *)
(* ------------------------------------------------------------------ *)

let fn_named prog name =
  List.find (fun (f : Ir.fn) -> String.equal f.fn_name name) prog.Ir.p_fns

let test_switch_reads_are_loadg () =
  let prog = lower "multiverse int c; multiverse int f() { if (c) { return 1; } return 0; }" in
  let f = fn_named prog "f" in
  let loadgs =
    List.concat_map
      (fun (b : Ir.block) ->
        List.filter_map
          (function Ir.Iloadg (_, s, _) -> Some s | _ -> None)
          b.b_instrs)
      f.fn_blocks
  in
  check_bool "reads lower to Iloadg" true (List.mem "c" loadgs);
  check_bool "read_globals finds the switch" true (List.mem "c" (Ir.read_globals f))

let test_multiverse_flags_propagate () =
  let prog =
    lower
      "multiverse int c; multiverse bind(c) void f() { if (c) { } } saveall void g() { }"
  in
  let f = fn_named prog "f" in
  check_bool "fn_multiverse" true f.fn_multiverse;
  check_bool "multiversed implies noinline" true f.fn_noinline;
  check_bool "bind carried" true (f.fn_bind = Some [ "c" ]);
  let g = fn_named prog "g" in
  check_bool "saveall convention" true (g.fn_conv = Ir.Saveall)

let test_extern_mv_flag () =
  let prog = lower "extern multiverse void f(); extern void g(); void h();" in
  check_bool "extern mv recorded" true (List.mem ("f", true) prog.Ir.p_extern_fns);
  check_bool "extern plain recorded" true (List.mem ("g", false) prog.Ir.p_extern_fns)

let suite =
  [
    tc "arithmetic" test_arithmetic;
    tc "bitwise" test_bitwise;
    tc "comparisons" test_comparisons;
    tc "short-circuit evaluation" test_short_circuit;
    tc "conditional expressions" test_conditional_expr;
    tc "loops, break, continue" test_loops;
    tc "recursion" test_recursion;
    tc "globals and arrays" test_globals_and_arrays;
    tc "width-limited access" test_width_access;
    tc "function-pointer dispatch" test_fnptr_dispatch;
    tc "intrinsics" test_intrinsics;
    tc "runtime faults" test_faults;
    tc "step limit" test_step_limit;
    tc "memory faults keep their messages" test_memory_faults;
    tc "memory is demand-zero" test_memory_demand_zero;
    tc "creating an interpreter is cheap" test_memory_create_is_cheap;
    tc "switch reads lower to Iloadg" test_switch_reads_are_loadg;
    tc "multiverse flags propagate" test_multiverse_flags_propagate;
    tc "extern multiverse flag" test_extern_mv_flag;
  ]

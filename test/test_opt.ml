(* Optimizer tests: these passes are what turn a constant-substituted clone
   into the branch-free specialized variant of Section 3. *)

open Util
module Ir = Mv_ir.Ir
module Pass = Mv_opt.Pass
module Merge = Mv_opt.Merge

let fn_named prog name =
  List.find (fun (f : Ir.fn) -> String.equal f.fn_name name) prog.Ir.p_fns

let optimized src name =
  let prog = lower src in
  Pass.optimize_prog prog;
  fn_named prog name

let count_instrs p (fn : Ir.fn) =
  List.fold_left
    (fun acc (b : Ir.block) -> acc + List.length (List.filter p b.b_instrs))
    0 fn.fn_blocks

let count_blocks (fn : Ir.fn) = List.length fn.fn_blocks

let has_branch (fn : Ir.fn) =
  List.exists
    (fun (b : Ir.block) -> match b.b_term with Ir.Tbr _ -> true | _ -> false)
    fn.fn_blocks

(* semantic preservation helper: optimized program behaves identically *)
let check_preserves name src fn args =
  let expected = interp_run src fn args in
  let actual = interp_run ~optimize:true src fn args in
  check_int name expected actual

(* ------------------------------------------------------------------ *)

let test_constant_folding () =
  let f = optimized "int f() { return 2 + 3 * 4; }" "f" in
  check_int "no ALU instructions remain"
    0
    (count_instrs (function Ir.Ibin _ | Ir.Iun _ -> true | _ -> false) f);
  check_preserves "folded value" "int f() { return 2 + 3 * 4; }" "f" []

let test_folding_respects_division_by_zero () =
  (* 1/0 must fold to nothing — the trap has to survive to run time *)
  let f = optimized "int f() { return 1 / 0; }" "f" in
  check_int "division retained"
    1
    (count_instrs (function Ir.Ibin (Ir.Div, _, _, _) -> true | _ -> false) f)

let test_algebraic_identities () =
  List.iter
    (fun (src, expected) ->
      let full = Printf.sprintf "int f(int x) { return %s; }" src in
      check_int (src ^ " value") expected (interp_run ~optimize:true full "f" [ 7 ]);
      let f = optimized full "f" in
      check_int (src ^ " simplified away") 0
        (count_instrs (function Ir.Ibin _ -> true | _ -> false) f))
    [
      ("x + 0", 7); ("0 + x", 7); ("x - 0", 7); ("x * 1", 7); ("1 * x", 7);
      ("x * 0", 0); ("0 * x", 0); ("x / 1", 7); ("x & 0", 0); ("x | 0", 7);
      ("x ^ 0", 7); ("x << 0", 7); ("x >> 0", 7);
    ]

let test_copy_propagation () =
  let f = optimized "int f(int x) { int y = x; int z = y; return z; }" "f" in
  check_int "copies eliminated" 0
    (count_instrs (function Ir.Imov _ -> true | _ -> false) f)

let test_branch_folding_true () =
  let f = optimized "int f() { if (1) { return 10; } return 20; }" "f" in
  check_bool "no conditional branch" false (has_branch f);
  check_preserves "value" "int f() { if (1) { return 10; } return 20; }" "f" []

let test_branch_folding_false () =
  let f = optimized "int f() { if (0) { return 10; } return 20; }" "f" in
  check_bool "no conditional branch" false (has_branch f);
  check_int "single block remains" 1 (count_blocks f)

let test_dead_branch_code_removed () =
  (* the call inside the dead branch must disappear entirely *)
  let src =
    "int g() { return 1; } int f() { if (0) { return g(); } return 2; }"
  in
  let f = optimized src "f" in
  check_int "dead call removed" 0
    (count_instrs (function Ir.Icall _ -> true | _ -> false) f)

let test_dce_keeps_side_effects () =
  let src = "int g; int f() { g = 1; int dead = 2 + 3; return 0; }" in
  let f = optimized src "f" in
  check_int "store kept" 1
    (count_instrs (function Ir.Istoreg _ -> true | _ -> false) f);
  check_int "dead arithmetic removed" 0
    (count_instrs (function Ir.Ibin _ | Ir.Imov _ -> true | _ -> false) f)

let test_dce_keeps_calls_with_dead_results () =
  let src = "int hits; int g() { hits = hits + 1; return 7; } int f() { int dead = g(); return 0; }" in
  let f = optimized src "f" in
  check_int "call kept" 1 (count_instrs (function Ir.Icall _ -> true | _ -> false) f);
  (* ... but its destination register is dropped *)
  check_int "result dropped" 1
    (count_instrs (function Ir.Icall (None, _, _) -> true | _ -> false) f);
  check_int "side effect observed" 1
    (let prog = lower src in
     Pass.optimize_prog prog;
     let t = Mv_ir.Interp.create [ prog ] in
     let _ = Mv_ir.Interp.run t "f" [] in
     Mv_ir.Interp.read_global t "hits")

let test_dce_liveness_across_loop () =
  (* x is defined before the loop and used inside it on every iteration;
     DCE must not remove the definition *)
  let src =
    {|int f(int n) {
        int x = 5;
        int s = 0;
        for (int i = 0; i < n; i++) { s = s + x; }
        return s;
      }|}
  in
  check_preserves "loop-carried liveness" src "f" [ 4 ]

let test_cfg_simplification_block_count () =
  (* a diamond with constant condition collapses into a straight line *)
  let src = "int f(int x) { int r; if (1) { r = x + 1; } else { r = x + 2; } return r; }" in
  let f = optimized src "f" in
  check_int "collapsed to one block" 1 (count_blocks f);
  check_preserves "value" src "f" [ 10 ]

let test_specialization_pipeline () =
  (* the exact transformation variant generation performs: substitute the
     switch read, then optimize — the function becomes branch-free *)
  let src =
    {|multiverse int config;
      int work;
      multiverse void f() {
        if (config) {
          work = work + 1;
        }
      }|}
  in
  let prog = lower src in
  let f = fn_named prog "f" in
  let clone = Ir.copy_fn f in
  (* bind config = 0 *)
  List.iter
    (fun (b : Ir.block) ->
      b.Ir.b_instrs <-
        List.map
          (function
            | Ir.Iloadg (d, "config", _) -> Ir.Imov (d, Ir.Imm 0)
            | i -> i)
          b.Ir.b_instrs)
    clone.Ir.fn_blocks;
  Pass.optimize_fn clone;
  check_bool "specialized clone is branch-free" false (has_branch clone);
  check_int "specialized clone is empty" 0
    (count_instrs (fun _ -> true) clone);
  (* the original is untouched *)
  check_bool "generic still branches" true (has_branch f)

(* ------------------------------------------------------------------ *)
(* Structural merging                                                  *)
(* ------------------------------------------------------------------ *)

let test_merge_equal_bodies () =
  let prog =
    lower
      {|int f(int x) { int a = x + 1; return a * 2; }
        int g(int y) { int b = y + 1; return b * 2; }|}
  in
  Pass.optimize_prog prog;
  let f = fn_named prog "f" and g = fn_named prog "g" in
  check_bool "identical up to renaming" true (Merge.equal_bodies f g)

let test_merge_distinguishes_constants () =
  let prog = lower "int f(int x) { return x + 1; } int g(int x) { return x + 2; }" in
  let f = fn_named prog "f" and g = fn_named prog "g" in
  check_bool "different constants differ" false (Merge.equal_bodies f g)

let test_merge_distinguishes_symbols () =
  let prog =
    lower "int a; int b; int f() { return a; } int g() { return b; }"
  in
  let f = fn_named prog "f" and g = fn_named prog "g" in
  check_bool "different globals differ" false (Merge.equal_bodies f g)

let test_merge_block_order_insensitive () =
  (* same CFG reached through different block id numbering *)
  let src1 = "int f(int x) { if (x) { return 1; } return 2; }" in
  let src2 = "int g(int x) { if (x) { return 1; } return 2; }" in
  let p1 = lower (src1 ^ src2) in
  Pass.optimize_prog p1;
  let f = fn_named p1 "f" and g = fn_named p1 "g" in
  check_bool "same shape merges" true (Merge.equal_bodies f g)

(* [canonical_form] is digested into the variant cache's dedup keys, so
   its text is pinned byte for byte.  The expected strings were recorded
   from the [Printf]-based printer; registers are numbered in that
   printer's evaluation order (operands right to left, call arguments
   left to right, then the destination). *)
let canon_blk id instrs term = { Ir.b_id = id; b_instrs = instrs; b_term = term }

let canon_fn name params nregs blocks =
  { Ir.fn_name = name; fn_params = params; fn_blocks = blocks; fn_nregs = nregs;
    fn_noinline = false; fn_conv = Ir.Standard; fn_multiverse = false; fn_bind = None }

let test_canonical_form_pinned () =
  let every_form =
    canon_fn "every_form" [ 3; 1 ] 16
      [ canon_blk 7
          [ Ir.Imov (5, Ir.Imm (-4)); Ir.Iun (Ir.Neg, 6, Ir.Reg 3);
            Ir.Ibin (Ir.Add, 8, Ir.Reg 5, Ir.Reg 1); Ir.Iload (9, Ir.Reg 8, 4);
            Ir.Istore (Ir.Reg 9, Ir.Imm 12, 1); Ir.Iloadg (10, "cfg", 2);
            Ir.Istoreg ("out", Ir.Reg 10, 8); Ir.Iaddr (11, "tbl") ]
          (Ir.Tbr (Ir.Reg 11, 9, 4));
        canon_blk 5 [] (Ir.Tret (Some (Ir.Imm 3)));
        canon_blk 4 [ Ir.Ibin (Ir.Shr, 15, Ir.Reg 6, Ir.Imm 2) ] (Ir.Tjmp 6);
        canon_blk 9
          [ Ir.Icall (Some 12, "g", [ Ir.Reg 3; Ir.Imm 0 ]); Ir.Isafepoint 2;
            Ir.Icall (None, "h", []); Ir.Icallp (Some 13, "fp", [ Ir.Reg 12 ]);
            Ir.Icallp (None, "fp", []);
            Ir.Iintr (Some 14, Minic.Ast.Iatomic_xchg, [ Ir.Reg 8; Ir.Imm 1 ]);
            Ir.Iintr (None, Minic.Ast.Ifence, []) ]
          (Ir.Tjmp 4);
        canon_blk 6 [] (Ir.Tret None) ]
  in
  (* every register first seen here, to pin the numbering order *)
  let fresh_order =
    canon_fn "fresh_order" [] 40
      [ canon_blk 0
          [ Ir.Ibin (Ir.Sub, 20, Ir.Reg 21, Ir.Reg 22); Ir.Imov (23, Ir.Reg 24);
            Ir.Iun (Ir.Bnot, 30, Ir.Reg 31); Ir.Iload (32, Ir.Reg 33, 8);
            Ir.Istore (Ir.Reg 25, Ir.Reg 26, 8); Ir.Istoreg ("g", Ir.Reg 34, 4);
            Ir.Icall (Some 27, "k", [ Ir.Reg 28; Ir.Reg 29 ]);
            Ir.Icallp (Some 35, "fp", [ Ir.Reg 36; Ir.Imm 7; Ir.Reg 37 ]);
            Ir.Iintr (Some 38, Minic.Ast.Iatomic_xchg, [ Ir.Reg 39; Ir.Reg 1 ]) ]
          (Ir.Tret (Some (Ir.Reg 2))) ]
  in
  let dangling =
    canon_fn "dangling" [ 0 ] 1
      [ canon_blk 0 [] (Ir.Tbr (Ir.Reg 0, 1, 99)); canon_blk 1 [] (Ir.Tret (Some (Ir.Imm 1))) ]
  in
  let loop =
    optimized
      "int f(int n) { int s = 0; while (n) { s += n; n = n - 1; } return s * 3; }" "f"
  in
  List.iter
    (fun (fn, expected) -> check_string fn.Ir.fn_name expected (Merge.canonical_form fn))
    [
      ( every_form,
        "L0:\n mov r2,$-4\n neg r3,r0\n add r4,r2,r1\n ld4 r5,r4\n st1 r5,$12\n ldg2 r6,@cfg\n stg8 @out,r6\n addr r7,@tbl\n br r7,L1,L2\nL1:\n call r8 @g(r0,$0)\n safept 2\n call @h()\n callp r9 [@fp](r8)\n callp [@fp]()\n intr r10 __atomic_xchg(r4,$1)\n intr __fence()\n jmp L2\nL2:\n shr r11,r3,$2\n jmp L3\nL3:\n ret\n"
      );
      ( fresh_order,
        "L0:\n sub r2,r1,r0\n mov r4,r3\n bnot r6,r5\n ld8 r8,r7\n st8 r10,r9\n stg4 @g,r11\n call r14 @k(r12,r13)\n callp r17 [@fp](r15,$7,r16)\n intr r20 __atomic_xchg(r18,r19)\n ret r21\n"
      );
      (dangling, "L0:\n br r0,L2,L1\nL2:\n ret $1\n");
      ( loop,
        "L0:\n mov r1,$0\n jmp L1\nL1:\n br r0,L3,L2\nL2:\n mul r2,r1,$3\n ret r2\nL3:\n add r3,r1,r0\n mov r1,r3\n sub r4,r0,$1\n mov r0,r4\n jmp L1\n"
      );
    ]

let test_optimizer_terminates () =
  (* a pathological but legal function: the fixpoint must stop *)
  let src =
    {|int f(int x) {
        int a = x;
        for (int i = 0; i < 100; i++) {
          a = a * 1 + 0;
          if (0) { a = a / 0; }
        }
        return a;
      }|}
  in
  check_preserves "pathological function" src "f" [ 3 ]

let test_semantic_preservation_battery () =
  List.iter
    (fun (src, fn, args) -> check_preserves (fn ^ " preserved") src fn args)
    [
      ("int f(int n) { int s = 0; while (n) { s += n; n = n - 1; } return s; }", "f", [ 7 ]);
      ("int f(int a, int b) { return (a < b ? a : b) * 2; }", "f", [ 3; 9 ]);
      ("int f(int x) { return x && (x > 2) || !x; }", "f", [ 1 ]);
      ("int g(int n) { return n * n; } int f(int n) { return g(n) + g(n + 1); }", "f", [ 5 ]);
      ("int a[4]; int f(int i) { a[i] = i; return a[i]; }", "f", [ 2 ]);
    ]

(* ------------------------------------------------------------------ *)
(* Optimizer host cost                                                 *)
(* ------------------------------------------------------------------ *)

(* A specialized clone of a hundred instructions: loops, a switch, a call,
   array loads and stores, and switch reads bound to a constant. *)
let alloc_clone_src =
  {|multiverse int mode;
    int acc;
    int tbl[8];
    int helper(int x) { return x + 1; }
    multiverse int mix(int n, int k) {
      int s = 0;
      int t = k;
      int u = n * 3 + k;
      for (int i = 0; i < n; i++) {
        if (mode) { s = s + tbl[i & 7] * 3; t = t ^ s; } else { s = s - i; t = t + 1; }
        if (mode == 2) { acc = acc + t; tbl[t & 7] = s; }
        while (t > 100) { t = t - 7; }
        u = u + (s & 15) - (t >> 2);
      }
      for (int j = 0; j < 4; j++) {
        if (mode > 1) { u = u + helper(j); } else { u = u - j * 2; }
        tbl[j] = u + s;
        acc = acc + tbl[(j + u) & 7];
      }
      switch (k) {
        case 1: s = s + 1; break;
        case 2: s = s * 2; break;
        case 3: s = s - u; break;
        default: s = s + t;
      }
      if (mode == 3) { acc = acc * 2 + u; }
      if (mode) { acc = acc + s; } else { acc = acc - s; }
      if (u > s) { t = t + u; } else { t = t - s; }
      return s + t + u;
    }|}

let alloc_clone () =
  let f = fn_named (lower alloc_clone_src) "mix" in
  let clone = Ir.copy_fn f in
  List.iter
    (fun (b : Ir.block) ->
      b.Ir.b_instrs <-
        List.map
          (function Ir.Iloadg (d, "mode", _) -> Ir.Imov (d, Ir.Imm 1) | i -> i)
          b.Ir.b_instrs)
    clone.Ir.fn_blocks;
  clone

(* Optimizing it allocates 74,475 words with set/map liveness, hash-table
   facts and map-indexed CFG cleanup, and 6,185 with the dense dataflow. *)
let optimize_words_bound = 15_000.

let test_optimize_alloc_bound () =
  let clone = alloc_clone () in
  check_bool "about a hundred instructions" true
    (let n = count_instrs (fun _ -> true) clone in
     n >= 90 && n <= 110);
  let w, () = alloc_words (fun () -> Pass.optimize_fn clone) in
  check_bool
    (Printf.sprintf "optimize_fn allocated %.0f words (< %.0f)" w optimize_words_bound)
    true
    (w < optimize_words_bound)

let suite =
  [
    tc "constant folding" test_constant_folding;
    tc "folding preserves division by zero" test_folding_respects_division_by_zero;
    tc "algebraic identities" test_algebraic_identities;
    tc "copy propagation" test_copy_propagation;
    tc "branch folding (true)" test_branch_folding_true;
    tc "branch folding (false)" test_branch_folding_false;
    tc "dead branch code removed" test_dead_branch_code_removed;
    tc "DCE keeps side effects" test_dce_keeps_side_effects;
    tc "DCE keeps calls, drops dead results" test_dce_keeps_calls_with_dead_results;
    tc "DCE respects loop liveness" test_dce_liveness_across_loop;
    tc "CFG simplification" test_cfg_simplification_block_count;
    tc "specialization pipeline (Section 3)" test_specialization_pipeline;
    tc "merge: equal bodies" test_merge_equal_bodies;
    tc "merge: constants distinguish" test_merge_distinguishes_constants;
    tc "merge: symbols distinguish" test_merge_distinguishes_symbols;
    tc "merge: block-order insensitive" test_merge_block_order_insensitive;
    tc "merge: canonical form text pinned" test_canonical_form_pinned;
    tc "optimize_fn allocation bound" test_optimize_alloc_bound;
    tc "optimizer terminates" test_optimizer_terminates;
    tc "semantic preservation battery" test_semantic_preservation_battery;
  ]

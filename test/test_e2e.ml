(* End-to-end tests of the full pipeline on the paper's worked example
   (Figures 2 and 3): variant generation, merging, descriptors, call-site
   patching, inlining, prologue redirection, revert, and out-of-domain
   fallback. *)

open Util
module Image = Mv_link.Image
module Descriptor = Core.Descriptor
module Runtime = Core.Runtime

let fig2_src =
  {|
    multiverse bool A;
    multiverse int B;

    int effects;

    void calc() { effects = effects + 10; }
    void log_() { effects = effects + 100; }

    multiverse void multi() {
      if (A) {
        calc();
        if (B) {
          log_();
        }
      }
    }

    int foo() {
      effects = 0;
      multi();
      return effects;
    }
  |}

(* behavior of the generic (uncommitted) program for a given A,B *)
let expected a b = (if a <> 0 then 10 else 0) + (if a <> 0 && b <> 0 then 100 else 0)

let test_generic_semantics () =
  let s = session fig2_src in
  List.iter
    (fun (a, b) ->
      set_global s "A" a;
      set_global s "B" b;
      check_int (Printf.sprintf "generic A=%d B=%d" a b) (expected a b) (run s "foo" []))
    [ (0, 0); (0, 1); (1, 0); (1, 1) ]

let test_variant_count_after_merge () =
  let s = session fig2_src in
  let fns = Descriptor.parse_functions s.program.Core.Compiler.p_image in
  check_int "one multiversed function" 1 (List.length fns);
  match fns with
  | [ f ] ->
      (* 4 assignments merge into 3 variants: A=0 is empty for both B *)
      check_int "variant records" 3 (List.length f.fd_variants)
  | _ -> Alcotest.fail "expected exactly one function record"

let test_merged_guard_is_range () =
  let s = session fig2_src in
  let img = s.program.Core.Compiler.p_image in
  let fns = Descriptor.parse_functions img in
  let f = List.hd fns in
  let merged =
    List.find
      (fun (v : Descriptor.variant_record) ->
        match Image.symbol_at img v.va_addr with
        | Some name -> String.equal name "multi.A=0.B=01"
        | None -> false)
      f.fd_variants
  in
  let b_guard =
    List.find
      (fun (g : Descriptor.guard_record) ->
        Image.symbol_at img g.gr_var = Some "B")
      merged.va_guards
  in
  check_int "B low" 0 b_guard.gr_lo;
  check_int "B high" 1 b_guard.gr_hi

let test_commit_matches_generic_for_all_assignments () =
  let s = session fig2_src in
  List.iter
    (fun (a, b) ->
      set_global s "A" a;
      set_global s "B" b;
      let bound = Runtime.commit s.runtime in
      check_bool (Printf.sprintf "bound A=%d B=%d" a b) true (bound >= 1);
      check_int
        (Printf.sprintf "committed A=%d B=%d" a b)
        (expected a b) (run s "foo" []))
    [ (0, 0); (1, 0); (1, 1); (0, 1); (1, 1); (0, 0) ]

let test_committed_ignores_switch_writes () =
  (* after commit, the bound semantics must persist even when the switch
     changes, until the next commit (Section 2) *)
  let s = session fig2_src in
  set_global s "A" 1;
  set_global s "B" 1;
  ignore (Runtime.commit s.runtime);
  set_global s "A" 0;
  set_global s "B" 0;
  check_int "still bound to A=1,B=1" 110 (run s "foo" []);
  ignore (Runtime.commit s.runtime);
  check_int "re-commit binds A=0,B=0" 0 (run s "foo" [])

let test_revert_restores_dynamic_behavior () =
  let s = session fig2_src in
  set_global s "A" 1;
  set_global s "B" 0;
  ignore (Runtime.commit s.runtime);
  check_int "committed" 10 (run s "foo" []);
  ignore (Runtime.revert s.runtime);
  set_global s "A" 1;
  set_global s "B" 1;
  check_int "reverted follows switches again" 110 (run s "foo" [])

let test_revert_restores_text_bytes () =
  let s = session fig2_src in
  let img = s.program.Core.Compiler.p_image in
  let text = img.Image.text in
  let before = Image.sub img text.Image.sr_base text.Image.sr_size in
  set_global s "A" 1;
  set_global s "B" 1;
  ignore (Runtime.commit s.runtime);
  let during = Image.sub img text.Image.sr_base text.Image.sr_size in
  check_bool "commit changed the text segment" false (Bytes.equal before during);
  ignore (Runtime.revert s.runtime);
  let after = Image.sub img text.Image.sr_base text.Image.sr_size in
  check_bool "revert restored the text segment byte-for-byte" true
    (Bytes.equal before after)

let test_out_of_domain_falls_back_to_generic () =
  (* Figure 3(d): A=3, B=4 has no variant; the runtime reverts to the
     generic body and signals the fallback *)
  let s = session fig2_src in
  set_global s "A" 3;
  set_global s "B" 4;
  ignore (Runtime.commit s.runtime);
  check_bool "fallback signalled" true
    (List.mem "multi" (Runtime.fallbacks s.runtime));
  (* generic still behaves correctly for the out-of-domain values *)
  check_int "generic semantics for A=3,B=4" 110 (run s "foo" [])

let test_function_pointer_completeness () =
  (* calls through function pointers land in the committed variant via the
     prologue jump (Section 7.4) *)
  let src =
    fig2_src
    ^ {|
    fnptr indirect = &multi;
    int via_pointer() {
      effects = 0;
      indirect();
      return effects;
    }
  |}
  in
  let s = session src in
  set_global s "A" 1;
  set_global s "B" 1;
  ignore (Runtime.commit s.runtime);
  (* flip switches: a *pointer* call must still see the bound variant *)
  set_global s "A" 0;
  check_int "pointer call hits committed variant" 110 (run s "via_pointer" [])

let test_empty_variant_inlined_as_nops () =
  let s = session fig2_src in
  let img = s.program.Core.Compiler.p_image in
  set_global s "A" 0;
  set_global s "B" 0;
  ignore (Runtime.commit s.runtime);
  (* the call site inside foo() must now be pure nops *)
  let sites = Descriptor.parse_callsites img in
  let site = (List.hd sites).Descriptor.cs_site in
  let b = Image.read_bytes img site 5 in
  let all_nops = ref true in
  Bytes.iter (fun c -> if Char.code c <> 0x90 then all_nops := false) b;
  check_bool "call site nop-ed out (Figure 3c)" true !all_nops;
  check_int "empty variant behaves as no-op" 0 (run s "foo" [])

let test_commit_func_only_affects_one_function () =
  let src =
    {|
    multiverse int flag;
    int acc;
    multiverse void f() { if (flag) { acc = acc + 1; } }
    multiverse void g() { if (flag) { acc = acc + 100; } }
    int driver() {
      acc = 0;
      f();
      g();
      return acc;
    }
  |}
  in
  let s = session src in
  set_global s "flag" 1;
  check_int "commit_func returns 1" 1 (Runtime.commit_func s.runtime "f");
  set_global s "flag" 0;
  (* f is bound to flag=1; g still evaluates dynamically (flag=0) *)
  check_int "only f is bound" 1 (run s "driver" [])

let test_commit_refs () =
  let src =
    {|
    multiverse int a;
    multiverse int b;
    int acc;
    multiverse void fa() { if (a) { acc = acc + 1; } }
    multiverse void fb() { if (b) { acc = acc + 100; } }
    int driver() {
      acc = 0;
      fa();
      fb();
      return acc;
    }
  |}
  in
  let s = session src in
  set_global s "a" 1;
  set_global s "b" 1;
  let n = Runtime.commit_refs s.runtime "a" in
  check_int "commit_refs bound one function" 1 n;
  set_global s "a" 0;
  set_global s "b" 0;
  (* fa bound to a=1; fb dynamic and sees b=0 *)
  check_int "only fa is bound" 1 (run s "driver" []);
  check_int "revert_refs" 1 (Runtime.revert_refs s.runtime "a");
  check_int "fa dynamic again" 0 (run s "driver" [])

let test_separate_compilation () =
  (* the Figure 2 layout: config.c, multi.c, caller.c *)
  let config = {|
    multiverse bool A;
    multiverse int B;
    int effects;
  |} in
  let multi =
    {|
    extern multiverse bool A;
    extern multiverse int B;
    extern int effects;
    extern void calc();
    extern void log_();
    multiverse void multi() {
      if (A) {
        calc();
        if (B) { log_(); }
      }
    }
  |}
  in
  let caller =
    {|
    extern multiverse void multi();
    extern int effects;
    void calc() { effects = effects + 10; }
    void log_() { effects = effects + 100; }
    int foo() {
      effects = 0;
      multi();
      return effects;
    }
  |}
  in
  let s = session_units [ ("config.c", config); ("multi.c", multi); ("caller.c", caller) ] in
  set_global s "A" 1;
  set_global s "B" 1;
  ignore (Runtime.commit s.runtime);
  check_int "cross-unit commit works" 110 (run s "foo" []);
  (* the call site in caller.c was discovered via the extern declaration *)
  let sites = Descriptor.parse_callsites s.program.Core.Compiler.p_image in
  check_int "cross-unit call site recorded" 1 (List.length sites)

let test_commit_is_idempotent () =
  let s = session fig2_src in
  set_global s "A" 1;
  set_global s "B" 1;
  ignore (Runtime.commit s.runtime);
  let img = s.program.Core.Compiler.p_image in
  let text = img.Image.text in
  let snap1 = Image.sub img text.Image.sr_base text.Image.sr_size in
  ignore (Runtime.commit s.runtime);
  let snap2 = Image.sub img text.Image.sr_base text.Image.sr_size in
  check_bool "second commit is a no-op on the text" true (Bytes.equal snap1 snap2);
  check_int "still correct" 110 (run s "foo" [])

let suite =
  [
    tc "generic semantics" test_generic_semantics;
    tc "variant merge count (Figure 2)" test_variant_count_after_merge;
    tc "merged guard uses a range" test_merged_guard_is_range;
    tc "commit matches generic for all assignments" test_commit_matches_generic_for_all_assignments;
    tc "committed function ignores switch writes" test_committed_ignores_switch_writes;
    tc "revert restores dynamic behavior" test_revert_restores_dynamic_behavior;
    tc "revert restores text bytes" test_revert_restores_text_bytes;
    tc "out-of-domain falls back to generic (Figure 3d)" test_out_of_domain_falls_back_to_generic;
    tc "function-pointer calls hit the committed variant" test_function_pointer_completeness;
    tc "empty variant inlined as nops (Figure 3c)" test_empty_variant_inlined_as_nops;
    tc "commit_func affects a single function" test_commit_func_only_affects_one_function;
    tc "commit_refs/revert_refs" test_commit_refs;
    tc "separate compilation (Figure 2 layout)" test_separate_compilation;
    tc "commit is idempotent" test_commit_is_idempotent;
  ]

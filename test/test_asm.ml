(* Disassembler tests: formatting, pc-relative target annotation, symbol
   resolution, and graceful handling of patched-over residue. *)

open Util
module Insn = Mv_isa.Insn
module Asm = Mv_isa.Asm
module Encode = Mv_isa.Encode

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let test_insn_formats () =
  List.iter
    (fun (insn, expected) -> check_string expected expected (Asm.insn_to_string insn))
    [
      (Insn.Mov_ri (3, 42), "mov r3, $42");
      (Insn.Mov_ri32 (3, -1), "mov32 r3, $-1");
      (Insn.Alu (Insn.Add, 1, 2, 3), "add r1, r2, r3");
      (Insn.Alu_ri (Insn.Shl, 0, 0, 4), "shl r0, r0, $4");
      (Insn.Load (1, 15, 16, 8), "ld64 r1, [r15+16]");
      (Insn.Store (15, -8, 2, 4), "st32 [r15-8], r2");
      (Insn.Loadg (0, 0x2000, 1), "ld8 r0, [0x2000]");
      (Insn.Call 10, "call +10");
      (Insn.Call_ind 0x2000, "call [0x2000]");
      (Insn.Jnz (3, -14), "jnz r3, -14");
      (Insn.Xchg (0, 1, 2), "xchg r0, [r1], r2");
      (Insn.Cli, "cli");
      (Insn.Nop, "nop");
    ]

let test_disassemble_annotates_targets () =
  let seq = [ Insn.Call 11; Insn.Jmp (-10); Insn.Ret ] in
  let bytes, _ = Encode.encode_seq seq in
  let listing = Asm.disassemble bytes ~off:0 ~len:(Bytes.length bytes) in
  (* call at 0, size 5, rel 11 -> target 16 *)
  check_bool "call target annotated" true (contains listing "-> 0x10");
  (* jmp at 5, size 5, rel -10 -> target 0 *)
  check_bool "jmp target annotated" true (contains listing "-> 0x0")

let test_disassemble_resolves_symbols () =
  let seq = [ Insn.Call 11; Insn.Ret ] in
  let bytes, _ = Encode.encode_seq seq in
  let resolve addr = if addr = 16 then Some "spin_irq_lock" else None in
  let listing = Asm.disassemble ~resolve bytes ~off:0 ~len:(Bytes.length bytes) in
  check_bool "symbol name shown" true (contains listing "<spin_irq_lock>")

let test_disassemble_stops_on_garbage () =
  let bytes = Bytes.cat (Encode.encode Insn.Cli) (Bytes.of_string "\xff\xff") in
  let listing = Asm.disassemble bytes ~off:0 ~len:(Bytes.length bytes) in
  check_bool "valid prefix listed" true (contains listing "cli");
  check_bool "residue marked" true (contains listing "undecodable")

let test_disassemble_patched_function () =
  (* end to end: a committed function's prologue shows the jmp and the
     residue marker instead of crashing *)
  let s =
    session
      {|multiverse int m;
        int w;
        multiverse void f() { if (m) { w = w + 1; } w = w + 2; }
        void c() { f(); }|}
  in
  set_global s "m" 1;
  ignore (Core.Runtime.commit s.runtime);
  let img = s.program.Core.Compiler.p_image in
  let f = Mv_link.Image.symbol img "f" in
  let size = Mv_link.Image.symbol_size img "f" in
  let listing =
    Asm.disassemble
      ~resolve:(fun a -> Mv_link.Image.symbol_at img a)
      ~base:f (Mv_link.Image.sub img f size) ~off:0 ~len:size
  in
  check_bool "prologue is a jmp to the variant" true (contains listing "jmp");
  check_bool "variant symbol resolved" true (contains listing "<f.m=1>")

let suite =
  [
    tc "instruction formats" test_insn_formats;
    tc "pc-relative targets annotated" test_disassemble_annotates_targets;
    tc "symbols resolved" test_disassemble_resolves_symbols;
    tc "garbage stops the listing gracefully" test_disassemble_stops_on_garbage;
    tc "patched prologues disassemble" test_disassemble_patched_function;
  ]

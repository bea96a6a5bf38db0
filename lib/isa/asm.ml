(* Disassembler / pretty-printer for the virtual ISA; used by the [mvcc]
   driver's [--dump-asm] and by tests that assert on patched text. *)

let pp_insn fmt (i : Insn.t) =
  let p fmt' = Format.fprintf fmt fmt' in
  match i with
  | Insn.Mov_ri (rd, imm) -> p "mov r%d, $%d" rd imm
  | Insn.Mov_ri32 (rd, imm) -> p "mov32 r%d, $%d" rd imm
  | Insn.Mov_rr (rd, rs) -> p "mov r%d, r%d" rd rs
  | Insn.Alu (op, rd, ra, rb) -> p "%s r%d, r%d, r%d" (Insn.alu_name op) rd ra rb
  | Insn.Alu_ri (op, rd, ra, imm) -> p "%s r%d, r%d, $%d" (Insn.alu_name op) rd ra imm
  | Insn.Un (op, rd, ra) -> p "%s r%d, r%d" (Insn.unop_name op) rd ra
  | Insn.Load (rd, ra, off, w) -> p "ld%d r%d, [r%d%+d]" (w * 8) rd ra off
  | Insn.Store (ra, off, rs, w) -> p "st%d [r%d%+d], r%d" (w * 8) ra off rs
  | Insn.Loadg (rd, addr, w) -> p "ld%d r%d, [0x%x]" (w * 8) rd addr
  | Insn.Storeg (addr, rs, w) -> p "st%d [0x%x], r%d" (w * 8) addr rs
  | Insn.Lea (rd, addr) -> p "lea r%d, 0x%x" rd addr
  | Insn.Call rel -> p "call %+d" rel
  | Insn.Call_ind addr -> p "call [0x%x]" addr
  | Insn.Jmp rel -> p "jmp %+d" rel
  | Insn.Jnz (r, rel) -> p "jnz r%d, %+d" r rel
  | Insn.Jz (r, rel) -> p "jz r%d, %+d" r rel
  | Insn.Ret -> p "ret"
  | Insn.Push r -> p "push r%d" r
  | Insn.Pop r -> p "pop r%d" r
  | Insn.Cli -> p "cli"
  | Insn.Sti -> p "sti"
  | Insn.Pause -> p "pause"
  | Insn.Fence -> p "fence"
  | Insn.Xchg (rd, ra, rs) -> p "xchg r%d, [r%d], r%d" rd ra rs
  | Insn.Hypercall n -> p "hypercall %d" n
  | Insn.Rdtsc rd -> p "rdtsc r%d" rd
  | Insn.Halt -> p "halt"
  | Insn.Nop -> p "nop"
  | Insn.Brk -> p "brk"

let insn_to_string i = Format.asprintf "%a" pp_insn i

(** Disassemble [len] bytes starting at [off]; pc-relative targets are
    annotated with their absolute address.  [base] is the address of
    byte 0 of [b]. *)
let disassemble ?(resolve = fun (_ : int) -> None) ?(base = 0) (b : Bytes.t) ~off ~len :
    string =
  let buf = Buffer.create 256 in
  let emit at i =
    let pos = base + at in
    let target =
      match i with
      | Insn.Call rel | Insn.Jmp rel -> Some (pos + 5 + rel)
      | Insn.Jnz (_, rel) | Insn.Jz (_, rel) -> Some (pos + 7 + rel)
      | _ -> None
    in
    let annot =
      match target with
      | Some t -> (
          match resolve t with
          | Some name -> Printf.sprintf "  ; -> 0x%x <%s>" t name
          | None -> Printf.sprintf "  ; -> 0x%x" t)
      | None -> ""
    in
    Buffer.add_string buf (Printf.sprintf "%08x:  %s%s\n" pos (insn_to_string i) annot)
  in
  (* decode as far as possible; patched functions may leave undecodable
     residue after an installed prologue jump *)
  let rec go pos =
    if pos < off + len then
      match Decode.decode b ~off:pos with
      | insn, size ->
          emit pos insn;
          go (pos + size)
      | exception (Decode.Decode_error _ | Invalid_argument _) ->
          Buffer.add_string buf
            (Printf.sprintf "%08x:  .byte 0x%02x  ; undecodable (patched-over residue)\n"
               (base + pos)
               (Char.code (Bytes.get b pos)))
  in
  go off;
  Buffer.contents buf

(** Disassembler / pretty-printer for the virtual ISA. *)

val pp_insn : Format.formatter -> Insn.t -> unit
val insn_to_string : Insn.t -> string

(** Disassemble [len] bytes at [off].  pc-relative targets are annotated
    with their absolute address and, via [resolve], a symbol name.
    [base] (default 0) is the address of byte 0 of the buffer, so a
    copy of a memory range lists at its real addresses.  Undecodable
    bytes (e.g. residue after a patched-over prologue, or an encoding
    cut short by the end of the buffer) stop the listing gracefully. *)
val disassemble :
  ?resolve:(int -> string option) -> ?base:int -> Bytes.t -> off:int -> len:int -> string

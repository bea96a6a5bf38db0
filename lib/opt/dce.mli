(** Liveness-based dead-code elimination.  Pure instructions with dead
    destinations are removed; side-effecting instructions are kept but a
    dead result register is dropped (e.g. an ignored call return value). *)

(** Run over one function; [true] if anything changed. *)
val run : Mv_ir.Ir.fn -> bool

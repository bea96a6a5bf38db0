(** Control-flow graph cleanup: empty-block forwarding, unreachable-block
    removal, and straight-line merging.  The entry block keeps its
    position at the head of the block list.  A jump to a block the
    function does not contain raises [Invalid_argument]. *)

(** All cleanups, in order; [true] if anything changed. *)
val run : Mv_ir.Ir.fn -> bool

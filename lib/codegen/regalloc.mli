(** Graph-coloring register allocation.

    Virtual registers are colored with the callee-saved machine registers
    (values survive calls at the cost of one push/pop pair in the
    prologue); leaf functions may additionally use caller-saved registers
    for free.  Uncolorable registers get stack slots and are rewritten
    through the two reserved scratch registers at emission time. *)

(** Callee-saved registers available for coloring (r6..r12). *)
val callee_saved_pool : int list

(** Caller-saved registers usable in leaf functions (r1..r5, minus those
    still holding incoming arguments). *)
val caller_saved_pool : int list

(** Arguments passed in registers r0..r5. *)
val max_reg_args : int

type assignment =
  | Phys of int  (** colored with this machine register *)
  | Slot of int  (** spilled to this frame slot *)
  | Unused  (** never mentioned in the body (e.g. eliminated by DCE) *)

type t = {
  assign : assignment array;  (** indexed by virtual register *)
  used_callee_saved : int list;  (** callee-saved registers to save *)
  frame_slots : int;
}

val assignment_of : t -> Mv_ir.Ir.reg -> assignment

(** Does the function contain no calls?  Leaf functions may color with
    caller-saved registers. *)
val is_leaf : Mv_ir.Ir.fn -> bool

(** Color the function's virtual registers, given the function's
    liveness ({!Mv_opt.Liveness.compute}); the emitter passes the one it
    also uses for the frame maps. *)
val allocate : Mv_opt.Liveness.t -> Mv_ir.Ir.fn -> t

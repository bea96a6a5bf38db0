(** Dense backward liveness: register sets are bitsets over the
    function's [fn_nregs] virtual registers, blocks are indexed by their
    position in [fn_blocks].  Computed once per function state and shared
    by dead-code elimination, register allocation and the safepoint frame
    maps.  Every register an instruction names must be below
    [fn_nregs]. *)

(** A mutable register set sized for one function ({!create_set}). *)
type set = int array

type t

(** Live-in sets for every block: per-block gen/kill, then the least
    fixpoint of [in = gen ∪ (out − kill)].  A successor that names no
    block contributes nothing; with duplicate block ids the last one
    wins. *)
val compute : Mv_ir.Ir.fn -> t

(** An empty set of the function's width. *)
val create_set : t -> set

(** [live_out t p s] overwrites [s] with the union of the live-in sets of
    the successors of the block at position [p]. *)
val live_out : t -> int -> set -> unit

(** [f r] for every register live into the block at position [p], in
    increasing register order. *)
val iter_live_in : t -> int -> (int -> unit) -> unit

(** Live-in registers of block [id] in increasing order; [[]] for a
    missing block. *)
val live_in : t -> int -> Mv_ir.Ir.reg list

val mem : set -> int -> bool
val add : set -> int -> unit
val remove : set -> int -> unit

(** Members in increasing register order. *)
val iter : (int -> unit) -> set -> unit

(** Members in increasing register order. *)
val elements : set -> int list

(** [f i] for each instruction, last first, without reversing the list. *)
val iter_back : (Mv_ir.Ir.instr -> unit) -> Mv_ir.Ir.instr list -> unit

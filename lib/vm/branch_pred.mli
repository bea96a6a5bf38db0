(** Branch prediction model: gshare-style 2-bit counters for conditional
    branches plus a branch target buffer for indirect calls.

    The paper's core performance argument (Section 1) is that a dynamic
    configuration check is nearly free in a warm microbenchmark loop but
    pays a 15-20 cycle misprediction on real, cold or aliased kernel paths;
    {!flush} and {!perturb} model those conditions (ablation A2). *)

type t

(** Fresh predictor; [bits] sizes the history/counter tables (default 12,
    i.e. 4096 entries).  The counters take one byte each and the branch
    target buffer is allocated by the first {!indirect} call, so a
    machine that never makes an indirect transfer never pays for it. *)
val create : ?bits:int -> unit -> t

(** Predict-and-update for the conditional branch at [pc]; [true] when the
    prediction matched [taken]. *)
val conditional : t -> pc:int -> taken:bool -> bool

(** Predict-and-update for an indirect transfer; [true] on a BTB hit with
    the right target. *)
val indirect : t -> pc:int -> target:int -> bool

(** Cold predictor (context switch, cache pressure). *)
val flush : t -> unit

(** Deterministically perturb a [fraction] of the tables (aliasing
    pressure); reproducible via [seed]. *)
val perturb : t -> seed:int -> fraction:float -> unit

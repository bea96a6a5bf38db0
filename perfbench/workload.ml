(* What the measurement loop needs from a workload once it is set up. *)

type instance = {
  batch : int;
      (** the ops' period: op [i + batch] repeats the work of op [i].
          Timing chunks, and so the run, end only at multiples of it. *)
  block : int;
      (** ops timed as one unit for the floor, which takes each block of a
          period at its fastest repetition; divides [batch] *)
  op : int -> bool;
      (** run op [i] (ops run in order from 0); [true] when its output
          matched the reference.  An escaping exception is a failed op. *)
  after_op : unit -> unit;
      (** traced pass only, after the op's span has closed: measurement
          work that is not part of the op *)
  counters : unit -> (string * float) list;
      (** cumulative layer counters; the loop reports their change *)
  code_bytes : unit -> float;  (** linked text plus peak resident variant bytes *)
  inputs : unit -> string;
      (** fingerprint of the generated inputs the ops have used so far *)
}

type t = {
  name : string;
  setup : chaos:bool -> seed:int -> instance;
      (** [chaos] arms the workload's known-bad configuration, under
          which its output check must report failed ops *)
}

let no_after () = ()

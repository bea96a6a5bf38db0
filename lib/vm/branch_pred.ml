(* Branch prediction model: a gshare-style table of 2-bit saturating counters
   for conditional branches plus a branch target buffer (BTB) for indirect
   calls.

   The paper's core performance argument (Section 1) is that a dynamic
   configuration check is nearly free in a microbenchmark loop — the
   predictor is warm — but costs a 15-20 cycle misprediction on real kernel
   paths where the entry is cold or aliased.  [flush] models the cold case;
   the A2 ablation benchmark drives both.

   Every machine owns a predictor, and most machines are short-lived (the
   fuzz oracles create dozens per case), so the tables are kept small on
   the host: one byte per counter, and a BTB that is only allocated by the
   first indirect transfer.  An unallocated BTB reads as all-empty. *)

type t = {
  counters : Bytes.t;  (** 2-bit saturating, one per byte: 0,1 = not taken; 2,3 = taken *)
  mutable btb : int array;  (** last target per slot; 0 = empty; [[||]] until first used *)
  mutable history : int;
  bits : int;
}

let create ?(bits = 12) () =
  { counters = Bytes.make (1 lsl bits) '\001'; btb = [||]; history = 0; bits }

let[@inline] mask t = (1 lsl t.bits) - 1

let[@inline] index t pc = (pc lxor (t.history lsl 2)) land mask t

(** Predict-and-update for a conditional branch at [pc]; returns [true] when
    the prediction matched the actual outcome. *)
let conditional t ~pc ~taken =
  (* [index] is masked to the table's size, so the accesses are in bounds *)
  let i = index t pc in
  let counter = Char.code (Bytes.unsafe_get t.counters i) in
  let predicted_taken = counter >= 2 in
  let correct = predicted_taken = taken in
  (* saturate with int compares: [Stdlib.min]/[max] are polymorphic and
     would call the generic comparison on every branch *)
  let counter' =
    if taken then if counter < 3 then counter + 1 else 3
    else if counter > 0 then counter - 1
    else 0
  in
  Bytes.unsafe_set t.counters i (Char.unsafe_chr counter');
  t.history <- ((t.history lsl 1) lor Bool.to_int taken) land mask t;
  correct

(** Predict-and-update for an indirect transfer at [pc] going to [target];
    returns [true] on a BTB hit with the right target. *)
let indirect t ~pc ~target =
  if Array.length t.btb = 0 then t.btb <- Array.make (1 lsl t.bits) 0;
  let i = pc land mask t in
  let hit = t.btb.(i) = target in
  t.btb.(i) <- target;
  hit

(** Model a cold predictor (context switch, cache pressure, aliasing). *)
let flush t =
  Bytes.fill t.counters 0 (Bytes.length t.counters) '\001';
  Array.fill t.btb 0 (Array.length t.btb) 0;
  t.history <- 0

(** Model partial aliasing pressure: perturb a fraction of the table using a
    deterministic LCG so benchmarks remain reproducible. *)
let perturb t ~seed ~fraction =
  let n = Bytes.length t.counters in
  let count = int_of_float (float_of_int n *. fraction) in
  let state = ref (seed lor 1) in
  for _ = 1 to count do
    state := ((!state * 0x5DEECE66D) + 0xB) land max_int;
    let i = !state mod n in
    Bytes.set t.counters i (Char.unsafe_chr (!state lsr 8 land 3));
    if Array.length t.btb > 0 then t.btb.(i) <- 0
  done

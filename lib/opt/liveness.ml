(* Dense backward liveness over a function's CFG.  Register sets are
   bitsets ([int] words over the function's [fn_nregs] virtual registers)
   and blocks are indexed by their position in [fn_blocks], so the
   fixpoint runs over flat arrays: per-block gen/kill sets are computed
   once, then [in = gen ∪ (out − kill)] is iterated to the least fixpoint.
   That fixpoint is unique, so the result does not depend on the visiting
   order.  One computation serves dead-code elimination, register
   allocation and the safepoint frame maps. *)

module Ir = Mv_ir.Ir

let bits = 63

type set = int array

type t = {
  words : int;  (** words per set *)
  lo : int;  (** smallest block id *)
  index : int array;  (** [index.(id - lo)]: position of block [id], or -1 *)
  succs : int array;
      (** [succs.(2p)], [succs.(2p + 1)]: positions of block [p]'s
          successors, -1 for none or for a missing block *)
  live_in : int array;  (** block [p]'s set is words [p * words ..] *)
}

let mem (s : set) r = s.(r / bits) land (1 lsl (r mod bits)) <> 0
let add (s : set) r = s.(r / bits) <- s.(r / bits) lor (1 lsl (r mod bits))
let remove (s : set) r = s.(r / bits) <- s.(r / bits) land lnot (1 lsl (r mod bits))

(* [f r] for every member of the [words]-word set at [a.(off)], in
   increasing register order. *)
let iter_words f a off words =
  for k = 0 to words - 1 do
    let w = ref a.(off + k) and r = ref (k * bits) in
    while !w <> 0 do
      if !w land 1 <> 0 then f !r;
      w := !w lsr 1;
      incr r
    done
  done

let iter f (s : set) = iter_words f s 0 (Array.length s)

let elements (s : set) =
  let acc = ref [] in
  iter (fun r -> acc := r :: !acc) s;
  List.rev !acc

(** [f i] for each instruction, last first, without reversing the list. *)
let rec iter_back f = function
  | [] -> ()
  | i :: rest ->
      iter_back f rest;
      f i

let position t id =
  let k = id - t.lo in
  if k >= 0 && k < Array.length t.index then t.index.(k) else -1

let create_set t : set = Array.make t.words 0

(** Overwrite [s] with the live-out set of the block at position [p]: the
    union of its successors' live-in sets. *)
let live_out t p (s : set) =
  let s1 = t.succs.(2 * p) and s2 = t.succs.((2 * p) + 1) in
  for k = 0 to t.words - 1 do
    s.(k) <-
      (if s1 >= 0 then t.live_in.((s1 * t.words) + k) else 0)
      lor if s2 >= 0 then t.live_in.((s2 * t.words) + k) else 0
  done

(** [f r] for every register live into the block at position [p], in
    increasing order. *)
let iter_live_in t p f = iter_words f t.live_in (p * t.words) t.words

(** Live-in registers of block [id], increasing; [[]] for a missing block. *)
let live_in t id =
  let p = position t id in
  if p < 0 then []
  else begin
    let acc = ref [] in
    iter_live_in t p (fun r -> acc := r :: !acc);
    List.rev !acc
  end

let compute (fn : Ir.fn) : t =
  let blocks = Array.of_list fn.fn_blocks in
  let nb = Array.length blocks in
  let words = (max 1 fn.fn_nregs + bits - 1) / bits in
  let lo = Array.fold_left (fun m (b : Ir.block) -> min m b.b_id) max_int blocks in
  let hi = Array.fold_left (fun m (b : Ir.block) -> max m b.b_id) min_int blocks in
  let index = if nb = 0 then [||] else Array.make (hi - lo + 1) (-1) in
  Array.iteri (fun p (b : Ir.block) -> index.(b.b_id - lo) <- p) blocks;
  let t =
    { words; lo; index; succs = Array.make (2 * nb) (-1); live_in = Array.make (nb * words) 0 }
  in
  let gen = Array.make (nb * words) 0 and kill = Array.make (nb * words) 0 in
  Array.iteri
    (fun p (b : Ir.block) ->
      (match b.b_term with
      | Ir.Tjmp s -> t.succs.(2 * p) <- position t s
      | Ir.Tbr (_, s1, s2) ->
          t.succs.(2 * p) <- position t s1;
          t.succs.((2 * p) + 1) <- position t s2
      | Ir.Tret _ -> ());
      let base = p * words in
      let gen_add r =
        let k = base + (r / bits) in
        gen.(k) <- gen.(k) lor (1 lsl (r mod bits))
      in
      Ir.iter_term_uses gen_add b.b_term;
      iter_back
        (fun i ->
          let d = Ir.def_reg i in
          if d >= 0 then begin
            let k = base + (d / bits) and m = 1 lsl (d mod bits) in
            gen.(k) <- gen.(k) land lnot m;
            kill.(k) <- kill.(k) lor m
          end;
          Ir.iter_reg_uses gen_add i)
        b.b_instrs)
    blocks;
  let live = t.live_in and succs = t.succs in
  let changed = ref true in
  while !changed do
    changed := false;
    for p = nb - 1 downto 0 do
      let s1 = succs.(2 * p) and s2 = succs.((2 * p) + 1) and base = p * words in
      for k = 0 to words - 1 do
        let out =
          (if s1 >= 0 then live.((s1 * words) + k) else 0)
          lor if s2 >= 0 then live.((s2 * words) + k) else 0
        in
        let v = gen.(base + k) lor (out land lnot kill.(base + k)) in
        if v <> live.(base + k) then begin
          live.(base + k) <- v;
          changed := true
        end
      done
    done
  done;
  t

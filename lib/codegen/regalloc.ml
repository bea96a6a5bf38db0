(* Graph-coloring register allocation.

   Virtual registers are colored with the callee-saved machine registers
   r6..r12 (values therefore survive calls without caller-side spills);
   uncolorable registers are assigned stack slots and rewritten through the
   two reserved scratch registers at emission time.  r0..r5 carry arguments
   and the return value, r13/r14 are the spill scratch pair, r15 is the
   stack pointer. *)

module Ir = Mv_ir.Ir
module Liveness = Mv_opt.Liveness

(** Callee-saved machine registers available for coloring.  Values in these
    survive calls, at the cost of a push/pop pair in the prologue. *)
let callee_saved_pool = [ 6; 7; 8; 9; 10; 11; 12 ]

(** Caller-saved registers usable for free in *leaf* functions (no calls to
    clobber them, no save/restore needed).  Registers still holding incoming
    arguments are excluded per function. *)
let caller_saved_pool = [ 1; 2; 3; 4; 5 ]

let max_reg_args = 6

type assignment =
  | Phys of int
  | Slot of int
  | Unused  (** never mentioned in the body (e.g. eliminated by DCE) *)

type t = {
  assign : assignment array;  (** indexed by virtual register *)
  used_callee_saved : int list;  (** sorted machine registers to save *)
  frame_slots : int;
}

let assignment_of t vreg = t.assign.(vreg)

(* ------------------------------------------------------------------ *)
(* Interference graph construction                                     *)
(* ------------------------------------------------------------------ *)

(* Register -> interfering registers.  Adjacency is a bitset; the table's
   insertion order is what breaks degree ties in the coloring order, so
   nodes are registered in a fixed walk order and live sets are visited
   in increasing register order. *)
let build_interference (lv : Liveness.t) (fn : Ir.fn) : (int, Liveness.set) Hashtbl.t =
  let graph : (int, Liveness.set) Hashtbl.t = Hashtbl.create 64 in
  let node r =
    if not (Hashtbl.mem graph r) then Hashtbl.replace graph r (Liveness.create_set lv)
  in
  let edge a b =
    if a <> b then begin
      node a;
      node b;
      Liveness.add (Hashtbl.find graph a) b;
      Liveness.add (Hashtbl.find graph b) a
    end
  in
  let live = Liveness.create_set lv in
  let use r =
    node r;
    Liveness.add live r
  in
  List.iteri
    (fun p (b : Ir.block) ->
      Liveness.live_out lv p live;
      Liveness.iter node live;
      Ir.iter_term_uses use b.b_term;
      Liveness.iter_back
        (fun i ->
          let d = Ir.def_reg i in
          if d >= 0 then begin
            node d;
            (* the def interferes with everything live after it *)
            Liveness.remove live d;
            Liveness.iter (fun r -> edge d r) live
          end;
          Ir.iter_reg_uses use i)
        b.b_instrs)
    fn.fn_blocks;
  (* parameters are all defined simultaneously at entry and must not share *)
  let rec pairs = function
    | [] -> ()
    | p :: rest ->
        List.iter (fun q -> edge p q) rest;
        pairs rest
  in
  pairs fn.fn_params;
  (* parameters also interfere with the live-in of the entry block *)
  (match fn.fn_blocks with
  | _ :: _ ->
      List.iter
        (fun p -> Liveness.iter_live_in lv 0 (fun r -> if r <> p then edge p r))
        fn.fn_params
  | [] -> ());
  graph

(* ------------------------------------------------------------------ *)
(* Greedy coloring with spilling                                       *)
(* ------------------------------------------------------------------ *)

let is_leaf (fn : Ir.fn) =
  List.for_all
    (fun (b : Ir.block) ->
      List.for_all
        (function Ir.Icall _ | Ir.Icallp _ -> false | _ -> true)
        b.b_instrs)
    fn.fn_blocks

let cardinal (s : Liveness.set) =
  let n = ref 0 in
  Liveness.iter (fun _ -> incr n) s;
  !n

let allocate (lv : Liveness.t) (fn : Ir.fn) : t =
  let allocatable =
    if is_leaf fn then
      (* caller-saved first (free), but never a register that still holds an
         incoming argument at entry *)
      let nparams = List.length fn.fn_params in
      List.filter (fun r -> r >= nparams) caller_saved_pool @ callee_saved_pool
    else callee_saved_pool
  in
  let graph = build_interference lv fn in
  let assign = Array.make (max 1 fn.fn_nregs) Unused in
  (* color in order of decreasing degree so constrained nodes go first *)
  let nodes =
    Hashtbl.fold (fun r adj acc -> (r, cardinal adj) :: acc) graph []
    |> List.sort (fun (_, d1) (_, d2) -> compare d2 d1)
    |> List.map fst
  in
  (* machine register per vreg, -1 while uncolored; [used] is the mask of
     machine registers handed out *)
  let color = Array.make (max 1 fn.fn_nregs) (-1) in
  let used = ref 0 in
  let spilled = ref [] in
  List.iter
    (fun r ->
      let taken = ref 0 in
      Liveness.iter
        (fun n -> if color.(n) >= 0 then taken := !taken lor (1 lsl color.(n)))
        (Hashtbl.find graph r);
      match List.find_opt (fun c -> !taken land (1 lsl c) = 0) allocatable with
      | Some c ->
          color.(r) <- c;
          used := !used lor (1 lsl c)
      | None -> spilled := r :: !spilled)
    nodes;
  let slot = ref 0 in
  List.iter
    (fun r ->
      assign.(r) <- Slot !slot;
      incr slot)
    (List.rev !spilled);
  Array.iteri (fun r c -> if c >= 0 then assign.(r) <- Phys c) color;
  let used = List.filter (fun c -> !used land (1 lsl c) <> 0) callee_saved_pool in
  { assign; used_callee_saved = used; frame_slots = !slot }

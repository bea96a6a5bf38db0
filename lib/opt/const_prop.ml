(* Block-local constant and copy propagation with algebraic simplification.
   This is the pass that turns a specialized variant (where configuration
   switch reads have been replaced by constants) into straight-line code:
   propagated constants reach the branch terminators, which [Branch_fold]
   then folds away. *)

module Ir = Mv_ir.Ir

(** Fold a binary operation over constants.  Division and modulo by zero are
    left un-folded so the trap survives to run time. *)
let fold_binop op a b =
  match op with
  | (Ir.Div | Ir.Mod) when b = 0 -> None
  | _ -> Some (Mv_ir.Interp.eval_binop op a b)

let fold_unop = Mv_ir.Interp.eval_unop

(** Algebraic identities on one constant operand. *)
let simplify_binop op a b =
  match op, a, b with
  | Ir.Add, Ir.Imm 0, x | Ir.Add, x, Ir.Imm 0 -> Some (`Op x)
  | Ir.Sub, x, Ir.Imm 0 -> Some (`Op x)
  | Ir.Mul, Ir.Imm 1, x | Ir.Mul, x, Ir.Imm 1 -> Some (`Op x)
  | Ir.Mul, Ir.Imm 0, _ | Ir.Mul, _, Ir.Imm 0 -> Some (`Op (Ir.Imm 0))
  | Ir.Div, x, Ir.Imm 1 -> Some (`Op x)
  | Ir.Band, Ir.Imm 0, _ | Ir.Band, _, Ir.Imm 0 -> Some (`Op (Ir.Imm 0))
  | Ir.Bor, Ir.Imm 0, x | Ir.Bor, x, Ir.Imm 0 -> Some (`Op x)
  | Ir.Bxor, Ir.Imm 0, x | Ir.Bxor, x, Ir.Imm 0 -> Some (`Op x)
  | Ir.Shl, x, Ir.Imm 0 | Ir.Shr, x, Ir.Imm 0 -> Some (`Op x)
  | _ -> None

(* Facts for the block being propagated: [value.(r)] is the operand
   register [r] currently equals, and [held] lists (possibly with repeats)
   the registers given a fact since the block began, so clearing at a
   block end and invalidating touch only those.  One per function. *)
type facts = { value : Ir.operand option array; mutable held : Ir.reg list }

(** Forget all facts about [r] and all facts that mention [r] as a source. *)
let invalidate facts r =
  facts.value.(r) <- None;
  List.iter
    (fun d ->
      match facts.value.(d) with
      | Some (Ir.Reg s) when s = r -> facts.value.(d) <- None
      | Some _ | None -> ())
    facts.held

let known facts = function
  | Ir.Reg r -> Option.is_some facts.value.(r)
  | Ir.Imm _ -> false

(* Does substitution rewrite some operand?  A fact never maps a register
   to itself, so this is exactly "the substituted instruction differs". *)
let rewrites facts = function
  | Ir.Imov (_, a) | Ir.Iun (_, _, a) | Ir.Iload (_, a, _) | Ir.Istoreg (_, a, _) ->
      known facts a
  | Ir.Ibin (_, _, a, b) | Ir.Istore (a, b, _) -> known facts a || known facts b
  | Ir.Icall (_, _, args) | Ir.Icallp (_, _, args) | Ir.Iintr (_, _, args) ->
      List.exists (known facts) args
  | Ir.Iloadg _ | Ir.Iaddr _ | Ir.Isafepoint _ -> false

let subst facts (op : Ir.operand) : Ir.operand =
  match op with
  | Ir.Imm _ -> op
  | Ir.Reg r -> ( match facts.value.(r) with Some v -> v | None -> op)

(** Propagate within one block, leaving [facts] empty.  Returns [true] if
    anything changed. *)
let run_block facts (b : Ir.block) : bool =
  let changed = ref false in
  let rewrite i =
    let i' =
      if rewrites facts i then begin
        changed := true;
        Ir.map_instr_operands (subst facts) i
      end
      else i
    in
    (* compute the new fact produced by the rewritten instruction *)
    let folded =
      match i' with
      | Ir.Ibin (op, d, Ir.Imm a, Ir.Imm b) -> (
          match fold_binop op a b with
          | Some v -> Some (Ir.Imov (d, Ir.Imm v))
          | None -> None)
      | Ir.Ibin (op, d, a, b) -> (
          match simplify_binop op a b with
          | Some (`Op x) -> Some (Ir.Imov (d, x))
          | None -> None)
      | Ir.Iun (op, d, Ir.Imm a) -> Some (Ir.Imov (d, Ir.Imm (fold_unop op a)))
      | _ -> None
    in
    let i' =
      match folded with
      | Some f ->
          changed := true;
          f
      | None -> i'
    in
    let d = Ir.def_reg i' in
    if d >= 0 then begin
      invalidate facts d;
      match i' with
      | Ir.Imov (_, src) when (match src with Ir.Reg s -> s <> d | Ir.Imm _ -> true) ->
          facts.value.(d) <- Some src;
          facts.held <- d :: facts.held
      | _ -> ()
    end;
    i'
  in
  (* rewrite in order, sharing the unchanged tail *)
  let rec go = function
    | [] -> []
    | i :: rest as l ->
        let i' = rewrite i in
        let rest' = go rest in
        if i' == i && rest' == rest then l else i' :: rest'
  in
  let instrs = go b.b_instrs in
  if instrs != b.b_instrs then b.b_instrs <- instrs;
  (* also rewrite the terminator with end-of-block facts *)
  (match b.b_term with
  | Ir.Tbr (c, t, f) when known facts c ->
      b.b_term <- Ir.Tbr (subst facts c, t, f);
      changed := true
  | Ir.Tret (Some v) when known facts v ->
      b.b_term <- Ir.Tret (Some (subst facts v));
      changed := true
  | Ir.Tbr _ | Ir.Tret _ | Ir.Tjmp _ -> ());
  List.iter (fun r -> facts.value.(r) <- None) facts.held;
  facts.held <- [];
  !changed

let run (fn : Ir.fn) : bool =
  let facts = { value = Array.make (max 1 fn.fn_nregs) None; held = [] } in
  List.fold_left (fun acc b -> run_block facts b || acc) false fn.fn_blocks

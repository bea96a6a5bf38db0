(* Liveness-based dead-code elimination over the whole CFG.  Instructions
   whose destination register is dead and which have no side effect are
   removed.  Together with constant propagation this erases the residue of a
   specialized configuration-switch read. *)

module Ir = Mv_ir.Ir

(* A side-effecting instruction whose result is dead keeps its effect but
   drops the destination (e.g. an ignored call return value). *)
let drop_def = function
  | Ir.Icall (Some _, f, args) -> Some (Ir.Icall (None, f, args))
  | Ir.Icallp (Some _, f, args) -> Some (Ir.Icallp (None, f, args))
  | Ir.Iintr (Some _, intr, args) -> Some (Ir.Iintr (None, intr, args))
  | _ -> None

let run (fn : Ir.fn) : bool =
  let lv = Liveness.compute fn in
  let live = Liveness.create_set lv in
  let add_live r = Liveness.add live r in
  let changed = ref false in
  (* walk a block backwards over [live], sharing the unchanged tail *)
  let rec walk = function
    | [] -> []
    | i :: rest as l -> (
        let rest' = walk rest in
        let d = Ir.def_reg i in
        let dead_def = d >= 0 && not (Liveness.mem live d) in
        if (not (Ir.instr_has_side_effect i)) && (dead_def || d < 0) then begin
          changed := true;
          rest'
        end
        else
          let i' = if dead_def then drop_def i else None in
          (match i' with
          | Some _ -> changed := true
          | None -> if d >= 0 then Liveness.remove live d);
          let i = Option.value i' ~default:i in
          Ir.iter_reg_uses add_live i;
          match i' with
          | None when rest' == rest -> l
          | _ -> i :: rest')
  in
  List.iteri
    (fun p (b : Ir.block) ->
      Liveness.live_out lv p live;
      Ir.iter_term_uses add_live b.b_term;
      let instrs = walk b.b_instrs in
      if instrs != b.b_instrs then b.b_instrs <- instrs)
    fn.fn_blocks;
  !changed

(* Three-address intermediate representation with an explicit control-flow
   graph.  This plays the role of GIMPLE in the paper's GCC plugin: multiverse
   variant generation clones IR functions and replaces configuration-switch
   loads ([Iloadg]) by constants before the optimizer runs (Section 3). *)

type reg = int

type operand = Reg of reg | Imm of int

(** Binary operators at the IR level.  Short-circuit [&&]/[||] have been
    lowered to control flow by this point. *)
type binop =
  | Add | Sub | Mul | Div | Mod
  | Band | Bor | Bxor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge

type unop = Neg | Lnot | Bnot

type intrinsic = Minic.Ast.intrinsic

type instr =
  | Imov of reg * operand
  | Iun of unop * reg * operand
  | Ibin of binop * reg * operand * operand
  | Iload of reg * operand * int  (** load [width] bytes from address *)
  | Istore of operand * operand * int  (** [Istore (addr, value, width)] *)
  | Iloadg of reg * string * int  (** load a global by symbol; the
                                      specialization target *)
  | Istoreg of string * operand * int
  | Iaddr of reg * string  (** address of a global or function symbol *)
  | Icall of reg option * string * operand list
  | Icallp of reg option * string * operand list
      (** indirect call through the fn-pointer *global* named by the symbol *)
  | Iintr of reg option * intrinsic * operand list
  | Isafepoint of int
      (** stable OSR safepoint id; inserted after every call in a
          multiversed body {e before} variant cloning, so the generic and
          each clone agree on which program point the id names *)

type terminator =
  | Tjmp of int
  | Tbr of operand * int * int  (** branch if operand <> 0 *)
  | Tret of operand option

type block = { b_id : int; mutable b_instrs : instr list; mutable b_term : terminator }

type calling_convention = Standard | Saveall

type fn = {
  fn_name : string;
  fn_params : reg list;
  mutable fn_blocks : block list;  (** entry block first *)
  mutable fn_nregs : int;
  fn_noinline : bool;
  fn_conv : calling_convention;
  fn_multiverse : bool;
  fn_bind : string list option;  (** partial-specialization restriction *)
}

type global = {
  gl_name : string;
  gl_width : int;  (** element width in bytes *)
  gl_signed : bool;
  gl_count : int;  (** 1 for scalars, [n] for arrays *)
  gl_init : int option;
  gl_fn_init : string option;
  gl_multiverse : bool;
  gl_values : int list option;
  gl_is_fnptr : bool;
  gl_enum_items : int list option;  (** values of the enum type, if any *)
}

(** One translation unit after lowering. *)
type prog = {
  p_globals : global list;
  p_fns : fn list;
  p_extern_fns : (string * bool) list;  (** name, declared multiverse *)
  p_extern_globals : global list;
}

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let entry_block fn =
  match fn.fn_blocks with
  | b :: _ -> b
  | [] -> invalid_arg (fn.fn_name ^ ": function with no blocks")

let find_block fn id =
  match List.find_opt (fun b -> b.b_id = id) fn.fn_blocks with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "%s: no block %d" fn.fn_name id)

let successors = function
  | Tjmp t -> [ t ]
  | Tbr (_, t, f) -> [ t; f ]
  | Tret _ -> []

(** The register an instruction writes, or [-1] when it writes none. *)
let def_reg = function
  | Imov (d, _) | Iun (_, d, _) | Ibin (_, d, _, _) | Iload (d, _, _)
  | Iloadg (d, _, _) | Iaddr (d, _)
  | Icall (Some d, _, _) | Icallp (Some d, _, _) | Iintr (Some d, _, _) -> d
  | Icall (None, _, _) | Icallp (None, _, _) | Iintr (None, _, _)
  | Istore _ | Istoreg _ | Isafepoint _ -> -1

(** Does the instruction have an effect beyond writing its destination
    register?  Such instructions must never be removed by DCE. *)
let instr_has_side_effect = function
  | Istore _ | Istoreg _ | Icall _ | Icallp _ | Iintr _ -> true
  (* a safepoint defines no register, so it must count as side-effecting
     or DCE would delete the pinned program point *)
  | Isafepoint _ -> true
  | Imov _ | Iun _ | Ibin _ | Iload _ | Iloadg _ | Iaddr _ -> false

let map_instr_operands f = function
  | Imov (d, s) -> Imov (d, f s)
  | Iun (op, d, a) -> Iun (op, d, f a)
  | Ibin (op, d, a, b) -> Ibin (op, d, f a, f b)
  | Iload (d, a, w) -> Iload (d, f a, w)
  | Istore (a, v, w) -> Istore (f a, f v, w)
  | Iloadg (d, s, w) -> Iloadg (d, s, w)
  | Istoreg (s, v, w) -> Istoreg (s, f v, w)
  | Iaddr (d, s) -> Iaddr (d, s)
  | Icall (d, s, args) -> Icall (d, s, List.map f args)
  | Icallp (d, s, args) -> Icallp (d, s, List.map f args)
  | Iintr (d, i, args) -> Iintr (d, i, List.map f args)
  | Isafepoint id -> Isafepoint id

let use_operand f = function Reg r -> f r | Imm _ -> ()

(** [f r] for every register an instruction reads, in operand order. *)
let iter_reg_uses f = function
  | Imov (_, a) | Iun (_, _, a) | Iload (_, a, _) | Istoreg (_, a, _) -> use_operand f a
  | Ibin (_, _, a, b) | Istore (a, b, _) ->
      use_operand f a;
      use_operand f b
  | Icall (_, _, args) | Icallp (_, _, args) | Iintr (_, _, args) ->
      List.iter (use_operand f) args
  | Iloadg _ | Iaddr _ | Isafepoint _ -> ()

(** [f r] for the register a terminator reads, if any. *)
let iter_term_uses f = function
  | Tbr (c, _, _) | Tret (Some c) -> use_operand f c
  | Tjmp _ | Tret None -> ()

(** Global and function symbols referenced by a function body (reads, writes,
    address-taking, direct and indirect calls). *)
let referenced_symbols fn =
  let syms = Hashtbl.create 16 in
  let add s = Hashtbl.replace syms s () in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match i with
          | Iloadg (_, s, _) | Istoreg (s, _, _) | Iaddr (_, s)
          | Icall (_, s, _) | Icallp (_, s, _) -> add s
          | Imov _ | Iun _ | Ibin _ | Iload _ | Istore _ | Iintr _
          | Isafepoint _ -> ())
        b.b_instrs)
    fn.fn_blocks;
  Hashtbl.fold (fun s () acc -> s :: acc) syms []

(** Globals whose value is *read* ([Iloadg]) by the function — the set that
    determines the specialization cross product in Section 3. *)
let read_globals fn =
  let syms = Hashtbl.create 16 in
  List.iter
    (fun b ->
      List.iter
        (function
          | Iloadg (_, s, _) -> Hashtbl.replace syms s ()
          | Imov _ | Iun _ | Ibin _ | Iload _ | Istore _ | Istoreg _ | Iaddr _
          | Icall _ | Icallp _ | Iintr _ | Isafepoint _ -> ())
        b.b_instrs)
    fn.fn_blocks;
  Hashtbl.fold (fun s () acc -> s :: acc) syms []

(** Fn-pointer globals called indirectly ([Icallp]) by the function. *)
let called_fnptrs fn =
  let syms = Hashtbl.create 16 in
  List.iter
    (fun b ->
      List.iter
        (function
          | Icallp (_, s, _) -> Hashtbl.replace syms s ()
          | Imov _ | Iun _ | Ibin _ | Iload _ | Istore _ | Iloadg _ | Istoreg _
          | Iaddr _ | Icall _ | Iintr _ | Isafepoint _ -> ())
        b.b_instrs)
    fn.fn_blocks;
  Hashtbl.fold (fun s () acc -> s :: acc) syms []

(* ------------------------------------------------------------------ *)
(* Deep copy (variant generation clones functions before rewriting)    *)
(* ------------------------------------------------------------------ *)

let copy_block b = { b with b_instrs = b.b_instrs }

let copy_fn fn = { fn with fn_blocks = List.map copy_block fn.fn_blocks }

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

let pp_operand fmt = function
  | Reg r -> Format.fprintf fmt "r%d" r
  | Imm n -> Format.fprintf fmt "$%d" n

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Mod -> "mod"
  | Band -> "and" | Bor -> "or" | Bxor -> "xor" | Shl -> "shl" | Shr -> "shr"
  | Eq -> "seteq" | Ne -> "setne" | Lt -> "setlt" | Le -> "setle"
  | Gt -> "setgt" | Ge -> "setge"

let unop_name = function Neg -> "neg" | Lnot -> "lnot" | Bnot -> "bnot"

let pp_instr fmt i =
  let pp_dst fmt = function
    | Some d -> Format.fprintf fmt "r%d = " d
    | None -> ()
  in
  let pp_ops fmt ops =
    Format.pp_print_list
      ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
      pp_operand fmt ops
  in
  match i with
  | Imov (d, s) -> Format.fprintf fmt "r%d = mov %a" d pp_operand s
  | Iun (op, d, a) -> Format.fprintf fmt "r%d = %s %a" d (unop_name op) pp_operand a
  | Ibin (op, d, a, b) ->
      Format.fprintf fmt "r%d = %s %a, %a" d (binop_name op) pp_operand a pp_operand b
  | Iload (d, a, w) -> Format.fprintf fmt "r%d = load%d [%a]" d (w * 8) pp_operand a
  | Istore (a, v, w) -> Format.fprintf fmt "store%d [%a], %a" (w * 8) pp_operand a pp_operand v
  | Iloadg (d, s, w) -> Format.fprintf fmt "r%d = loadg%d @%s" d (w * 8) s
  | Istoreg (s, v, w) -> Format.fprintf fmt "storeg%d @%s, %a" (w * 8) s pp_operand v
  | Iaddr (d, s) -> Format.fprintf fmt "r%d = addr @%s" d s
  | Icall (d, s, args) -> Format.fprintf fmt "%acall @%s(%a)" pp_dst d s pp_ops args
  | Icallp (d, s, args) -> Format.fprintf fmt "%acallp [@%s](%a)" pp_dst d s pp_ops args
  | Iintr (d, intr, args) ->
      Format.fprintf fmt "%aintr %s(%a)" pp_dst d (Minic.Ast.intrinsic_name intr) pp_ops args
  | Isafepoint id -> Format.fprintf fmt "safept %d" id

let pp_terminator fmt = function
  | Tjmp t -> Format.fprintf fmt "jmp .L%d" t
  | Tbr (c, t, f) -> Format.fprintf fmt "br %a, .L%d, .L%d" pp_operand c t f
  | Tret None -> Format.pp_print_string fmt "ret"
  | Tret (Some v) -> Format.fprintf fmt "ret %a" pp_operand v

let pp_fn fmt fn =
  Format.fprintf fmt "@[<v>fn %s(%a):" fn.fn_name
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       (fun fmt r -> Format.fprintf fmt "r%d" r))
    fn.fn_params;
  List.iter
    (fun b ->
      Format.fprintf fmt "@,.L%d:" b.b_id;
      List.iter (fun i -> Format.fprintf fmt "@,  %a" pp_instr i) b.b_instrs;
      Format.fprintf fmt "@,  %a" pp_terminator b.b_term)
    fn.fn_blocks;
  Format.fprintf fmt "@]"

let fn_to_string fn = Format.asprintf "%a" pp_fn fn

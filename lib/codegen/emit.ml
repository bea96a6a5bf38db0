(* Instruction selection and emission: IR functions to encoded machine code.

   The emitter also records the text offset of every call instruction and the
   symbol it targets.  The multiverse descriptor generator turns the sites
   that target multiversed functions (or go through multiversed function
   pointers) into [multiverse.callsites] records — the compiler-provided
   call-site knowledge that distinguishes multiverse from the kernel's ad-hoc
   inline-assembler mechanisms (Section 3). *)

module Ir = Mv_ir.Ir
module Insn = Mv_isa.Insn
module Liveness = Mv_opt.Liveness

exception Error of string

let errf fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

type callsite = { cs_insn_offset : int; cs_callee : string; cs_indirect : bool }

type safepoint = {
  sp_id : int;  (** stable id shared by generic and variant bodies *)
  sp_offset : int;
      (** fragment offset of the poll pc: the end of the call instruction,
          i.e. the return address a polling activation is parked at *)
  sp_live : (int * Regalloc.assignment) list;
      (** every IR vreg live across the safepoint and where its value
          resides (callee-saved register or sp-relative spill slot); the
          call's own result vreg is excluded — its value is still in r0 on
          both sides of a transfer *)
}

type fragment = {
  fr_name : string;
  fr_code : bytes;
  fr_relocs : Objfile.reloc list;  (** offsets relative to the fragment *)
  fr_callsites : callsite list;  (** offsets relative to the fragment *)
  fr_safepoints : safepoint list;  (** in fragment order *)
  fr_frame_bytes : int;  (** spill area size ([sub sp] amount) *)
  fr_saves : int list;  (** machine registers pushed in the prologue, in order *)
}

(* Pre-layout instruction templates: concrete instructions, or placeholders
   whose operand is fixed up after layout (branch targets) or by the linker
   (symbol references). *)
type tmpl =
  | T of Insn.t
  | Tcall_sym of string
  | Tcallp_sym of string
  | Tloadg_sym of int * string * int  (* rd, sym, width *)
  | Tstoreg_sym of string * int * int  (* sym, rs, width *)
  | Tlea_sym of int * string
  | Tjmp_b of int  (* block id *)
  | Tjnz_b of int * int
  | Tjz_b of int * int
  | Tsafepoint of int  (* zero-size marker: records the poll pc *)

let tmpl_size = function
  | T i -> Insn.size i
  | Tsafepoint _ -> 0
  | Tcall_sym _ -> Insn.size (Insn.Call 0)
  | Tcallp_sym _ -> Insn.size (Insn.Call_ind 0)
  | Tloadg_sym _ -> Insn.size (Insn.Loadg (0, 0, 8))
  | Tstoreg_sym _ -> Insn.size (Insn.Storeg (0, 0, 8))
  | Tlea_sym _ -> Insn.size (Insn.Lea (0, 0))
  | Tjmp_b _ -> Insn.size (Insn.Jmp 0)
  | Tjnz_b _ -> Insn.size (Insn.Jnz (0, 0))
  | Tjz_b _ -> Insn.size (Insn.Jz (0, 0))

let alu_of_binop = function
  | Ir.Add -> Insn.Add | Ir.Sub -> Insn.Sub | Ir.Mul -> Insn.Mul
  | Ir.Div -> Insn.Div | Ir.Mod -> Insn.Mod | Ir.Band -> Insn.Band
  | Ir.Bor -> Insn.Bor | Ir.Bxor -> Insn.Bxor | Ir.Shl -> Insn.Shl
  | Ir.Shr -> Insn.Shr | Ir.Eq -> Insn.Eq | Ir.Ne -> Insn.Ne
  | Ir.Lt -> Insn.Lt | Ir.Le -> Insn.Le | Ir.Gt -> Insn.Gt | Ir.Ge -> Insn.Ge

let unop_of_ir = function
  | Ir.Neg -> Insn.Neg
  | Ir.Lnot -> Insn.Lnot
  | Ir.Bnot -> Insn.Bnot

let commutative = function
  | Ir.Add | Ir.Mul | Ir.Band | Ir.Bor | Ir.Bxor | Ir.Eq | Ir.Ne -> true
  | Ir.Sub | Ir.Div | Ir.Mod | Ir.Shl | Ir.Shr | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge -> false

let fits32 v = v >= Int32.to_int Int32.min_int && v <= Int32.to_int Int32.max_int

(* pick the short move-immediate encoding whenever the value fits *)
let mov_imm rd n = if fits32 n then Insn.Mov_ri32 (rd, n) else Insn.Mov_ri (rd, n)

type st = {
  ra : Regalloc.t;
  mutable out : tmpl list;  (* reverse order *)
  frame_bytes : int;
  saves : int list;  (* machine registers pushed in the prologue, in order *)
  pad : string -> int;  (* nop padding after call sites, per callee *)
}

let push st t = st.out <- t :: st.out

let slot_offset (_ : st) s = s * 8

(* Materialize the value of an operand into a machine register.  [scratch]
   is used for spilled registers and immediates. *)
let use st (op : Ir.operand) ~scratch : int =
  match op with
  | Ir.Imm n ->
      push st (T (mov_imm scratch n));
      scratch
  | Ir.Reg v -> (
      match Regalloc.assignment_of st.ra v with
      | Regalloc.Phys p -> p
      | Regalloc.Slot s ->
          push st (T (Insn.Load (scratch, Insn.sp, slot_offset st s, 8)));
          scratch
      | Regalloc.Unused -> errf "use of unallocated register r%d" v)

(* Destination handling: returns the register the result should be computed
   into, and a completion thunk that stores it back if the vreg is spilled. *)
let def st (v : Ir.reg) ~scratch : int * (unit -> unit) =
  match Regalloc.assignment_of st.ra v with
  | Regalloc.Phys p -> (p, fun () -> ())
  | Regalloc.Slot s ->
      (scratch, fun () -> push st (T (Insn.Store (Insn.sp, slot_offset st s, scratch, 8))))
  | Regalloc.Unused ->
      (* dead destination of a side-effecting instruction: discard *)
      (scratch, fun () -> ())

let s0 = Insn.scratch0
let s1 = Insn.scratch1

let emit_epilogue st =
  if st.frame_bytes > 0 then
    push st (T (Insn.Alu_ri (Insn.Add, Insn.sp, Insn.sp, st.frame_bytes)));
  List.iter (fun r -> push st (T (Insn.Pop r))) (List.rev st.saves);
  push st (T Insn.Ret)

let rec emit_instr st (i : Ir.instr) =
  match i with
  | Ir.Imov (d, src) -> (
      match src, Regalloc.assignment_of st.ra d with
      | Ir.Imm _, Regalloc.Unused -> ()
      | Ir.Imm n, Regalloc.Phys p -> push st (T (mov_imm p n))
      | Ir.Imm n, Regalloc.Slot s ->
          push st (T (mov_imm s0 n));
          push st (T (Insn.Store (Insn.sp, slot_offset st s, s0, 8)))
      | Ir.Reg _, _ ->
          let src_reg = use st src ~scratch:s0 in
          let dst, fin = def st d ~scratch:s1 in
          if dst <> src_reg then push st (T (Insn.Mov_rr (dst, src_reg)));
          fin ())
  | Ir.Iun (op, d, a) ->
      let ra = use st a ~scratch:s0 in
      let dst, fin = def st d ~scratch:s1 in
      push st (T (Insn.Un (unop_of_ir op, dst, ra)));
      fin ()
  | Ir.Ibin (op, d, a, b) ->
      let a, b =
        match a, b with
        | Ir.Imm _, Ir.Reg _ when commutative op -> (b, a)
        | _ -> (a, b)
      in
      (match b with
      | Ir.Imm n when fits32 n ->
          let ra = use st a ~scratch:s0 in
          let dst, fin = def st d ~scratch:s1 in
          push st (T (Insn.Alu_ri (alu_of_binop op, dst, ra, n)));
          fin ()
      | _ ->
          let ra = use st a ~scratch:s0 in
          let rb = use st b ~scratch:s1 in
          let dst, fin = def st d ~scratch:s0 in
          push st (T (Insn.Alu (alu_of_binop op, dst, ra, rb)));
          fin ())
  | Ir.Iload (d, addr, w) ->
      let ra = use st addr ~scratch:s0 in
      let dst, fin = def st d ~scratch:s1 in
      push st (T (Insn.Load (dst, ra, 0, w)));
      fin ()
  | Ir.Istore (addr, v, w) ->
      let ra = use st addr ~scratch:s0 in
      let rv = use st v ~scratch:s1 in
      push st (T (Insn.Store (ra, 0, rv, w)))
  | Ir.Iloadg (d, sym, w) ->
      let dst, fin = def st d ~scratch:s0 in
      push st (Tloadg_sym (dst, sym, w));
      fin ()
  | Ir.Istoreg (sym, v, w) ->
      let rv = use st v ~scratch:s0 in
      push st (Tstoreg_sym (sym, rv, w))
  | Ir.Iaddr (d, sym) ->
      let dst, fin = def st d ~scratch:s0 in
      push st (Tlea_sym (dst, sym));
      fin ()
  | Ir.Icall (d, callee, args) -> emit_call st d callee args ~indirect:false ~safepoint:None
  | Ir.Icallp (d, sym, args) -> emit_call st d sym args ~indirect:true ~safepoint:None
  | Ir.Iintr (d, intr, args) -> emit_intrinsic st d intr args
  | Ir.Isafepoint id ->
      (* a safepoint that lost its call (it should be fused by emit_seq);
         still record the program point so the id stays resolvable *)
      push st (Tsafepoint id)

(* The safepoint marker must land exactly at the call's return address —
   before the nop padding and the result move — because that is the pc a
   polling activation is parked at when [Machine.poll_safepoint] fires. *)
and emit_call st d sym args ~indirect ~safepoint =
  emit_args st args;
  push st (if indirect then Tcallp_sym sym else Tcall_sym sym);
  (match safepoint with Some id -> push st (Tsafepoint id) | None -> ());
  for _ = 1 to st.pad sym do
    push st (T Insn.Nop)
  done;
  emit_result st d

and emit_args st args =
  if List.length args > Regalloc.max_reg_args then
    errf "too many call arguments (%d > %d)" (List.length args) Regalloc.max_reg_args;
  List.iteri
    (fun idx arg ->
      match arg with
      | Ir.Imm n -> push st (T (mov_imm idx n))
      | Ir.Reg v -> (
          match Regalloc.assignment_of st.ra v with
          | Regalloc.Phys p -> if p <> idx then push st (T (Insn.Mov_rr (idx, p)))
          | Regalloc.Slot s -> push st (T (Insn.Load (idx, Insn.sp, slot_offset st s, 8)))
          | Regalloc.Unused -> errf "argument uses unallocated register"))
    args

and emit_result st (d : Ir.reg option) =
  match d with
  | None -> ()
  | Some v -> (
      match Regalloc.assignment_of st.ra v with
      | Regalloc.Phys p -> if p <> 0 then push st (T (Insn.Mov_rr (p, 0)))
      | Regalloc.Slot s -> push st (T (Insn.Store (Insn.sp, slot_offset st s, 0, 8)))
      | Regalloc.Unused -> ())

and emit_intrinsic st d (intr : Minic.Ast.intrinsic) args =
  match intr, args with
  | Minic.Ast.Icli, [] -> push st (T Insn.Cli)
  | Minic.Ast.Isti, [] -> push st (T Insn.Sti)
  | Minic.Ast.Ipause, [] -> push st (T Insn.Pause)
  | Minic.Ast.Ifence, [] -> push st (T Insn.Fence)
  | Minic.Ast.Ihalt, [] -> push st (T Insn.Halt)
  | Minic.Ast.Ihypercall, [ Ir.Imm n ] -> push st (T (Insn.Hypercall n))
  | Minic.Ast.Ihypercall, [ Ir.Reg _ ] ->
      errf "__hypercall requires a constant hypercall number"
  | Minic.Ast.Irdtsc, [] -> (
      match d with
      | Some v ->
          let dst, fin = def st v ~scratch:s0 in
          push st (T (Insn.Rdtsc dst));
          fin ()
      | None -> push st (T (Insn.Rdtsc s0)))
  | Minic.Ast.Iatomic_xchg, [ addr; v ] -> (
      let ra = use st addr ~scratch:s0 in
      let rv = use st v ~scratch:s1 in
      match d with
      | Some dst ->
          let dreg, fin = def st dst ~scratch:s0 in
          push st (T (Insn.Xchg (dreg, ra, rv)));
          fin ()
      | None -> push st (T (Insn.Xchg (s0, ra, rv))))
  | _ -> errf "bad intrinsic application of %s" (Minic.Ast.intrinsic_name intr)

(* Instruction walk that fuses an [Icall; Isafepoint] pair so the zero-size
   marker is pushed between the call template and its nop padding. *)
let rec emit_seq st = function
  | [] -> ()
  | Ir.Icall (d, callee, args) :: Ir.Isafepoint id :: rest ->
      emit_call st d callee args ~indirect:false ~safepoint:(Some id);
      emit_seq st rest
  | Ir.Icallp (d, sym, args) :: Ir.Isafepoint id :: rest ->
      emit_call st d sym args ~indirect:true ~safepoint:(Some id);
      emit_seq st rest
  | i :: rest ->
      emit_instr st i;
      emit_seq st rest

let emit_terminator st ~next_block (t : Ir.terminator) =
  match t with
  | Ir.Tjmp target -> if Some target <> next_block then push st (Tjmp_b target)
  | Ir.Tbr (c, bt, bf) ->
      let rc = use st c ~scratch:s0 in
      if Some bf = next_block then push st (Tjnz_b (rc, bt))
      else if Some bt = next_block then push st (Tjz_b (rc, bf))
      else begin
        push st (Tjnz_b (rc, bt));
        push st (Tjmp_b bf)
      end
  | Ir.Tret v ->
      (match v with
      | Some (Ir.Imm n) -> push st (T (mov_imm 0 n))
      | Some (Ir.Reg r) -> (
          match Regalloc.assignment_of st.ra r with
          | Regalloc.Phys p -> if p <> 0 then push st (T (Insn.Mov_rr (0, p)))
          | Regalloc.Slot s -> push st (T (Insn.Load (0, Insn.sp, slot_offset st s, 8)))
          | Regalloc.Unused -> errf "return of unallocated register")
      | None -> ());
      emit_epilogue st

(** Emit one function to a relocatable fragment.

    [call_pad] returns, per callee symbol, a number of [nop] bytes to emit
    immediately after the call instruction.  Padding call sites of
    multiversed functions widens the runtime's inlining budget — the
    "adjusting the sizes of call sites" extension the paper sketches in
    Section 7.1. *)
let emit_fn ?(call_pad = fun (_ : string) -> 0) (fn : Ir.fn) : fragment =
  (* one liveness serves the allocator and the frame maps *)
  let lv = Liveness.compute fn in
  let ra = Regalloc.allocate lv fn in
  let saves =
    match fn.fn_conv with
    | Ir.Saveall ->
        (* the PV-Ops-style custom convention with no volatile registers:
           the callee unconditionally saves the scratch registers of the
           standard convention (r0 excepted, it carries the result), plus
           whatever callee-saved registers it uses *)
        [ 1; 2; 3; 4; 5 ] @ ra.Regalloc.used_callee_saved
    | Ir.Standard -> ra.Regalloc.used_callee_saved
  in
  let st =
    { ra; out = []; frame_bytes = ra.Regalloc.frame_slots * 8; saves; pad = call_pad }
  in
  (* prologue *)
  List.iter (fun r -> push st (T (Insn.Push r))) saves;
  if st.frame_bytes > 0 then
    push st (T (Insn.Alu_ri (Insn.Sub, Insn.sp, Insn.sp, st.frame_bytes)));
  (* move incoming arguments out of r0..r5 *)
  List.iteri
    (fun idx v ->
      if idx >= Regalloc.max_reg_args then errf "%s: too many parameters" fn.fn_name;
      match Regalloc.assignment_of st.ra v with
      | Regalloc.Phys p -> if p <> idx then push st (T (Insn.Mov_rr (p, idx)))
      | Regalloc.Slot s -> push st (T (Insn.Store (Insn.sp, slot_offset st s, idx, 8)))
      | Regalloc.Unused -> (* dead parameter *) ())
    fn.fn_params;
  (* body; block starts are tracked as indices into the template stream *)
  let block_starts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let rec emit_blocks = function
    | [] -> ()
    | (b : Ir.block) :: rest ->
        Hashtbl.replace block_starts b.b_id (List.length st.out);
        emit_seq st b.b_instrs;
        let next_block = match rest with b' :: _ -> Some b'.Ir.b_id | [] -> None in
        emit_terminator st ~next_block b.b_term;
        emit_blocks rest
  in
  emit_blocks fn.fn_blocks;
  let tmpls = Array.of_list (List.rev st.out) in
  (* layout *)
  let offsets = Array.make (Array.length tmpls + 1) 0 in
  Array.iteri (fun i t -> offsets.(i + 1) <- offsets.(i) + tmpl_size t) tmpls;
  let block_offset id =
    match Hashtbl.find_opt block_starts id with
    | Some tmpl_index -> offsets.(tmpl_index)
    | None -> errf "%s: branch to unknown block %d" fn.fn_name id
  in
  (* Per-safepoint live-across sets: for each [Isafepoint id], the IR vregs
     live immediately after it, by a backward walk from each block's
     live-out.  The fused call's result vreg is excluded — at the recorded
     pc its value is still in r0 on both sides of a transfer, not yet in
     its home location. *)
  let sp_live_of =
    let live = Liveness.create_set lv in
    let add_live r = Liveness.add live r in
    let tbl : (int, Ir.reg list) Hashtbl.t = Hashtbl.create 8 in
    List.iteri
      (fun p (b : Ir.block) ->
        Liveness.live_out lv p live;
        Ir.iter_term_uses add_live b.b_term;
        let pending_sp = ref None in
        Liveness.iter_back
          (fun i ->
            (match i with
            | Ir.Isafepoint id ->
                Hashtbl.replace tbl id (Liveness.elements live);
                pending_sp := Some id
            | Ir.Icall (d, _, _) | Ir.Icallp (d, _, _) ->
                (match !pending_sp, d with
                | Some id, Some d ->
                    Hashtbl.replace tbl id
                      (List.filter (fun r -> r <> d) (Liveness.elements live))
                | _ -> ());
                pending_sp := None
            | _ -> pending_sp := None);
            let d = Ir.def_reg i in
            if d >= 0 then Liveness.remove live d;
            Ir.iter_reg_uses add_live i)
          b.b_instrs)
      fn.fn_blocks;
    fun id ->
      match Hashtbl.find_opt tbl id with
      | None -> []
      | Some regs ->
          List.filter_map
            (fun v ->
              match Regalloc.assignment_of ra v with
              | Regalloc.Unused -> None
              | a -> Some (v, a))
            regs
  in
  (* resolve *)
  let relocs = ref [] and callsites = ref [] and safepoints = ref [] in
  let code = Buffer.create 128 in
  Array.iteri
    (fun i t ->
      let off = offsets.(i) in
      let add_reloc kind field_off sym addend =
        relocs :=
          { Objfile.r_section = Objfile.Text; r_offset = field_off; r_kind = kind;
            r_sym = sym; r_addend = addend }
          :: !relocs
      in
      match t with
      | Tsafepoint id ->
          (* zero-size: contributes no bytes, only a frame-map record *)
          safepoints :=
            { sp_id = id; sp_offset = off; sp_live = sp_live_of id } :: !safepoints
      | _ ->
          let insn =
            match t with
            | T insn -> insn
            | Tsafepoint _ -> assert false
            | Tcall_sym sym ->
                add_reloc Objfile.Rel32 (off + 1) sym (-4);
                callsites := { cs_insn_offset = off; cs_callee = sym; cs_indirect = false } :: !callsites;
                Insn.Call 0
            | Tcallp_sym sym ->
                add_reloc Objfile.Abs32 (off + 1) sym 0;
                callsites := { cs_insn_offset = off; cs_callee = sym; cs_indirect = true } :: !callsites;
                Insn.Call_ind 0
            | Tloadg_sym (rd, sym, w) ->
                add_reloc Objfile.Abs32 (off + 2) sym 0;
                Insn.Loadg (rd, 0, w)
            | Tstoreg_sym (sym, rs, w) ->
                add_reloc Objfile.Abs32 (off + 1) sym 0;
                Insn.Storeg (0, rs, w)
            | Tlea_sym (rd, sym) ->
                add_reloc Objfile.Abs64 (off + 2) sym 0;
                Insn.Lea (rd, 0)
            | Tjmp_b b -> Insn.Jmp (block_offset b - (off + Insn.size (Insn.Jmp 0)))
            | Tjnz_b (r, b) -> Insn.Jnz (r, block_offset b - (off + Insn.size (Insn.Jnz (0, 0))))
            | Tjz_b (r, b) -> Insn.Jz (r, block_offset b - (off + Insn.size (Insn.Jz (0, 0))))
          in
          Buffer.add_bytes code (Mv_isa.Encode.encode insn))
    tmpls;
  {
    fr_name = fn.fn_name;
    fr_code = Buffer.to_bytes code;
    fr_relocs = List.rev !relocs;
    fr_callsites = List.rev !callsites;
    fr_safepoints = List.rev !safepoints;
    fr_frame_bytes = st.frame_bytes;
    fr_saves = saves;
  }

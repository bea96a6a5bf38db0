(* Structural equality of function bodies up to block order and register
   naming.  The variant generator uses this to merge clones that became
   identical after optimization — in Figure 2 of the paper, the bodies for
   A=0,B=0 and A=0,B=1 merge into the single variant "multi.A=0.B=01". *)

module Ir = Mv_ir.Ir

(** Canonical printable form of a function body: blocks in reverse-postorder
    from the entry, block ids replaced by their RPO index, and registers
    renamed in order of first occurrence (parameters first). *)
let canonical_form (fn : Ir.fn) : string =
  let blocks = Hashtbl.create 16 in
  List.iter (fun (b : Ir.block) -> Hashtbl.replace blocks b.Ir.b_id b) fn.fn_blocks;
  (* reverse postorder *)
  let visited = Hashtbl.create 16 in
  let post = ref [] in
  let rec dfs id =
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.replace visited id ();
      (match Hashtbl.find_opt blocks id with
      | Some b -> List.iter dfs (Ir.successors b.b_term)
      | None -> ());
      post := id :: !post
    end
  in
  (match fn.fn_blocks with b :: _ -> dfs b.b_id | [] -> ());
  let rpo = !post in
  let block_index = Hashtbl.create 16 in
  List.iteri (fun i id -> Hashtbl.replace block_index id i) rpo;
  (* register renaming *)
  let reg_index = Hashtbl.create 16 in
  let next = ref 0 in
  let canon_reg r =
    match Hashtbl.find_opt reg_index r with
    | Some i -> i
    | None ->
        let i = !next in
        incr next;
        Hashtbl.replace reg_index r i;
        i
  in
  List.iter (fun r -> ignore (canon_reg r)) fn.fn_params;
  let buf = Buffer.create 256 in
  let str = Buffer.add_string buf and chr = Buffer.add_char buf in
  let int n = str (string_of_int n) in
  let reg r =
    chr 'r';
    int (canon_reg r)
  in
  let operand = function
    | Ir.Reg r -> reg r
    | Ir.Imm n ->
        chr '$';
        int n
  in
  let block_ref id =
    match Hashtbl.find_opt block_index id with
    | Some i ->
        chr 'L';
        int i
    | None ->
        str "L?";
        int id
  in
  (* " name[ rD]" for an instruction whose destination is optional *)
  let head name d =
    str name;
    Option.iter
      (fun d ->
        chr ' ';
        reg d)
      d
  in
  let args l =
    chr '(';
    List.iteri
      (fun k a ->
        if k > 0 then chr ',';
        operand a)
      l;
    chr ')'
  in
  (* Registers are numbered in the order the former [Printf]-based
     printer evaluated them: operands right to left, call arguments left
     to right, then the destination.  Structural hashes (the variant
     cache's dedup keys) digest this text, so the order is part of it. *)
  let number_op = function Ir.Reg r -> ignore (canon_reg r) | Ir.Imm _ -> () in
  let number = function
    | Ir.Imov (d, a) | Ir.Iun (_, d, a) | Ir.Iload (d, a, _) ->
        number_op a;
        ignore (canon_reg d)
    | Ir.Ibin (_, d, a, b) ->
        number_op b;
        number_op a;
        ignore (canon_reg d)
    | Ir.Istore (a, v, _) ->
        number_op v;
        number_op a
    | Ir.Istoreg (_, v, _) -> number_op v
    | Ir.Iloadg (d, _, _) | Ir.Iaddr (d, _) -> ignore (canon_reg d)
    | Ir.Icall (d, _, l) | Ir.Icallp (d, _, l) | Ir.Iintr (d, _, l) ->
        List.iter number_op l;
        Option.iter (fun d -> ignore (canon_reg d)) d
    | Ir.Isafepoint _ -> ()
  in
  List.iter
    (fun id ->
      match Hashtbl.find_opt blocks id with
      | None -> ()
      | Some b ->
          block_ref id;
          str ":\n";
          List.iter
            (fun i ->
              number i;
              (match i with
              | Ir.Imov (d, s) ->
                  str " mov ";
                  reg d;
                  chr ',';
                  operand s
              | Ir.Iun (op, d, a) ->
                  chr ' ';
                  str (Ir.unop_name op);
                  chr ' ';
                  reg d;
                  chr ',';
                  operand a
              | Ir.Ibin (op, d, a, b') ->
                  chr ' ';
                  str (Ir.binop_name op);
                  chr ' ';
                  reg d;
                  chr ',';
                  operand a;
                  chr ',';
                  operand b'
              | Ir.Iload (d, a, w) ->
                  str " ld";
                  int w;
                  chr ' ';
                  reg d;
                  chr ',';
                  operand a
              | Ir.Istore (a, v, w) ->
                  str " st";
                  int w;
                  chr ' ';
                  operand a;
                  chr ',';
                  operand v
              | Ir.Iloadg (d, s, w) ->
                  str " ldg";
                  int w;
                  chr ' ';
                  reg d;
                  str ",@";
                  str s
              | Ir.Istoreg (s, v, w) ->
                  str " stg";
                  int w;
                  str " @";
                  str s;
                  chr ',';
                  operand v
              | Ir.Iaddr (d, s) ->
                  str " addr ";
                  reg d;
                  str ",@";
                  str s
              | Ir.Icall (d, s, l) ->
                  head " call" d;
                  str " @";
                  str s;
                  args l
              | Ir.Icallp (d, s, l) ->
                  head " callp" d;
                  str " [@";
                  str s;
                  chr ']';
                  args l
              | Ir.Iintr (d, intr, l) ->
                  head " intr" d;
                  chr ' ';
                  str (Minic.Ast.intrinsic_name intr);
                  args l
              (* ids are inserted before cloning, so structurally equal
                 clones carry identical ids and still merge *)
              | Ir.Isafepoint id ->
                  str " safept ";
                  int id);
              chr '\n')
            b.b_instrs;
          (match b.b_term with
          | Ir.Tjmp t ->
              str " jmp ";
              block_ref t
          | Ir.Tbr (c, t, f) ->
              str " br ";
              operand c;
              chr ',';
              block_ref t;
              chr ',';
              block_ref f
          | Ir.Tret None -> str " ret"
          | Ir.Tret (Some v) ->
              str " ret ";
              operand v);
          chr '\n')
    rpo;
  Buffer.contents buf

let equal_bodies a b = String.equal (canonical_form a) (canonical_form b)

let body_hash fn = Hashtbl.hash (canonical_form fn)

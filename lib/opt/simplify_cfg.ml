(* Control-flow graph cleanup:
   - removal of blocks unreachable from the entry,
   - skipping of empty forwarding blocks (no instructions, unconditional jump),
   - merging of a block into its unique predecessor when that predecessor
     jumps unconditionally to it.
   The entry block always keeps its position at the head of the list. *)

module Ir = Mv_ir.Ir

(* One block index per [run]: block ids are small dense ints, so blocks
   are found by [id - lo] in an array (the last block with an id wins),
   with one byte of flags per id.  The passes below only drop
   blocks that no remaining block jumps to, so the index built at the
   start stays valid for every lookup of the run. *)
type index = { lo : int; slots : Ir.block option array; flags : Bytes.t }

let index (fn : Ir.fn) =
  let lo = List.fold_left (fun m (b : Ir.block) -> min m b.b_id) max_int fn.fn_blocks in
  let hi = List.fold_left (fun m (b : Ir.block) -> max m b.b_id) min_int fn.fn_blocks in
  let n = match fn.fn_blocks with [] -> 0 | _ :: _ -> hi - lo + 1 in
  let slots = Array.make n None in
  List.iter (fun (b : Ir.block) -> slots.(b.b_id - lo) <- Some b) fn.fn_blocks;
  { lo; slots; flags = Bytes.make n '\000' }

(* Slot of [id] in the index, or -1 when it is out of range. *)
let slot ix id =
  let k = id - ix.lo in
  if k >= 0 && k < Array.length ix.slots then k else -1

let clear_flags ix = Bytes.fill ix.flags 0 (Bytes.length ix.flags) '\000'
let flagged ix k = Bytes.get ix.flags k <> '\000'
let flag ix k = Bytes.set ix.flags k '\001'

(* Flags exactly the blocks reachable from the entry. *)
let mark_reachable ix (fn : Ir.fn) =
  clear_flags ix;
  let rec visit id =
    let k = slot ix id in
    if k < 0 || not (flagged ix k) then begin
      if k >= 0 then flag ix k;
      match if k >= 0 then ix.slots.(k) else None with
      | Some b -> (
          match b.b_term with
          | Ir.Tjmp t -> visit t
          | Ir.Tbr (_, t, f) ->
              visit t;
              visit f
          | Ir.Tret _ -> ())
      | None -> invalid_arg (Printf.sprintf "%s: missing block %d" fn.fn_name id)
    end
  in
  match fn.fn_blocks with
  | entry :: _ -> visit entry.b_id
  | [] -> ()

let remove_unreachable ix (fn : Ir.fn) : bool =
  mark_reachable ix fn;
  let reached (b : Ir.block) = flagged ix (slot ix b.b_id) in
  if List.for_all reached fn.fn_blocks then false
  else begin
    fn.fn_blocks <- List.filter reached fn.fn_blocks;
    true
  end

(** Retarget jumps through empty blocks that only forward to another block. *)
let skip_empty ix (fn : Ir.fn) : bool =
  let changed = ref false in
  (* [forward.(k)] is the target of the forwarding block in slot [k] when
     that slot is flagged *)
  clear_flags ix;
  let forward = Array.make (Array.length ix.slots) 0 in
  (match fn.fn_blocks with
  | _entry :: rest ->
      List.iter
        (fun (b : Ir.block) ->
          match b.b_instrs, b.b_term with
          | [], Ir.Tjmp t when t <> b.b_id ->
              let k = slot ix b.b_id in
              flag ix k;
              forward.(k) <- t
          | _ -> ())
        rest
  | [] -> ());
  (* resolve chains, guarding against cycles of empty blocks *)
  let rec resolve fuel id =
    let k = slot ix id in
    if fuel = 0 || k < 0 || not (flagged ix k) then id else resolve (fuel - 1) forward.(k)
  in
  let retarget t =
    let t' = resolve 64 t in
    if t' <> t then changed := true;
    t'
  in
  List.iter
    (fun (b : Ir.block) ->
      match b.b_term with
      | Ir.Tjmp t ->
          let t' = retarget t in
          if t' <> t then b.b_term <- Ir.Tjmp t'
      | Ir.Tbr (c, t, f) ->
          let t' = retarget t in
          let f' = retarget f in
          if t' <> t || f' <> f then b.b_term <- Ir.Tbr (c, t', f')
      | Ir.Tret _ -> ())
    fn.fn_blocks;
  !changed

(** Merge [b -> succ] pairs where [b] ends in [Tjmp succ] and [succ] has no
    other predecessor (and is not the entry block). *)
let merge_straight_line ix (fn : Ir.fn) : bool =
  let changed = ref false in
  let pred_count = Array.make (Array.length ix.slots) 0 in
  let bump id =
    let k = slot ix id in
    if k >= 0 then pred_count.(k) <- pred_count.(k) + 1
  in
  List.iter
    (fun (b : Ir.block) ->
      match b.b_term with
      | Ir.Tjmp t -> bump t
      | Ir.Tbr (_, t, f) ->
          bump t;
          bump f
      | Ir.Tret _ -> ())
    fn.fn_blocks;
  let entry_id = match fn.fn_blocks with b :: _ -> b.b_id | [] -> -1 in
  (* flags mark merged-away blocks *)
  clear_flags ix;
  List.iter
    (fun (b : Ir.block) ->
      if not (flagged ix (slot ix b.b_id)) then begin
        let rec absorb () =
          match b.b_term with
          | Ir.Tjmp t when t <> b.b_id && t <> entry_id -> (
              let k = slot ix t in
              if k >= 0 && pred_count.(k) = 1 && not (flagged ix k) then
                match ix.slots.(k) with
                | Some succ ->
                    b.b_instrs <- b.b_instrs @ succ.b_instrs;
                    b.b_term <- succ.b_term;
                    flag ix k;
                    changed := true;
                    absorb ()
                | None -> ())
          | _ -> ()
        in
        absorb ()
      end)
    fn.fn_blocks;
  if !changed then
    fn.fn_blocks <-
      List.filter (fun (b : Ir.block) -> not (flagged ix (slot ix b.b_id))) fn.fn_blocks;
  !changed

let run (fn : Ir.fn) : bool =
  let ix = index fn in
  let c1 = skip_empty ix fn in
  let c2 = remove_unreachable ix fn in
  let c3 = merge_straight_line ix fn in
  let c4 = remove_unreachable ix fn in
  c1 || c2 || c3 || c4

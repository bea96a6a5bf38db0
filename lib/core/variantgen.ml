(* Ahead-of-time variant generation (Section 3 of the paper).

   For every function marked [multiverse], the generator:
   1. collects the configuration switches the function *reads* (restricted
      by an optional [bind(..)] attribute — partial specialization);
   2. builds the cross product of their specialization domains;
   3. clones the IR body once per assignment and replaces each switch read
      by the assigned constant — *before* optimization, so constant
      propagation, branch folding and dead-code elimination specialize the
      clone perfectly;
   4. merges clones whose bodies are structurally equal after optimization
      and derives range guards that cover the merged assignments (the
      "multi.A=0.B=01" case of Figure 2).

   The generic body is never inlined (the lowering marks multiversed
   functions noinline) and remains the fallback for out-of-domain values. *)

module Ir = Mv_ir.Ir

type variant = {
  v_symbol : string;
  v_fn : Ir.fn;
  v_guards : Guard.t list;  (** one descriptor record per box *)
  v_assignments : (string * int) list list;
}

type mv_function = {
  mf_name : string;
  mf_switches : string list;  (** bound switches, sorted by name *)
  mf_variants : variant list;
}

(** Everything the runtime needs to specialize one multiversed function
    on demand: the safepointed but unoptimized generic body and the bound
    switches with their domains. *)
type recipe = {
  rc_name : string;
  rc_body : Ir.fn;
  rc_switches : (string * int list) list;  (** sorted by name *)
}

type result = {
  r_prog : Ir.prog;  (** input program with variant functions appended *)
  r_functions : mv_function list;
  r_recipes : recipe list;  (** lazy mode only; [[]] under eager generation *)
  r_warnings : string list;
}

(** Cap on the assignment cross product per function; beyond it we keep only
    the generic variant and warn (the paper's answer to variant explosion is
    explicit developer control via [values(..)] and [bind(..)],
    Section 7.1). *)
let default_max_variants = 128

let switch_globals (prog : Ir.prog) : (string * Ir.global) list =
  List.filter_map
    (fun (g : Ir.global) -> if g.gl_multiverse then Some (g.gl_name, g) else None)
    (prog.p_globals @ prog.p_extern_globals)

(* ------------------------------------------------------------------ *)
(* Specialization                                                      *)
(* ------------------------------------------------------------------ *)

(** Insert one stable OSR safepoint id after every call.  Ids are assigned
    {e before} cloning so the generic body and every clone agree on which
    program point each id names — the descriptor frame maps and the
    runtime's transfer engine are keyed by them.  A clone may lose some ids
    to dead-code elimination; the transfer engine treats a missing target
    id as "stay deferred". *)
let insert_safepoints (fn : Ir.fn) : unit =
  let next = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      b.b_instrs <-
        List.concat_map
          (fun i ->
            match i with
            | Ir.Icall _ | Ir.Icallp _ ->
                let id = !next in
                incr next;
                [ i; Ir.Isafepoint id ]
            | _ -> [ i ])
          b.b_instrs)
    fn.fn_blocks

(** Replace every read of [switches] (an assignment) with its constant. *)
let bind_switches (fn : Ir.fn) (assignment : (string * int) list) : unit =
  List.iter
    (fun (b : Ir.block) ->
      b.b_instrs <-
        List.map
          (fun i ->
            match i with
            | Ir.Iloadg (d, sym, _) -> (
                match List.assoc_opt sym assignment with
                | Some v -> Ir.Imov (d, Ir.Imm v)
                | None -> i)
            | _ -> i)
          b.b_instrs)
    fn.fn_blocks

let value_token values =
  if List.for_all (fun v -> v >= 0 && v <= 9) values then
    String.concat "" (List.map string_of_int values)
  else String.concat "," (List.map string_of_int values)

(** Symbol name for a (possibly merged) variant: "fn.A=1.B=01".  The
    per-switch value sets name a merged variant only when its assignments
    are their full product; otherwise two disjoint merges can share the
    sets ([{A=0,B=0 | A=1,B=1}] and [{A=0,B=1 | A=1,B=0}]), so the name
    gains the sorted assignment list over the switches that vary:
    "fn.A=01.B=01@00_11". *)
let variant_symbol fn_name (switches : string list) (assignments : (string * int) list list) =
  let per_var = Guard.values_per_var assignments in
  let values var = Option.value ~default:[] (Guard.Smap.find_opt var per_var) in
  let parts = List.map (fun var -> Printf.sprintf "%s=%s" var (value_token (values var))) switches in
  let name = String.concat "." (fn_name :: parts) in
  let varying = List.filter (fun var -> List.length (values var) > 1) switches in
  let tuples =
    List.sort_uniq compare
      (List.map
         (fun a -> List.map (fun var -> Option.value ~default:0 (List.assoc_opt var a)) varying)
         assignments)
  in
  let product = List.fold_left (fun n var -> n * List.length (values var)) 1 varying in
  if List.length tuples = product then name
  else name ^ "@" ^ String.concat "_" (List.map value_token tuples)

let specialize_one (fn : Ir.fn) (assignment : (string * int) list) : Ir.fn =
  let clone = Ir.copy_fn fn in
  let clone = { clone with Ir.fn_multiverse = false; fn_bind = None } in
  bind_switches clone assignment;
  Mv_opt.Pass.optimize_fn clone;
  clone

(** Structural hash of a function body: hex digest of the canonical form
    (blocks in RPO, registers renamed by first occurrence), so equal
    bodies collide across functions and the value is stable across runs —
    no physical equality or address dependence anywhere. *)
let structural_hash (fn : Ir.fn) : string =
  Digest.to_hex (Digest.string (Mv_opt.Merge.canonical_form fn))

(** The switches [fn] reads (restricted by [bind(..)]) together with
    their specialization domains, sorted by name; function-pointer
    switches are dropped with a warning (bound at commit time). *)
let bound_domains (switches : (string * Ir.global) list) (fn : Ir.fn) :
    (string * int list) list * string list =
  let warnings = ref [] in
  let read = Ir.read_globals fn in
  let bound =
    List.filter
      (fun (name, _) ->
        List.mem name read
        &&
        match fn.fn_bind with
        | Some allowed -> List.mem name allowed
        | None -> true)
      switches
  in
  let bound =
    List.filter
      (fun ((name, g) : string * Ir.global) ->
        match Domain.of_global g with
        | Domain.Values _ -> true
        | Domain.Fnptr ->
            warnings :=
              Printf.sprintf
                "%s: function-pointer switch %s is bound at commit time, not specialized"
                fn.fn_name name
              :: !warnings;
            false)
      bound
  in
  let bound = List.sort (fun (a, _) (b, _) -> compare a b) bound in
  let domains =
    List.map
      (fun ((name, g) : string * Ir.global) ->
        match Domain.of_global g with
        | Domain.Values vs -> (name, vs)
        | Domain.Fnptr -> assert false)
      bound
  in
  (domains, List.rev !warnings)

(** Specialize one recipe for one point assignment (first-commit
    materialization).  The caller guarantees the assignment covers
    exactly [rc_switches]. *)
let specialize_recipe (r : recipe) (assignment : (string * int) list) : variant =
  let clone = specialize_one r.rc_body assignment in
  let names = List.map fst r.rc_switches in
  let symbol = variant_symbol r.rc_name names [ assignment ] in
  {
    v_symbol = symbol;
    v_fn = { clone with Ir.fn_name = symbol };
    v_guards = Guard.boxes_of_assignments [ assignment ];
    v_assignments = [ assignment ];
  }

(** Generate variants for one multiversed function. *)
let generate_for_fn ~max_variants (switches : (string * Ir.global) list) (fn : Ir.fn) :
    mv_function * Ir.fn list * string list =
  let domains, dwarnings = bound_domains switches fn in
  let warnings = ref (List.rev dwarnings) in
  let names = List.map fst domains in
  if domains = [] then
    ({ mf_name = fn.fn_name; mf_switches = []; mf_variants = [] }, [], !warnings)
  else if Domain.cross_product_size domains > max_variants then begin
    warnings :=
      Printf.sprintf
        "%s: cross product of %d assignments exceeds the cap of %d; only the generic variant is kept (constrain the domains with values(..) or bind(..))"
        fn.fn_name
        (Domain.cross_product_size domains)
        max_variants
      :: !warnings;
    ({ mf_name = fn.fn_name; mf_switches = names; mf_variants = [] }, [], !warnings)
  end
  else begin
    let assignments = Domain.cross_product domains in
    let specialized =
      List.map (fun assignment -> (assignment, specialize_one fn assignment)) assignments
    in
    (* merge structurally equal bodies, keeping assignment order stable *)
    let groups : (string, (string * int) list list ref * Ir.fn) Hashtbl.t =
      Hashtbl.create 8
    in
    let order = ref [] in
    List.iter
      (fun (assignment, clone) ->
        let key = Mv_opt.Merge.canonical_form clone in
        match Hashtbl.find_opt groups key with
        | Some (assignments_ref, _) -> assignments_ref := assignment :: !assignments_ref
        | None ->
            Hashtbl.replace groups key (ref [ assignment ], clone);
            order := key :: !order)
      specialized;
    let variants =
      List.rev_map
        (fun key ->
          let assignments_ref, clone = Hashtbl.find groups key in
          let assignments = List.rev !assignments_ref in
          let symbol = variant_symbol fn.fn_name names assignments in
          let fn = { clone with Ir.fn_name = symbol } in
          {
            v_symbol = symbol;
            v_fn = fn;
            v_guards = Guard.boxes_of_assignments assignments;
            v_assignments = assignments;
          })
        !order
    in
    ( { mf_name = fn.fn_name; mf_switches = names; mf_variants = variants },
      List.map (fun v -> v.v_fn) variants,
      !warnings )
  end

(** Run variant generation over a whole translation unit.  The generic
    functions are optimized in place; variant functions are appended to the
    program so they are emitted like ordinary code.

    With [lazy_variants] the cross product is never expanded: no variant
    functions are generated or appended, and instead each multiversed
    function yields a {!recipe} — a clone of its safepointed,
    {e unoptimized} body plus the bound switch domains — from which the
    runtime materializes single-assignment variants on first commit.  The
    per-function descriptor records are emitted with zero variants. *)
let generate ?(max_variants = default_max_variants) ?(lazy_variants = false)
    (prog : Ir.prog) : result =
  let switches = switch_globals prog in
  let warnings = ref [] in
  let mv_functions = ref [] in
  let recipes = ref [] in
  let new_fns = ref [] in
  List.iter
    (fun (fn : Ir.fn) ->
      if fn.fn_multiverse then begin
        insert_safepoints fn;
        if lazy_variants then begin
          (* clone before the in-place optimization below: specialization
             must bind switch reads before constant propagation sees them *)
          let pristine = Ir.copy_fn fn in
          let domains, w = bound_domains switches fn in
          mv_functions :=
            { mf_name = fn.fn_name; mf_switches = List.map fst domains;
              mf_variants = [] }
            :: !mv_functions;
          if domains <> [] then
            recipes :=
              { rc_name = fn.fn_name; rc_body = pristine; rc_switches = domains }
              :: !recipes;
          warnings := List.rev_append w !warnings
        end
        else begin
          let mf, variants, w = generate_for_fn ~max_variants switches fn in
          mv_functions := mf :: !mv_functions;
          new_fns := List.rev_append variants !new_fns;
          warnings := List.rev_append w !warnings
        end
      end)
    prog.p_fns;
  (* optimize the generic functions too — all passes except inlining apply
     to multiversed functions (Section 7.1), and we have no inliner at all *)
  List.iter Mv_opt.Pass.optimize_fn prog.p_fns;
  let prog = { prog with Ir.p_fns = prog.p_fns @ List.rev !new_fns } in
  {
    r_prog = prog;
    r_functions = List.rev !mv_functions;
    r_recipes = List.rev !recipes;
    r_warnings = List.rev !warnings;
  }

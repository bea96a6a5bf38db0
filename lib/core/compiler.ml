(* The whole-pipeline driver: Mini-C source text to a patched-ready image.

   Per translation unit:
     parse -> typecheck -> lower -> variant generation -> optimize ->
     emit machine code -> assemble an object with data, text, and the three
     multiverse descriptor sections.
   Then the units are linked into one image, which [Runtime.create] can
   attach to.

   Separate compilation follows the paper's rule (Section 5): the
   [multiverse] attribute must be present on the *declaration* visible in
   each unit (the "header"), so the compiler knows at every occurrence that
   a symbol is multiversed. *)

module Ast = Minic.Ast
module Ir = Mv_ir.Ir
module Objfile = Mv_codegen.Objfile
module Emit = Mv_codegen.Emit
module Image = Mv_link.Image

exception Compile_error of string

let errf fmt = Format.kasprintf (fun m -> raise (Compile_error m)) fmt

type unit_input = { u_name : string; u_source : string }

type compiled_unit = {
  cu_name : string;
  cu_obj : Objfile.t;
  cu_prog : Ir.prog;  (** after variant generation and optimization *)
  cu_mv : Variantgen.mv_function list;
  cu_recipes : Variantgen.recipe list;  (** lazy builds only *)
  cu_lazy : bool;  (** compiled with [~lazy_variants] *)
  cu_call_pad : string -> int;  (** the unit's call-site padding rule *)
  cu_warnings : string list;
}

type program = {
  p_image : Image.t;
  p_units : compiled_unit list;
}

(* ------------------------------------------------------------------ *)
(* Data section                                                        *)
(* ------------------------------------------------------------------ *)

let emit_global (obj : Objfile.t) (g : Ir.global) : unit =
  let size = max 8 (g.gl_width * g.gl_count) in
  let size = (size + 7) / 8 * 8 in
  let b = Bytes.make size '\000' in
  (match g.gl_init with
  | Some v -> Bytes.set_int64_le b 0 (Int64.of_int v)
  | None -> ());
  let off = Objfile.append obj Objfile.Data b in
  Objfile.add_symbol obj
    { Objfile.s_name = g.gl_name; s_section = Objfile.Data; s_offset = off; s_size = size };
  match g.gl_fn_init with
  | Some f ->
      Objfile.add_reloc obj
        { Objfile.r_section = Objfile.Data; r_offset = off; r_kind = Objfile.Abs64;
          r_sym = f; r_addend = 0 }
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Per-unit compilation                                                *)
(* ------------------------------------------------------------------ *)

let compile_unit ?(max_variants = Variantgen.default_max_variants)
    ?(callsite_padding = 0) ?(lazy_variants = false) { u_name; u_source } :
    compiled_unit =
  if callsite_padding < 0 || callsite_padding > 10 then
    errf "%s: callsite_padding must be in 0..10" u_name;
  let tu, env, diags =
    try Minic.Typecheck.check_string u_source with
    | Minic.Lexer.Error (m, loc) ->
        errf "%s:%a: lexical error: %s" u_name Ast.pp_loc loc m
    | Minic.Parser.Error (m, loc) ->
        errf "%s:%a: parse error: %s" u_name Ast.pp_loc loc m
    | Minic.Typecheck.Error (m, loc) -> errf "%s:%a: error: %s" u_name Ast.pp_loc loc m
  in
  let prog = Mv_ir.Lower.lower_tunit tu env in
  let { Variantgen.r_prog = prog; r_functions = mv_fns; r_recipes; r_warnings } =
    Variantgen.generate ~max_variants ~lazy_variants prog
  in
  let obj = Objfile.create u_name in
  (* padded call sites (Section 7.1 extension): nop-pad calls to multiverse
     symbols so the runtime can inline bodies larger than a bare call *)
  let mv_symbols =
    List.filter_map
      (fun (fn : Ir.fn) -> if fn.Ir.fn_multiverse then Some fn.fn_name else None)
      prog.Ir.p_fns
    @ List.filter_map (fun (name, mv) -> if mv then Some name else None) prog.Ir.p_extern_fns
    @ List.filter_map
        (fun (g : Ir.global) ->
          if g.gl_multiverse && g.gl_is_fnptr then Some g.gl_name else None)
        (prog.Ir.p_globals @ prog.Ir.p_extern_globals)
  in
  let call_pad sym = if List.mem sym mv_symbols then callsite_padding else 0 in
  (* text: all functions, generic and variants, in program order *)
  let fragments =
    List.map
      (fun (fn : Ir.fn) ->
        let frag = try Emit.emit_fn ~call_pad fn with Emit.Error m -> errf "%s: %s: %s" u_name fn.fn_name m in
        let off = Objfile.align obj Objfile.Text 16 in
        let off' = Objfile.append obj Objfile.Text frag.Emit.fr_code in
        assert (off = off');
        Objfile.add_symbol obj
          { Objfile.s_name = fn.fn_name; s_section = Objfile.Text; s_offset = off;
            s_size = Bytes.length frag.Emit.fr_code };
        List.iter
          (fun (r : Objfile.reloc) ->
            Objfile.add_reloc obj { r with Objfile.r_offset = r.r_offset + off })
          frag.Emit.fr_relocs;
        (fn, frag, off))
      prog.Ir.p_fns
  in
  (* data *)
  List.iter (emit_global obj) prog.Ir.p_globals;
  (* descriptor sections *)
  let size_of sym =
    match List.find_opt (fun (fn, _, _) -> String.equal fn.Ir.fn_name sym) fragments with
    | Some (_, frag, _) -> Bytes.length frag.Emit.fr_code
    | None -> errf "%s: descriptor for unknown symbol %s" u_name sym
  in
  (* 1. variable descriptors for switches *defined* in this unit *)
  List.iter
    (fun (g : Ir.global) -> if g.gl_multiverse then Descriptor.emit_variable obj g)
    prog.Ir.p_globals;
  (* 2. function descriptors for multiversed functions defined here *)
  List.iter (fun mf -> Descriptor.emit_function obj mf ~size_of) mv_fns;
  (* 3. call-site descriptors: direct calls to multiversed functions and
        indirect calls through multiversed function pointers *)
  let mv_fn_names =
    List.filter_map
      (fun (fn : Ir.fn) -> if fn.Ir.fn_multiverse then Some fn.fn_name else None)
      prog.Ir.p_fns
    @ List.filter_map (fun (name, mv) -> if mv then Some name else None) prog.Ir.p_extern_fns
  in
  let mv_fnptr_names =
    List.filter_map
      (fun (g : Ir.global) ->
        if g.gl_multiverse && g.gl_is_fnptr then Some g.gl_name else None)
      (prog.Ir.p_globals @ prog.Ir.p_extern_globals)
  in
  List.iter
    (fun ((fn : Ir.fn), (frag : Emit.fragment), _off) ->
      List.iter
        (fun (cs : Emit.callsite) ->
          let record =
            if cs.cs_indirect then List.mem cs.cs_callee mv_fnptr_names
            else List.mem cs.cs_callee mv_fn_names
          in
          if record then
            Descriptor.emit_callsite obj ~caller:fn.fn_name
              ~site_offset:cs.cs_insn_offset ~callee:cs.cs_callee)
        frag.Emit.fr_callsites)
    fragments;
  (* 4. OSR frame maps: one record per body (generic and variant) of every
        multiversed function defined in this unit *)
  let osr_bodies =
    List.concat_map
      (fun (mf : Variantgen.mv_function) ->
        mf.mf_name :: List.map (fun (v : Variantgen.variant) -> v.v_symbol) mf.mf_variants)
      mv_fns
  in
  List.iter
    (fun ((fn : Ir.fn), (frag : Emit.fragment), _off) ->
      if List.mem fn.Ir.fn_name osr_bodies then Descriptor.emit_framemap obj frag)
    fragments;
  {
    cu_name = u_name;
    cu_obj = obj;
    cu_prog = prog;
    cu_mv = mv_fns;
    cu_recipes = r_recipes;
    cu_lazy = lazy_variants;
    cu_call_pad = call_pad;
    cu_warnings =
      List.map
        (fun (d : Minic.Typecheck.diagnostic) ->
          Format.asprintf "%s:%a: warning: %s" u_name Ast.pp_loc d.loc d.message)
        diags
      @ r_warnings;
  }

(* ------------------------------------------------------------------ *)
(* Whole programs                                                      *)
(* ------------------------------------------------------------------ *)

(* Only a lazy build gains code after load, so only it reserves the
   variant-text region by default. *)
let link ?mem_size ?vtext_size (units : compiled_unit list) : Image.t =
  let vtext_size =
    match vtext_size with
    | Some n -> n
    | None ->
        if List.exists (fun u -> u.cu_lazy) units then Mv_link.Linker.default_vtext_size
        else 0
  in
  try Mv_link.Linker.link ?mem_size ~vtext_size (List.map (fun u -> u.cu_obj) units)
  with Mv_link.Linker.Link_error m -> errf "link error: %s" m

(** Compile and link a list of (unit name, source) pairs. *)
let build ?max_variants ?callsite_padding ?lazy_variants ?mem_size ?vtext_size
    (sources : (string * string) list) : program =
  let units =
    List.map
      (fun (name, src) ->
        compile_unit ?max_variants ?callsite_padding ?lazy_variants
          { u_name = name; u_source = src })
      sources
  in
  { p_image = link ?mem_size ?vtext_size units; p_units = units }

(** Compile and link a single source string (unit name "main"). *)
let build_string ?max_variants ?callsite_padding ?lazy_variants ?mem_size
    ?vtext_size src : program =
  build ?max_variants ?callsite_padding ?lazy_variants ?mem_size ?vtext_size
    [ ("main", src) ]

let warnings p = List.concat_map (fun u -> u.cu_warnings) p.p_units

(** Every unit's specialization recipes (lazy builds; [[]] otherwise). *)
let recipes p = List.concat_map (fun u -> u.cu_recipes) p.p_units

(** The program-wide call-site padding rule: the widest padding any unit
    applies to the symbol (used when materializing variant bodies at
    runtime, so their call sites match the eager pipeline's). *)
let call_pad p sym =
  List.fold_left (fun acc u -> max acc (u.cu_call_pad sym)) 0 p.p_units

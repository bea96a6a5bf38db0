(* Binary descriptor records (Sections 3 and 5 of the paper).

   The three descriptor kinds live in their own sections so that the linker
   concatenates them into contiguous arrays.  Record sizes match the paper
   exactly:

   - variable record:   32 bytes
   - call-site record:  16 bytes
   - function record:   48 + #variants * (32 + #guards * 16) bytes

   Layouts (all fields little-endian):

   variable (32 B):
     0  u64  address of the switch            (Abs64 relocation)
     8  u32  width in bytes
     12 u32  signedness (0/1)
     16 u32  flags (bit 0: function pointer)
     20 ..   reserved

   call site (16 B):
     0  u64  address of the callee: the generic function for direct sites,
             the fn-pointer variable for indirect sites (Abs64)
     8  u64  address of the call instruction  (Abs64 + addend)

   function header (48 B):
     0  u64  address of the generic function  (Abs64)
     8  u32  number of variants
     12 u32  flags
     16 u32  size of the generic body in bytes
     20 ..   reserved
   followed per variant by (32 B):
     0  u64  address of the variant body      (Abs64)
     8  u32  number of guards
     12 u32  flags
     16 u32  size of the variant body in bytes
     20 ..   reserved
   followed per guard by (16 B):
     0  u64  address of the guarded variable  (Abs64)
     8  i32  low bound (inclusive)
     12 i32  high bound (inclusive)

   Our OSR extension adds a fourth section, [multiverse.framemaps] — one
   record per body (generic or variant) of a multiversed function:

   framemap header (24 B):
     0  u64  address of the body              (Abs64)
     8  u32  number of safepoints
     12 u32  spill-area size in bytes (the prologue's [sub sp] amount)
     16 u32  number of saved registers
     20 ..   reserved
   followed by the saved-register list (u32 each, in push order, zero-padded
   to 8-byte alignment), then per safepoint (16 B):
     0  u32  stable safepoint id
     4  u32  body-relative offset of the poll pc
     8  u32  number of live entries
     12 ..   reserved
   followed per live entry by (8 B):
     0  u32  IR virtual register
     4  u32  location: bit 16 clear = machine register number,
             bit 16 set = sp-relative spill slot index                  *)

module Ir = Mv_ir.Ir
module Objfile = Mv_codegen.Objfile
module Image = Mv_link.Image

let variable_record_size = 32
let callsite_record_size = 16
let function_header_size = 48
let variant_record_size = 32
let guard_record_size = 16

let function_record_size ~variants ~guards =
  function_header_size + (variants * variant_record_size) + (guards * guard_record_size)

let framemap_header_size = 24
let framemap_safepoint_header_size = 16
let framemap_live_entry_size = 8

(* ------------------------------------------------------------------ *)
(* Serialization into an object file                                   *)
(* ------------------------------------------------------------------ *)

let u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let emit_variable (obj : Objfile.t) (g : Ir.global) : unit =
  let b = Bytes.make variable_record_size '\000' in
  u32 b 8 g.gl_width;
  u32 b 12 (Bool.to_int g.gl_signed);
  u32 b 16 (Bool.to_int g.gl_is_fnptr);
  let off = Objfile.append obj Objfile.Mv_variables b in
  Objfile.add_reloc obj
    { Objfile.r_section = Objfile.Mv_variables; r_offset = off; r_kind = Objfile.Abs64;
      r_sym = g.gl_name; r_addend = 0 }

let emit_callsite (obj : Objfile.t) ~(caller : string) ~(site_offset : int)
    ~(callee : string) : unit =
  let b = Bytes.make callsite_record_size '\000' in
  let off = Objfile.append obj Objfile.Mv_callsites b in
  Objfile.add_reloc obj
    { Objfile.r_section = Objfile.Mv_callsites; r_offset = off; r_kind = Objfile.Abs64;
      r_sym = callee; r_addend = 0 };
  Objfile.add_reloc obj
    { Objfile.r_section = Objfile.Mv_callsites; r_offset = off + 8;
      r_kind = Objfile.Abs64; r_sym = caller; r_addend = site_offset }

(** Emit the function record for [mf].  [size_of] maps a function symbol to
    the size of its emitted body.  A merged variant whose assignment set is
    not a single box contributes one 32-byte record per guard box (each
    record pointing at the same variant body), so [n_variants] counts
    descriptor records, not variant symbols. *)
let emit_function (obj : Objfile.t) (mf : Variantgen.mv_function)
    ~(size_of : string -> int) : unit =
  let mf' =
    (* re-expose each guard box as its own single-box variant *)
    {
      mf with
      Variantgen.mf_variants =
        List.concat_map
          (fun (v : Variantgen.variant) ->
            List.map
              (fun g -> { v with Variantgen.v_guards = [ g ] })
              v.v_guards)
          mf.mf_variants;
    }
  in
  let header = Bytes.make function_header_size '\000' in
  u32 header 8 (List.length mf'.mf_variants);
  u32 header 16 (size_of mf.mf_name);
  let off = Objfile.append obj Objfile.Mv_functions header in
  Objfile.add_reloc obj
    { Objfile.r_section = Objfile.Mv_functions; r_offset = off; r_kind = Objfile.Abs64;
      r_sym = mf.mf_name; r_addend = 0 };
  List.iter
    (fun (v : Variantgen.variant) ->
      let guard = match v.v_guards with [ g ] -> g | _ -> assert false in
      let vb = Bytes.make variant_record_size '\000' in
      u32 vb 8 (List.length guard);
      u32 vb 16 (size_of v.v_symbol);
      let voff = Objfile.append obj Objfile.Mv_functions vb in
      Objfile.add_reloc obj
        { Objfile.r_section = Objfile.Mv_functions; r_offset = voff;
          r_kind = Objfile.Abs64; r_sym = v.v_symbol; r_addend = 0 };
      List.iter
        (fun (r : Guard.range) ->
          let gb = Bytes.make guard_record_size '\000' in
          u32 gb 8 r.g_lo;
          u32 gb 12 r.g_hi;
          let goff = Objfile.append obj Objfile.Mv_functions gb in
          Objfile.add_reloc obj
            { Objfile.r_section = Objfile.Mv_functions; r_offset = goff;
              r_kind = Objfile.Abs64; r_sym = r.g_var; r_addend = 0 })
        guard)
    mf'.mf_variants

(** Emit the frame-map record for one emitted fragment (a generic body or a
    variant body of a multiversed function). *)
let emit_framemap (obj : Objfile.t) (fr : Mv_codegen.Emit.fragment) : unit =
  let n_sp = List.length fr.fr_safepoints in
  let n_saves = List.length fr.fr_saves in
  let header = Bytes.make framemap_header_size '\000' in
  u32 header 8 n_sp;
  u32 header 12 fr.fr_frame_bytes;
  u32 header 16 n_saves;
  let off = Objfile.append obj Objfile.Mv_framemaps header in
  Objfile.add_reloc obj
    { Objfile.r_section = Objfile.Mv_framemaps; r_offset = off; r_kind = Objfile.Abs64;
      r_sym = fr.fr_name; r_addend = 0 };
  let padded = (n_saves + 1) / 2 * 2 in
  let sb = Bytes.make (padded * 4) '\000' in
  List.iteri (fun i r -> u32 sb (i * 4) r) fr.fr_saves;
  ignore (Objfile.append obj Objfile.Mv_framemaps sb);
  List.iter
    (fun (sp : Mv_codegen.Emit.safepoint) ->
      let n_live = List.length sp.sp_live in
      let hb = Bytes.make framemap_safepoint_header_size '\000' in
      u32 hb 0 sp.sp_id;
      u32 hb 4 sp.sp_offset;
      u32 hb 8 n_live;
      ignore (Objfile.append obj Objfile.Mv_framemaps hb);
      List.iter
        (fun (vreg, (a : Mv_codegen.Regalloc.assignment)) ->
          let eb = Bytes.make framemap_live_entry_size '\000' in
          u32 eb 0 vreg;
          (match a with
          | Mv_codegen.Regalloc.Phys r -> u32 eb 4 r
          | Mv_codegen.Regalloc.Slot s -> u32 eb 4 (0x10000 lor s)
          | Mv_codegen.Regalloc.Unused ->
              (* [Emit] filters unused vregs out of [sp_live] *)
              assert false);
          ignore (Objfile.append obj Objfile.Mv_framemaps eb))
        sp.sp_live)
    fr.fr_safepoints

(* ------------------------------------------------------------------ *)
(* Parsing from a linked image                                         *)
(* ------------------------------------------------------------------ *)

type variable = {
  vr_addr : int;
  vr_width : int;
  vr_signed : bool;
  vr_fnptr : bool;
}

type callsite = { cs_target : int; cs_site : int }

type guard_record = { gr_var : int; gr_lo : int; gr_hi : int }

type variant_record = { va_addr : int; va_size : int; va_guards : guard_record list }

type function_record = {
  fd_generic : int;
  fd_generic_size : int;
  fd_variants : variant_record list;
}

exception Parse_error of string

(* A descriptor section copied out of the image, read at absolute
   addresses.  A record that runs past the end of its section is
   malformed. *)
type section_view = { sv_base : int; sv_bytes : Bytes.t }

let view img { Image.sr_base; sr_size } =
  { sv_base = sr_base; sv_bytes = Image.sub img sr_base sr_size }

let field mem off width =
  let rel = off - mem.sv_base in
  if rel < 0 || rel + width > Bytes.length mem.sv_bytes then
    raise (Parse_error "record runs past the end of its section");
  rel

let i32 mem off = Int32.to_int (Bytes.get_int32_le mem.sv_bytes (field mem off 4))
let u64 mem off = Int64.to_int (Bytes.get_int64_le mem.sv_bytes (field mem off 8))

let parse_variables (img : Image.t) : variable list =
  match Image.section_range img Objfile.Mv_variables with
  | None -> []
  | Some ({ Image.sr_base; sr_size } as range) ->
      if sr_size mod variable_record_size <> 0 then
        raise (Parse_error "multiverse.variables size is not a multiple of 32");
      let mem = view img range in
      List.init (sr_size / variable_record_size) (fun i ->
          let off = sr_base + (i * variable_record_size) in
          {
            vr_addr = u64 mem off;
            vr_width = i32 mem (off + 8);
            vr_signed = i32 mem (off + 12) <> 0;
            vr_fnptr = i32 mem (off + 16) land 1 <> 0;
          })

let parse_callsites (img : Image.t) : callsite list =
  match Image.section_range img Objfile.Mv_callsites with
  | None -> []
  | Some ({ Image.sr_base; sr_size } as range) ->
      if sr_size mod callsite_record_size <> 0 then
        raise (Parse_error "multiverse.callsites size is not a multiple of 16");
      let mem = view img range in
      List.init (sr_size / callsite_record_size) (fun i ->
          let off = sr_base + (i * callsite_record_size) in
          { cs_target = u64 mem off; cs_site = u64 mem (off + 8) })

let parse_functions (img : Image.t) : function_record list =
  match Image.section_range img Objfile.Mv_functions with
  | None -> []
  | Some ({ Image.sr_base; sr_size } as range) ->
      let mem = view img range in
      let limit = sr_base + sr_size in
      let rec parse_fns off acc =
        (* records are 8-aligned; skip alignment padding (zero generic
           address would be invalid) *)
        if off + function_header_size > limit then List.rev acc
        else begin
          let generic = u64 mem off in
          if generic = 0 then List.rev acc
          else begin
            let n_variants = i32 mem (off + 8) in
            let generic_size = i32 mem (off + 16) in
            let off = off + function_header_size in
            let rec parse_variants n off acc_v =
              if n = 0 then (List.rev acc_v, off)
              else begin
                let va_addr = u64 mem off in
                let n_guards = i32 mem (off + 8) in
                let va_size = i32 mem (off + 16) in
                let off = off + variant_record_size in
                let guards =
                  List.init n_guards (fun i ->
                      let g = off + (i * guard_record_size) in
                      { gr_var = u64 mem g; gr_lo = i32 mem (g + 8); gr_hi = i32 mem (g + 12) })
                in
                parse_variants (n - 1)
                  (off + (n_guards * guard_record_size))
                  ({ va_addr; va_size; va_guards = guards } :: acc_v)
              end
            in
            let variants, off' = parse_variants n_variants off [] in
            parse_fns off'
              ({ fd_generic = generic; fd_generic_size = generic_size;
                 fd_variants = variants }
              :: acc)
          end
        end
      in
      parse_fns sr_base []

type frame_loc = Loc_reg of int | Loc_slot of int

type safepoint_record = {
  fs_id : int;
  fs_pc : int;  (** absolute: body address + recorded offset *)
  fs_live : (int * frame_loc) list;
}

type framemap_record = {
  fm_addr : int;
  fm_frame_bytes : int;
  fm_saves : int list;
  fm_safepoints : safepoint_record list;
}

let parse_framemaps (img : Image.t) : framemap_record list =
  match Image.section_range img Objfile.Mv_framemaps with
  | None -> []
  | Some ({ Image.sr_base; sr_size } as range) ->
      let mem = view img range in
      let limit = sr_base + sr_size in
      let rec parse_maps off acc =
        (* body addresses are never 0, so a zero word is alignment padding *)
        if off + framemap_header_size > limit then List.rev acc
        else begin
          let addr = u64 mem off in
          if addr = 0 then List.rev acc
          else begin
            let n_sp = i32 mem (off + 8) in
            let frame_bytes = i32 mem (off + 12) in
            let n_saves = i32 mem (off + 16) in
            if n_sp < 0 || frame_bytes < 0 || n_saves < 0 then
              raise (Parse_error "malformed framemap header");
            let off = off + framemap_header_size in
            let saves = List.init n_saves (fun i -> i32 mem (off + (i * 4))) in
            let off = off + ((n_saves + 1) / 2 * 2 * 4) in
            let rec parse_sps n off acc_s =
              if n = 0 then (List.rev acc_s, off)
              else begin
                let id = i32 mem off in
                let pc_off = i32 mem (off + 4) in
                let n_live = i32 mem (off + 8) in
                if n_live < 0 then raise (Parse_error "malformed framemap safepoint");
                let off = off + framemap_safepoint_header_size in
                let live =
                  List.init n_live (fun i ->
                      let e = off + (i * framemap_live_entry_size) in
                      let vreg = i32 mem e in
                      let loc = i32 mem (e + 4) in
                      let loc =
                        if loc land 0x10000 <> 0 then Loc_slot (loc land 0xFFFF)
                        else Loc_reg (loc land 0xFFFF)
                      in
                      (vreg, loc))
                in
                parse_sps (n - 1)
                  (off + (n_live * framemap_live_entry_size))
                  ({ fs_id = id; fs_pc = addr + pc_off; fs_live = live } :: acc_s)
              end
            in
            let sps, off' = parse_sps n_sp off [] in
            parse_maps off'
              ({ fm_addr = addr; fm_frame_bytes = frame_bytes; fm_saves = saves;
                 fm_safepoints = sps }
              :: acc)
          end
        end
      in
      parse_maps sr_base []

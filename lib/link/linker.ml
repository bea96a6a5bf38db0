(* The static linker.

   Sections with the same name are concatenated across objects — this is how
   the multiverse descriptor arrays from separate translation units become
   one contiguous array in the image (Section 5 of the paper).  Relocations
   are ELF-style: absolute fields receive [S + A]; pc-relative fields
   receive [S + A - P]. *)

module Objfile = Mv_codegen.Objfile

exception Link_error of string

let errf fmt = Printf.ksprintf (fun m -> raise (Link_error m)) fmt

let text_base = 0x1000

let align_up v a = (v + a - 1) / a * a

let section_align = function
  | Objfile.Text -> 16
  | Objfile.Data -> 16
  | Objfile.Mv_variables | Objfile.Mv_functions | Objfile.Mv_callsites
  | Objfile.Mv_framemaps -> 8

(** Default capacity of the variant-text region of a lazy build. *)
let default_vtext_size = 1 lsl 19

(** Link objects into a runnable image. *)
let link ?(mem_size = 1 lsl 22) ?(vtext_size = 0) (objs : Objfile.t list) : Image.t =
  if objs = [] then errf "no input objects";
  (* 1. place sections: all text first, then data, then descriptor sections,
        each segment starting on a page boundary *)
  let cursor = ref text_base in
  let placements = ref [] in
  let section_ranges = ref [] in
  let place_section sec =
    let seg_base = align_up !cursor Image.page_size in
    cursor := seg_base;
    List.iter
      (fun obj ->
        let base = align_up !cursor (section_align sec) in
        placements := ((obj.Objfile.o_name, sec), base) :: !placements;
        cursor := base + Objfile.section_size obj sec)
      objs;
    section_ranges :=
      (sec, { Image.sr_base = seg_base; sr_size = !cursor - seg_base }) :: !section_ranges
  in
  List.iter place_section Objfile.all_sections;
  (* reserve the variant-text region: page-aligned, after every static
     section, so the image can gain code after load *)
  let vtext_base = align_up !cursor Image.page_size in
  let vtext_size = align_up (max 0 vtext_size) Image.page_size in
  cursor := vtext_base + vtext_size;
  let end_of_sections = !cursor in
  if end_of_sections >= mem_size - 65536 then
    errf "image does not fit in %d bytes" mem_size;
  let base_of obj sec =
    match List.assoc_opt (obj.Objfile.o_name, sec) !placements with
    | Some b -> b
    | None -> errf "internal: unplaced section %s of %s" (Objfile.section_name sec) obj.o_name
  in
  let text_range = List.assoc Objfile.Text !section_ranges in
  let img =
    Image.create ~mem_size ~sections:(List.rev !section_ranges) ~text:text_range
      ~vtext:{ Image.sr_base = vtext_base; sr_size = vtext_size }
      ~heap_base:(align_up end_of_sections Image.page_size)
      ~stack_base:(mem_size - 16)
  in
  (* 2. copy section contents (every page is still writable) *)
  List.iter
    (fun obj ->
      List.iter
        (fun sec -> Image.write_bytes img (base_of obj sec) (Objfile.section_contents obj sec))
        Objfile.all_sections)
    objs;
  (* 3. global symbol table *)
  let symbols = img.Image.symbols and symbol_sizes = img.Image.symbol_sizes in
  List.iter
    (fun obj ->
      List.iter
        (fun (s : Objfile.symbol) ->
          if Hashtbl.mem symbols s.s_name then
            errf "duplicate symbol %s (in %s)" s.s_name obj.Objfile.o_name;
          Hashtbl.replace symbols s.s_name (base_of obj s.s_section + s.s_offset);
          Hashtbl.replace symbol_sizes s.s_name s.s_size)
        (Objfile.symbols obj))
    objs;
  (* 4. apply relocations *)
  List.iter
    (fun obj ->
      List.iter
        (fun (r : Objfile.reloc) ->
          let p = base_of obj r.r_section + r.r_offset in
          let s =
            match Hashtbl.find_opt symbols r.r_sym with
            | Some a -> a
            | None -> errf "undefined symbol %s (referenced from %s)" r.r_sym obj.o_name
          in
          match r.r_kind with
          | Objfile.Abs64 -> Image.write img p (s + r.r_addend) 8
          | Objfile.Abs32 ->
              let v = s + r.r_addend in
              if v < 0 || v > 0xFFFF_FFFF then errf "Abs32 overflow for %s" r.r_sym;
              Image.write img p v 4
          | Objfile.Rel32 ->
              let v = s + r.r_addend - p in
              if v < Int32.to_int Int32.min_int || v > Int32.to_int Int32.max_int then
                errf "Rel32 overflow for %s" r.r_sym;
              Image.write img p v 4)
        (Objfile.relocs obj))
    objs;
  (* 5. page protections: text r-x, everything else rw-.  The variant-text
     region is executable from the start; the runtime opens mprotect
     windows to write bodies into it, exactly like text. *)
  Image.mprotect img ~addr:text_range.Image.sr_base ~len:text_range.Image.sr_size
    Image.prot_rx;
  if vtext_size > 0 then Image.mprotect img ~addr:vtext_base ~len:vtext_size Image.prot_rx;
  img

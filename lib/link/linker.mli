(** The static linker.

    Same-named sections of all input objects are concatenated — this is how
    the multiverse descriptor arrays from separate translation units become
    one contiguous array in the image (paper Section 5).  Relocations are
    ELF-style: absolute fields receive [S + A], pc-relative fields
    [S + A - P]. *)

module Objfile = Mv_codegen.Objfile

exception Link_error of string

(** Base address of the text segment (0x1000). *)
val text_base : int

val align_up : int -> int -> int

(** Default capacity of the variant-text region (512 KiB) that
    [Core.Compiler.link] reserves for lazy builds. *)
val default_vtext_size : int

(** Link the objects into a runnable image of [mem_size] bytes (default
    4 MiB): place sections, build the global symbol table, apply
    relocations, and set page protections (text r-x, the rest rw-).
    The image's memory is demand-zero ({!Image}), so [mem_size] costs
    host memory only for the pages the sections and the program touch.
    [vtext_size] bytes (default 0, rounded up to a page) are reserved
    after the static sections as the r-x variant-text region lazily
    materialized variant bodies are linked into; with 0 the image has no
    such region ([vtext.sr_size = 0]).  Section addresses and
    [stack_base] do not depend on [vtext_size]. *)
val link : ?mem_size:int -> ?vtext_size:int -> Objfile.t list -> Image.t

(** The whole-pipeline driver: Mini-C source text to a runnable,
    patch-ready process image.

    Per translation unit: parse, typecheck, lower to IR, run multiverse
    variant generation (Section 3), optimize, emit machine code, and
    assemble an object with text, data and the three multiverse descriptor
    sections (Section 5).  Units are then linked into one image, which
    {!Runtime.create} can attach to.

    Separate compilation follows the paper's rule: the [multiverse]
    attribute must appear on the declaration visible in each unit (the
    "header"), so every unit knows which symbols are multiversed. *)

exception Compile_error of string

type unit_input = { u_name : string; u_source : string }

type compiled_unit = {
  cu_name : string;
  cu_obj : Mv_codegen.Objfile.t;
  cu_prog : Mv_ir.Ir.prog;  (** after variant generation and optimization *)
  cu_mv : Variantgen.mv_function list;
  cu_recipes : Variantgen.recipe list;
      (** specialization recipes for lazy builds; [[]] under eager
          generation *)
  cu_lazy : bool;  (** compiled with [~lazy_variants:true] *)
  cu_call_pad : string -> int;
      (** the call-site padding rule the unit's text was emitted with *)
  cu_warnings : string list;
}

type program = {
  p_image : Mv_link.Image.t;
  p_units : compiled_unit list;
}

(** Compile one translation unit.

    @param max_variants cap on the per-function assignment cross product
      (default {!Variantgen.default_max_variants}).
    @param callsite_padding nop bytes (0..10, default 0) appended to every
      call site of a multiversed symbol, widening the runtime's inlining
      budget (the Section 7.1 "adjusting the sizes of call sites"
      extension).
    @param lazy_variants suppress ahead-of-time variant expansion: the
      unit's descriptors carry zero variants and [cu_recipes] records the
      per-function specialization recipes for demand-driven
      materialization ({!Runtime.enable_lazy}). *)
val compile_unit :
  ?max_variants:int ->
  ?callsite_padding:int ->
  ?lazy_variants:bool ->
  unit_input ->
  compiled_unit

(** Link compiled units into an image (raises {!Compile_error} on link
    errors).  [vtext_size] is forwarded to {!Mv_link.Linker.link}; it
    defaults to {!Mv_link.Linker.default_vtext_size} when some unit was
    compiled with [~lazy_variants:true] ([cu_lazy]) and to 0 otherwise,
    so an eager image reserves no variant-text region.  An explicit
    [vtext_size] always wins.

    Neither [link] nor {!Runtime.enable_lazy} (given the unit's
    [cu_recipes]) mutates a [compiled_unit]: the image copies the
    object's bytes, and materialization specializes clones of the recipe
    bodies.  A unit may therefore be linked any number of times, each
    time into a fresh image that owns its memory; writes, commits and
    materializations in one image never show in another, and each link
    is byte-identical to the first. *)
val link : ?mem_size:int -> ?vtext_size:int -> compiled_unit list -> Mv_link.Image.t

(** Compile and link a list of (unit name, source text) pairs;
    [vtext_size] defaults as in {!link}. *)
val build :
  ?max_variants:int ->
  ?callsite_padding:int ->
  ?lazy_variants:bool ->
  ?mem_size:int ->
  ?vtext_size:int ->
  (string * string) list ->
  program

(** Compile and link a single source string (unit name ["main"]). *)
val build_string :
  ?max_variants:int ->
  ?callsite_padding:int ->
  ?lazy_variants:bool ->
  ?mem_size:int ->
  ?vtext_size:int ->
  string ->
  program

(** All warnings across the program's units (front-end diagnostics and
    variant-generation warnings). *)
val warnings : program -> string list

(** Every unit's specialization recipes, concatenated — the input to
    {!Runtime.enable_lazy} for a [lazy_variants] build ([[]] for eager
    builds). *)
val recipes : program -> Variantgen.recipe list

(** The program-wide call-site padding rule for a symbol: the widest
    padding any unit emitted.  Materialized variant bodies are assembled
    with this rule so their call sites match the eager pipeline's. *)
val call_pad : program -> string -> int

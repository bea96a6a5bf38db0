(** Ahead-of-time variant generation — the compiler-plugin half of
    multiverse (paper Section 3).

    For every function carrying the [multiverse] attribute the generator
    clones the IR body once per assignment of the referenced configuration
    switches, substitutes the assigned constants for the switch reads
    {e before} optimization, optimizes each clone, and merges clones whose
    bodies become structurally equal.  The generic body is optimized too but
    never inlined, and remains the fallback for out-of-domain values. *)

(** One (possibly merged) specialized variant. *)
type variant = {
  v_symbol : string;
      (** variant symbol, e.g. ["multi.A=1.B=01"] for a merged variant *)
  v_fn : Mv_ir.Ir.fn;  (** the specialized, optimized body *)
  v_guards : Guard.t list;
      (** guard boxes covering the assignments; one descriptor record is
          emitted per box *)
  v_assignments : (string * int) list list;  (** the assignments covered *)
}

(** Generation result for one multiversed function. *)
type mv_function = {
  mf_name : string;  (** the generic function's symbol *)
  mf_switches : string list;  (** bound switches, sorted by name *)
  mf_variants : variant list;
}

(** A per-function specialization recipe — what lazy (demand-driven)
    variant generation records instead of expanding the switch cross
    product ahead of time.  [rc_body] is a clone of the generic body
    taken after safepoint insertion but {e before} optimization, so a
    later [bind_switches]+optimize materializes exactly the body the
    eager pipeline would have produced for the same assignment. *)
type recipe = {
  rc_name : string;  (** the generic function's symbol *)
  rc_body : Mv_ir.Ir.fn;  (** safepointed, unoptimized generic clone *)
  rc_switches : (string * int list) list;
      (** bound switches with their specialization domains, sorted by
          name *)
}

type result = {
  r_prog : Mv_ir.Ir.prog;  (** input program with variants appended *)
  r_functions : mv_function list;
  r_recipes : recipe list;
      (** one per multiversed function with bound switches when
          [lazy_variants] was set; [[]] under eager generation *)
  r_warnings : string list;
}

(** Cap on the assignment cross product per function (default 128); beyond
    it only the generic variant is kept and a warning points the developer
    at [values(..)]/[bind(..)] — the paper's answer to variant explosion
    (Section 7.1). *)
val default_max_variants : int

(** The multiverse switches visible to a translation unit (defined or
    declared [extern multiverse]). *)
val switch_globals : Mv_ir.Ir.prog -> (string * Mv_ir.Ir.global) list

(** Replace every read of the assigned switches in [fn] with the assigned
    constant (in place). *)
val bind_switches : Mv_ir.Ir.fn -> (string * int) list -> unit

(** Symbol name for a variant covering [assignments] of [switches]:
    per-variable value lists are concatenated ("B=01") when single-digit,
    comma-joined otherwise.  When the assignments are not the full
    product of those lists, the sorted assignments, projected onto the
    switches with more than one value, follow an ["@"], each as a value
    list, separated by ["_"] ("f.A=01.B=01@00_11").  Distinct assignment
    sets of one function therefore never share a name. *)
val variant_symbol : string -> string list -> (string * int) list list -> string

(** Structural hash of a function body: a hex digest of
    [Mv_opt.Merge.canonical_form] — blocks in reverse post-order,
    registers renamed by first occurrence — so structurally equal bodies
    collide across functions, any instruction change alters the digest,
    and the value is stable across runs (no physical equality or address
    dependence).  This is the variant cache's dedup key. *)
val structural_hash : Mv_ir.Ir.fn -> string

(** The switches [fn] reads (restricted by its [bind(..)] attribute),
    paired with their specialization domains and sorted by name, plus
    warnings for function-pointer switches (which are bound at commit
    time, never specialized). *)
val bound_domains :
  (string * Mv_ir.Ir.global) list ->
  Mv_ir.Ir.fn ->
  (string * int list) list * string list

(** Specialize one {!recipe} for a single point assignment — the
    materialization step the runtime runs on the first commit of an
    unseen switch valuation.  The assignment must cover exactly
    [rc_switches]; the result carries one guard box per switch with
    [lo = hi = value]. *)
val specialize_recipe : recipe -> (string * int) list -> variant

(** Run variant generation over a translation unit.  Generic functions are
    optimized in place; variant functions are appended to the returned
    program so the back end emits them like ordinary code.

    With [lazy_variants] (default false) the cross product is never
    expanded: the returned program gains no variant functions, every
    multiversed function's descriptor is emitted with zero variants, and
    [r_recipes] carries the specialization recipes the runtime
    materializes variants from on demand. *)
val generate :
  ?max_variants:int -> ?lazy_variants:bool -> Mv_ir.Ir.prog -> result

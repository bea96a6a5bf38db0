(** The process image: demand-zero paged memory with per-page protection
    flags, the symbol table, and the section map.

    Memory is [mem_size] bytes in {!page_size} pages.  A page is allocated
    on its first write; untouched pages read as zero and cost no host
    memory beyond one page-table slot.  An access inside one page is O(1)
    and allocates nothing; only page-straddling accesses take a slower,
    copying path.  Either way the bytes observed are those of a flat,
    zero-initialised memory.

    The text segment is mapped read+execute.  Any write to a protected page
    raises {!Segfault} — the multiverse runtime must open a window with
    {!mprotect} around each patch and restore protection afterwards, as the
    paper requires (Section 7.2). *)

module Objfile = Mv_codegen.Objfile

exception Segfault of string

type protection = { p_read : bool; p_write : bool; p_exec : bool }

val prot_rw : protection
val prot_rx : protection
val prot_rwx : protection
val prot_none : protection

val page_size : int  (** 4096 *)

type section_range = { sr_base : int; sr_size : int }

(** The page table (abstract): read through {!read}, {!read_bytes},
    {!sub} and {!decode}, write through {!write} and {!write_bytes}. *)
type pages

type t = {
  mem_size : int;  (** bytes of simulated memory; see {!size} *)
  pages : pages;
  prot : protection array;  (** one entry per page *)
  symbols : (string, int) Hashtbl.t;
  symbol_sizes : (string, int) Hashtbl.t;
  sections : (Objfile.section * section_range) list;
  text : section_range;
  vtext : section_range;
      (** reserved, initially empty variant-text region the runtime may
          fill with materialized variant bodies after load; pages are
          mapped r-x like the static text segment.  Only lazy builds
          reserve one: on an eager build [sr_size = 0] (its [sr_base] is
          where the region would start) *)
  heap_base : int;  (** first page after all sections *)
  stack_base : int;  (** initial stack pointer (grows down) *)
}

(** [create ~mem_size ~sections ~text ~vtext ~heap_base ~stack_base] is an
    all-zero image with no resident page, every page read+write, and
    empty symbol tables.  The linker fills it in. *)
val create :
  mem_size:int ->
  sections:(Objfile.section * section_range) list ->
  text:section_range ->
  vtext:section_range ->
  heap_base:int ->
  stack_base:int ->
  t

(** [mem_size]: the simulated memory size in bytes. *)
val size : t -> int

(** Pages that own host memory, i.e. have been written at least once. *)
val resident_pages : t -> int

(** {1 Protection-checked access} *)

val read : t -> int -> int -> int
(** [read t addr width] *)

val write : t -> int -> int -> int -> unit
(** [write t addr v width] *)

val read_bytes : t -> int -> int -> bytes
val write_bytes : t -> int -> bytes -> unit

(** {1 Raw access for loaders}

    These ignore page protection — they model a loader or debugger
    reading the image, not the program — but still fault with
    {!Segfault} outside memory. *)

(** [sub t addr len] copies [len] bytes at [addr]. *)
val sub : t -> int -> int -> bytes

(** Decode the instruction at an address, with {!Mv_isa.Decode.decode}'s
    results and errors (offsets in errors are absolute addresses). *)
val decode : t -> int -> Mv_isa.Insn.t * int

(** [decode_range t ~addr ~len] lists the instructions of a range as
    [(address, instruction)] pairs. *)
val decode_range : t -> addr:int -> len:int -> (int * Mv_isa.Insn.t) list

(** Fail unless the range is executable. *)
val check_exec : t -> int -> int -> unit

val prot_at : t -> int -> protection
val mprotect : t -> addr:int -> len:int -> protection -> unit

(** {1 Symbols and sections} *)

(** Absolute address of a symbol; raises {!Segfault} when undefined. *)
val symbol : t -> string -> int

val symbol_opt : t -> string -> int option
val symbol_size : t -> string -> int

(** Symbol whose [base, base+size) range contains the address. *)
val symbol_at : t -> int -> string option

(** [add_symbol t name ~addr ~size] registers (or moves) a symbol after
    load — how a lazily materialized variant body joins the symbol
    table so profilers and {!symbol_at} can attribute its addresses. *)
val add_symbol : t -> string -> addr:int -> size:int -> unit

(** Remove a runtime-registered symbol (used when a materialized variant
    is evicted from the variant-text region). *)
val remove_symbol : t -> string -> unit

val section_range : t -> Objfile.section -> section_range option

(** Is the address inside executable code — the static text segment or
    the runtime-growable variant-text region ({!t.vtext})?  Live
    activation scanners use this, so activations inside materialized
    variants are visible to the safe-commit machinery. *)
val in_text : t -> int -> bool

(* The process image: demand-zero paged memory with per-page protection
   flags.

   Memory is a page table.  Every entry starts out as one shared, never
   written zero page, so an untouched page costs one pointer and reads as
   zero; the first write to a page gives it its own bytes.  A linked image
   therefore holds host memory in proportion to the pages its sections,
   stack and heap actually touch, not to its [mem_size].  Accesses that
   stay inside one page take an allocation-free path; only the rare
   page-straddling access is assembled byte by byte.

   The text segment is mapped read+execute; the multiverse runtime must use
   [mprotect] to open a write window around a patch — writing to a protected
   page raises [Segfault], and the test suite checks that the runtime
   restores protection afterwards (Section 7.2 of the paper: "multiverse
   makes the required memory locations writable only during the patching
   process"). *)

module Objfile = Mv_codegen.Objfile

exception Segfault of string

type protection = { p_read : bool; p_write : bool; p_exec : bool }

let prot_rw = { p_read = true; p_write = true; p_exec = false }
let prot_rx = { p_read = true; p_write = false; p_exec = true }
let prot_rwx = { p_read = true; p_write = true; p_exec = true }
let prot_none = { p_read = false; p_write = false; p_exec = false }

let page_size = 4096

type section_range = { sr_base : int; sr_size : int }

type pages = Bytes.t array

type t = {
  mem_size : int;
  pages : pages;
  prot : protection array;
  symbols : (string, int) Hashtbl.t;  (** symbol name -> absolute address *)
  symbol_sizes : (string, int) Hashtbl.t;
  sections : (Objfile.section * section_range) list;
  text : section_range;
  vtext : section_range;
      (** reserved variant-text region: code the image can gain after load *)
  heap_base : int;
  stack_base : int;  (** initial stack pointer (grows down) *)
}

(* Stands in for every page that has never been written.  It is only ever
   read: [own_page] swaps in a private copy before the first write. *)
let zero_page = Bytes.make page_size '\000'

let create ~mem_size ~sections ~text ~vtext ~heap_base ~stack_base =
  let npages = (mem_size + page_size - 1) / page_size in
  {
    mem_size;
    pages = Array.make npages zero_page;
    prot = Array.make npages prot_rw;
    symbols = Hashtbl.create 256;
    symbol_sizes = Hashtbl.create 256;
    sections;
    text;
    vtext;
    heap_base;
    stack_base;
  }

let size t = t.mem_size

let resident_pages t =
  Array.fold_left (fun n pg -> if pg == zero_page then n else n + 1) 0 t.pages

let page_of addr = addr / page_size

let in_bounds t addr len = addr >= 0 && len >= 0 && addr + len <= t.mem_size

let fault fmt = Printf.ksprintf (fun m -> raise (Segfault m)) fmt

let check t addr len access =
  if not (in_bounds t addr len) then
    fault "%s out of bounds at 0x%x (+%d)" access addr len

let prot_at t addr = t.prot.(page_of addr)

let need_read = { prot_none with p_read = true }
let need_write = { prot_none with p_write = true }
let need_exec = { prot_none with p_exec = true }

(** Check that every page covering [addr, addr+len) satisfies [p]. *)
let check_prot t addr len p access =
  check t addr len access;
  let first = page_of addr and last = page_of (addr + max 0 (len - 1)) in
  for page = first to last do
    let cur = t.prot.(page) in
    let ok =
      ((not p.p_read) || cur.p_read)
      && ((not p.p_write) || cur.p_write)
      && ((not p.p_exec) || cur.p_exec)
    in
    if not ok then fault "%s violation at 0x%x (page 0x%x)" access addr (page * page_size)
  done

(* ------------------------------------------------------------------ *)
(* Pages                                                               *)
(* ------------------------------------------------------------------ *)

(* The page's private bytes, allocating them on the first write. *)
let own_page t page =
  let pg = Array.unsafe_get t.pages page in
  if pg != zero_page then pg
  else begin
    let pg = Bytes.make page_size '\000' in
    t.pages.(page) <- pg;
    pg
  end

(* Does [addr, addr+width) lie in memory and inside a single page? *)
let one_page t addr width =
  addr >= 0 && addr + width <= t.mem_size && (addr land (page_size - 1)) + width <= page_size

(* Copy [len] bytes at [addr] into [dst] at [dst_off], page by page. *)
let rec blit_out t addr dst dst_off len =
  if len > 0 then begin
    let poff = addr land (page_size - 1) in
    let n = min len (page_size - poff) in
    Bytes.blit t.pages.(page_of addr) poff dst dst_off n;
    blit_out t (addr + n) dst (dst_off + n) (len - n)
  end

(* Copy [len] bytes of [src] from [src_off] to [addr], page by page. *)
let rec blit_in t addr src src_off len =
  if len > 0 then begin
    let poff = addr land (page_size - 1) in
    let n = min len (page_size - poff) in
    Bytes.blit src src_off (own_page t (page_of addr)) poff n;
    blit_in t (addr + n) src (src_off + n) (len - n)
  end

let sub t addr len =
  check t addr len "read";
  let b = Bytes.create len in
  blit_out t addr b 0 len;
  b

(* ------------------------------------------------------------------ *)
(* Memory access                                                       *)
(* ------------------------------------------------------------------ *)

let get b off = function
  | 1 -> Char.code (Bytes.get b off)
  | 2 -> Bytes.get_uint16_le b off
  | 4 -> Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
  | 8 -> Int64.to_int (Bytes.get_int64_le b off)
  | w -> fault "bad read width %d" w

let set b off v = function
  | 1 -> Bytes.set b off (Char.chr (v land 0xFF))
  | 2 -> Bytes.set_uint16_le b off (v land 0xFFFF)
  | 4 -> Bytes.set_int32_le b off (Int32.of_int v)
  | 8 -> Bytes.set_int64_le b off (Int64.of_int v)
  | w -> fault "bad write width %d" w

let valid_width w = w = 1 || w = 2 || w = 4 || w = 8

let read t addr width =
  if one_page t addr width && valid_width width && t.prot.(page_of addr).p_read then
    get t.pages.(page_of addr) (addr land (page_size - 1)) width
  else begin
    check_prot t addr width need_read "read";
    get (sub t addr width) 0 width
  end

let write t addr v width =
  if one_page t addr width && valid_width width && t.prot.(page_of addr).p_write then
    set (own_page t (page_of addr)) (addr land (page_size - 1)) v width
  else begin
    check_prot t addr width need_write "write";
    let b = Bytes.create width in
    set b 0 v width;
    blit_in t addr b 0 width
  end

(** Raw byte-range accessors for the runtime library (still protection
    checked; the runtime must mprotect first, like a real process would). *)
let read_bytes t addr len =
  check_prot t addr len need_read "read";
  sub t addr len

let write_bytes t addr (b : bytes) =
  check_prot t addr (Bytes.length b) need_write "write";
  blit_in t addr b 0 (Bytes.length b)

(** Fetch for execution: requires exec permission. *)
let check_exec t addr len = check_prot t addr len need_exec "exec"

(* ------------------------------------------------------------------ *)
(* Instruction decoding                                                *)
(* ------------------------------------------------------------------ *)

module Decode = Mv_isa.Decode

let max_insn_size = 10

let decode t addr =
  if addr < 0 || addr >= t.mem_size then
    raise (Decode.Decode_error ("decode out of bounds", addr));
  let poff = addr land (page_size - 1) in
  if poff + max_insn_size <= page_size && addr + max_insn_size <= t.mem_size then
    try Decode.decode t.pages.(page_of addr) ~off:poff
    with Decode.Decode_error (m, _) -> raise (Decode.Decode_error (m, addr))
  else
    (* the encoding may straddle a page: decode a private copy *)
    let window = sub t addr (min max_insn_size (t.mem_size - addr)) in
    try Decode.decode window ~off:0
    with Decode.Decode_error (m, _) -> raise (Decode.Decode_error (m, addr))

let decode_range t ~addr ~len =
  let rec go pos acc =
    if pos >= addr + len then List.rev acc
    else
      let insn, size = decode t pos in
      go (pos + size) ((pos, insn) :: acc)
  in
  go addr []

(* ------------------------------------------------------------------ *)
(* Protection management                                               *)
(* ------------------------------------------------------------------ *)

let mprotect t ~addr ~len p =
  check t addr len "mprotect";
  let first = page_of addr and last = page_of (addr + max 0 (len - 1)) in
  for page = first to last do
    t.prot.(page) <- p
  done

(* ------------------------------------------------------------------ *)
(* Symbols                                                             *)
(* ------------------------------------------------------------------ *)

let symbol t name =
  match Hashtbl.find_opt t.symbols name with
  | Some addr -> addr
  | None -> fault "undefined symbol %s" name

let symbol_opt t name = Hashtbl.find_opt t.symbols name

let symbol_size t name = Option.value ~default:0 (Hashtbl.find_opt t.symbol_sizes name)

(** Reverse lookup: the symbol whose [addr, addr+size) range contains the
    address, preferring the closest preceding symbol. *)
let symbol_at t addr =
  Hashtbl.fold
    (fun name base best ->
      let size = symbol_size t name in
      if addr >= base && (size = 0 || addr < base + size) then
        match best with
        | Some (_, best_base) when best_base >= base -> best
        | _ -> Some (name, base)
      else best)
    t.symbols None
  |> Option.map fst

(** Register (or move) a symbol at runtime — how materialized variant
    bodies join the symbol table after load. *)
let add_symbol t name ~addr ~size =
  Hashtbl.replace t.symbols name addr;
  Hashtbl.replace t.symbol_sizes name size

(** Drop a runtime-registered symbol (variant eviction). *)
let remove_symbol t name =
  Hashtbl.remove t.symbols name;
  Hashtbl.remove t.symbol_sizes name

let section_range t sec = List.assoc_opt sec t.sections

let in_range (r : section_range) addr = addr >= r.sr_base && addr < r.sr_base + r.sr_size

(* The variant-text region counts as text: live-activation scanners must
   see activations inside materialized variants. *)
let in_text t addr = in_range t.text addr || in_range t.vtext addr

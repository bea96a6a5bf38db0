(* Property-based tests (qcheck).

   The central property is the paper's soundness claim (Section 7.4): for
   any program and any configuration assignment, a committed image behaves
   exactly like the generic, dynamically-evaluating one.

   Programs come from the fuzzer's full-language generator (Mv_fuzz.Gen)
   and the semantic checks are the fuzzer's differential oracles, so these
   properties and `mvfuzz` exercise exactly the same code paths: a qcheck
   counterexample is an mvfuzz seed and vice versa.

   Seeds are pinned for reproducibility; override with QCHECK_SEED=n.  On
   failure the seed is printed so the run can be replayed exactly. *)

module Gen = Mv_fuzz.Gen
module Schedule = Mv_fuzz.Schedule
module Oracle = Mv_fuzz.Oracle
module Driver = Mv_fuzz.Driver
module Image = Mv_link.Image
module Json = Mv_obs.Json

(* ------------------------------------------------------------------ *)
(* Seed pinning                                                        *)
(* ------------------------------------------------------------------ *)

let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 0x5eed )
  | None -> 0x5eed

(* [QCheck_alcotest.to_alcotest] without [~rand] self-initialises, which
   makes failures unreproducible; pin it, and name the seed on failure. *)
let to_alcotest test =
  let name, speed, f =
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| qcheck_seed |])
      test
  in
  ( name,
    speed,
    fun () ->
      try f ()
      with e ->
        Printf.eprintf "[qcheck] reproduce with QCHECK_SEED=%d\n%!" qcheck_seed;
        raise e )

(* ------------------------------------------------------------------ *)
(* Case generation: defer to the fuzzer's generator                    *)
(* ------------------------------------------------------------------ *)

(* A case is a pure function of its seed, so the qcheck search space is
   just the seed space; a counterexample names the seed and the mvfuzz
   command that replays it. *)
let gen_case : Gen.case QCheck.Gen.t =
  QCheck.Gen.map
    (fun seed -> Gen.case ~cfg:Gen.small_cfg seed)
    (QCheck.Gen.int_range 0 1_000_000)

let arbitrary_case =
  QCheck.make
    ~print:(fun (c : Gen.case) ->
      Printf.sprintf "seed %d (replay: mvfuzz --small --seed %d --replay)\n%s"
        c.Gen.c_seed c.Gen.c_seed c.Gen.c_src)
    gen_case

(* Oracle-backed property: the named differential oracle stays silent. *)
let oracle_prop ~name ~count oracle =
  QCheck.Test.make ~name ~count arbitrary_case (fun c ->
      let sched = Driver.schedule_for c c.Gen.c_seed in
      match Oracle.run_named oracle c sched with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "%a" Oracle.pp_divergence d)

(** Section 7.4 soundness: committed == generic for every assignment,
    and the final revert restores the text segment byte-for-byte. *)
let prop_commit_soundness =
  oracle_prop ~name:"commit preserves semantics (soundness)" ~count:25
    "commit-soundness"

(** Machine execution matches the reference interpreter. *)
let prop_backend_differential =
  oracle_prop ~name:"machine matches the reference interpreter" ~count:25
    "interp-vs-vm"

(** Optimizer preserves semantics on random programs. *)
let prop_optimizer_preserves =
  oracle_prop ~name:"optimizer preserves semantics" ~count:25 "opt-vs-unopt"

(** Committing twice is a no-op; revert restores the pristine text. *)
let prop_commit_idempotent =
  oracle_prop ~name:"commit is idempotent, revert restores text" ~count:25
    "commit-idempotent"

(** Randomized commit/revert/safe-commit schedules (including mid-run
    safe ops injected at safepoints) never change observable behaviour
    relative to a generic image receiving only the value writes. *)
let prop_schedule_equiv =
  oracle_prop ~name:"patching schedules preserve semantics" ~count:25
    "schedule-equiv"

(** Case generation is deterministic: one seed, one program, bit for bit.
    Replayability of every mvfuzz/qcheck failure rests on this. *)
let prop_generator_deterministic =
  QCheck.Test.make ~name:"generator is deterministic per seed" ~count:40
    (QCheck.make (QCheck.Gen.int_range 0 1_000_000))
    (fun seed ->
      let a = Gen.case ~cfg:Gen.small_cfg seed in
      let b = Gen.case ~cfg:Gen.small_cfg seed in
      String.equal a.Gen.c_src b.Gen.c_src
      && a.Gen.c_args = b.Gen.c_args
      && a.Gen.c_assignments = b.Gen.c_assignments)

(** Schedules survive the JSON round-trip used by corpus files. *)
let prop_schedule_json_roundtrip =
  QCheck.Test.make ~name:"schedule JSON round-trip" ~count:40 arbitrary_case
    (fun c ->
      let sched = Driver.schedule_for c c.Gen.c_seed in
      let text = Format.asprintf "%a" Json.pp (Schedule.to_json sched) in
      match Json.parse text with
      | Error m -> QCheck.Test.fail_reportf "reparse failed: %s" m
      | Ok j -> (
          match Schedule.of_json j with
          | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m
          | Ok sched' -> sched' = sched))

(** The guard boxes of a function's variants partition its domain:
    exactly one variant record matches every in-domain assignment.
    (Functions whose cross product exceeds the variant cap keep only the
    generic body and have no records to check.) *)
let prop_guards_partition_domain =
  QCheck.Test.make ~name:"variant guards partition the domain" ~count:15
    arbitrary_case (fun c ->
      let program = Core.Compiler.build_string c.Gen.c_src in
      let img = program.Core.Compiler.p_image in
      let fns = Core.Descriptor.parse_functions img in
      (* every switch's value space, pointer targets as addresses *)
      let spaces =
        List.map
          (fun (sw : Gen.switch) ->
            ( Image.symbol img sw.Gen.sw_name,
              sw.Gen.sw_domain
              @ List.map (fun t -> Image.symbol img t) sw.Gen.sw_targets ))
          c.Gen.c_switches
      in
      let assignments =
        List.fold_left
          (fun acc (addr, values) ->
            List.concat_map
              (fun partial -> List.map (fun v -> (addr, v) :: partial) values)
              acc)
          [ [] ] spaces
      in
      List.length assignments > 256
      || List.for_all
           (fun (f : Core.Descriptor.function_record) ->
             f.Core.Descriptor.fd_variants = []
             || List.for_all
                  (fun assignment ->
                    let matches =
                      List.filter
                        (fun (v : Core.Descriptor.variant_record) ->
                          List.for_all
                            (fun (g : Core.Descriptor.guard_record) ->
                              let value =
                                match
                                  List.assoc_opt g.Core.Descriptor.gr_var assignment
                                with
                                | Some v -> v
                                | None -> 0
                              in
                              g.Core.Descriptor.gr_lo <= value
                              && value <= g.Core.Descriptor.gr_hi)
                            v.Core.Descriptor.va_guards)
                        f.Core.Descriptor.fd_variants
                    in
                    List.length matches = 1)
                  assignments)
           fns)

(* ------------------------------------------------------------------ *)
(* Structural properties (no compilation involved)                     *)
(* ------------------------------------------------------------------ *)

(** Guard box covers are exact: an assignment satisfies some box iff it is
    in the covered set. *)
let prop_box_cover_exact =
  let gen =
    let open QCheck.Gen in
    let* n = int_range 1 8 in
    let* raw =
      list_repeat n
        (let* a = int_range 0 3 and* b = int_range 0 3 in
         return [ ("a", a); ("b", b) ])
    in
    return (List.sort_uniq compare raw)
  in
  let arb =
    QCheck.make
      ~print:(fun set ->
        String.concat "; "
          (List.map
             (fun assignment ->
               String.concat ","
                 (List.map (fun (v, x) -> Printf.sprintf "%s=%d" v x) assignment))
             set))
      gen
  in
  QCheck.Test.make ~name:"guard boxes cover exactly the assignment set" ~count:300 arb
    (fun set ->
      let boxes = Core.Guard.boxes_of_assignments set in
      let satisfies assignment box =
        Core.Guard.satisfied_by box (fun v -> List.assoc v assignment)
      in
      let all_assignments =
        List.concat_map
          (fun a -> List.map (fun b -> [ ("a", a); ("b", b) ]) [ 0; 1; 2; 3 ])
          [ 0; 1; 2; 3 ]
      in
      List.for_all
        (fun assignment ->
          let covered = List.exists (satisfies assignment) boxes in
          covered = List.mem assignment set)
        all_assignments)

(** Canonical forms are invariant under block-id and register renumbering. *)
let prop_canonical_form_invariant =
  QCheck.Test.make ~name:"canonical form invariant under renumbering" ~count:15
    arbitrary_case (fun c ->
      let prog, _ = Mv_ir.Lower.lower_string c.Gen.c_src in
      List.for_all
        (fun (fn : Mv_ir.Ir.fn) ->
          let renumber (fn : Mv_ir.Ir.fn) : Mv_ir.Ir.fn =
            let shift_block b = b + 1000 in
            let shift_reg r = r + 500 in
            let shift_op = function
              | Mv_ir.Ir.Reg r -> Mv_ir.Ir.Reg (shift_reg r)
              | Mv_ir.Ir.Imm n -> Mv_ir.Ir.Imm n
            in
            let shift_instr i =
              let i = Mv_ir.Ir.map_instr_operands shift_op i in
              match i with
              | Mv_ir.Ir.Imov (d, s) -> Mv_ir.Ir.Imov (shift_reg d, s)
              | Mv_ir.Ir.Iun (op, d, a) -> Mv_ir.Ir.Iun (op, shift_reg d, a)
              | Mv_ir.Ir.Ibin (op, d, a, b) -> Mv_ir.Ir.Ibin (op, shift_reg d, a, b)
              | Mv_ir.Ir.Iload (d, a, w) -> Mv_ir.Ir.Iload (shift_reg d, a, w)
              | Mv_ir.Ir.Istore (a, v, w) -> Mv_ir.Ir.Istore (a, v, w)
              | Mv_ir.Ir.Iloadg (d, s, w) -> Mv_ir.Ir.Iloadg (shift_reg d, s, w)
              | Mv_ir.Ir.Istoreg (s, v, w) -> Mv_ir.Ir.Istoreg (s, v, w)
              | Mv_ir.Ir.Iaddr (d, s) -> Mv_ir.Ir.Iaddr (shift_reg d, s)
              | Mv_ir.Ir.Icall (d, s, args) ->
                  Mv_ir.Ir.Icall (Option.map shift_reg d, s, args)
              | Mv_ir.Ir.Icallp (d, s, args) ->
                  Mv_ir.Ir.Icallp (Option.map shift_reg d, s, args)
              | Mv_ir.Ir.Iintr (d, intr, args) ->
                  Mv_ir.Ir.Iintr (Option.map shift_reg d, intr, args)
              | Mv_ir.Ir.Isafepoint id -> Mv_ir.Ir.Isafepoint id
            in
            let shift_term = function
              | Mv_ir.Ir.Tjmp t -> Mv_ir.Ir.Tjmp (shift_block t)
              | Mv_ir.Ir.Tbr (c', t, f) -> Mv_ir.Ir.Tbr (shift_op c', shift_block t, shift_block f)
              | Mv_ir.Ir.Tret v -> Mv_ir.Ir.Tret (Option.map shift_op v)
            in
            {
              fn with
              Mv_ir.Ir.fn_params = List.map shift_reg fn.Mv_ir.Ir.fn_params;
              fn_nregs = fn.Mv_ir.Ir.fn_nregs + 500;
              fn_blocks =
                List.map
                  (fun (b : Mv_ir.Ir.block) ->
                    {
                      Mv_ir.Ir.b_id = shift_block b.b_id;
                      b_instrs = List.map shift_instr b.b_instrs;
                      b_term = shift_term b.b_term;
                    })
                  fn.Mv_ir.Ir.fn_blocks;
            }
          in
          Mv_opt.Merge.equal_bodies fn (renumber fn))
        prog.Mv_ir.Ir.p_fns)

(** Interpreter truncation semantics. *)
let prop_truncate =
  QCheck.Test.make ~name:"truncate is idempotent and width-bounded" ~count:300
    QCheck.(pair (oneofl [ 1; 2; 4 ]) int)
    (fun (width, v) ->
      let u = Mv_ir.Interp.truncate ~width ~signed:false v in
      let s = Mv_ir.Interp.truncate ~width ~signed:true v in
      let bits = width * 8 in
      u >= 0
      && u < 1 lsl bits
      && s >= -(1 lsl (bits - 1))
      && s < 1 lsl (bits - 1)
      && Mv_ir.Interp.truncate ~width ~signed:false u = u
      && Mv_ir.Interp.truncate ~width ~signed:true s = s
      && u land ((1 lsl bits) - 1) = v land ((1 lsl bits) - 1))

(* ------------------------------------------------------------------ *)
(* Compilation is a pure function of the source                        *)
(* ------------------------------------------------------------------ *)

module Compiler = Core.Compiler
module Objfile = Mv_codegen.Objfile

(** The fuzz oracles compile each distinct source once and link the unit
    for every build; that is unobservable only if two compiles of one
    source give identical objects — every section's bytes, the symbols
    and the relocations — eager and lazy, small and default sizes. *)
let prop_compile_deterministic =
  let arb =
    QCheck.make
      ~print:(fun (small, lazy_variants, seed) ->
        Printf.sprintf "seed %d (%s cfg, lazy=%b)" seed
          (if small then "small" else "default")
          lazy_variants)
      QCheck.Gen.(triple bool bool (int_range 0 1_000_000))
  in
  QCheck.Test.make ~name:"compile_unit is deterministic per source" ~count:12 arb
    (fun (small, lazy_variants, seed) ->
      let cfg = if small then Gen.small_cfg else Gen.default_cfg in
      let src = (Gen.case ~cfg seed).Gen.c_src in
      let compile () =
        Compiler.compile_unit ~lazy_variants { Compiler.u_name = "main"; u_source = src }
      in
      let a = compile () and b = compile () in
      let oa = a.Compiler.cu_obj and ob = b.Compiler.cu_obj in
      List.for_all
        (fun sec ->
          Bytes.equal (Objfile.section_contents oa sec) (Objfile.section_contents ob sec))
        Objfile.all_sections
      && Objfile.symbols oa = Objfile.symbols ob
      && Objfile.relocs oa = Objfile.relocs ob
      && a.Compiler.cu_recipes = b.Compiler.cu_recipes
      && a.Compiler.cu_warnings = b.Compiler.cu_warnings)

(* ------------------------------------------------------------------ *)
(* Optimizer dataflow                                                  *)
(* ------------------------------------------------------------------ *)

module Ir = Mv_ir.Ir
module Liveness = Mv_opt.Liveness
module Iset = Set.Make (Int)

(* Textbook liveness over [Set]s: use/def read straight off the
   constructors, then round-robin iteration of the block transfer
   functions until no live-in set changes. *)
let reference_def = function
  | Ir.Imov (d, _) | Ir.Iun (_, d, _) | Ir.Ibin (_, d, _, _) | Ir.Iload (d, _, _)
  | Ir.Iloadg (d, _, _) | Ir.Iaddr (d, _) -> Some d
  | Ir.Icall (d, _, _) | Ir.Icallp (d, _, _) | Ir.Iintr (d, _, _) -> d
  | Ir.Istore _ | Ir.Istoreg _ | Ir.Isafepoint _ -> None

let reference_uses = function
  | Ir.Imov (_, a) | Ir.Iun (_, _, a) | Ir.Iload (_, a, _) | Ir.Istoreg (_, a, _) -> [ a ]
  | Ir.Ibin (_, _, a, b) | Ir.Istore (a, b, _) -> [ a; b ]
  | Ir.Icall (_, _, args) | Ir.Icallp (_, _, args) | Ir.Iintr (_, _, args) -> args
  | Ir.Iloadg _ | Ir.Iaddr _ | Ir.Isafepoint _ -> []

let reference_live_in (fn : Ir.fn) : (int * int list) list =
  let live_in = Hashtbl.create 16 in
  let get id = Option.value ~default:Iset.empty (Hashtbl.find_opt live_in id) in
  let regs ops =
    List.fold_left
      (fun s -> function Ir.Reg r -> Iset.add r s | Ir.Imm _ -> s)
      Iset.empty ops
  in
  let transfer (b : Ir.block) =
    let out =
      List.fold_left (fun s id -> Iset.union s (get id)) Iset.empty (Ir.successors b.b_term)
    in
    let term =
      match b.b_term with
      | Ir.Tbr (c, _, _) | Ir.Tret (Some c) -> regs [ c ]
      | Ir.Tjmp _ | Ir.Tret None -> Iset.empty
    in
    List.fold_right
      (fun i live ->
        let live = match reference_def i with Some d -> Iset.remove d live | None -> live in
        Iset.union live (regs (reference_uses i)))
      b.b_instrs (Iset.union out term)
  in
  let rec fix () =
    let changed =
      List.fold_left
        (fun changed (b : Ir.block) ->
          let s = transfer b in
          if Iset.equal s (get b.b_id) then changed
          else begin
            Hashtbl.replace live_in b.b_id s;
            true
          end)
        false fn.fn_blocks
    in
    if changed then fix ()
  in
  fix ();
  List.map (fun (b : Ir.block) -> (b.b_id, Iset.elements (get b.b_id))) fn.fn_blocks

let dense_live_in (fn : Ir.fn) =
  let lv = Liveness.compute fn in
  List.map (fun (b : Ir.block) -> (b.b_id, Liveness.live_in lv b.b_id)) fn.fn_blocks

(* Every body a case's optimizer sees: the lowered functions, and clones
   of each lazy recipe bound to up to four in-domain assignments (the
   bodies variant generation and materialization optimize). *)
let optimizer_inputs cfg seed : Ir.fn list =
  let src = (Gen.case ~cfg seed).Gen.c_src in
  let prog, _ = Mv_ir.Lower.lower_string src in
  let cu =
    Compiler.compile_unit ~lazy_variants:true { Compiler.u_name = "main"; u_source = src }
  in
  let clones =
    List.concat_map
      (fun (rc : Core.Variantgen.recipe) ->
        let assignments =
          List.fold_left
            (fun acc (sw, dom) ->
              let dom = List.filteri (fun i _ -> i < 2) dom in
              List.concat_map (fun a -> List.map (fun v -> (sw, v) :: a) dom) acc)
            [ [] ] rc.Core.Variantgen.rc_switches
        in
        List.filteri (fun i _ -> i < 4) assignments
        |> List.map (fun a ->
               let clone = Ir.copy_fn rc.Core.Variantgen.rc_body in
               Core.Variantgen.bind_switches clone a;
               clone))
      cu.Compiler.cu_recipes
  in
  prog.Ir.p_fns @ clones

let arbitrary_cfg_seed =
  QCheck.make
    ~print:(fun (small, seed) ->
      Printf.sprintf "seed %d (%s cfg)" seed (if small then "small" else "default"))
    QCheck.Gen.(pair bool (int_range 0 1_000_000))

(** The dense bitset liveness equals the textbook set-based one on every
    body the optimizer sees, before and after optimization. *)
let prop_dense_liveness =
  QCheck.Test.make ~name:"dense liveness equals set-based liveness" ~count:30
    arbitrary_cfg_seed (fun (small, seed) ->
      let cfg = if small then Gen.small_cfg else Gen.default_cfg in
      List.for_all
        (fun fn ->
          let optimized = Ir.copy_fn fn in
          Mv_opt.Pass.optimize_fn optimized;
          List.for_all
            (fun f ->
              dense_live_in f = reference_live_in f
              || QCheck.Test.fail_reportf "live-in sets differ in %s:\n%s" f.Ir.fn_name
                   (Ir.fn_to_string f))
            [ fn; optimized ])
        (optimizer_inputs cfg seed))

(** Change reporting is exact: at the optimizer's fixpoint every pass
    reports no change. *)
let prop_fixpoint_reports_no_change =
  QCheck.Test.make ~name:"passes report no change at the fixpoint" ~count:30
    arbitrary_cfg_seed (fun (small, seed) ->
      let cfg = if small then Gen.small_cfg else Gen.default_cfg in
      List.for_all
        (fun fn ->
          let fn = Ir.copy_fn fn in
          Mv_opt.Pass.optimize_fn fn;
          List.for_all
            (fun (p : Mv_opt.Pass.pass) ->
              (not (p.run fn))
              || QCheck.Test.fail_reportf "%s reported a change in %s:\n%s" p.name
                   fn.Ir.fn_name (Ir.fn_to_string fn))
            Mv_opt.Pass.default_pipeline)
        (optimizer_inputs cfg seed))

(* ------------------------------------------------------------------ *)
(* Reference-interpreter memory                                        *)
(* ------------------------------------------------------------------ *)

module Interp = Mv_ir.Interp

(* The flat-memory interpreter this replaced, verbatim: the reference the
   paged memory must match, faults and their messages included. *)
let flat_load mem addr width =
  if addr < 0 || addr + width > Bytes.length mem then
    raise (Interp.Fault (Printf.sprintf "load out of bounds: 0x%x" addr));
  match width with
  | 1 -> Char.code (Bytes.get mem addr)
  | 2 -> Bytes.get_uint16_le mem addr
  | 4 -> Int32.to_int (Bytes.get_int32_le mem addr) land 0xFFFFFFFF
  | 8 -> Int64.to_int (Bytes.get_int64_le mem addr)
  | w -> raise (Interp.Fault (Printf.sprintf "bad load width %d" w))

let flat_store mem addr v width =
  if addr < 0 || addr + width > Bytes.length mem then
    raise (Interp.Fault (Printf.sprintf "store out of bounds: 0x%x" addr));
  match width with
  | 1 -> Bytes.set mem addr (Char.chr (v land 0xFF))
  | 2 -> Bytes.set_uint16_le mem addr (v land 0xFFFF)
  | 4 -> Bytes.set_int32_le mem addr (Int32.of_int v)
  | 8 -> Bytes.set_int64_le mem addr (Int64.of_int v)
  | w -> raise (Interp.Fault (Printf.sprintf "bad store width %d" w))

let mem_ops_size = 4 * Interp.page_size

(** Paged memory behaves like one flat [Bytes.t] under any sequence of
    loads and stores of width 1, 2, 4 and 8 — page-straddling and
    out-of-bounds accesses and bad widths included. *)
let prop_interp_memory =
  let open QCheck.Gen in
  let addr =
    frequency
      [
        (* near a page boundary, so wide accesses straddle it *)
        ( 4,
          map2
            (fun page d -> (page * Interp.page_size) + d)
            (int_range 0 4) (int_range (-9) 8) );
        (3, int_range 0 (mem_ops_size - 1));
        (1, int_range (-16) (mem_ops_size + 16));
      ]
  in
  let width = frequency [ (12, oneofl [ 1; 2; 4; 8 ]); (1, oneofl [ 0; 3; 16 ]) ] in
  let op = quad bool addr width int in
  let arb =
    QCheck.make
      ~print:(fun ops ->
        String.concat "; "
          (List.map
             (fun (st, a, w, v) ->
               if st then Printf.sprintf "store 0x%x w%d %d" a w v
               else Printf.sprintf "load 0x%x w%d" a w)
             ops))
      (list_size (int_range 1 200) op)
  in
  QCheck.Test.make ~name:"paged interpreter memory matches flat bytes" ~count:200 arb
    (fun ops ->
      let t = Interp.create ~mem_size:mem_ops_size [] in
      let flat = Bytes.make mem_ops_size '\000' in
      let result f = match f () with v -> Ok v | exception Interp.Fault m -> Error m in
      List.for_all
        (fun (st, a, w, v) ->
          if st then
            result (fun () -> Interp.store t a v w)
            = result (fun () -> flat_store flat a v w)
          else
            result (fun () -> Interp.load t a w) = result (fun () -> flat_load flat a w))
        ops
      && List.for_all
           (fun a -> Interp.load t a 1 = Char.code (Bytes.get flat a))
           (List.init mem_ops_size Fun.id))

let suite =
  List.map to_alcotest
    [
      prop_commit_soundness;
      prop_backend_differential;
      prop_optimizer_preserves;
      prop_commit_idempotent;
      prop_schedule_equiv;
      prop_generator_deterministic;
      prop_schedule_json_roundtrip;
      prop_guards_partition_domain;
      prop_box_cover_exact;
      prop_canonical_form_invariant;
      prop_truncate;
      prop_compile_deterministic;
      prop_dense_liveness;
      prop_fixpoint_reports_no_change;
      prop_interp_memory;
    ]

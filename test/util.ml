(* Shared helpers for the test suites. *)

module Image = Mv_link.Image

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let tc name f = Alcotest.test_case name `Quick f
let tc_slow name f = Alcotest.test_case name `Slow f

(** Host words allocated by [f ()] (minor plus direct-major, promotions
    counted once), with its result. *)
let alloc_words f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = words () in
  let r = f () in
  (words () -. w0, r)

(** Parse + typecheck, expecting success. *)
let check_ok src =
  let tu, env, warnings = Minic.Typecheck.check_string src in
  (tu, env, warnings)

(** Expect a typecheck (or parse/lex) failure; returns the message. *)
let check_fails src =
  match Minic.Typecheck.check_string src with
  | exception Minic.Typecheck.Error (m, _) -> m
  | exception Minic.Parser.Error (m, _) -> m
  | exception Minic.Lexer.Error (m, _) -> m
  | _ -> Alcotest.failf "expected a front-end error for:\n%s" src

(** Lower source to IR (typechecked). *)
let lower src =
  let prog, _warnings = Mv_ir.Lower.lower_string src in
  prog

(** Run a function in the reference IR interpreter. *)
let interp_run ?(optimize = false) src fn args =
  let prog = lower src in
  if optimize then Mv_opt.Pass.optimize_prog prog;
  let t = Mv_ir.Interp.create [ prog ] in
  Mv_ir.Interp.run t fn args

(** Full pipeline: build a program from one source. *)
let build src = Core.Compiler.build_string src

let build_units sources = Core.Compiler.build sources

(** A machine plus attached multiverse runtime for a built program. *)
type session = {
  program : Core.Compiler.program;
  machine : Mv_vm.Machine.t;
  runtime : Core.Runtime.t;
}

let session ?platform src =
  let program = build src in
  let machine = Mv_vm.Machine.create ?platform program.Core.Compiler.p_image in
  let runtime =
    Core.Runtime.create program.Core.Compiler.p_image ~flush:(fun ~addr ~len ->
        Mv_vm.Machine.flush_icache machine ~addr ~len)
  in
  { program; machine; runtime }

let session_units ?platform sources =
  let program = build_units sources in
  let machine = Mv_vm.Machine.create ?platform program.Core.Compiler.p_image in
  let runtime =
    Core.Runtime.create program.Core.Compiler.p_image ~flush:(fun ~addr ~len ->
        Mv_vm.Machine.flush_icache machine ~addr ~len)
  in
  { program; machine; runtime }

let run s fn args = Mv_vm.Machine.call s.machine fn args

let set_global s name v =
  let img = s.program.Core.Compiler.p_image in
  Image.write img (Image.symbol img name) v 8

let get_global s name =
  let img = s.program.Core.Compiler.p_image in
  Image.read img (Image.symbol img name) 8

(** Machine result must equal the IR interpreter result (differential). *)
let check_differential ?(args = []) name src fn =
  let expected = interp_run src fn args in
  let s = session src in
  let actual = run s fn args in
  check_int name expected actual

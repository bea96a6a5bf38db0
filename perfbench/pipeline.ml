(* One Mini-C program through the toolchain, each stage in its own span.

   [Compiler.compile_unit] parses, checks, lowers and generates variants
   internally, where no span can reach.  The traced pass therefore also
   calls those three front stages on their own, before compile_unit; the
   code generator's share is compile_unit minus them.  Untraced runs skip
   the extra calls. *)

module Compiler = Core.Compiler
module Runtime = Core.Runtime
module Machine = Mv_vm.Machine

let span = Span.with_span

(* Parse, check and lower; the generic IR the reference interpreter runs. *)
let lower src =
  let tu, env, _ = span "minic.check_string" (fun () -> Minic.Typecheck.check_string src) in
  span "ir.lower_tunit" (fun () -> Mv_ir.Lower.lower_tunit tu env)

let build ?(lazy_variants = false) src : Compiler.program =
  if !Span.enabled then begin
    let prog = lower src in
    ignore
      (span "core.variantgen.generate" (fun () ->
           Core.Variantgen.generate ~lazy_variants prog))
  end;
  let cu =
    span "core.compiler.compile_unit" (fun () ->
        Compiler.compile_unit ~lazy_variants { Compiler.u_name = "main"; u_source = src })
  in
  let image = span "link.link" (fun () -> Compiler.link [ cu ]) in
  { Compiler.p_image = image; p_units = [ cu ] }

let machine image = span "vm.machine_create" (fun () -> Machine.create image)

let runtime image machine =
  span "core.runtime.create" (fun () ->
      Runtime.create image ~flush:(fun ~addr ~len -> Machine.flush_icache machine ~addr ~len))

(* A single-hart session, built stage by stage like [Harness.session];
   [lazy_budget] arms demand-driven variant materialization. *)
let session ?lazy_budget src : Mv_workloads.Harness.session =
  let program = build ~lazy_variants:(lazy_budget <> None) src in
  let image = program.Compiler.p_image in
  let m = machine image in
  let rt = runtime image m in
  Option.iter
    (fun budget ->
      Runtime.enable_lazy ~budget rt ~recipes:(Compiler.recipes program)
        ~call_pad:(Compiler.call_pad program))
    lazy_budget;
  Mv_workloads.Harness.of_parts program m rt

let commit rt = span "core.runtime.commit" (fun () -> Runtime.commit rt)
let call m entry args = span "vm.call" (fun () -> Machine.call m entry args)

(* Reference result: the IR interpreter on the generic, unoptimized
   program, under the given switch values; [init] fills its memory. *)
let interp_run ?(init = fun _ -> ()) prog ~switches entry args =
  span "ir.interp_run" (fun () ->
      let it = Mv_ir.Interp.create ~step_limit:max_int [ prog ] in
      List.iter (fun (name, v) -> Mv_ir.Interp.write_global it name v) switches;
      init it;
      Mv_ir.Interp.run it entry args)

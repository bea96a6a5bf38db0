(* [fuzz]: one op is one generated case (default size) through all eight
   differential oracles with the driver's schedule — [Driver.run], one
   case at a time.  Compile, link and [Machine.create] run about ten
   times per case while guest execution is tiny, so this is where host
   allocation dominates.

   The ops cycle over a pool of [pool] cases, case [k] generated under
   seed + k, so that each case is timed several times, at moments seconds
   apart all through the run, and the floor can take its fastest run.
   The run ends on a whole cycle. *)

open Mv_fuzz

(* The traced pass measures one extra build of the case, outside the op:
   the oracles run the pipeline internally, where no span reaches, and
   this replica of the interp-vs-vm oracle's path shows what each stage
   costs per build.  It only measures: the verdict on the case is the
   oracles'. *)
let probe (case : Gen.case) =
  try
    let program = Pipeline.build case.Gen.c_src in
    let image = program.Core.Compiler.p_image in
    let m = Pipeline.machine image in
    ignore (Pipeline.runtime image m);
    let prog = Pipeline.lower case.Gen.c_src in
    List.iter
      (fun arg ->
        ignore (Pipeline.interp_run prog ~switches:[] case.Gen.c_entry [ arg ]);
        ignore (Pipeline.call m case.Gen.c_entry [ arg ]))
      case.Gen.c_args
  with _ -> ()

let pool = 64

let setup ~chaos ~seed : Workload.instance =
  let chaos = if chaos then Oracle.Skip_flush else Oracle.No_chaos in
  let last = ref None and inputs = ref "" in
  let run_case s =
    let case = Span.with_span "fuzz.gen" (fun () -> Gen.case s) in
    last := Some case;
    inputs := Digest.string (!inputs ^ case.Gen.c_src);
    let sched = Driver.schedule_for case s in
    List.fold_left
      (fun ok name ->
        let verdict =
          try Span.with_span ("fuzz.oracle." ^ name) (fun () -> Oracle.run_named ~chaos name case sched)
          with e -> Some { Oracle.d_oracle = name; d_detail = Printexc.to_string e }
        in
        ok && verdict = None)
      true Oracle.oracle_names
  in
  (* set-up: one warm-up case, so lazily initialised state and the heap
     have grown before timing starts; a fixed case, so that set-up time
     does not depend on the seed *)
  ignore (run_case 0);
  inputs := "";
  {
    Workload.batch = pool;
    block = 1;
    op = (fun i -> run_case (seed + (i mod pool)));
    after_op = (fun () -> Option.iter probe !last);
    counters = (fun () -> []);
    code_bytes = (fun () -> 0.0);
    inputs = (fun () -> Digest.to_hex !inputs);
  }

let workload = { Workload.name = "fuzz"; setup }

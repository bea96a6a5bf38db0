(* [execute]: the paper's committed workloads in steady state.  Ops rotate
   over the musl random/malloc(0)/malloc(1)/fputc loops with one thread,
   the unicore spinlock loop, the grep scan, and one contended two-hart
   spinlock run.  Compiling and committing happen only in set-up, so the
   superblock interpreter and the SMP scheduler do nearly all the work.

   Each single-hart op calls a small entry point the benchmark appends to
   the workload's source: it resets the state the loop mutates, runs the
   paper's loop, and returns a value that depends on what the loop did.
   Results are history-free, so one IR-interpreter run per entry in
   set-up is the reference for every call.  The inputs are the paper's
   and fixed; the seed does not change them. *)

module Machine = Mv_vm.Machine
module Smp = Mv_vm.Smp
module Image = Mv_link.Image
module H = Mv_workloads.Harness
module Musl = Mv_workloads.Musl
module Spinlock = Mv_workloads.Spinlock
module Grep = Mv_workloads.Grep

let musl_src =
  Musl.source Musl.Multiversed
  ^ {|
    int op_random(int n) { rand_state = 1; bench_random(n); return rand_state; }
    int op_malloc0(int n) { bins[0] = 0; brk_off = 0; bench_malloc0(n); return brk_off; }
    int op_malloc1(int n) { bins[1] = 0; brk_off = 0; bench_malloc1(n); return brk_off; }
    int op_fputc(int n) {
      file_pos = 0;
      file_flushes = 0;
      bench_fputc(n);
      return file_flushes * 1024 + file_pos;
    }
  |}

let spin_src =
  Spinlock.source Spinlock.Multiverse
  ^ {|
    int op_spin(int n) { lock_word = 0; bench_loop(n); return lock_word + n; }
  |}

(* Loop counts, chosen so that every op costs about the same host time,
   about 8 ms here: the latency percentiles then track speed instead of
   jumping between the op kinds, and each op spans enough collector work
   and enough of the host's speed changes to average them. *)
let musl_ops =
  [ ("op_random", 13200); ("op_malloc0", 3520); ("op_malloc1", 3520); ("op_fputc", 8120) ]

let spin_iters = 37200
let grep_len = 16384
let smp_iters = 1960

(* Scheduler steps into the contended run before the mid-run re-commit:
   a stop_machine rendezvous under contention, as [run_contended]'s
   [commit_at] does. *)
let smp_commit_at = 500

type single = { s : H.session; entry : string; arg : int; expect : int }

let single_hart s prog ~switches ?init (entry, arg) =
  { s; entry; arg; expect = Pipeline.interp_run prog ~switches ?init entry [ arg ] }

let setup_single ~src ~switches ?(prepare = fun _ -> ()) ?init entries =
  let s = Pipeline.session src in
  List.iter (fun (name, v) -> H.set s name v) switches;
  prepare s;
  ignore (Pipeline.commit s.H.runtime);
  let prog = Pipeline.lower src in
  (s, List.map (single_hart s prog ~switches ?init) entries)

let setup ~chaos ~seed:_ : Workload.instance =
  let musl_s, musl = setup_single ~src:musl_src ~switches:[ ("threads_minus_1", 0) ] musl_ops in
  let spin_s, spin = setup_single ~src:spin_src ~switches:[ ("config_smp", 0) ] [ ("op_spin", spin_iters) ] in
  let grep_src = Grep.source Grep.Multiversed in
  let grep_text = ref Bytes.empty in
  let grep_s, grep =
    setup_single ~src:grep_src ~switches:[ ("mb_mode", 0) ]
      ~prepare:(fun s ->
        Grep.fill_text s;
        let img = s.H.program.Core.Compiler.p_image in
        grep_text := Image.read_bytes img (Image.symbol img "text") grep_len)
      ~init:(fun it ->
        Bytes.iteri
          (fun i c -> Mv_ir.Interp.store it (Mv_ir.Interp.global_addr it "text" + i) (Char.code c) 1)
          !grep_text)
      [ ("grep_scan", grep_len) ]
  in
  (* The known-bad configuration elides the lock on both harts, so the
     counter loses updates. *)
  let smp, _ =
    Span.with_span "workloads.spinlock.run_contended" (fun () ->
        Spinlock.run_contended ~smp:(not chaos) ~iters:smp_iters ())
  in
  let ss = smp.H.smp in
  let n_harts = Smp.n_harts ss in
  let singles = Array.of_list (musl @ spin @ grep) in
  let sessions = [ musl_s; spin_s; grep_s ] in
  let smp_op () =
    H.smp_set smp "counter" 0;
    for h = 0 to n_harts - 1 do
      H.smp_start smp ~hart:h "worker" [ smp_iters ]
    done;
    Span.with_span "vm.smp_run" (fun () ->
        let steps = ref 0 and more = ref true in
        while !more && !steps < smp_commit_at do
          more := H.smp_step smp;
          incr steps
        done;
        (* hart 0 initiates the rendezvous, so it must be interruptible *)
        let m0 = Smp.machine ss 0 in
        while !more && not m0.Machine.irq_enabled do
          more := H.smp_step smp
        done;
        if !more then ignore (Pipeline.commit smp.H.sm_runtime);
        H.smp_run smp);
    H.smp_get smp "counter" = n_harts * smp_iters
  in
  let op i =
    let k = i mod (Array.length singles + 1) in
    if k = Array.length singles then smp_op ()
    else
      let o = singles.(k) in
      Pipeline.call o.s.H.machine o.entry [ o.arg ] = o.expect
  in
  let machines = List.map (fun s -> s.H.machine) sessions @ List.init n_harts (Smp.machine ss) in
  let counters () =
    let sum f = List.fold_left (fun acc m -> acc +. float (f (Machine.decode_stats m))) 0.0 machines in
    [
      ( "sim_cycles",
        List.fold_left
          (fun acc s -> acc +. s.H.machine.Machine.perf.Mv_vm.Perf.cycles)
          (Smp.clock ss) sessions );
      ("vm.superblocks_compiled", sum (fun d -> d.Machine.ds_blocks));
      ("vm.insns_decoded", sum (fun d -> d.Machine.ds_insns));
      ("vm.superblocks_invalidated", sum (fun d -> d.Machine.ds_invalidated));
      ("vm.smp.rendezvous", float (Smp.rendezvous_count ss));
      ("vm.smp.ipis_sent", float (Smp.ipis_sent ss));
      ("vm.smp.rendezvous_cycles", Smp.rendezvous_cycles ss);
    ]
  in
  let text (p : Core.Compiler.program) = p.Core.Compiler.p_image.Image.text.Image.sr_size in
  let code_bytes =
    List.fold_left (fun acc s -> acc + text s.H.program) (text smp.H.sm_program) sessions
  in
  {
    Workload.batch = Array.length singles + 1;
    block = 1;
    op;
    after_op = Workload.no_after;
    counters;
    code_bytes = (fun () -> float code_bytes);
    inputs = (fun () -> "fixed");
  }

let workload = { Workload.name = "execute"; setup }

(* The superblock interpreter's contract (ARCHITECTURE §13): pre-decoded
   dispatch must be observationally identical to the reference
   fetch/decode interpreter — bit-identical simulated cycles, perf
   counters, and trace streams — and the decode cache must invalidate
   through exactly the text_poke/flush_icache paths: patches landing
   mid-block, at a block entry, and back-to-back under the SMP rendezvous
   all force a re-decode, and nothing else does. *)

open Util
module Machine = Mv_vm.Machine
module Perf = Mv_vm.Perf
module Smp = Mv_vm.Smp
module Runtime = Core.Runtime
module Harness = Mv_workloads.Harness
module Insn = Mv_isa.Insn
module Trace = Mv_obs.Trace

(* A workload with commits in the middle, so the comparison covers
   patching, icache flushes, branches, calls, and both multiverse
   variants — not just straight-line execution. *)
let mv_src =
  {|
  multiverse bool fast;
  int acc;
  multiverse int work(int n) {
    int s = 0;
    if (fast) {
      for (int i = 0; i < n; i = i + 1) { s = s + i; }
    } else {
      for (int i = 0; i < n; i = i + 1) { s = s + (i * 2); acc = acc + 1; }
    }
    return s;
  }
  int driver(int n) { return work(n) + work(n + 3); }
|}

(* Drive the same script — call, flip, commit, call, revert, call — on a
   fresh session through [fin] (either [Machine.finish] or
   [Machine.finish_ref]), collecting results, the final perf counters,
   and the machine-side trace stream timestamped by the cycle counter. *)
let run_script fin =
  let s = session mv_src in
  let events = ref [] in
  Machine.set_tracer s.machine
    (Some
       (fun e -> events := (s.machine.Machine.perf.Perf.cycles, e) :: !events));
  let call fn args =
    Machine.start_call s.machine fn args;
    fin s.machine
  in
  let r1 = call "driver" [ 5 ] in
  set_global s "fast" 1;
  ignore (Runtime.commit s.runtime);
  let r2 = call "driver" [ 5 ] in
  ignore (Runtime.revert s.runtime);
  let r3 = call "driver" [ 7 ] in
  let p = Perf.snapshot s.machine.Machine.perf in
  ((r1, r2, r3), p, List.rev !events)

let test_bit_identity_vs_reference () =
  let rs, ps, evs = run_script Machine.finish in
  let rr, pr, evr = run_script Machine.finish_ref in
  let (a1, a2, a3), (b1, b2, b3) = (rs, rr) in
  check_int "result 1" b1 a1;
  check_int "result 2" b2 a2;
  check_int "result 3" b3 a3;
  if ps.Perf.s_cycles <> pr.Perf.s_cycles then
    Alcotest.failf "cycles diverge: superblock %.2f vs reference %.2f"
      ps.Perf.s_cycles pr.Perf.s_cycles;
  check_int "instructions" pr.Perf.s_instructions ps.Perf.s_instructions;
  check_int "branches" pr.Perf.s_branches ps.Perf.s_branches;
  check_int "mispredicts" pr.Perf.s_branch_mispredicts ps.Perf.s_branch_mispredicts;
  check_int "calls" pr.Perf.s_calls ps.Perf.s_calls;
  check_int "loads" pr.Perf.s_loads ps.Perf.s_loads;
  check_int "stores" pr.Perf.s_stores ps.Perf.s_stores;
  check_int "icache flushes" pr.Perf.s_icache_flushes ps.Perf.s_icache_flushes;
  check_int "trace stream length" (List.length evr) (List.length evs);
  List.iter2
    (fun (cs, es) (cr, er) ->
      check_bool "trace event equal" true (es = er);
      if cs <> cr then
        Alcotest.failf "trace timestamps diverge: %.2f vs %.2f" cs cr)
    evs evr

(* Per-instruction stepping (what the SMP scheduler uses) must agree with
   the reference stepper too, including the intermediate machine state. *)
let test_stepwise_identity () =
  let a = session mv_src and b = session mv_src in
  Machine.start_call a.machine "driver" [ 4 ];
  Machine.start_call b.machine "driver" [ 4 ];
  let more = ref true in
  let guard = ref 1_000_000 in
  while !more && !guard > 0 do
    decr guard;
    let ka = Machine.step a.machine and kb = Machine.step_ref b.machine in
    check_bool "both streams end together" ka kb;
    check_int "same pc" b.machine.Machine.pc a.machine.Machine.pc;
    if
      a.machine.Machine.perf.Perf.cycles <> b.machine.Machine.perf.Perf.cycles
    then
      Alcotest.failf "cycles diverge at pc 0x%x" a.machine.Machine.pc;
    more := ka
  done;
  check_bool "terminated" true (!guard > 0)

(* ------------------------------------------------------------------ *)
(* Invalidation edges                                                  *)
(* ------------------------------------------------------------------ *)

(* f(0) = 0 + 1 + 2 + 4 = 7, compiled as three immediate adds in one
   straight-line block (the opaque parameter defeats constant folding);
   we patch the middle add behind the runtime's back, then flush. *)
let straightline_src =
  {|
  int f(int x) {
    int a = x + 1;
    a = a + 2;
    a = a + 4;
    return a;
  }
|}

(* Find the encoded byte offset of the [Alu_ri Add, imm] instruction
   inside [f]'s body.  Decoding insn by insn keeps the test independent
   of exact codegen layout. *)
let find_insn img fn pred =
  let open Mv_link.Image in
  let base = symbol img fn in
  let size = symbol_size img fn in
  let rec scan off =
    if off >= size then Alcotest.fail "instruction not found in body"
    else
      let insn, len = decode img (base + off) in
      if pred insn then (base + off, len) else scan (off + len)
  in
  scan 0

let patch_imm_insn s name ~from_imm ~to_imm =
  let img = s.program.Core.Compiler.p_image in
  let addr, len =
    find_insn img name (function
      | Insn.Alu_ri (Insn.Add, _, _, imm) -> imm = from_imm
      | _ -> false)
  in
  let patched =
    match Mv_link.Image.decode img addr with
    | Insn.Alu_ri (op, rd, ra, _), _ -> Insn.Alu_ri (op, rd, ra, to_imm)
    | _ -> assert false
  in
  let bytes = Mv_isa.Encode.encode patched in
  assert (Bytes.length bytes = len);
  Mv_link.Image.mprotect img ~addr ~len Mv_link.Image.prot_rwx;
  Mv_link.Image.write_bytes img addr bytes;
  Mv_link.Image.mprotect img ~addr ~len Mv_link.Image.prot_rx;
  (addr, len)

let test_patch_mid_block () =
  let s = session straightline_src in
  check_int "original" 7 (run s "f" [ 0 ]);
  let ds = Machine.decode_stats s.machine in
  let blocks_before = ds.Machine.ds_blocks in
  (* patch [a + 2] to [a + 32] in the middle of the decoded block *)
  let addr, len = patch_imm_insn s "f" ~from_imm:2 ~to_imm:32 in
  check_int "stale block still returns 7" 7 (run s "f" [ 0 ]);
  check_int "no re-decode while stale" blocks_before ds.Machine.ds_blocks;
  Machine.flush_icache s.machine ~addr ~len;
  check_bool "flush invalidated at least one block" true
    (ds.Machine.ds_invalidated > 0);
  check_int "patched mid-block insn visible after flush" 37 (run s "f" [ 0 ]);
  check_bool "flush forced a re-decode" true (ds.Machine.ds_blocks > blocks_before)

let test_patch_at_block_entry () =
  let s = session "int f() { return 1; }" in
  let img = s.program.Core.Compiler.p_image in
  check_int "original" 1 (run s "f" []);
  let ds = Machine.decode_stats s.machine in
  let blocks_before = ds.Machine.ds_blocks in
  let f = Mv_link.Image.symbol img "f" in
  (* overwrite the block's first instruction: [mov32 r0, 1] -> [mov32 r0, 2] *)
  Mv_link.Image.mprotect img ~addr:f ~len:16 Mv_link.Image.prot_rwx;
  Mv_link.Image.write_bytes img f (Mv_isa.Encode.encode (Insn.Mov_ri32 (0, 2)));
  Mv_link.Image.mprotect img ~addr:f ~len:16 Mv_link.Image.prot_rx;
  check_int "stale entry still returns 1" 1 (run s "f" []);
  Machine.flush_icache s.machine ~addr:f ~len:16;
  check_int "patched entry visible after flush" 2 (run s "f" []);
  check_bool "entry patch forced a re-decode" true
    (ds.Machine.ds_blocks > blocks_before)

(* Re-decode happens after an invalidation and only then: repeated runs
   reuse the cached blocks, a commit (which flushes) rebuilds them. *)
let test_redecode_only_after_invalidation () =
  let s = session mv_src in
  ignore (run s "driver" [ 3 ]);
  let ds = Machine.decode_stats s.machine in
  let blocks1 = ds.Machine.ds_blocks and insns1 = ds.Machine.ds_insns in
  check_bool "first run decoded something" true (blocks1 > 0 && insns1 > 0);
  for _ = 1 to 5 do
    ignore (run s "driver" [ 3 ])
  done;
  check_int "no re-decode across repeated runs (blocks)" blocks1
    ds.Machine.ds_blocks;
  check_int "no re-decode across repeated runs (insns)" insns1
    ds.Machine.ds_insns;
  let invalidated1 = ds.Machine.ds_invalidated in
  set_global s "fast" 1;
  ignore (Runtime.commit s.runtime);
  check_bool "commit's flush dropped blocks" true
    (ds.Machine.ds_invalidated > invalidated1);
  ignore (run s "driver" [ 3 ]);
  check_bool "re-decode only after the invalidation" true
    (ds.Machine.ds_blocks > blocks1)

(* The poke_src twins from the SMP suite: seven/nine have identical
   encoded sizes, so one can be poked over the other. *)
let poke_src =
  {|
  int acc;
  int seven() { return 7; }
  int nine() { return 9; }
  void loop(int n) {
    for (int i = 0; i < n; i = i + 1) {
      acc = acc + seven();
    }
  }
|}

let test_back_to_back_poke_under_rendezvous () =
  let s = Harness.smp_session1 ~n_harts:2 poke_src in
  let smp = s.Harness.smp in
  let img = s.Harness.sm_program.Core.Compiler.p_image in
  let seven = Mv_link.Image.symbol img "seven" in
  let size = Mv_link.Image.symbol_size img "seven" in
  let orig = Mv_link.Image.read_bytes img seven size in
  let nine_bytes =
    Mv_link.Image.read_bytes img (Mv_link.Image.symbol img "nine") size
  in
  (* warm the decode caches on hart 1, then stop it mid-loop *)
  Harness.smp_start s ~hart:1 "loop" [ 8 ];
  for _ = 1 to 40 do
    ignore (Smp.step_hart smp 1)
  done;
  let m1 = Smp.machine smp 1 in
  let ds = Machine.decode_stats m1 in
  let invalidated0 = ds.Machine.ds_invalidated in
  (* two full text_pokes back to back on the same block: each runs the
     complete breakpoint-first protocol under the rendezvous, and each
     must invalidate the pre-decoded body on every hart *)
  Smp.text_poke smp ~addr:seven nine_bytes;
  check_bool "first poke dropped hart 1's decoded body" true
    (ds.Machine.ds_invalidated > invalidated0);
  (* let the hart run until it re-decodes the (now nine) body, so the
     second poke has a freshly built block to drop *)
  let blocks_after_poke1 = ds.Machine.ds_blocks in
  let guard = ref 10_000 in
  while ds.Machine.ds_blocks = blocks_after_poke1 && !guard > 0 do
    decr guard;
    ignore (Smp.step_hart smp 1)
  done;
  check_bool "hart re-decoded the patched body" true (!guard > 0);
  let invalidated1 = ds.Machine.ds_invalidated in
  Smp.text_poke smp ~addr:seven orig;
  check_bool "second poke invalidated again" true
    (ds.Machine.ds_invalidated > invalidated1);
  Harness.smp_run s;
  (* each of the 8 calls returned exactly 7 or exactly 9 depending on
     which side of the pokes it ran — never a torn hybrid, never a
     fault *)
  let acc = Harness.smp_get s "acc" in
  check_bool "no torn call result" true
    (acc >= 8 * 7 && acc <= 8 * 9 && (acc - (8 * 7)) mod 2 = 0)

(* ------------------------------------------------------------------ *)
(* Domain-parallel fuzzing determinism                                 *)
(* ------------------------------------------------------------------ *)

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_corpus dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mv-sbtest-%d" (Unix.getpid ()))
  in
  let counter = ref 0 in
  let fresh () =
    incr counter;
    let d = Printf.sprintf "%s-%d" dir !counter in
    (try Sys.mkdir d 0o755 with Sys_error _ -> ());
    d
  in
  Fun.protect
    ~finally:(fun () ->
      for i = 1 to !counter do
        let d = Printf.sprintf "%s-%d" dir i in
        if Sys.file_exists d then begin
          Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
          Sys.rmdir d
        end
      done)
    (fun () -> f fresh)

let test_parallel_fuzz_determinism () =
  with_tmp_dir (fun fresh ->
      let campaign ~domains ~dir =
        Mv_fuzz.Driver.run_parallel ~cfg:Mv_fuzz.Gen.small_cfg
          ~chaos:Mv_fuzz.Oracle.Skip_flush ~keep_going:true ~shrink_budget:8
          ~corpus_dir:dir ~domains ~seed:1 ~iters:4 ()
      in
      let d1 = fresh () and d2 = fresh () in
      let s1 = campaign ~domains:1 ~dir:d1 in
      let s2 = campaign ~domains:2 ~dir:d2 in
      check_int "same case count" s1.Mv_fuzz.Driver.s_tested
        s2.Mv_fuzz.Driver.s_tested;
      let seeds s =
        List.map (fun r -> r.Mv_fuzz.Driver.rp_seed) s.Mv_fuzz.Driver.s_reports
      in
      check_bool "chaos campaign found divergences" true (seeds s1 <> []);
      check_bool "same divergent seeds in the same order" true
        (seeds s1 = seeds s2);
      let c1 = read_corpus d1 and c2 = read_corpus d2 in
      check_bool "merged corpus is byte-for-byte identical" true (c1 = c2))

(* ------------------------------------------------------------------ *)
(* Decode maps grow into the variant-text region                       *)
(* ------------------------------------------------------------------ *)

(* [far] is copied to the last bytes of a lazy image's variant-text
   region — the farthest a materialized body can land — so running it
   reaches the far end of every hart's decode maps: the dispatch index
   registers it in the region's last chunk, and the reference cache and
   heat counters, sized to the static text at creation, grow across the
   region.  Its body is one straight-line block, so the heat counters
   grow just past the block's entry and the block runs beyond their end:
   a flush there must still find it. *)
let far_src =
  {|
  int leaf(int x) { return x + 5; }
  int far(int n) {
    int s = n * 3;
    s = s ^ 7;
    s = s * 5;
    s = s - 11;
    return s + 1000;
  }
  int driver(int n) { return leaf(n) + leaf(n + 1); }
|}

(* Place a relocated copy of [far] at the end of vtext and register it as
   [far_copy]; returns its address and size. *)
let place_far_copy img patch =
  let src = Image.symbol img "far" and len = Image.symbol_size img "far" in
  let vt = img.Image.vtext in
  let dst = vt.Image.sr_base + vt.Image.sr_size - ((len + 15) / 16 * 16) in
  Core.Patch.write_text patch ~addr:dst (Core.Patch.relocate_body patch ~src ~len ~dst);
  Image.add_symbol img "far_copy" ~addr:dst ~size:len;
  (dst, len)

(* Rewrite the copy's [+ 1000] to [+ 2000] through the patching path, so
   the flush reaches every decode map that holds the block. *)
let patch_far_copy img patch (dst, len) =
  let addr, insn =
    List.find
      (fun (_, insn) ->
        match insn with Insn.Alu_ri (Insn.Add, _, _, 1000) -> true | _ -> false)
      (Image.decode_range img ~addr:dst ~len)
  in
  match insn with
  | Insn.Alu_ri (op, rd, ra, _) ->
      Core.Patch.write_text patch ~addr (Mv_isa.Encode.encode (Insn.Alu_ri (op, rd, ra, 2000)))
  | _ -> assert false

(* Heat only accumulates: every block entry counted before is still
   there, with at least as many hits. *)
let heat_kept ~before m =
  let after = Machine.heat_blocks m in
  List.for_all
    (fun (lo, _, hits, _) -> List.exists (fun (lo', _, hits', _) -> lo' = lo && hits' >= hits) after)
    before

(* A machine's decode state costs host words for the code that runs, not
   for the bytes it could run: creating one allocates well under its
   text's and variant-text region's size in words, on an eager image and
   on a lazy one alike, and reaching the far end of a 512 KiB region adds
   one chunk of the dispatch index (and, with heat armed, one chunk of
   heat counters), not an index up to there. *)
let words_bound = 4_000.

let check_words what bound w =
  check_bool (Printf.sprintf "%s allocated %.0f words (< %.0f)" what w bound) true (w < bound)

let test_maps_grow_into_vtext () =
  let eager = (Core.Compiler.build_string far_src).Core.Compiler.p_image in
  let w, _ = alloc_words (fun () -> Machine.create eager) in
  check_words "Machine.create on an eager image" words_bound w;
  let p = Core.Compiler.build_string ~lazy_variants:true far_src in
  let img = p.Core.Compiler.p_image in
  check_int "the lazy image reserves a 512 KiB variant-text region" (512 * 1024)
    img.Image.vtext.Image.sr_size;
  let w, m = alloc_words (fun () -> Machine.create img) in
  check_words "Machine.create on a lazy image" words_bound w;
  Machine.enable_heat m;
  check_int "reference cache starts empty" 0 (Array.length m.Machine.cache);
  for n = 1 to 3 do
    ignore (Machine.call m "driver" [ n ])
  done;
  let patch = Core.Patch.create img ~flush:(Machine.flush_icache m) in
  let copy = place_far_copy img patch in
  let want = Machine.call m "far" [ 6 ] in
  let before = Machine.heat_blocks m in
  let cold = Machine.create img in
  ignore (Machine.call cold "driver" [ 1 ]);
  let w, got = alloc_words (fun () -> Machine.call cold "far_copy" [ 6 ]) in
  check_int "far-end body executes on a fresh machine" want got;
  check_words "dispatching the far-end block" words_bound w;
  (* with heat armed, counting the far-end block adds one chunk of
     counters, not counters up to there *)
  let w, got = alloc_words (fun () -> Machine.call m "far_copy" [ 6 ]) in
  check_int "far-end body executes" want got;
  check_words "dispatching the far-end block with heat armed" words_bound w;
  check_bool "static heat survives the growth" true (heat_kept ~before m);
  check_bool "far-end block counted" true
    (List.exists (fun (lo, _, hits, _) -> lo = fst copy && hits > 0) (Machine.heat_blocks m));
  let invalidated = (Machine.decode_stats m).Machine.ds_invalidated in
  patch_far_copy img patch copy;
  check_bool "flush invalidated the far-end block" true
    ((Machine.decode_stats m).Machine.ds_invalidated > invalidated);
  check_int "re-decoded after the flush" (want + 1000) (Machine.call m "far_copy" [ 6 ]);
  (* the reference stepper grows its own map the same way *)
  Machine.start_call m "far_copy" [ 6 ];
  check_int "reference stepper runs the far-end body" (want + 1000) (Machine.finish_ref m);
  check_bool "reference cache grew to the far-end body" true
    (Array.length m.Machine.cache > fst copy - img.Image.text.Image.sr_base)

let test_maps_grow_into_vtext_smp () =
  let p = Core.Compiler.build_string ~lazy_variants:true far_src in
  let img = p.Core.Compiler.p_image in
  let harts = [ 0; 1 ] in
  let w, smp = alloc_words (fun () -> Smp.create ~n_harts:2 img) in
  check_words "Smp.create of two harts on a lazy image"
    (float_of_int (List.length harts) *. words_bound)
    w;
  List.iter (fun h -> Machine.enable_heat (Smp.machine smp h)) harts;
  let run hart name arg =
    Smp.start_call smp ~hart name [ arg ];
    Smp.run smp;
    Smp.result smp ~hart
  in
  List.iter (fun h -> ignore (run h "driver" (h + 1))) harts;
  let patch = Core.Patch.create img ~flush:(Smp.flush_icache smp) in
  let copy = place_far_copy img patch in
  let want = run 0 "far" 6 in
  List.iter
    (fun h ->
      let m = Smp.machine smp h in
      let before = Machine.heat_blocks m in
      check_int "far-end body executes on every hart" want (run h "far_copy" 6);
      check_bool "static heat survives on every hart" true (heat_kept ~before m))
    harts;
  let invalidated () =
    List.map (fun h -> (Machine.decode_stats (Smp.machine smp h)).Machine.ds_invalidated) harts
  in
  let before = invalidated () in
  patch_far_copy img patch copy;
  List.iter2
    (fun b a -> check_bool "flush reached every hart's far-end block" true (a > b))
    before (invalidated ());
  List.iter (fun h -> check_int "every hart re-decodes" (want + 1000) (run h "far_copy" 6)) harts

let suite =
  [
    tc "superblock vs reference: results, counters, trace" test_bit_identity_vs_reference;
    tc "stepwise identity (SMP's single-instruction step)" test_stepwise_identity;
    tc "patch landing mid-block" test_patch_mid_block;
    tc "patch at a block entry" test_patch_at_block_entry;
    tc "re-decode only after invalidation" test_redecode_only_after_invalidation;
    tc "back-to-back text_poke under the rendezvous" test_back_to_back_poke_under_rendezvous;
    tc_slow "parallel fuzzing is deterministic" test_parallel_fuzz_determinism;
    tc "decode maps grow into vtext" test_maps_grow_into_vtext;
    tc "decode maps grow into vtext on two harts" test_maps_grow_into_vtext_smp;
  ]

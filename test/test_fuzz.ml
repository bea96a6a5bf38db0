(* The differential fuzzing subsystem (lib/fuzz) itself.

   Deterministic generation, a clean oracle sweep, the chaos modes
   (provoked icache-flush bugs must be caught AND shrink to a small
   reproducer), corpus round-trips, and a fuzz-derived regression: under
   randomized commit/revert schedules every drained pending set reports
   [Pending_drained] exactly once. *)

open Util
module Gen = Mv_fuzz.Gen
module Schedule = Mv_fuzz.Schedule
module Oracle = Mv_fuzz.Oracle
module Shrink = Mv_fuzz.Shrink
module Corpus = Mv_fuzz.Corpus
module Driver = Mv_fuzz.Driver
module Machine = Mv_vm.Machine
module Runtime = Core.Runtime
module Trace = Mv_obs.Trace

let string_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  List.iter
    (fun seed ->
      let a = Gen.case seed and b = Gen.case seed in
      check_string (Printf.sprintf "seed %d source" seed) a.Gen.c_src b.Gen.c_src;
      check_bool
        (Printf.sprintf "seed %d assignments" seed)
        true
        (a.Gen.c_assignments = b.Gen.c_assignments);
      check_bool
        (Printf.sprintf "seed %d schedule" seed)
        true
        (Driver.schedule_for a seed = Driver.schedule_for b seed))
    [ 1; 7; 42 ]

let test_generator_surface () =
  (* across a window of seeds the generator must exercise the whole
     language surface the fuzzer claims to cover *)
  let srcs =
    String.concat "\n" (List.init 40 (fun i -> (Gen.case (100 + i)).Gen.c_src))
  in
  let contains needle =
    let n = String.length needle and m = String.length srcs in
    let rec go i = i + n <= m && (String.sub srcs i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      check_bool (needle ^ " appears in generated programs") true (contains needle))
    [
      "multiverse";
      "values(";
      "bind(";
      "noinline";
      "saveall";
      "enum";
      "for (";
      "while";
      "switch (";
      "driver";
      "*";
      "&";
    ]

(* ------------------------------------------------------------------ *)
(* Oracles                                                             *)
(* ------------------------------------------------------------------ *)

let test_oracle_sweep_clean () =
  let summary =
    Driver.run ~cfg:Gen.small_cfg ~seed:1 ~iters:15 ()
  in
  check_int "cases tested" 15 summary.Driver.s_tested;
  check_int "no divergences on the real pipeline" 0
    (List.length summary.Driver.s_reports)

let test_chaos_is_caught_and_shrunk () =
  (* skipping the icache flush must be detected and must shrink small *)
  let summary =
    Driver.run ~chaos:Oracle.Skip_flush ~seed:1 ~iters:10 ~shrink_budget:400 ()
  in
  match summary.Driver.s_reports with
  | [] -> Alcotest.fail "skip-flush chaos was not detected"
  | r :: _ ->
      let shrunk = r.Driver.rp_shrunk.Shrink.sh_case in
      let lines = List.length (String.split_on_char '\n' shrunk.Gen.c_src) in
      check_bool
        (Printf.sprintf "reproducer is small (%d lines)" lines)
        true (lines < 30);
      (* the shrunk case still diverges under chaos... *)
      check_bool "shrunk case still diverges under chaos" true
        (Oracle.run_named ~chaos:Oracle.Skip_flush
           r.Driver.rp_entry.Corpus.e_oracle shrunk
           r.Driver.rp_shrunk.Shrink.sh_sched
        <> None);
      (* ...and is clean on the real pipeline (the bug was injected) *)
      check_bool "shrunk case is clean without chaos" true
        (Oracle.run_named r.Driver.rp_entry.Corpus.e_oracle shrunk
           r.Driver.rp_shrunk.Shrink.sh_sched
        = None)

let test_lost_flush_is_caught () =
  let summary =
    Driver.run ~chaos:Oracle.Lost_flush ~seed:1 ~iters:30 ~shrink_budget:0 ()
  in
  check_bool "lost-flush chaos detected" true (summary.Driver.s_reports <> [])

(* The multi-hart oracle: every generated case, run with the driver on
   hart 0 and a patched-under-load worker on the last hart, must behave
   identically under two seeded 2-hart interleavings and the 1-hart
   container. *)
let test_smp_oracle_clean () =
  List.iter
    (fun seed ->
      let case = Gen.case ~cfg:Gen.small_cfg seed in
      let sched = Driver.schedule_for case seed in
      match Oracle.run_named "smp-schedule-equiv" case sched with
      | None -> ()
      | Some d ->
          Alcotest.failf "seed %d: %a" seed Oracle.pp_divergence d)
    [ 1; 7; 42 ]

(* A severed IPI channel (the victim hart is neither stopped by the
   rendezvous nor re-flushed) must be caught — by the smp oracle
   specifically, via its post-commit coherence probe — and the same
   cases must be clean when the channel is healthy. *)
let test_drop_ack_is_caught () =
  List.iter
    (fun seed ->
      let case = Gen.case ~cfg:Gen.small_cfg seed in
      let sched = Driver.schedule_for case seed in
      match Oracle.run_named ~chaos:Oracle.Drop_ack "smp-schedule-equiv" case sched with
      | None -> Alcotest.failf "seed %d: drop-ack chaos was not detected" seed
      | Some d ->
          check_string "caught by the smp oracle" "smp-schedule-equiv"
            d.Oracle.d_oracle;
          check_bool
            (Printf.sprintf "divergence blames a stale hart (%s)" d.Oracle.d_detail)
            true
            (string_contains d.Oracle.d_detail "stale");
          check_bool "same case is clean without chaos" true
            (Oracle.run_named "smp-schedule-equiv" case sched = None))
    [ 1; 7 ];
  (* the other oracles ignore Drop_ack: a full sweep under it must blame
     only the smp oracle, so the driver attributes the bug correctly *)
  let summary =
    Driver.run ~cfg:Gen.small_cfg ~chaos:Oracle.Drop_ack ~seed:1 ~iters:5
      ~shrink_budget:0 ()
  in
  check_bool "driver sweep under drop-ack detects divergences" true
    (summary.Driver.s_reports <> []);
  List.iter
    (fun r ->
      check_string "every report names the smp oracle" "smp-schedule-equiv"
        r.Driver.rp_entry.Corpus.e_oracle)
    summary.Driver.s_reports

(* A variant-cache eviction that forgets to invalidate the dedup table
   (so a later structural-hash hit links a freed-and-recycled block)
   must be caught — by the lazy oracle specifically, via its
   evict-and-recycle churn probe — and the same cases must be clean
   when the cache is healthy. *)
let test_stale_cache_is_caught () =
  List.iter
    (fun seed ->
      let case = Gen.case ~cfg:Gen.small_cfg seed in
      let sched = Driver.schedule_for case seed in
      match
        Oracle.run_named ~chaos:Oracle.Stale_cache "lazy-eager-equiv" case
          sched
      with
      | None -> Alcotest.failf "seed %d: stale-cache chaos was not detected" seed
      | Some d ->
          check_string "caught by the lazy oracle" "lazy-eager-equiv"
            d.Oracle.d_oracle;
          check_bool
            (Printf.sprintf "divergence blames a stale body (%s)" d.Oracle.d_detail)
            true
            (string_contains d.Oracle.d_detail "stale");
          check_bool "same case is clean without chaos" true
            (Oracle.run_named "lazy-eager-equiv" case sched = None))
    [ 1; 7 ];
  (* the other oracles never enable lazy materialization: a full sweep
     under stale-cache must blame only the lazy oracle, so the driver
     attributes the bug correctly *)
  let summary =
    Driver.run ~cfg:Gen.small_cfg ~chaos:Oracle.Stale_cache ~seed:1 ~iters:5
      ~shrink_budget:0 ()
  in
  check_bool "driver sweep under stale-cache detects divergences" true
    (summary.Driver.s_reports <> []);
  List.iter
    (fun r ->
      check_string "every report names the lazy oracle" "lazy-eager-equiv"
        r.Driver.rp_entry.Corpus.e_oracle)
    summary.Driver.s_reports

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)
(* ------------------------------------------------------------------ *)

let test_corpus_roundtrip () =
  let case = Gen.case ~cfg:Gen.small_cfg 3 in
  let sched = Driver.schedule_for case 3 in
  let entry =
    {
      Corpus.e_seed = 3;
      e_oracle = "interp-vs-vm";
      e_detail = "synthetic entry for the round-trip test";
      e_src = case.Gen.c_src;
      e_args = case.Gen.c_args;
      e_assignments = case.Gen.c_assignments;
      e_schedule = sched;
    }
  in
  (* JSON round-trip preserves every field *)
  (match Corpus.of_json (Corpus.to_json entry) with
  | Error m -> Alcotest.failf "corpus decode failed: %s" m
  | Ok entry' ->
      check_bool "entry round-trips" true (entry' = entry));
  (* disk round-trip through save/load_dir *)
  let dir = Filename.temp_file "mvfuzz" "corpus" in
  Sys.remove dir;
  let path = Corpus.save ~dir entry in
  (match Corpus.load_file path with
  | Error m -> Alcotest.failf "corpus load failed: %s" m
  | Ok entry' -> check_bool "saved entry loads back equal" true (entry' = entry));
  (match Corpus.load_dir dir with
  | [ (_, Ok entry') ] ->
      check_bool "load_dir finds the entry" true (entry' = entry)
  | other -> Alcotest.failf "load_dir returned %d entries" (List.length other));
  (* the stored source rebuilds into a runnable case *)
  let rebuilt = Corpus.to_case entry in
  check_string "rebuilt source" case.Gen.c_src rebuilt.Gen.c_src;
  Sys.remove path;
  Sys.rmdir dir

let test_corpus_check_clean () =
  let case = Gen.case ~cfg:Gen.small_cfg 4 in
  let entry =
    {
      Corpus.e_seed = 4;
      e_oracle = "commit-soundness";
      e_detail = "clean case: check_corpus must report it fixed";
      e_src = case.Gen.c_src;
      e_args = case.Gen.c_args;
      e_assignments = case.Gen.c_assignments;
      e_schedule = [];
    }
  in
  let dir = Filename.temp_file "mvfuzz" "corpus2" in
  Sys.remove dir;
  let path = Corpus.save ~dir entry in
  let summary = Driver.check_corpus ~dir () in
  check_int "one entry checked" 1 summary.Driver.s_tested;
  check_int "clean entry passes" 0 (List.length summary.Driver.s_reports);
  Sys.remove path;
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Fuzz-derived regression: Pending_drained is exactly-once            *)
(* ------------------------------------------------------------------ *)

(* Replays the subject side of the schedule-equiv oracle with a trace
   ring attached: mid-run safe commits/reverts journal pending sets when
   frames are live, and every set that drains must report Pending_drained
   exactly once — a set that drained twice would double-apply patches. *)
let drained_pset_ids case (sched : Schedule.t) : int list =
  let program = Core.Compiler.build_string case.Gen.c_src in
  let img = program.Core.Compiler.p_image in
  let machine = Machine.create img in
  let rt =
    Runtime.create img ~flush:(fun ~addr ~len ->
        Machine.flush_icache machine ~addr ~len)
  in
  let ring = Trace.ring ~clock:(fun () -> 0.0) () in
  Runtime.set_tracer rt (Some (Trace.sink ring));
  Runtime.set_live_scanner rt (fun () -> Machine.live_code_addrs machine);
  let apply (a : Gen.assignment) =
    List.iter
      (fun (name, v) ->
        let w =
          match List.find_opt (fun sw -> sw.Gen.sw_name = name) case.Gen.c_switches with
          | Some sw -> Minic.Ast.ty_width sw.Gen.sw_ty
          | None -> 8
        in
        Mv_link.Image.write img (Mv_link.Image.symbol img name) v w)
      a.Gen.a_ints;
    List.iter
      (fun (name, target) ->
        Mv_link.Image.write img
          (Mv_link.Image.symbol img name)
          (Mv_link.Image.symbol img target)
          8)
      a.Gen.a_ptrs
  in
  List.iter
    (fun (round : Schedule.round) ->
      List.iter
        (fun (op : Schedule.top_op) ->
          match op with
          | Schedule.Tset a -> apply a
          | Schedule.Tcommit -> ignore (Runtime.commit rt)
          | Schedule.Trevert -> ignore (Runtime.revert rt)
          | Schedule.Tcommit_safe -> ignore (Runtime.commit_safe rt)
          | Schedule.Trevert_safe -> ignore (Runtime.revert_safe rt)
          | Schedule.Tdrain -> Runtime.safepoint rt)
        round.Schedule.r_top;
      let polls = ref 0 in
      let todo = ref round.Schedule.r_mid in
      Machine.set_safepoint machine
        (Some
           (fun () ->
             let i = !polls in
             incr polls;
             let now, later = List.partition (fun (ix, _) -> ix = i) !todo in
             todo := later;
             List.iter
               (fun ((_, op) : int * Schedule.mid_op) ->
                 let policy d = if d then Runtime.Defer else Runtime.Deny in
                 match op with
                 | Schedule.Mcommit_safe d ->
                     ignore (Runtime.commit_safe ~policy:(policy d) rt)
                 | Schedule.Mrevert_safe d ->
                     ignore (Runtime.revert_safe ~policy:(policy d) rt)
                 | Schedule.Mdrain -> ())
               now;
             Runtime.safepoint rt))
        ;
      ignore (Machine.call machine case.Gen.c_entry [ round.Schedule.r_arg ]))
    sched;
  Machine.set_safepoint machine None;
  ignore (Runtime.revert rt);
  Runtime.safepoint rt;
  List.filter_map
    (fun (st : Trace.stamped) ->
      match st.Trace.ev with
      | Trace.Pending_drained { pset; _ } -> Some pset
      | _ -> None)
    (Trace.events ring)

let test_pending_drained_exactly_once () =
  let total = ref 0 in
  List.iter
    (fun seed ->
      let case = Gen.case ~cfg:Gen.small_cfg seed in
      let sched = Driver.schedule_for case seed in
      let drained = drained_pset_ids case sched in
      total := !total + List.length drained;
      check_bool
        (Printf.sprintf "seed %d: every drained set reported exactly once" seed)
        true
        (List.length (List.sort_uniq compare drained) = List.length drained))
    (List.init 25 (fun i -> i + 1));
  (* the property is vacuous unless some schedule actually drains *)
  check_bool "at least one pending set drained across the sweep" true (!total > 0)

(* ------------------------------------------------------------------ *)
(* One compiled unit, many builds                                      *)
(* ------------------------------------------------------------------ *)

(* The oracles link each distinct (source, lazy) pair from one compiled
   unit: these tests pin the contract that makes one compile
   observably equal to one per build. *)

module Compiler = Core.Compiler
module Objfile = Mv_codegen.Objfile

let memo_src =
  {|
    multiverse int mode;
    int acc;
    multiverse int spin(int n) {
      int s = 0;
      for (int i = 0; i < n; i = i + 1) {
        if (mode) { s = s + 2; } else { s = s + 1; }
      }
      acc = acc + s;
      return s;
    }
  |}

let compile ?lazy_variants src =
  Compiler.compile_unit ?lazy_variants { Compiler.u_name = "main"; u_source = src }

let section_bytes img sec =
  match Image.section_range img sec with
  | None -> Bytes.empty
  | Some r -> Image.read_bytes img r.Image.sr_base r.Image.sr_size

let sections img = List.map (section_bytes img) Objfile.all_sections

let vtext_bytes img =
  let v = img.Image.vtext in
  Image.read_bytes img v.Image.sr_base v.Image.sr_size

let session_of img =
  let m = Machine.create img in
  (m, Runtime.create img ~flush:(fun ~addr ~len -> Machine.flush_icache m ~addr ~len))

let test_link_twice_is_independent () =
  let cu = compile memo_src in
  let a = Compiler.link [ cu ] and b = Compiler.link [ cu ] in
  List.iter
    (fun sec ->
      check_bool
        (Objfile.section_name sec ^ " is byte-identical across links")
        true
        (Bytes.equal (section_bytes a sec) (section_bytes b sec)))
    Objfile.all_sections;
  let b0 = sections b in
  (* a data write, a commit (text patch) and a frame-map corruption, all
     in [a] *)
  Image.write a (Image.symbol a "acc") 99 8;
  Image.write a (Image.symbol a "mode") 1 8;
  let _m, rt = session_of a in
  check_bool "the commit patched something" true (Runtime.commit rt > 0);
  (match Image.section_range a Objfile.Mv_framemaps with
  | Some r when r.Image.sr_size > 0 ->
      Image.write_bytes a r.Image.sr_base (Bytes.make r.Image.sr_size '\xff')
  | _ -> Alcotest.fail "the unit has no frame maps to corrupt");
  check_bool "the commit changed a's text" false
    (Bytes.equal (section_bytes a Objfile.Text) (section_bytes b Objfile.Text));
  check_bool "b is untouched by a's writes, commit and corruption" true
    (sections b = b0);
  check_bool "a third link of the unit matches the first" true
    (sections (Compiler.link [ cu ]) = b0)

let test_lazy_link_twice_is_independent () =
  let cu = compile ~lazy_variants:true memo_src in
  let a = Compiler.link [ cu ] and b = Compiler.link [ cu ] in
  let b0 = vtext_bytes b in
  let m, rt = session_of a in
  Runtime.enable_lazy rt ~recipes:cu.Compiler.cu_recipes ~call_pad:cu.Compiler.cu_call_pad;
  Image.write a (Image.symbol a "mode") 1 8;
  ignore (Runtime.commit rt);
  check_int "a materialized the variant" 1 (Runtime.stats rt).Runtime.st_materialized;
  check_int "a runs the bound variant" 8 (Machine.call m "spin" [ 4 ]);
  check_bool "b's variant-text region is untouched" true (Bytes.equal b0 (vtext_bytes b));
  check_bool "materializing left the unit's recipes as compiled" true
    (cu.Compiler.cu_recipes = (compile ~lazy_variants:true memo_src).Compiler.cu_recipes)

(* An object's observable content: every section's bytes, its
   relocations and its symbols. *)
let obj_contents (o : Objfile.t) =
  (List.map (Objfile.section_contents o) Objfile.all_sections, Objfile.relocs o, Objfile.symbols o)

(* Chaos lives in the images and runtimes the oracles build, never in
   the remembered units: after the OSR and lazy oracles diverge under
   their chaos modes, the same case is clean under every oracle, and the
   cached auxiliary units still equal a fresh compile of their sources. *)
let test_chaos_does_not_poison_the_memo () =
  let caught = ref 0 in
  List.iter
    (fun seed ->
      let case = Gen.case ~cfg:Gen.small_cfg seed in
      let sched = Driver.schedule_for case seed in
      List.iter
        (fun (chaos, oracle) ->
          if Oracle.run_named ~chaos oracle case sched <> None then incr caught)
        [ (Oracle.Corrupt_framemap, "osr-state-equiv"); (Oracle.Stale_cache, "lazy-eager-equiv") ];
      match Oracle.run_all case sched with
      | None -> ()
      | Some d -> Alcotest.failf "seed %d after chaos: %a" seed Oracle.pp_divergence d)
    [ 1; 2; 3 ];
  check_bool "the chaos runs diverged" true (!caught > 0);
  List.iter
    (fun ((aux : Compiler.unit_input), lazy_variants, cu) ->
      check_bool
        (Printf.sprintf "cached %s (lazy=%b) equals a fresh compile" aux.Compiler.u_name
           lazy_variants)
        true
        (obj_contents cu.Compiler.cu_obj
        = obj_contents (Compiler.compile_unit ~lazy_variants aux).Compiler.cu_obj))
    (Oracle.aux_units ())

(* ------------------------------------------------------------------ *)
(* Auxiliary workloads as separately compiled units                    *)
(* ------------------------------------------------------------------ *)

let test_aux_units_compile_alone () =
  List.iter
    (fun ((aux : Compiler.unit_input), lazy_variants, _) ->
      let cu = Compiler.compile_unit ~lazy_variants aux in
      check_bool
        (Printf.sprintf "%s (lazy=%b) compiles alone with no warnings" aux.Compiler.u_name
           lazy_variants)
        true (cu.Compiler.cu_warnings = []))
    (Oracle.aux_units ())

module D = Core.Descriptor

(* The descriptor records of an image, one list per [multiverse.*]
   section in section order, with every address made symbol-relative so
   a unit's records compare equal wherever the linker placed it. *)
let descriptor_records img =
  let rel a =
    match Image.symbol_at img a with
    | Some s -> Printf.sprintf "%s+%d" s (a - Image.symbol img s)
    | None -> Printf.sprintf "?0x%x" a
  in
  let loc = function
    | D.Loc_reg r -> Printf.sprintf "r%d" r
    | D.Loc_slot n -> Printf.sprintf "s%d" n
  in
  let variant (v : D.variant_record) =
    Printf.sprintf "%s/%d {%s}" (rel v.D.va_addr) v.D.va_size
      (String.concat " "
         (List.map
            (fun (g : D.guard_record) ->
              Printf.sprintf "%s:%d..%d" (rel g.D.gr_var) g.D.gr_lo g.D.gr_hi)
            v.D.va_guards))
  in
  let safepoint (sp : D.safepoint_record) =
    Printf.sprintf "#%d@%s(%s)" sp.D.fs_id (rel sp.D.fs_pc)
      (String.concat "," (List.map (fun (v, l) -> Printf.sprintf "%d:%s" v (loc l)) sp.D.fs_live))
  in
  [
    List.map
      (fun (v : D.variable) ->
        Printf.sprintf "%s w%d %b %b" (rel v.D.vr_addr) v.D.vr_width v.D.vr_signed v.D.vr_fnptr)
      (D.parse_variables img);
    List.map
      (fun (c : D.callsite) -> Printf.sprintf "%s -> %s" (rel c.D.cs_site) (rel c.D.cs_target))
      (D.parse_callsites img);
    List.map
      (fun (f : D.function_record) ->
        Printf.sprintf "%s/%d [%s]" (rel f.D.fd_generic) f.D.fd_generic_size
          (String.concat "; " (List.map variant f.D.fd_variants)))
      (D.parse_functions img);
    List.map
      (fun (m : D.framemap_record) ->
        Printf.sprintf "%s %d [%s] %s" (rel m.D.fm_addr) m.D.fm_frame_bytes
          (String.concat "," (List.map string_of_int m.D.fm_saves))
          (String.concat " " (List.map safepoint m.D.fm_safepoints)))
      (D.parse_framemaps img);
  ]

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t

(* Linking [case; aux] concatenates the units' [multiverse.*] sections —
   the path every fuzz case's OSR, SMP and lazy builds take: each
   section holds the case's records, then the aux's, every address
   relocated to where the linker placed that unit.  The OSR unit imports
   [driver], so each aux's own records are taken from a link behind a
   one-function stand-in for the case. *)
let test_aux_descriptors_follow_the_case () =
  let stub = compile "int driver(int n) { return n; }" in
  let stub_records = descriptor_records (Compiler.link [ stub ]) in
  let aux_records =
    List.map
      (fun (aux, lazy_variants, cu) ->
        let behind_stub = descriptor_records (Compiler.link [ stub; cu ]) in
        let own = List.map2 (fun s r -> drop (List.length s) r) stub_records behind_stub in
        (aux, lazy_variants, cu, own))
      (Oracle.aux_units ())
  in
  List.iter
    (fun seed ->
      let case = Gen.case ~cfg:Gen.small_cfg seed in
      List.iter
        (fun ((aux : Compiler.unit_input), lazy_variants, aux_cu, aux_alone) ->
          let case_cu = compile ~lazy_variants case.Gen.c_src in
          let case_alone = descriptor_records (Compiler.link [ case_cu ]) in
          let linked = descriptor_records (Compiler.link [ case_cu; aux_cu ]) in
          check_bool
            (Printf.sprintf "seed %d + %s (lazy=%b): every record address names a symbol" seed
               aux.Compiler.u_name lazy_variants)
            false
            (List.exists (List.exists (fun r -> string_contains r "?0x")) linked);
          check_bool
            (Printf.sprintf "seed %d + %s (lazy=%b): the case's records, then the aux's" seed
               aux.Compiler.u_name lazy_variants)
            true
            (linked = List.map2 ( @ ) case_alone aux_alone))
        aux_records)
    (List.init 20 (fun i -> i + 1));
  check_bool "the aux units carry descriptor records" true
    (List.for_all (fun (_, _, _, r) -> List.exists (( <> ) []) r) aux_records)

(* A worker exception must fail the campaign in every mode: an inverted
   size range makes [Gen.case] raise on the first case. *)
let test_parallel_worker_exception_propagates () =
  let cfg = { Gen.small_cfg with Gen.n_helpers = (3, 1) } in
  let outcome f = match f () with _ -> None | exception e -> Some e in
  let single = outcome (fun () -> Driver.run ~cfg ~seed:1 ~iters:4 ()) in
  let parallel =
    outcome (fun () -> Driver.run_parallel ~cfg ~domains:2 ~seed:1 ~iters:4 ())
  in
  check_bool "single-domain run raises" true (single <> None);
  check_bool "2-domain run raises the same exception" true (parallel = single)

let suite =
  [
    tc "generator is deterministic" test_generator_deterministic;
    tc "generator covers the language surface" test_generator_surface;
    tc "oracle sweep over seeds is clean" test_oracle_sweep_clean;
    tc_slow "skip-flush chaos is caught and shrinks small" test_chaos_is_caught_and_shrunk;
    tc_slow "lost-flush chaos is caught" test_lost_flush_is_caught;
    tc "smp oracle is clean on the real pipeline" test_smp_oracle_clean;
    tc_slow "drop-ack chaos is caught by the smp oracle" test_drop_ack_is_caught;
    tc_slow "stale-cache chaos is caught by the lazy oracle" test_stale_cache_is_caught;
    tc "corpus entries round-trip (json, disk)" test_corpus_roundtrip;
    tc "check_corpus passes on a clean entry" test_corpus_check_clean;
    tc_slow "Pending_drained fires exactly once per drained set"
      test_pending_drained_exactly_once;
    tc "linking one unit twice gives independent images" test_link_twice_is_independent;
    tc "lazy unit links twice, materializes in one image only"
      test_lazy_link_twice_is_independent;
    tc "chaos never poisons the compiled-unit memo" test_chaos_does_not_poison_the_memo;
    tc "auxiliary workloads compile as standalone units" test_aux_units_compile_alone;
    tc "linked aux descriptors follow the case's, relocated"
      test_aux_descriptors_follow_the_case;
    tc "a dying worker fails run_parallel like run"
      test_parallel_worker_exception_propagates;
  ]

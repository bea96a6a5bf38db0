(* The host-cost benchmark of the multiverse toolchain.

     main.exe --workload fuzz|reconfig|execute --seed N --seconds S --trace 0|1
              [--ops N] [--chaos]

   One process, one domain, one client in a closed loop: the next op
   starts when the previous one returns.  With [--trace 0] the run sets
   the workload up several times (set-up time is their median), measures
   ops for S seconds, to the end of a whole rotation of them, and prints
   the end-to-end metrics.  With [--trace 1] it sets up twice and runs
   the same ops on both set-ups, untraced and traced, interleaved in
   short chunks over S seconds; it prints the
   per-layer metrics of the traced pass and the difference in throughput
   between the two (the tracing overhead).  [--ops N] runs exactly N ops
   per pass instead of a time budget; [--chaos] runs the workload's
   known-bad configuration, under which ops must fail.  The last line of
   standard output is the result as one JSON object. *)

let workloads = [ Fuzz.workload; Reconfig.workload; Execute.workload ]

(* Set-ups per [--trace 0] run; set-up time is their median. *)
let setups = 7

type pass = {
  ops : int;
  failed : int;
  latencies_ms : float array;  (** sorted; failed ops count as infinitely slow *)
  floor_ms : float;  (** mean op time, each block at its fastest repetition *)
  busy_s : float;  (** time inside ops *)
  words : float;  (** allocated inside ops *)
  counters : (string * float) list;  (** change over the pass *)
  code_bytes : float;
  inputs : string;
}

(* Each set-up and each pass starts from a compacted heap, so that
   collection work left over from the previous one is not measured. *)
let setup_timed setup =
  Gc.compact ();
  let t0 = Span.now_ns () in
  let inst = setup () in
  (inst, Span.seconds_since t0)

type running = {
  inst : Workload.instance;
  traced : bool;
  c0 : (string * float) list;
  mutable lat : float list;
  mutable failed : int;
  mutable busy_ns : int64;
  mutable words_in : float;
}

let run_op r i =
  Span.enabled := r.traced;
  let w0 = Span.words () and start = Span.now_ns () in
  let ok =
    try if r.traced then Span.with_op i (fun () -> r.inst.Workload.op i) else r.inst.Workload.op i
    with _ -> false
  in
  let stop = Span.now_ns () in
  r.words_in <- r.words_in +. (Span.words () -. w0);
  r.busy_ns <- Int64.add r.busy_ns (Int64.sub stop start);
  r.lat <- (if ok then Int64.to_float (Int64.sub stop start) /. 1e6 else infinity) :: r.lat;
  if not ok then r.failed <- r.failed + 1;
  if r.traced then r.inst.Workload.after_op ();
  Span.enabled := false

(* On a shared host the speed changes from second to second, by a third
   and more, as other tenants come and go; a run's mean or median op time
   then mostly measures how long the run was slowed.  The floor measures
   the program instead: every block of ops repeats identical work many
   times over the run, at moments seconds apart, and its fastest
   repetition is its cost when the host was quietest.  A block all of
   whose repetitions failed is infinitely slow.  Blocks that ran only once
   (the end of a run cut by [--ops]) count as they are. *)
let floor_ms (inst : Workload.instance) in_order =
  let b = inst.Workload.block in
  let best = Hashtbl.create 64 in
  for k = 0 to (Array.length in_order / b) - 1 do
    let t = ref 0.0 in
    for j = 0 to b - 1 do
      t := !t +. in_order.((k * b) + j)
    done;
    let w = k mod (inst.Workload.batch / b) in
    match Hashtbl.find_opt best w with
    | Some t' when t' <= !t -> ()
    | _ -> Hashtbl.replace best w !t
  done;
  let n = Hashtbl.length best in
  if n = 0 then 0.0 else Hashtbl.fold (fun _ t acc -> acc +. t) best 0.0 /. float (n * b)

(* Run the instances over the same op indices in alternating chunks of
   about [chunk_s] each, so that all of them see the same phases of a
   shared machine; the budget counts the whole loop. *)
let chunk_s = 0.25

let run_passes (insts : (Workload.instance * bool) list) ~budget : pass list =
  let rs =
    List.map
      (fun (inst, traced) ->
        { inst; traced; c0 = inst.Workload.counters (); lat = []; failed = 0; busy_ns = 0L;
          words_in = 0.0 })
      insts
  in
  let lead = List.hd rs in
  let batch = lead.inst.Workload.batch in
  Gc.compact ();
  let t0 = Span.now_ns () and next = ref 0 in
  let more () =
    match budget with `Ops n -> !next < n | `Seconds s -> Span.seconds_since t0 < s
  in
  while more () do
    let first = !next and c = Span.now_ns () in
    let chunk_done () =
      (match budget with `Ops n -> !next >= n | `Seconds _ -> false)
      || (!next > first && (!next - first) mod batch = 0 && Span.seconds_since c >= chunk_s)
    in
    while not (chunk_done ()) do
      run_op lead !next;
      incr next
    done;
    List.iter (fun r -> for i = first to !next - 1 do run_op r i done) (List.tl rs)
  done;
  List.map
    (fun r ->
      let in_order = Array.of_list (List.rev r.lat) in
      let latencies_ms = Array.copy in_order in
      Array.sort compare latencies_ms;
      {
        ops = !next;
        failed = r.failed;
        latencies_ms;
        floor_ms = floor_ms r.inst in_order;
        busy_s = Int64.to_float r.busy_ns /. 1e9;
        words = r.words_in;
        counters =
          List.map
            (fun (k, v) ->
              (* a peak is a level, not a running count *)
              if String.ends_with ~suffix:"_peak" k then (k, v) else (k, v -. List.assoc k r.c0))
            (r.inst.Workload.counters ());
        code_bytes = r.inst.Workload.code_bytes ();
        inputs = r.inst.Workload.inputs ();
      })
    rs

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  percentile a 0.5

let per_op p v = if p.ops = 0 then 0.0 else v /. float p.ops
let counter p k = Option.value ~default:0.0 (List.assoc_opt k p.counters)
let ops_per_s p = float p.ops /. p.busy_s

let peak_heap_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0 && attempted > 0) attempted failed (String.concat ", " m)

let print_table title (p : pass) rows =
  Printf.printf "%s\n  inputs %s\n" title p.inputs;
  List.iter (fun (name, unit_, v) -> Printf.printf "  %-44s %16.6g %s\n" name v unit_) rows

(* Every end-to-end metric.  The ones outside BENCHMARK.json are printed,
   not gated: they apply to some workloads only, or are 0, or swing with
   the host's slow phases (perfbench/RATIONALE.md). *)
let end_to_end ~setup_s p =
  let gated =
    [
      ("op_ms_floor", "ms", p.floor_ms);
      ("alloc_words_per_op", "words", per_op p p.words);
      ("peak_heap_mb", "MiB", peak_heap_mb ());
      ("setup_s", "s", setup_s);
    ]
  in
  let printed =
    [
      ("ops_per_s", "1/s", ops_per_s p);
      ("op_ms_p50", "ms", percentile p.latencies_ms 0.5);
      ("op_ms_p90", "ms", percentile p.latencies_ms 0.9);
      ("op_fail_ratio", "ratio", per_op p (float p.failed));
    ]
    @ (if p.code_bytes > 0.0 then
         [
           ("op_ms_p99", "ms", percentile p.latencies_ms 0.99);
           ("sim_cycles_per_op", "cycles", per_op p (counter p "sim_cycles"));
           ("code_bytes", "B", p.code_bytes);
         ]
       else [])
  in
  (gated, printed)

let oracle_metrics =
  List.concat_map
    (fun n -> [ (Printf.sprintf "fuzz.oracle.%s" n, `Ms); (Printf.sprintf "fuzz.oracle.%s" n, `Words) ])
    Mv_fuzz.Oracle.oracle_names

(* Spans whose mean self time per call is a per-layer metric. *)
let timed_layers =
  [ ("fuzz.gen", `Ms) ]
  @ oracle_metrics
  @ [
      ("minic.check_string", `Ms);
      ("ir.lower_tunit", `Ms);
      ("ir.interp_run", `Ms);
      ("core.variantgen.generate", `Ms);
      ("core.compiler.compile_unit", `Ms);
      ("link.link", `Ms);
      ("link.link", `Words);
      ("vm.machine_create", `Ms);
      ("vm.machine_create", `Words);
      ("core.runtime.create", `Ms);
      ("core.runtime.commit.hit", `Ms);
      ("core.runtime.commit.miss", `Ms);
      ("vm.call", `Ms);
      ("vm.smp_run", `Ms);
    ]

(* Counters reported per op ([name], unit). *)
let per_op_counters =
  [
    ("core.runtime.commit.materialized", "1/op");
    ("core.runtime.commit.cache_hits", "1/op");
    ("core.runtime.commit.dedup_hits", "1/op");
    ("core.runtime.commit.evictions", "1/op");
    ("core.runtime.commit.budget_denials", "1/op");
    ("core.runtime.commit.patches", "1/op");
    ("core.runtime.commit.bytes_patched", "B/op");
    ("vm.superblocks_compiled", "1/op");
    ("vm.insns_decoded", "1/op");
    ("vm.superblocks_invalidated", "1/op");
    ("vm.smp.rendezvous", "1/op");
    ("vm.smp.ipis_sent", "1/op");
    ("vm.smp.rendezvous_cycles", "cycles/op");
  ]

let per_layer ~untraced ~(traced : pass) agg =
  let find name = Hashtbl.find_opt agg name in
  let mean_ms name =
    match find name with Some a -> a.Span.self_ns /. float a.Span.calls /. 1e6 | None -> 0.0
  in
  let mean_words name =
    match find name with Some a -> a.Span.self_words /. float a.Span.calls | None -> 0.0
  in
  let timed =
    List.map
      (function
        | name, `Ms -> (name ^ ".ms", "ms", mean_ms name)
        | name, `Words -> (name ^ ".words", "words", mean_words name))
      timed_layers
  in
  let commit =
    let parts = List.filter_map find [ "core.runtime.commit"; "core.runtime.commit.hit"; "core.runtime.commit.miss" ] in
    let calls = List.fold_left (fun acc a -> acc + a.Span.calls) 0 parts in
    let ns = List.fold_left (fun acc a -> acc +. a.Span.self_ns) 0.0 parts in
    if calls = 0 then 0.0 else ns /. float calls /. 1e6
  in
  let codegen =
    mean_ms "core.compiler.compile_unit"
    -. mean_ms "minic.check_string" -. mean_ms "ir.lower_tunit"
    -. mean_ms "core.variantgen.generate"
  in
  let c = counter traced in
  let hit_ratio =
    let h = c "core.runtime.commit.cache_hits" and m = c "core.runtime.commit.materialized" in
    if h +. m = 0.0 then 0.0 else h /. (h +. m)
  in
  let total_ns name = match find name with Some a -> a.Span.total_ns | None -> 0.0 in
  (* host time spent running simulated code *)
  let guest_s = (total_ns "vm.call" +. total_ns "vm.smp_run") /. 1e9 in
  let traced_rate = ops_per_s traced and untraced_rate = ops_per_s untraced in
  timed
  @ [
      ("codegen.ms", "ms", codegen);
      ("core.runtime.commit.ms", "ms", commit);
      ("core.runtime.commit.cache_hit_ratio", "ratio", hit_ratio);
      ("core.runtime.commit.variant_bytes_peak", "B", c "core.runtime.commit.variant_bytes_peak");
      ("vm.sim_cycles_per_op", "cycles", per_op traced (c "sim_cycles"));
      ( "vm.sim_mcycles_per_s",
        "Mcycles/s",
        if guest_s = 0.0 then 0.0 else c "sim_cycles" /. guest_s /. 1e6 );
    ]
  @ List.map (fun (name, unit_) -> (name, unit_, per_op traced (c name))) per_op_counters
  @ [
      ("code_bytes", "B", traced.code_bytes);
      ("trace.op_ms", "ms", per_op traced (total_ns "op") /. 1e6);
      ("trace.unattributed_ms", "ms", mean_ms "op");
      ("trace.ops_per_s", "1/s", traced_rate);
      ("trace.untraced_ops_per_s", "1/s", untraced_rate);
      ("trace.overhead_pct", "%", (untraced_rate -. traced_rate) /. untraced_rate *. 100.0);
    ]

(* Self time per span name, and the share of op time each accounts for:
   the rows inside ops plus the unattributed remainder add up to the op
   time. *)
let print_self_times (p : pass) agg =
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg [] |> List.sort compare in
  let op_ms = match Hashtbl.find_opt agg "op" with Some a -> a.Span.total_ns /. 1e6 | None -> 0.0 in
  Printf.printf "traced pass: %d ops, self time per layer\n" p.ops;
  Printf.printf "  %-40s %8s %12s %12s %12s %8s\n" "span" "calls" "self ms" "ms/call" "in-op ms/op" "op %";
  let accounted = ref 0.0 in
  List.iter
    (fun (name, (a : Span.agg)) ->
      let in_op_ms = a.Span.op_self_ns /. 1e6 in
      accounted := !accounted +. in_op_ms;
      Printf.printf "  %-40s %8d %12.3f %12.4f %12.4f %8.2f\n"
        (if name = "op" then "op (unattributed remainder)" else name)
        a.Span.calls (a.Span.self_ns /. 1e6)
        (a.Span.self_ns /. float a.Span.calls /. 1e6)
        (per_op p in_op_ms)
        (if op_ms = 0.0 then 0.0 else in_op_ms /. op_ms *. 100.0))
    rows;
  Printf.printf "  in-op self times sum to %.3f ms of %.3f ms op time\n" !accounted op_ms

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let ops = ref 0 and chaos = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " fuzz, reconfig or execute");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time per run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--ops", Arg.Set_int ops, " run exactly this many ops per pass instead");
      ("--chaos", Arg.Set chaos, " run the workload's known-bad configuration");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.find_opt (fun w -> w.Workload.name = !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let setup () = wl.Workload.setup ~chaos:!chaos ~seed:!seed in
  let budget s = if !ops > 0 then `Ops !ops else `Seconds s in
  let name = wl.Workload.name in
  Printf.printf "workload %s, seed %d%s\n" name !seed (if !chaos then ", known-bad configuration" else "");
  if !trace = 0 then begin
    let times = ref [] and inst = ref None in
    for _ = 1 to setups do
      inst := None;
      let i, t = setup_timed setup in
      inst := Some i;
      times := t :: !times
    done;
    let p = List.hd (run_passes [ (Option.get !inst, false) ] ~budget:(budget !seconds)) in
    let gated, printed = end_to_end ~setup_s:(median !times) p in
    print_table
      (Printf.sprintf "untraced pass: %d ops in %.3f s, %d set-ups" p.ops p.busy_s setups)
      p (gated @ printed);
    print_result ~attempted:p.ops ~failed:p.failed gated
  end
  else begin
    let untraced_inst = fst (setup_timed setup) in
    Gc.compact ();
    Span.start ();
    let traced_inst = Span.with_span "setup" setup in
    Span.enabled := false;
    let untraced, traced =
      match run_passes [ (untraced_inst, false); (traced_inst, true) ] ~budget:(budget !seconds) with
      | [ u; t ] -> (u, t)
      | _ -> assert false
    in
    let spans = Span.stop () in
    let gated, printed = end_to_end ~setup_s:0.0 untraced in
    print_table (Printf.sprintf "untraced pass: %d ops" untraced.ops) untraced
      (List.filter (fun (n, _, _) -> n <> "setup_s") (gated @ printed));
    let agg = Span.aggregate spans in
    print_self_times traced agg;
    let layers = per_layer ~untraced ~traced agg in
    print_table "per-layer metrics (traced pass)" traced layers;
    let dir = "perfbench/_out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Printf.sprintf "%s/trace-%s-seed%d.json" dir name !seed in
    Span.write_chrome path spans;
    Printf.printf "spans written to %s\n" path;
    print_result ~attempted:(untraced.ops + traced.ops)
      ~failed:(untraced.failed + traced.failed) layers
  end

(* [reconfig]: the paper's reconfiguration path under a commit storm.  A
   lazy build (variants materialized on demand) has twenty boolean
   switches guarding one multiversed function, which a farm of recorded
   call sites reaches.  Each op writes a valuation, commits it, and makes
   one driver call, whose result has a closed form in the valuation.

   Valuations come from a skewed mix: nine ops in ten draw from a small
   hot set, the rest uniformly from all 2^20.  The byte budget holds fewer
   bodies than the hot set, so commits hit the variant cache, materialize
   and evict.  The farm is large enough that patching call sites shows next to
   materialization in a commit's time.

   The stream of valuations repeats every [period] ops, so that each block
   of [block] ops is timed many times over the run and the floor can take
   its fastest run.  The cold valuations of one period are evicted long
   before they come round again, so they materialize on every pass. *)

module Runtime = Core.Runtime
module Machine = Mv_vm.Machine
module Image = Mv_link.Image
module Rng = Mv_fuzz.Rng

let n_switches = 20
let n_callers = 25
let sites_per_caller = 4
let n_sites = n_callers * sites_per_caller
let hot_set = 64
let hot_share = (9, 10)
let period = 256

(* Ops timed as one unit: enough for the minor collections their
   allocation causes to be counted in proportion. *)
let block = 8

(* The top switch adds nothing, so two valuations that differ only in it
   specialize to one body: the variant cache's structural dedup.  The hot
   set holds such pairs, 32 bodies for its 64 valuations. *)
let weight i = if i = n_switches - 1 then 0 else 1 lsl i

(* Resident variant-text bytes: 24 of the 128-byte bodies, three quarters
   of the hot set's. *)
let budget = 3 * 1024

let source =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  for i = 0 to n_switches - 1 do
    add "multiverse bool s%d;\n" i
  done;
  add "multiverse int f(int x) {\n  int r = x;\n";
  for i = 0 to n_switches - 1 do
    add "  if (s%d) { r = r + %d; }\n" i (weight i)
  done;
  add "  return r;\n}\n";
  for c = 0 to n_callers - 1 do
    add "int c%d(int x) { return %s; }\n" c
      (String.concat " + " (List.init sites_per_caller (fun _ -> "f(x)")))
  done;
  add "int driver(int x) { return %s; }\n"
    (String.concat " + " (List.init n_callers (Printf.sprintf "c%d(x)")));
  Buffer.contents b

let expected v x =
  let w = ref 0 in
  for i = 0 to n_switches - 1 do
    if (v lsr i) land 1 = 1 then w := !w + weight i
  done;
  n_sites * (x + !w)

(* Seeded valuation stream of one period: the hot set, then the cold
   ops' places (exactly the cold share of the period, so that every seed
   runs the same mix), then one draw per op. *)
let valuations seed =
  let r = Rng.create seed in
  let base = Array.init (hot_set / 2) (fun _ -> Rng.int r (1 lsl (n_switches - 1))) in
  let hot = Array.init hot_set (fun k -> base.(k / 2) lor ((k land 1) lsl (n_switches - 1))) in
  let num, den = hot_share in
  let cold = Array.init period (fun k -> k < period * (den - num) / den) in
  for k = period - 1 downto 1 do
    let j = Rng.int r (k + 1) in
    let c = cold.(k) in
    cold.(k) <- cold.(j);
    cold.(j) <- c
  done;
  Array.map (fun c -> if c then Rng.int r (1 lsl n_switches) else hot.(Rng.int r hot_set)) cold

let setup ~chaos ~seed : Workload.instance =
  let s = Pipeline.session ~lazy_budget:budget source in
  let rt = s.Mv_workloads.Harness.runtime and m = s.Mv_workloads.Harness.machine in
  if chaos then Runtime.set_stale_cache_chaos rt true;
  let img = s.Mv_workloads.Harness.program.Core.Compiler.p_image in
  let switch i =
    let name = Printf.sprintf "s%d" i in
    (Image.symbol img name, Image.symbol_size img name)
  in
  let switches = Array.init n_switches switch in
  let stream = valuations seed in
  let peak_bytes = ref 0 and inputs = ref 0 in
  let op i =
    let v = stream.(i mod period) in
    inputs := Hashtbl.hash (!inputs, v);
    Array.iteri (fun i (addr, width) -> Image.write img addr ((v lsr i) land 1) width) switches;
    if !Span.enabled then begin
      let before = (Runtime.stats rt).Runtime.st_materialized in
      ignore (Pipeline.commit rt);
      Span.relabel_last
        (if (Runtime.stats rt).Runtime.st_materialized > before then "core.runtime.commit.miss"
         else "core.runtime.commit.hit")
    end
    else ignore (Runtime.commit rt);
    peak_bytes := max !peak_bytes (Runtime.variant_bytes rt);
    Pipeline.call m "driver" [ 1 ] = expected v 1
  in
  let counters () =
    let st = Runtime.stats rt and ds = Machine.decode_stats m in
    [
      ("sim_cycles", m.Machine.perf.Mv_vm.Perf.cycles);
      ("core.runtime.commit.materialized", float st.Runtime.st_materialized);
      ("core.runtime.commit.cache_hits", float st.Runtime.st_cache_hits);
      ("core.runtime.commit.dedup_hits", float st.Runtime.st_dedup_hits);
      ("core.runtime.commit.evictions", float st.Runtime.st_evictions);
      ("core.runtime.commit.budget_denials", float st.Runtime.st_budget_denials);
      ("core.runtime.commit.patches", float st.Runtime.st_patches);
      ("core.runtime.commit.bytes_patched", float st.Runtime.st_bytes_patched);
      ("core.runtime.commit.variant_bytes_peak", float !peak_bytes);
      ("vm.superblocks_compiled", float ds.Machine.ds_blocks);
      ("vm.insns_decoded", float ds.Machine.ds_insns);
      ("vm.superblocks_invalidated", float ds.Machine.ds_invalidated);
    ]
  in
  {
    Workload.batch = period;
    block;
    op;
    after_op = Workload.no_after;
    counters;
    code_bytes = (fun () -> float (img.Image.text.Image.sr_size + !peak_bytes));
    inputs = (fun () -> Printf.sprintf "%08x" !inputs);
  }

let workload = { Workload.name = "reconfig"; setup }

#!/usr/bin/env python3
"""Tests of the benchmark itself, run from the root of the repository:

    python3 perfbench/test_perfbench.py

- Every workload's ops pass their output checks at two seeds.
- Each output check fails ops under a known-bad configuration (--chaos):
  the fuzz oracles with dropped icache flushes, the reconfig variant
  cache with stale dedup entries, and the execute SMP op with the lock
  elided on both harts.
- Simulated cycles, allocation, code size and the layer counters repeat
  exactly for one seed and a fixed op count.
- Another seed generates other fuzz cases and reconfig valuations.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Ops per pass: enough for the reconfig cache to evict and re-materialize,
# and for two rotations of the execute ops.
OPS = {"fuzz": 3, "reconfig": 600, "execute": 14}

# Per-layer metrics that count work rather than time it.
COUNTS = (
    "vm.sim_cycles_per_op",
    "code_bytes",
    "core.runtime.commit.materialized",
    "core.runtime.commit.cache_hits",
    "core.runtime.commit.cache_hit_ratio",
    "core.runtime.commit.dedup_hits",
    "core.runtime.commit.evictions",
    "core.runtime.commit.budget_denials",
    "core.runtime.commit.patches",
    "core.runtime.commit.bytes_patched",
    "core.runtime.commit.variant_bytes_peak",
    "vm.superblocks_compiled",
    "vm.insns_decoded",
    "vm.superblocks_invalidated",
    "vm.smp.rendezvous",
    "vm.smp.ipis_sent",
    "vm.smp.rendezvous_cycles",
)


def run(workload, seed=1, trace=0, chaos=False):
    args = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
            "--ops", str(OPS[workload])]
    if chaos:
        args.append("--chaos")
    out = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, check=True).stdout.decode()
    lines = out.strip().splitlines()
    inputs = [l.split()[1] for l in lines if l.strip().startswith("inputs ")]
    return json.loads(lines[-1]), inputs[0]


class Checks(unittest.TestCase):
    def test_ops_pass_at_two_seeds(self):
        for workload in OPS:
            for seed in (1, 7):
                with self.subTest(workload=workload, seed=seed):
                    result, _ = run(workload, seed)
                    self.assertEqual(result["failed"], 0)
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["metrics"]["op_ms_floor"]["value"], 0)

    def test_known_bad_configuration_fails_ops(self):
        for workload in OPS:
            with self.subTest(workload=workload):
                result, _ = run(workload, chaos=True)
                self.assertGreater(result["failed"], 0)
                self.assertFalse(result["correct"])


class Determinism(unittest.TestCase):
    def test_counts_repeat_for_one_seed(self):
        for workload in OPS:
            with self.subTest(workload=workload):
                a, _ = run(workload, seed=5, trace=1)
                b, _ = run(workload, seed=5, trace=1)
                for name in COUNTS:
                    self.assertEqual(a["metrics"][name], b["metrics"][name], name)
                a, _ = run(workload, seed=5)
                b, _ = run(workload, seed=5)
                self.assertEqual(a["metrics"]["alloc_words_per_op"],
                                 b["metrics"]["alloc_words_per_op"])

    def test_seed_changes_generated_inputs(self):
        for workload in ("fuzz", "reconfig"):
            with self.subTest(workload=workload):
                _, one = run(workload, seed=1)
                _, again = run(workload, seed=1)
                _, two = run(workload, seed=2)
                self.assertEqual(one, again)
                self.assertNotEqual(one, two)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the chip benchmark itself, on a tiny kernel scale.

    python3 chipbench/test_run.py

Checks that every metric BENCHMARK.json names is emitted with its unit
on all three workloads, that a corrupted recorded digest fails its
point, and that the traced span accounting closes.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP = os.path.join(ROOT, ".bench_build", "test_tmp")
SCALE = "0.02"
WORKLOADS = ("ideal", "tb_dor", "cp_cr_2p")


def bench(workload, trace, *extra):
    """Runs run.py; @return (exit code, last-line JSON or None)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--scale", SCALE, "--seconds", "0", "--trace",
         str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def result_file(workload, trace):
    path = os.path.join(ROOT, ".bench_build", "results",
                        "BENCH_chipbench_%s_s1_t%d.json" % (workload, trace))
    with open(path) as f:
        return json.load(f)


class ChipBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        os.makedirs(TMP, exist_ok=True)

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, out = bench(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(set(out),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual((out["attempted"], out["failed"]),
                                     (6, 0))
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {n: m["unit"] for n, m in out["metrics"].items()}
                    self.assertEqual(got, want)

    def test_envelope_is_recorded(self):
        bench("tb_dor", 0)
        env = result_file("tb_dor", 0)["envelope"]
        for key in ("git_sha", "compiler", "cxx_flags", "build_type",
                    "cpu_model", "nproc"):
            self.assertTrue(env[key], key)
        self.assertEqual(env["tenoc_env"]["TENOC_THREADS"], "1")
        self.assertEqual(env["tenoc_env"]["TENOC_CYCLE_THREADS"], "1")

    def test_corrupted_digest_fails_its_point(self):
        path = os.path.join(TMP, "digests.json")
        if os.path.exists(path):
            os.remove(path)
        code, _ = bench("cp_cr_2p", 0, "--record-digests", path)
        self.assertEqual(code, 0)
        code, out = bench("cp_cr_2p", 0, "--digests", path)
        self.assertEqual((code, out["failed"]), (0, 0))

        with open(path) as f:
            digests = json.load(f)
        digests["digests"]["cp_cr_2p"]["MM"] = "0" * 16
        with open(path, "w") as f:
            json.dump(digests, f)
        code, out = bench("cp_cr_2p", 0, "--digests", path)
        self.assertNotEqual(code, 0)
        self.assertFalse(out["correct"])
        self.assertEqual((out["attempted"], out["failed"]), (6, 1))
        self.assertEqual(list(result_file("cp_cr_2p", 0)["failures"]),
                         ["MM"])

    def test_span_accounting_closes(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, out = bench(workload, 1)
                self.assertEqual(code, 0)
                m = {n: v["value"] for n, v in out["metrics"].items()}
                self_times = [m[n] for n in (
                    "gpu.host_s", "gpu.reply_host_s", "noc.read_inputs_s",
                    "noc.inject_s", "noc.compute_s", "noc.drain_s",
                    "noc.bookkeeping_s", "mc.icnt_host_s",
                    "mc.mem_self_host_s", "dram.host_s",
                    "chip.clock_host_s", "chip.residual_s")]
                for v in self_times:
                    self.assertGreaterEqual(v, 0.0)
                self.assertAlmostEqual(sum(self_times), m["trace.run_s"],
                                       delta=1e-9 * m["trace.run_s"])
                self.assertEqual(result_file(workload, 1)["uninstrumented"],
                                 [])
                if workload == "ideal":
                    self.assertEqual(m["noc.host_s"], 0.0)


if __name__ == "__main__":
    unittest.main()

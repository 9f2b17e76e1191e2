"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

The file is not named ``test_*.py`` so that the program's own test suite
does not collect it.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from check import Comparison, to_base_labels  # noqa: E402
from calibration import REFERENCE_S, SpeedSampler, calibrated_s  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import check_pass, reference_path, run_pass  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

COUNT_SUFFIXES = (".calls", ".bound_evals", ".members", ".prune_calls",
                  ".blocker_calls_mean", ".blocker_calls_max", ".success_ratio")


def _outputs(outdir: str, runs) -> dict:
    texts = {}
    for label, _ in runs:
        with open(os.path.join(outdir, label + ".json"), encoding="utf-8") as fh:
            texts[label] = fh.read()
    return texts


class TracedRunTest(unittest.TestCase):
    """The tiny workload covers search, finite order, top-k and SciPy layers."""

    @classmethod
    def setUpClass(cls):
        import drbottleneck.cli

        cls.cli = drbottleneck.cli
        cls.tmp = tempfile.mkdtemp()
        cwd = os.getcwd()
        os.chdir(ROOT)
        try:
            write_inputs(WORKLOADS["tiny-extensions"], 1, cls.tmp)
        finally:
            os.chdir(cwd)
        cls.runs = WORKLOADS["tiny-extensions"].runs(cls.tmp)
        cls.outdir = os.path.join(cls.tmp, "out")
        os.makedirs(cls.outdir)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def _pass(self, tracer: Tracer | None):
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            _, outcomes = run_pass(self.cli, self.runs, self.outdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.assertTrue(all(code == 0 for _, code in outcomes), outcomes)
        return _outputs(self.outdir, self.runs), tracer.layer_metrics() if tracer else None

    def test_traced_outputs_and_counters(self):
        plain, _ = self._pass(None)
        tracer = Tracer()
        first_out, first = self._pass(tracer)
        second_out, second = self._pass(tracer)
        self.assertEqual(first_out, plain)
        self.assertEqual(second_out, plain)
        counters = [k for k in first if k.endswith(COUNT_SUFFIXES)]
        self.assertTrue(counters)
        self.assertEqual({k: first[k] for k in counters}, {k: second[k] for k in counters})
        # the workload reaches the layers it is meant to measure
        for layer in ("quantify.quantify_robust_finite_order", "quantify.quantify_topk",
                      "bottleneck.topk_blocker_enumerate", "scipy.linprog", "scipy.minimize",
                      "scipy.brentq", "search.minimize_members",
                      "systems.min_weight_blocker.path"):
            self.assertGreater(first[layer + ".calls"], 0, layer)
        self.assertEqual(first["systems.min_weight_blocker.assignment.calls"], 0)

    def test_uninstall_restores_originals(self):
        import drbottleneck.quantify as quantify

        original = quantify.min_weight_blocker
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(quantify.min_weight_blocker, original)
        tracer.uninstall()
        self.assertIs(quantify.min_weight_blocker, original)


class CheckTest(unittest.TestCase):
    def _reference(self, workload: str) -> dict:
        with open(reference_path(workload), encoding="utf-8") as fh:
            return json.load(fh)

    def test_reference_matches_itself_bit_for_bit(self):
        ref = self._reference("matching-decide")
        cmp = Comparison()
        cmp.compare(ref, copy.deepcopy(ref))
        self.assertEqual(cmp.mismatches, [])
        self.assertEqual(cmp.bit_exact, cmp.floats)

    def test_perturbed_value_is_a_failure(self):
        ref = self._reference("multihop-quantify")
        got = copy.deepcopy(ref)
        got["quantify-r1"]["results"][3]["value"] *= 1 + 1e-6
        cmp = Comparison()
        cmp.compare(got, ref)
        self.assertEqual(len(cmp.mismatches), 1)
        self.assertTrue(cmp.mismatches[0].startswith("$.quantify-r1.results[3].value:"))

    def test_last_bit_change_passes_but_is_not_bit_exact(self):
        ref = self._reference("multihop-quantify")
        got = copy.deepcopy(ref)
        got["quantify-r1"]["results"][3]["value"] *= 1 + 1e-15
        cmp = Comparison()
        cmp.compare(got, ref)
        self.assertEqual(cmp.mismatches, [])
        self.assertEqual(cmp.bit_exact, cmp.floats - 1)

    def test_exact_fields(self):
        ref = self._reference("matching-decide")
        for key, bump in (("chosen", 1), ("permutation", 1)):
            got = copy.deepcopy(ref)
            got["robust-decide"]["results"][0][key][0] += bump
            cmp = Comparison()
            cmp.compare(got, ref)
            self.assertEqual(len(cmp.mismatches), 1, key)

    def test_perturbed_reference_fails_a_real_pass(self):
        import drbottleneck.cli

        ref = self._reference("matching-quantify")
        ref["quantify-r1"]["results"][1]["value"] += 1e-3
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(ROOT)
            try:
                write_inputs(WORKLOADS["matching-quantify"], 3, tmp)
            finally:
                os.chdir(cwd)
            runs = WORKLOADS["matching-quantify"].runs(tmp)[:1]
            with open(os.path.join(tmp, "relabel.json"), encoding="utf-8") as fh:
                relabel = json.load(fh)
            _, outcomes = run_pass(drbottleneck.cli, runs, tmp)
            cmp = Comparison()
            with open(os.devnull, "w") as quiet:
                stderr, sys.stderr = sys.stderr, quiet
                try:
                    _, failed = check_pass(outcomes, tmp, relabel, ref, cmp)
                finally:
                    sys.stderr = stderr
        self.assertEqual(failed, ["quantify-r1"])
        self.assertTrue(any("results[1].value" in m for m in cmp.mismatches))

    def test_labels_map_back(self):
        relabel = {"element_of": [2, 0, 1], "column_of": [1, 0]}
        out = to_base_labels({"results": [{"chosen": [0, 2], "permutation": [0, 1]}]}, relabel)
        self.assertEqual(out, {"results": [{"chosen": [1, 2], "permutation": [1, 0]}]})


class CalibrationTest(unittest.TestCase):
    def test_a_uniform_slowdown_cancels(self):
        steady = [(1.0, REFERENCE_S), (1.2, REFERENCE_S), (1.1, REFERENCE_S)]
        slowed = [(1.8 * t, 1.8 * loop) for t, loop in steady]
        self.assertAlmostEqual(calibrated_s(steady), 1.1)
        self.assertAlmostEqual(calibrated_s(slowed), 1.1)

    def test_sampler_samples_during_a_section_and_stops(self):
        import signal
        import time

        with SpeedSampler() as speed:
            time.sleep(0.3)
        self.assertGreaterEqual(len(speed.samples), 4)
        self.assertGreater(speed.loop_s(), 0.0)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class EntryPointTest(unittest.TestCase):
    def test_refuses_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "tiny-extensions",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

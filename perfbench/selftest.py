"""Tests of the benchmark itself (not of yprobe).

    python3 perfbench/selftest.py

Run from the root of a source checkout; they take a few seconds.
"""

import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

import run  # first: pins BLAS to one thread before numpy loads it

import numpy as np

import checks
import compare
import workloads
from tracer import Tracer

run.import_yprobe()


class TickClock:
    """Each reading advances by one second."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_nested_calls(self):
        tracer = Tracer(clock=TickClock())
        leaf = tracer.wrap(lambda: None, "m.leaf")
        inner = tracer.wrap(lambda: leaf(), "m.inner")

        def body():
            inner()
            inner()

        outer = tracer.wrap(body, "m.outer")
        tracer.current_job = 4
        outer()
        # outer [0, 9] holds inner [1, 4] and [5, 8], each holding one leaf
        spans = tracer.arrays()
        names = [tracer.names[i] for i in spans["name_id"]]
        self.assertEqual(names, ["m.outer", "m.inner", "m.leaf", "m.inner", "m.leaf"])
        self.assertEqual(list(spans["parent"]), [-1, 0, 1, 0, 3])
        self.assertEqual(list(spans["duration"]), [9.0, 3.0, 1.0, 3.0, 1.0])
        self.assertEqual(list(spans["self"]), [3.0, 2.0, 1.0, 2.0, 1.0])
        self.assertEqual(list(spans["job"]), [4] * 5)

    def test_error_is_recorded_and_reraised(self):
        tracer = Tracer(clock=TickClock())

        def fail():
            raise ValueError("boom")

        with self.assertRaises(ValueError):
            with tracer.span("job.x"):
                tracer.wrap(fail, "m.fail")()
        spans = tracer.arrays()
        self.assertEqual(list(spans["error"]), [1, 1])
        self.assertEqual(list(spans["self"]), [2.0, 1.0])

    def test_install_wraps_every_namespace_and_restores(self):
        import yprobe
        from yprobe import cli, floquet, liouvillian, linalg

        before = {
            "linalg.solve": linalg.solve,
            "floquet.build_for": floquet.build_for,
            "cli.build_for": cli.build_for,
            "yprobe.build_liouvillian": yprobe.build_liouvillian,
            "cli._COMMANDS": dict(cli._COMMANDS),
            "SystemParams.__post_init__": yprobe.SystemParams.__post_init__,
            "LiouvillianSet.dim": vars(liouvillian.LiouvillianSet)["dim"],
        }
        tracer = Tracer()
        with tracer.installed():
            self.assertIs(linalg.solve.__wrapped__, before["linalg.solve"])
            self.assertIs(floquet.build_for.__wrapped__, before["floquet.build_for"])
            self.assertIs(cli.build_for.__wrapped__, before["cli.build_for"])
            self.assertIs(yprobe.build_liouvillian.__wrapped__,
                          before["yprobe.build_liouvillian"])
            for name, fn in cli._COMMANDS.items():
                self.assertIs(fn.__wrapped__, before["cli._COMMANDS"][name])
            lv = liouvillian.build_for(yprobe.get_preset("fig2b").params)
            floquet.steady_state(lv)
        self.assertIn("floquet.steady_state", tracer.names)
        self.assertIn("params.SystemParams.__post_init__", tracer.names)
        after = {
            "linalg.solve": linalg.solve,
            "floquet.build_for": floquet.build_for,
            "cli.build_for": cli.build_for,
            "yprobe.build_liouvillian": yprobe.build_liouvillian,
            "cli._COMMANDS": dict(cli._COMMANDS),
            "SystemParams.__post_init__": yprobe.SystemParams.__post_init__,
            "LiouvillianSet.dim": vars(liouvillian.LiouvillianSet)["dim"],
        }
        self.assertEqual(after, before)

    def test_counter_sums_per_call(self):
        tracer = Tracer(counters={"m.steps": lambda a, k: a[0]})
        steps = tracer.wrap(lambda n: n, "m.steps")
        steps(3)
        steps(4)
        self.assertEqual(tracer.counts["m.steps"], 7)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for workload in workloads.WORKLOADS:
            for index in range(4):
                a = workloads.make_job(workload, 11, index)
                workloads.make_job(workload, 12, index)   # no hidden state between calls
                b = workloads.make_job(workload, 11, index)
                self.assertEqual(a.config_text(), b.config_text())
                self.assertEqual(a.extra, b.extra)
                self.assertNotEqual(a.config_text(),
                                    workloads.make_job(workload, 12, index).config_text())

    def test_draws_respect_ranges_and_settle_cap(self):
        for workload in workloads.WORKLOADS:
            for index in range(3):
                job = workloads.make_job(workload, 3, index)
                spec = workloads.KINDS[job.kind]
                for key, (lo, hi) in spec["draws"].items():
                    if key in job.params and not key.endswith("_scale"):
                        self.assertTrue(lo <= job.params[key] <= hi, (job.kind, key))
                    if key in job.extra:
                        self.assertTrue(lo <= job.extra[key] <= hi, (job.kind, key))
                for point in workloads._settle_points(spec, job.params):
                    self.assertLessEqual(workloads.settle_time(point), spec["settle_cap"])

    def test_kind_pattern(self):
        kinds = [workloads.kind_of("dynamics", i) for i in range(4)]
        self.assertEqual(kinds, ["oracle", "dressed"] * 2)
        steady = workloads.WORKLOADS["steady"]
        kinds = [workloads.kind_of("steady", i) for i in range(2 * len(steady))]
        self.assertEqual(kinds, list(steady) * 2)
        self.assertEqual(sorted(steady), ["interference", "pump", "pump", "spectrum-v",
                                          "spectrum-v", "spectrum-y", "spectrum-y"])


class CheckTest(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=run.OUT)
        self.dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def _spectrum_job(self):
        job = workloads.make_job("steady", 5, 0)
        return replace(job, grid=dict(job.grid, n_points=101))

    def test_spectrum_passes_and_perturbed_chi_fails(self):
        job = self._spectrum_job()
        argv, files = workloads.cli_argv(job, self.dir)
        output = workloads.run_cli(argv, files)
        self.assertTrue(output.ok, output.error)
        verdict = checks.check(job, output, 5)
        self.assertTrue(verdict.ok, verdict.failures)

        header, data = checks._read_csv(files["csv"])
        data[:, 2] *= 1.0 + 1e-6      # Im chi, every row
        np.savetxt(files["csv"], data, delimiter=",", header=",".join(header),
                   comments="", fmt="%.17g")
        verdict = checks.check(job, output, 5)
        self.assertFalse(verdict.ok)
        self.assertTrue(any(f.startswith("chi") for f in verdict.failures))

    def test_failed_call_fails_check(self):
        job = self._spectrum_job()
        verdict = checks.check(job, workloads.JobOutput(False, "boom"), 5)
        self.assertFalse(verdict.ok)

    def test_reconstruct_restores_trace(self):
        states = np.zeros((1, 15), dtype=complex)
        states[0, :3] = [0.1, 0.2, 0.3]
        from yprobe.liouvillian import Y_LABELS
        rho = checks.reconstruct(states, Y_LABELS)[0]
        self.assertAlmostEqual(rho[3, 3].real, 0.4)
        self.assertAlmostEqual(np.trace(rho).real, 1.0)

    def test_density_check_catches_bad_states(self):
        from yprobe.liouvillian import Y_LABELS
        states = np.zeros((2, 15), dtype=complex)
        states[:, :3] = [0.1, 0.2, 0.3]
        good = checks.Verdict()
        checks.check_density(good, checks.reconstruct(states, Y_LABELS))
        self.assertTrue(good.ok, good.failures)

        over = states.copy()
        over[1, 0] = 1.5              # rebuilt rho44 becomes -1
        bad = checks.Verdict()
        checks.check_density(bad, checks.reconstruct(over, Y_LABELS))
        self.assertTrue(any(f.startswith("population_range") for f in bad.failures))

        skew = states.copy()
        skew[1, Y_LABELS.index("12")] = 0.1   # rho12 without a matching rho21
        bad = checks.Verdict()
        checks.check_density(bad, checks.reconstruct(skew, Y_LABELS))
        self.assertTrue(any(f.startswith("hermitian") for f in bad.failures))


class CompareTest(unittest.TestCase):
    def test_reports_relative_difference(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            a, b = Path(tmp) / "a.npz", Path(tmp) / "b.npz"
            np.savez(a, chi=np.array([1.0, 2.0j, 0.0]))
            np.savez(b, chi=np.array([1.0, 2.0j * (1 + 1e-9), 1e-12]))
            diffs, problems = compare.compare(a, b)
            self.assertEqual(problems, [])
            self.assertAlmostEqual(diffs["chi"], 1e-9, delta=1e-12)
            self.assertEqual(compare.main([str(a), str(b), "--tol", "1e-6"]), 0)
            self.assertEqual(compare.main([str(a), str(b), "--tol", "1e-10"]), 1)


if __name__ == "__main__":
    unittest.main()

"""Self-test of the benchmark harness at tiny sizes (N = 8, M = 4).

    python3 perfbench/selftest.py

Checks that the wrappers restore the original functions, that spans nest
and their self times add up to the traced time, that every metric name
and unit is well formed, that seeds give the documented workloads, and
that per-configuration medians are taken and averaged as documented.
"""

import json
import re
import shutil
import sys
import unittest

import run
import tracer
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

import fisherkpp.cli  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY_RUN = ["run", "--example", "manufactured", "-M", "4", "--nx", "8", "--beta", "2"]
TINY_SWEEP = ["convergence", "--example", "manufactured", "--nx", "8",
              "--sweep-m", "4,8", "--betas", "2,pi", "--grids", "graded:0.75"]


def targets():
    for name, (pairs, _) in tracer.LAYERS.items():
        for module, attr in pairs:
            yield tracer.owner_of(module, attr)


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self.out = run.OUT / "selftest"
        shutil.rmtree(self.out, ignore_errors=True)

    def tearDown(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def traced_call(self, argv):
        tr = tracer.Tracer()
        with tracer.instrument(tr):
            code = tr.call("cli.main", fisherkpp.cli.main, ([*argv, "-o", str(self.out)],), {})
        self.assertEqual(code, 0)
        return tr.spans

    def test_wrappers_restore_originals(self):
        before = [vars(owner)[last] for owner, last in targets()]
        tr = tracer.Tracer()
        with self.assertRaises(KeyError):
            with tracer.instrument(tr):
                during = [vars(owner)[last] for owner, last in targets()]
                raise KeyError("leave the block by an exception")
        after = [vars(owner)[last] for owner, last in targets()]
        for orig, wrapped, restored in zip(before, during, after):
            self.assertIsNot(wrapped, orig)
            self.assertIs(wrapped.__wrapped__, orig)
            self.assertIs(restored, orig)

    def test_spans_nest_and_self_times_add_up(self):
        for argv in (TINY_RUN, TINY_SWEEP):
            spans = self.traced_call(argv)
            root = spans[0]
            self.assertEqual((root.name, root.parent), ("cli.main", -1))
            for s in spans[1:]:
                parent = spans[s.parent]
                self.assertLessEqual(parent.start, s.start)
                self.assertLessEqual(s.end, parent.end)
                if s.name != "stepper.integrate":
                    self.assertEqual(s.run, parent.run)
            selfs = tracer.self_times(spans)
            self.assertGreaterEqual(min(selfs), -1e-9)
            # the root's self time is the untraced remainder of the call
            self.assertAlmostEqual(sum(selfs), root.end - root.start, delta=1e-9)
            runs = [s.run for s in spans if s.name == "stepper.integrate"]
            self.assertEqual(runs, list(range(1, len(runs) + 1)))
            self.assertTrue(all(s.attrs["finite"] for s in spans
                                if s.name == "stepper.integrate"))

    def test_artifacts_give_the_errors_the_cli_printed(self):
        self.traced_call(TINY_RUN)
        found, header = run.read_artifacts("run", self.out, ["2"])
        self.assertEqual(set(found), {("2", None)})
        self.assertRegex(header, r"^[0-9a-f]{12}$")
        shutil.rmtree(self.out)
        self.traced_call(TINY_SWEEP)
        found, _ = run.read_artifacts("convergence", self.out, ["2", "pi"])
        self.assertEqual(set(found), {(b, m) for b in ("2", "pi") for m in (4, 8)})

    def test_metric_names_and_units(self):
        spans = self.traced_call(TINY_SWEEP)
        wall = spans[0].end - spans[0].start
        metrics = tracer.layer_metrics(spans, wall)
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        declared = bench["end_to_end"] + bench["per_layer"]
        for name, (_, unit) in metrics.items():
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)
        for m in declared:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
        names = [m["name"] for m in declared]
        self.assertEqual(len(names), len(set(names)))
        per_layer = {m["name"] for m in bench["per_layer"]}
        self.assertLessEqual(set(metrics), per_layer)

    def test_seeds(self):
        for name, spec in workloads.WORKLOADS.items():
            first = next(workloads.cycles(name, workloads.DEFAULT_SEED))
            for argv, betas in first:
                self.assertEqual(argv[0], spec["command"])
                if spec["command"] == "run":
                    self.assertEqual(betas, [spec["beta"]])
                else:
                    self.assertEqual(betas, list(workloads.BETAS))
            for seed in (1, 2, 3):
                gen = workloads.cycles(name, seed)
                for _ in range(3):
                    drawn = [b for _, betas in next(gen) for b in betas]
                    self.assertEqual(sorted(drawn), sorted(workloads.BETAS))
                self.assertEqual(next(workloads.cycles(name, seed)),
                                 next(workloads.cycles(name, seed)))

    def test_per_config_aggregation(self):
        calls = [{"betas": b, "v": v} for b, v in
                 ((["2"], 1.0), (["pi"], 5.0), (["2"], 3.0), (["pi"], 7.0), (["2"], 2.0))]
        self.assertEqual(run.per_config(calls, lambda c: c["v"]), {"2": 2.0, "pi": 6.0})
        self.assertEqual(run.config_mean(calls, lambda c: c["v"]), 4.0)
        sweep = [{"betas": ["pi", "2"], "v": 1.0}, {"betas": ["2", "pi"], "v": 3.0}]
        self.assertEqual(run.per_config(sweep, lambda c: c["v"]), {"2,pi": 2.0})

    def test_reference_tolerance(self):
        ref = workloads.REFERENCES["mms-sweep-graded"]["pi"]["80"]
        self.assertTrue(workloads.within_tolerance(ref + 6e-11, ref))
        self.assertFalse(workloads.within_tolerance(ref * 1.001, ref))


if __name__ == "__main__":
    unittest.main()

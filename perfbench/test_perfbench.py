"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import sys
import unittest

import inputs
import run
import tracing


class TestInputs(unittest.TestCase):
    def test_same_seed_same_lists_other_seed_other_lists(self):
        for wl, gen in inputs.PASSES.items():
            with self.subTest(workload=wl):
                self.assertEqual(gen(7, 0), gen(7, 0))
                self.assertEqual(gen(7, 3), gen(7, 3))
                self.assertNotEqual(gen(7, 0), gen(8, 0))
                self.assertNotEqual(gen(7, 0), gen(7, 1))

    def test_lists_have_fixed_composition(self):
        shape = lambda ops: sorted((op["fn"], op.get("j", 0), op.get("family", ""), op.get("argv", [""])[0]) for op in ops)
        self.assertEqual(shape(inputs.tables_pass(1, 0)), shape(inputs.tables_pass(2, 5)))
        count = lambda ops: sorted(op["fn"] for op in ops)
        self.assertEqual(count(inputs.pointwise_pass(1, 0)), count(inputs.pointwise_pass(2, 5)))


class TestReservoir(unittest.TestCase):
    def test_keeps_everything_up_to_its_size_then_a_fixed_number(self):
        import random

        r = run.Reservoir(100, random.Random(1))
        size = len(r.buf)
        for x in range(60):
            r.add(float(x))
        self.assertEqual(r.values(), [float(x) for x in range(60)])
        for x in range(60, 10_000):
            r.add(float(x))
        self.assertEqual((r.seen, len(r.values()), len(r.buf)), (10_000, 100, size))
        self.assertEqual(len(set(r.values())), 100)
        # A uniform draw: about half of the kept samples come from each half.
        self.assertTrue(30 <= sum(v < 5000 for v in r.values()) <= 70)


def _span(fn, parent, start, end):
    return (fn, parent, 0, 0, start, end, 0, False, False, False)


class TestSelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 8].
        spans = [_span(0, -1, 0.0, 10.0), _span(1, 0, 1.0, 4.0), _span(1, 0, 5.0, 9.0), _span(2, 2, 6.0, 8.0)]
        self.assertEqual(tracing.self_times(spans), [3.0, 3.0, 2.0, 2.0])

    def test_layer_metrics_sum_self_times(self):
        names = [f"{layer}.{fn}" for layer in tracing.LAYERS for fn in tracing.TRACED.get(layer, ()) + tracing.ENTRY_POINTS.get(layer, ())]
        qg = names.index("qcalc.qgamma")
        qp = names.index("qcalc.qpoch_infinite")
        spans = [_span(qg, -1, 0.0, 0.010), _span(qp, 0, 0.001, 0.004), _span(qp, 0, 0.005, 0.009)]
        m = tracing.layer_metrics(names, spans, passes=1)
        self.assertAlmostEqual(m["qcalc.qgamma.self_ms"], 3.0)
        self.assertAlmostEqual(m["qcalc.qpoch_infinite.self_ms"], 7.0)
        self.assertAlmostEqual(m["qcalc.self_ms"], 10.0)
        self.assertEqual(m["qcalc.qpoch_infinite.calls"], 2)


class TestFailureAccounting(unittest.TestCase):
    def test_raising_operation_is_counted_not_dropped(self):
        ops = inputs.pointwise_pass(1, 0)

        def fake_build(op):
            if op is ops[3]:
                return (lambda: 1 / 0), ()
            if op is ops[4]:
                return (lambda: complex("nan")), ()
            return (lambda: 1.0), ()

        saved_build, saved_gen = run.build, inputs.PASSES["pointwise"]
        run.build, inputs.PASSES["pointwise"] = fake_build, lambda seed, k: ops
        try:
            log = run.Log()
            run.run_pass("pointwise", 1, 0, log, None)
        finally:
            run.build, inputs.PASSES["pointwise"] = saved_build, saved_gen
        self.assertEqual(log.attempted, len(ops))
        self.assertEqual(log.failures, {"ZeroDivisionError": 1, "nonfinite_value": 1})
        self.assertEqual(log.latency.seen, len(ops))

    def test_cli_outcomes(self):
        op = {"fn": "cli", "argv": ["laurent"], "rows": 2}
        self.assertIsNone(run.outcome(op, (0, "l,coeff\r\n0,1.0\r\n1,2.5\r\n")))
        self.assertEqual(run.outcome(op, (0, "l,coeff\r\n0,1.0\r\n")), "row_count")
        self.assertEqual(run.outcome(op, (0, "l,coeff\r\n0,nan\r\n1,2.5\r\n")), "nonfinite_cell")
        self.assertEqual(run.outcome(op, (64, "")), "exit_64")


@unittest.skipUnless(os.path.isdir(os.path.join(run.SRC, "qfunc")), "needs the qfunc sources")
class TestTracer(unittest.TestCase):
    def test_install_records_nested_spans_and_uninstall_restores(self):
        if run.SRC not in sys.path:
            sys.path.insert(0, run.SRC)
        import qfunc
        from qfunc import qcalc, qexp

        orig = qcalc.qpoch_infinite
        tr = tracing.Tracer()
        tr.install()
        try:
            self.assertIsNot(qexp.qpoch_infinite, orig)
            qcalc.qgamma(0.5, qcalc.QBase(0.5))
            qcalc.qgamma(0.5, qcalc.QBase(0.5))
        finally:
            tr.uninstall()
        self.assertIs(qexp.qpoch_infinite, orig)
        self.assertIs(qfunc.qpoch_infinite, orig)
        names = [tr.names[s[tracing.FN]] for s in tr.spans]
        self.assertEqual(names, ["qcalc.qgamma", "qcalc.qpoch_infinite", "qcalc.qpoch_infinite"] * 2)
        self.assertEqual([s[tracing.PARENT] for s in tr.spans[:3]], [-1, 0, 0])
        self.assertEqual([s[tracing.REPEAT] for s in tr.spans], [False] * 3 + [True] * 3)
        # Installing again, as traced runs do pass by pass, reuses the wrappers.
        names = list(tr.names)
        tr.install()
        try:
            self.assertIsNot(qexp.qpoch_infinite, orig)
        finally:
            tr.uninstall()
        self.assertEqual(tr.names, names)
        self.assertIs(qexp.qpoch_infinite, orig)


@unittest.skipUnless(os.path.isfile(os.path.join(run.ROOT, "BENCHMARK.json")), "needs BENCHMARK.json")
class TestBenchmarkFile(unittest.TestCase):
    def test_names_and_units_match_the_runner(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        self.assertLessEqual({w["name"] for w in doc["workloads"]}, set(inputs.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in doc["per_layer"]],
            [(n, tracing.metric_unit(n)) for n in tracing.metric_names()],
        )


if __name__ == "__main__":
    unittest.main()

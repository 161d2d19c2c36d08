"""Self-tests of the benchmark itself (not of loosezeta).

    python3 bench/selftest.py
"""

from __future__ import annotations

import filecmp
import io
import json
import shutil
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pair  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

SCRATCH = run.WORK / "selftest"


def proc(stdout: str = "", stderr: str = "", returncode: int = 0) -> run.Proc:
    return run.Proc(wall=0.1, returncode=returncode, stdout=stdout, stderr=stderr, rss_mb=10.0)


def result(wall: float, failed: bool = False) -> run.OpResult:
    return run.OpResult(Op("class", "grid 6 9"), wall, 10.0, "crash" if failed else "ok")


class InputTests(unittest.TestCase):
    def tearDown(self) -> None:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def prepare(self, seed: int, name: str) -> Path:
        d = SCRATCH / name
        d.mkdir(parents=True)
        workloads.prepare("sparse_surgery", seed, d)
        return d

    def test_same_seed_gives_identical_inputs(self):
        a, b, c = self.prepare(5, "a"), self.prepare(5, "b"), self.prepare(6, "c")
        names = sorted(p.name for p in a.iterdir())
        self.assertTrue(names)
        _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        self.assertEqual((mismatch, errors), ([], []))
        _, mismatch, _ = filecmp.cmpfiles(a, c, names, shallow=False)
        self.assertTrue(mismatch, "another seed should draw other inputs")


class CheckTests(unittest.TestCase):
    ref = workloads.load_references()["fixed"]["grid 6 9"]

    def test_correct_output_passes(self):
        out = json.dumps({"class": [str(c) for c in self.ref["class"]]})
        self.assertEqual(run.classify(Op("class", "grid 6 9"), proc(out), self.ref), ("ok", ""))

    def test_corrupted_output_is_failed(self):
        coeffs = list(self.ref["class"])
        coeffs[0] += 1
        status, _ = run.classify(Op("class", "grid 6 9"), proc(json.dumps({"class": coeffs})), self.ref)
        self.assertEqual(status, "mismatch")
        self.assertEqual(run.classify(Op("class", "grid 6 9"), proc("not json"), self.ref)[0], "mismatch")
        self.assertTrue(run.OpResult(Op("class", "grid 6 9"), 0.1, 1.0, status).failed)

    def test_fallback_reference_catches_a_wrong_class(self):
        from loosezeta import class_polynomial, parse

        g = workloads.build("sparse 30 #1", 7)
        ref = workloads.references_for("sparse 30 #1", {"class"}, 7, g, {})
        self.assertEqual(set(ref), {"vertices", "p2"})
        good = [int(c) for c in class_polynomial(parse(workloads.graphs.to_lg(g))).to_json()]
        op = Op("class", "sparse 30 #1")
        self.assertEqual(run.classify(op, proc(json.dumps({"class": good})), ref)[0], "ok")
        wrong = [good[0] + 1, good[1] - 1] + good[2:]
        self.assertEqual(run.classify(op, proc(json.dumps({"class": wrong})), ref)[0], "mismatch")

    def test_traceback_with_exit_1_is_failed(self):
        err = 'Traceback (most recent call last):\n  File "x"\nRecursionError: maximum recursion depth exceeded\n'
        status, detail = run.classify(Op("class", "grid 17 17"), proc("", err, 1), self.ref)
        self.assertEqual(status, "crash")
        self.assertIn("RecursionError", detail)
        out = json.dumps({"class": self.ref["class"]})
        self.assertEqual(run.classify(Op("class", "grid 6 9"), proc(out, err, 0), self.ref)[0], "crash")


class TailTests(unittest.TestCase):
    def test_tail_percentile_keeps_ten_ops_beyond(self):
        results = [result(float(i)) for i in range(1, 31)]
        pct, value = run.tail(results)
        self.assertAlmostEqual(pct, 100 * 20 / 30)
        self.assertEqual(value, 20.0)
        self.assertEqual(sum(r.wall > value for r in results), 10)

    def test_failed_ops_rank_slowest(self):
        results = [result(float(i)) for i in range(1, 31)] + [result(0.5, failed=True)] * 3
        pct, value = run.tail(results)
        self.assertAlmostEqual(pct, 100 * 23 / 33)
        self.assertEqual(value, 23.0)

    def test_small_runs_report_the_slowest_op(self):
        self.assertEqual(run.tail([result(float(i)) for i in range(1, 11)]), (100.0, 10.0))
        self.assertEqual(run.tail([result(float(i)) for i in range(1, 12)]), (100 * 1 / 11, 1.0))


class TracerTests(unittest.TestCase):
    def snapshot(self) -> dict:
        from loosezeta import cli, grothendieck, ihara, loosegraph, pointcount, polyring, zeta

        owners = [cli, grothendieck, ihara, loosegraph, pointcount, polyring, zeta, sys.modules["loosezeta"]]
        owners += [loosegraph.LooseGraph, polyring.Poly, polyring.PolyMatrix]
        return {id(o): dict(vars(o)) for o in owners}

    def test_every_wrapped_function_is_restored(self):
        from loosezeta import cli

        SCRATCH.mkdir(parents=True, exist_ok=True)
        path = SCRATCH / "k5.lg"
        path.write_text(workloads.graphs.to_lg(workloads.graphs.complete(5)))
        before = self.snapshot()
        tracer = tracing.Tracer()
        with redirect_stdout(io.StringIO()) as out:
            with tracer.installed():
                self.assertIsNot(cli.main, before[id(cli)]["main"])
                self.assertEqual(cli.main(["verify", str(path), "--json"]), 0)
        self.assertTrue(json.loads(out.getvalue())["ok"])
        after = self.snapshot()
        for key, attrs in before.items():
            for name, value in attrs.items():
                self.assertIs(after[key][name], value, name)
        totals = tracing.LayerTotals()
        totals.add(tracer.dump())
        metrics = totals.metrics(1)
        self.assertEqual(set(metrics), set(tracing.LAYER_METRICS) - {"trace_overhead_ratio"})
        self.assertGreater(metrics["pointcount.chart_points"], 0)
        self.assertEqual(metrics["grothendieck.apex_peels"], 3)  # K5 -> K4 -> K3 -> K2, a tree
        self.assertEqual(
            metrics["grothendieck.memo_hits"] + metrics["grothendieck.memo_misses"],
            metrics["grothendieck.class_calls"],
        )
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_memo_lookups_are_counted_directly(self):
        from loosezeta import cli, grothendieck

        SCRATCH.mkdir(parents=True, exist_ok=True)
        path = SCRATCH / "cocktail3.lg"
        path.write_text(workloads.graphs.to_lg(workloads.graphs.cocktail(3)))
        memo = grothendieck._memo
        tracer = tracing.Tracer()
        with redirect_stdout(io.StringIO()):
            with tracer.installed():
                cli.main(["class", str(path), "--json"])
                first = list(tracer.memo)
                cli.main(["class", str(path), "--json"])
        # the repeated call finds the whole graph's class at its first lookup
        self.assertEqual([tracer.memo[0] - first[0], tracer.memo[1] - first[1]], [1, 0])
        self.assertIs(grothendieck._memo, memo)
        self.assertGreater(len(memo), 0, "entries stored while traced are kept")
        shutil.rmtree(SCRATCH, ignore_errors=True)


class PairVerdictTests(unittest.TestCase):
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.01, 0.99]

    def test_verdicts(self):
        faster = [x * 0.8 for x in self.parent]
        self.assertEqual(pair.verdict(self.parent, faster, "lower", 0.1), ("gain", 1.0))
        self.assertEqual(pair.verdict(self.parent, faster, "higher", 0.1)[0], "regression")
        self.assertEqual(pair.verdict(self.parent, list(self.parent), "lower", 0.1), ("within bound", 0.0))
        noisy = [1.0, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.0, 1.2, 0.9]
        self.assertEqual(pair.verdict(noisy, list(self.parent), "lower", 0.1)[0], "unresolved")


class PairCheckoutTests(unittest.TestCase):
    def tearDown(self) -> None:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def checkout(self, name: str) -> Path:
        root = SCRATCH / name
        shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(BENCH.parent / "BENCHMARK.json", root)
        return root

    def test_trajectory_is_not_benchmark_code(self):
        a, b = self.checkout("a"), self.checkout("b")
        with open(b / "bench" / "trajectory.json", "a") as fh:
            fh.write("\n")
        self.assertTrue(pair.same_benchmark(a, b))
        with open(b / "bench" / "workloads.py", "a") as fh:
            fh.write("\n")
        self.assertFalse(pair.same_benchmark(a, b))


class BenchmarkFileTests(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
            {k: v[:2] for k, v in tracing.LAYER_METRICS.items()},
        )


if __name__ == "__main__":
    unittest.main()

"""Compare two checkouts, a parent and a change, run alternately.

    python3 bench/pair.py --parent DIR --change DIR [--pairs 10] [--seed 1000]

Each pair runs both checkouts' bench/run.py on one workload with the same
seed and BENCHMARK.json's run_seconds, alternating which side goes first.
Every workload is run, with at least ten pairs.  Both checkouts must hold
the same bench/ files and BENCHMARK.json: a change that claims a gain may
not edit the benchmark.  trajectory.json is left out of that comparison:
it is a record of results, which each change appends to.  Per workload
and end-to-end metric it prints each side's median and quartiles, the
change's win fraction (ties count for neither) and a verdict:

  gain         the change wins at least 9 of 10 pairs and the medians
               differ by more than the parent's quartile distance
  regression   the change's median is worse than the parent's by more
               than the metric's bound
  unresolved   the parent's own spread is wider than the bound, and not
               every change run beats every parent run
  within bound otherwise

No gain counts when the change fails more ops than the parent.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: Files under bench/ that hold results, not benchmark code.
RESULTS = ("trajectory.json",)
MIN_PAIRS = 10


def same_benchmark(a: Path, b: Path) -> bool:
    if (a / "BENCHMARK.json").read_bytes() != (b / "BENCHMARK.json").read_bytes():
        return False

    def walk(cmp: filecmp.dircmp) -> bool:
        files = [f for f in cmp.common_files if not f.endswith(".pyc") and f not in RESULTS]
        _, mismatch, errors = filecmp.cmpfiles(cmp.left, cmp.right, files, shallow=False)
        extra = [n for n in cmp.left_only + cmp.right_only if n not in RESULTS + ("__pycache__",)]
        return not (mismatch or errors or extra) and all(
            walk(sub) for name, sub in cmp.subdirs.items() if name != "__pycache__"
        )

    return walk(filecmp.dircmp(a / "bench", b / "bench"))


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{root}: no result for {workload} seed {seed}: {proc.stderr.strip()[-300:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"warning: {root} gave wrong output on {workload} seed {seed}", file=sys.stderr)
    return result


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    win_fraction = wins / len(parent)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    worse = sign * (p_med - c_med)
    if worse > bound * p_med:
        return "regression", win_fraction
    if win_fraction >= 0.9 and sign * (c_med - p_med) > q3 - q1:
        return "gain", win_fraction
    if (q3 - q1) / p_med > bound and not all(sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved", win_fraction
    return "within bound", win_fraction


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1000, help="first seed; pair i uses seed + i")
    args = parser.parse_args()
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    if not same_benchmark(args.parent, args.change):
        raise SystemExit("the two checkouts hold different benchmark files")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    for name in [w["name"] for w in spec["workloads"]]:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                root = args.parent if side == "parent" else args.change
                runs[side].append(run_once(root, name, args.seed + i, seconds))
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        print(f"== {name}: {args.pairs} pairs, failed ops parent {failed['parent']} change {failed['change']}")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            p = [r["metrics"][key]["value"] for r in runs["parent"]]
            c = [r["metrics"][key]["value"] for r in runs["change"]]
            v, wins = verdict(p, c, metric["better"], metric["bound"])
            if v == "gain" and failed["change"] > failed["parent"]:
                v = "gain void: more failed ops"
            qp, qc = statistics.quantiles(p, n=4), statistics.quantiles(c, n=4)
            print(
                f"  {key:18s} {metric['unit']:4s} parent {statistics.median(p):.4g} [{qp[0]:.4g}, {qp[2]:.4g}]"
                f"  change {statistics.median(c):.4g} [{qc[0]:.4g}, {qc[2]:.4g}]  wins {wins:.2f}  {v}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Append one entry to bench/trajectory.json: an untraced and a traced run
of every workload at the current checkout.

    python3 bench/record.py --label "what this commit is" [--seed 1] [--seconds S]

An entry keeps each run's result line (correct, attempted, failed,
metrics) and run.py's summary line, which names the tail percentile,
the fail ratio and the self time per layer.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
TRAJECTORY = BENCH / "trajectory.json"


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    entry: dict = {
        "label": args.label,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}",
        "workloads": {},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w["name"], "--seed", str(args.seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                raise SystemExit(f"{w['name']} trace {trace}: no result: {proc.stderr.strip()[-300:]}")
            summary = next(line for line in lines if line.startswith("=="))
            result = json.loads(lines[-1])
            entry["workloads"].setdefault(w["name"], {})["traced" if trace else "untraced"] = {
                "summary": summary,
                **result,
            }
            print(summary, flush=True)
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark runner: end-to-end and per-layer metrics of the loosezeta CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...        # every workload in turn

Closed loop, one client: each op is a fresh `python -m loosezeta ...`
process (or `bench/op.py` for library ops), started when the previous one
has exited, so at most one core is busy.  Fresh processes are what a CLI
user pays for, and they keep the engine's process-global memo from
carrying results from one op to the next.

A run makes whole passes over the workload's op list, round(S / pass_s)
of them and at least one, so every run of a seed measures the same ops.
Every output is checked (see workloads.check).  A crash (nonzero exit or
a traceback) counts the op failed; a wrong answer also makes `correct`
false and the exit code 1.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced passes for at least S seconds and prints the per-layer metrics.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Mismatch, Op, Workload  # noqa: E402

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_ops_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_CALLS = 11
# an op slower than OP_TIMEOUT_S is killed and counts as failed; no op starts
# after RUN_LIMIT_S, so a run ends within the 180 s a run may take
OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 110.0


@dataclass
class OpResult:
    op: Op
    wall: float
    rss_mb: float
    status: str  # ok, crash or mismatch
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status != "ok"


@dataclass
class Proc:
    wall: float
    returncode: int
    stdout: str
    stderr: str
    rss_mb: float


class Runner:
    """Spawns op processes one at a time and waits for each to end."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, argv: list[str]) -> Proc:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        # files, not pipes: a long traceback would fill a pipe and block the child
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # interrupted (SIGTERM, Ctrl-C): leave no child running
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Proc(
                wall,
                proc.returncode,
                out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"),
                usage.ru_maxrss / 1024,
            )


def classify(op: Op, proc: Proc, ref: dict) -> tuple[str, str]:
    """(status, detail) of one finished op."""
    if proc.returncode != 0 or "Traceback" in proc.stderr:
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        return "crash", f"exit {proc.returncode}: {last[0][:160]}"
    try:
        workloads.check(op, proc.stdout, ref)
    except Mismatch as exc:
        return "mismatch", str(exc)[:200]
    return "ok", ""


class Session:
    """Inputs, references and the op runner of one workload run."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "inputs").mkdir(parents=True)
        self.runner = Runner(self.dir)
        proc = self.runner.spawn(
            [sys.executable, str(BENCH / "workloads.py"), workload.name, str(seed), str(self.dir / "inputs")]
        )
        if proc.returncode != 0:
            raise SystemExit(f"preparing inputs failed: {proc.stderr.strip()[-400:]}")
        prepared = json.loads(proc.stdout)
        self.paths: dict[str, str] = prepared["paths"]
        self.refs: dict[str, dict] = prepared["refs"]

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def argv(self, op: Op, spans: Path | None) -> list[str]:
        path = self.paths[op.spec]
        traced = ["--spans", str(spans)] if spans else []
        if op.is_library:
            return [sys.executable, str(BENCH / "op.py"), *traced, "lib", op.command, path]
        cli = [op.command, path, "--json", *op.args]
        if spans:
            return [sys.executable, str(BENCH / "op.py"), *traced, "cli", *cli]
        return [sys.executable, "-m", "loosezeta", *cli]

    def run_op(self, op: Op, totals: tracing.LayerTotals | None = None) -> OpResult:
        spans = self.dir / "spans.json" if totals is not None else None
        proc = self.runner.spawn(self.argv(op, spans))
        status, detail = classify(op, proc, self.refs[op.spec])
        if spans is not None and spans.exists():
            totals.add(json.loads(spans.read_text()))
            spans.unlink()
        return OpResult(op, proc.wall, proc.rss_mb, status, detail)

    def run_pass(self, totals: tracing.LayerTotals | None, deadline: float) -> tuple[list[OpResult], float]:
        """One pass over the op list; stops early only past the safety deadline."""
        results = []
        start = perf_counter()
        for op in self.workload.ops:
            if perf_counter() > deadline:
                break
            results.append(self.run_op(op, totals))
        return results, perf_counter() - start

    def setup_call(self) -> float:
        """Wall time of a trivial CLI call: interpreter start, import, argparse."""
        proc = self.runner.spawn([sys.executable, "-m", "loosezeta", "gen", "path", "1"])
        if proc.returncode != 0 or proc.stdout != "vertex v1\n":
            raise SystemExit(f"trivial CLI call failed: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc.wall


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def ranked(results: list[OpResult]) -> list[float]:
    """Op wall times in rank order, failed ops counted as the slowest."""
    return [r.wall for r in sorted(results, key=lambda r: (r.failed, r.wall))]


def tail(results: list[OpResult]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten ops
    ranked beyond it; the slowest op when there are ten ops or fewer."""
    times = ranked(results)
    n = len(times)
    if n <= 10:
        return 100.0, times[-1]
    return 100.0 * (n - 10) / n, times[n - 11]


def end_to_end(results: list[OpResult], elapsed: float, setup_s: float) -> tuple[dict[str, float], float]:
    times = ranked(results)
    mid = len(times) // 2
    p50 = times[mid] if len(times) % 2 else (times[mid - 1] + times[mid]) / 2
    pct, tail_value = tail(results)
    ok = sum(not r.failed for r in results)
    return {
        "latency_p50_s": p50,
        "latency_tail_s": tail_value,
        "throughput_ops_s": ok / elapsed,
        "setup_s": setup_s,
        "peak_rss_mb": max(r.rss_mb for r in results),
    }, pct


def run_untraced(session: Session, seconds: int) -> tuple[list[OpResult], dict[str, float], list[str]]:
    passes = max(1, round(seconds / session.workload.pass_s))
    ops = session.workload.ops * passes
    # trivial calls spread over the run, so a burst of load elsewhere on
    # the machine moves few of them
    sample_at = {len(ops) * i // SETUP_CALLS for i in range(SETUP_CALLS)}
    setup: list[float] = []
    results: list[OpResult] = []
    elapsed = 0.0
    deadline = perf_counter() + RUN_LIMIT_S
    for i, op in enumerate(ops):
        if i in sample_at:
            setup.append(session.setup_call())
        if perf_counter() > deadline:
            break
        start = perf_counter()
        results.append(session.run_op(op))
        elapsed += perf_counter() - start
    metrics, pct = end_to_end(results, elapsed, statistics.median(setup))
    failed = sum(r.failed for r in results)
    notes = [
        f"passes {passes}, ops {len(results)}",
        f"latency_tail_s is p{pct:.1f} of {len(results)} ops",
        f"fail_ratio {failed / len(results):.4f} ({failed} of {len(results)} ops)",
    ]
    return results, metrics, notes


def run_traced(session: Session, seconds: int) -> tuple[list[OpResult], dict[str, float], list[str]]:
    totals = tracing.LayerTotals()
    results: list[OpResult] = []
    traced_s = untraced_s = 0.0
    pairs = 0
    start = perf_counter()
    deadline = start + RUN_LIMIT_S
    while pairs == 0 or perf_counter() - start < seconds:
        done, took = session.run_pass(totals, deadline)
        results += done
        traced_s += took
        done, took = session.run_pass(None, deadline)
        results += done
        untraced_s += took
        pairs += 1
    metrics = totals.metrics(pairs)
    metrics["trace_overhead_ratio"] = untraced_s / traced_s
    layers = sorted(totals.self_time.items(), key=lambda kv: -kv[1])
    notes = [
        f"traced passes {pairs}, ops {len(results)}",
        "self time per pass by layer: " + ", ".join(f"{k} {v / pairs:.3f}s" for k, v in layers),
    ]
    return results, {k: metrics[k] for k in tracing.LAYER_METRICS}, notes


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    session = Session(workloads.WORKLOADS[name], seed)
    try:
        results, metrics, notes = (run_traced if trace else run_untraced)(session, seconds)
    finally:
        session.close()
    units = {k: v[0] for k, v in tracing.LAYER_METRICS.items()} if trace else END_TO_END
    print(f"== {name} seed {seed} trace {int(trace)}: " + "; ".join(notes))
    for k, v in metrics.items():
        print(f"  {k:42s} {v:14.6g} {units[k]}")
    for r in results:
        if r.failed:
            print(f"  FAILED {r.status}: {r.op.label}: {r.detail}")
    return {
        "correct": not any(r.status == "mismatch" for r in results),
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "loosezeta" / "__init__.py").is_file():
        print(f"bench: no loosezeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        correct &= result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

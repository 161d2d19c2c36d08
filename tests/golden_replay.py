"""Replay the recorded command-line cases of ``data/cli_golden.json`` with
the standard library only, so that interpreters without pytest check them
too:

    PYTHONPATH=src python tests/golden_replay.py --check

prints the id of each case whose exit code, stdout or stderr differs from
the recording, then a total, and exits 1 if any case differs.
`test_cli_golden.py` runs the same cases under pytest and records them.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

DATA = Path(__file__).with_name("data") / "cli_golden.json"

#: The fields of a case that say how to run it; the others are its results.
INPUTS = ("id", "argv", "stdin", "patch", "digest")


@contextmanager
def _patched(name: str | None):
    """Named patches for cases no correct engine reaches on its own."""
    if name is None:
        yield
        return
    assert name == "class_plus_one", name
    from loosezeta import pointcount

    original = pointcount.class_polynomial
    pointcount.class_polynomial = lambda g: original(g) + 1
    try:
        yield
    finally:
        pointcount.class_polynomial = original


def run_case(case: dict) -> dict:
    """Run one case in process; return its code, stdout and stderr."""
    from loosezeta.cli import main

    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(case["stdin"])
    try:
        with _patched(case.get("patch")), redirect_stdout(out), redirect_stderr(err):
            code = main(case["argv"])
    finally:
        sys.stdin = old_stdin
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record(case: dict) -> dict:
    """The case with its results, as the golden file stores it."""
    result = run_case(case)
    if case.get("digest"):
        result["stdout_sha256"] = hashlib.sha256(result.pop("stdout").encode()).hexdigest()
    return dict(case, **result)


def replay(case: dict) -> dict:
    """Run a recorded case again from its inputs."""
    return record({k: case[k] for k in INPUTS if k in case})


def check() -> int:
    golden = json.loads(DATA.read_text())
    failed = [case["id"] for case in golden if replay(case) != case]
    for case_id in failed:
        print(f"FAIL {case_id}")
    print(f"{len(golden) - len(failed)} of {len(golden)} cases match on Python {sys.version.split()[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--check"]:
        print("usage: golden_replay.py --check", file=sys.stderr)
        sys.exit(2)
    sys.exit(check())

"""Byte-identity of the command line: stdout, stderr and exit code of every
subcommand, as text and as JSON, against outputs recorded from an earlier
build in ``data/cli_golden.json``.

Each recorded case holds its argv, its stdin, an optional named patch and
the expected code, stderr and stdout (or the SHA-256 of stdout, for the
large ``gen johnson`` sweep).  To record the cases from a given tree:

    PYTHONPATH=path/to/src python tests/test_cli_golden.py

A change that alters any CLI byte on purpose re-records the file and says
why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

DATA = Path(__file__).with_name("data") / "cli_golden.json"

GRAPH_COMMANDS = (
    ["class"],
    ["zeta"],
    ["ihara"],
    ["count", "--q", "3"],
    ["verify"],
    ["trace"],
    ["compare"],
)
GEN = (
    ["complete", "5"],
    ["star", "4", "2"],
    ["path", "4"],
    ["cycle", "5"],
    ["affine", "2"],
    ["projective", "2"],
    ["hexahedron"],
)
TRIANGLE_WITH_PENDANT = "edge a b\nedge b c\nedge c a\nedge a d\n"
ERRORS = (
    # exit 1: domain errors
    (["ihara"], "edge a b\nedge b c\n", None),
    (["ihara"], TRIANGLE_WITH_PENDANT, None),
    (["count", "--q", "17"], "edge a b\n", None),
    (["count", "--q", "5", "--budget", "3"], TRIANGLE_WITH_PENDANT, None),
    (["verify", "--primes", "2,13", "--budget", "10"], TRIANGLE_WITH_PENDANT, None),
    # exit 2: parse and usage errors
    (["count", "--q", "4"], "vertex a\n", None),
    (["verify", "--primes", "2,4"], "vertex a\n", None),
    (["verify", "--primes", "2,x"], "vertex a\n", None),
    (["count", "--q", "5", "--budget", "-1"], "vertex a\n", None),
    (["class"], "edge a a\n", None),
    (["class", "--strict"], "edge a b\n", None),
    (["class"], "edge a b\nedge b a\n", None),
    (["gen", "dodecahedron"], "", None),
    (["gen", "star", "2", "5"], "", None),
    (["frobnicate"], "", None),
    # exit 3: a class that disagrees with the oracle
    (["verify"], TRIANGLE_WITH_PENDANT, "class_plus_one"),
    (["verify", "--json"], TRIANGLE_WITH_PENDANT, "class_plus_one"),
)


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


def build_cases() -> list[dict]:
    from loosezeta import LooseGraph, generate, serialize

    from conftest import corpus_graphs

    k4 = generate("complete", 4)
    # cycles and loose edges at once: the trace rows carry loose edges
    k4_loose2 = LooseGraph.build(k4.vertices, k4.edges, {"v1": 2})
    graphs = dict(corpus_graphs(), star42=generate("star", 4, 2), K4_loose2=k4_loose2)
    cases = []
    for name, g in graphs.items():
        for argv in GRAPH_COMMANDS:
            for extra in ([], ["--json"]):
                full = argv + extra
                cases.append({"id": f"{name}:{' '.join(full)}", "argv": full, "stdin": serialize(g)})
    for params in GEN:
        cases.append({"id": "gen " + " ".join(params), "argv": ["gen", *params], "stdin": ""})
    for n in range(1, 10):
        for k in range(1, n + 1):
            argv = ["gen", "johnson", str(n), str(k)]
            cases.append({"id": " ".join(argv), "argv": argv, "stdin": "", "digest": True})
    for i, (argv, stdin, patch) in enumerate(ERRORS):
        case_id = f"error{i}: {' '.join(argv)}"
        cases.append({"id": case_id, "argv": argv, "stdin": stdin, "patch": patch})
    return cases


def record(case: dict) -> dict:
    result = run_case(case)
    if case.get("digest"):
        result["stdout_sha256"] = hashlib.sha256(result.pop("stdout").encode()).hexdigest()
    return dict(case, **result)


GOLDEN = json.loads(DATA.read_text()) if DATA.exists() else []


def test_golden_covers_every_subcommand_and_exit_code():
    commands = {c["argv"][0] for c in GOLDEN}
    assert commands >= {"gen", "class", "zeta", "ihara", "count", "verify", "trace", "compare"}
    assert {c["code"] for c in GOLDEN} == {0, 1, 2, 3}
    assert {c["id"] for c in GOLDEN} == {c["id"] for c in build_cases()}


@pytest.mark.parametrize("case", GOLDEN, ids=[c["id"] for c in GOLDEN])
def test_cli_bytes_match_golden(case):
    got = record({k: case[k] for k in ("id", "argv", "stdin", "patch", "digest") if k in case})
    assert got == case


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps([record(c) for c in build_cases()], indent=1) + "\n")
    print(f"recorded {DATA}")

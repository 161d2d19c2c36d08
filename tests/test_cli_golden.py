"""Byte-identity of the command line: stdout, stderr and exit code of every
subcommand, as text and as JSON, against outputs recorded from an earlier
build in ``data/cli_golden.json``.

Each recorded case holds its argv, its stdin, an optional named patch and
the expected code, stderr and stdout (or the SHA-256 of stdout, for the
large ``gen johnson`` sweep).  To record the cases from a given tree:

    PYTHONPATH=path/to/src python tests/test_cli_golden.py

`golden_replay.py` runs the cases; with ``--check`` it replays them on an
interpreter that has no pytest.  A change that alters any CLI byte on
purpose re-records the file and says why in CHANGES.md.
"""

from __future__ import annotations

import json

import pytest

from golden_replay import DATA, record, replay

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
    # exit 1: domain errors; error2 is a usage error (exit 2), since 17 is not
    # in the table of admitted q
    (["ihara"], "edge a b\nedge b c\n", None),
    (["ihara"], TRIANGLE_WITH_PENDANT, None),
    (["count", "--q", "17"], "edge a b\n", None),
    (["count", "--q", "5", "--budget", "3"], TRIANGLE_WITH_PENDANT, None),
    (["verify", "--primes", "2,13", "--budget", "10"], TRIANGLE_WITH_PENDANT, None),
    # exit 0: q = 4 is a prime power, so it is admitted
    (["count", "--q", "4"], "vertex a\n", None),
    (["verify", "--primes", "2,4"], "vertex a\n", None),
    # exit 2: parse and usage errors
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
    # exit 2: one case for each parse error the cases above leave out, and
    # a q and a prime that are not prime powers
    (["class"], "vertex a\nsplit a\n", None),
    (["class"], "edge a\n", None),
    (["class"], "vertex a\nvertex a\n", None),
    (["class"], "edge a b\nvertex b\n", None),
    (["class"], "vertex a-b\n", None),
    (["count", "--q", "6"], "vertex a\n", None),
    (["verify", "--primes", "2,6"], "vertex a\n", None),
)
# comments, an indented comment, blank lines, CRLF endings and vertices
# first met in edge and loose lines
HAND_WRITTEN = (
    "# a triangle with a tail\r\n"
    "vertex a\r\n"
    "\r\n"
    "edge a b\r\n"
    "   # the tail\r\n"
    "edge b c\r\n"
    "edge c a\r\n"
    "edge c d\r\n"
    "edge d b\r\n"
    "\r\n"
    "loose d\r\n"
    "loose e\r\n"
    "edge e a\r\n"
)


def build_cases() -> list[dict]:
    from loosezeta import LooseGraph, generate, serialize

    from conftest import corpus_graphs

    k4 = generate("complete", 4)
    # cycles and loose edges at once: the trace rows carry loose edges
    k4_loose2 = LooseGraph.build(k4.vertices, k4.edges, {"v1": 2})
    cube = generate("hexahedron")
    # loose edges at three corners and a free edge: disconnected, so trace fails
    cube_loose3_free = LooseGraph.build(cube.vertices, cube.edges, {"000": 1, "011": 2, "111": 1}, 1)
    triangles = LooseGraph.build("abcwxyz", ["ab", "bc", "ac", "wx", "xy", "wy"])
    graphs = dict(corpus_graphs(), star42=generate("star", 4, 2), K4_loose2=k4_loose2)
    graphs.update(cube_loose3_free=cube_loose3_free, two_triangles_and_z=triangles, empty=LooseGraph())
    texts = {name: serialize(g) for name, g in graphs.items()}
    texts["hand_written"] = HAND_WRITTEN
    cases = []
    for name, text in texts.items():
        for argv in GRAPH_COMMANDS:
            for extra in ([], ["--json"]):
                full = argv + extra
                cases.append({"id": f"{name}:{' '.join(full)}", "argv": full, "stdin": text})
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


GOLDEN = json.loads(DATA.read_text()) if DATA.exists() else []


def test_golden_covers_every_subcommand_and_exit_code():
    commands = {c["argv"][0] for c in GOLDEN}
    assert commands >= {"gen", "class", "zeta", "ihara", "count", "verify", "trace", "compare"}
    assert {c["code"] for c in GOLDEN} == {0, 1, 2, 3}
    assert {c["id"] for c in GOLDEN} == {c["id"] for c in build_cases()}


@pytest.mark.parametrize("case", GOLDEN, ids=[c["id"] for c in GOLDEN])
def test_cli_bytes_match_golden(case):
    assert replay(case) == case


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps([record(c) for c in build_cases()], indent=1) + "\n")
    print(f"recorded {DATA}")

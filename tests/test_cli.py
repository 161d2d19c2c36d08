"""Command-line interface: commands, exit codes, text/JSON agreement."""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import K4_STAR_LG, STEP5_GRAPH_LG, hexloose
from loosezeta import LooseGraph, ParseError, parse, serialize
from loosezeta.cli import main
from loosezeta.polyring import Poly, format_poly
from loosezeta.zeta import FactoredZeta, format_zeta


def run(capsys, argv, stdin=""):
    import sys

    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        code = main(argv)
    finally:
        sys.stdin = old
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_text(capsys, *args):
    code, out, err = run(capsys, ["gen", *[str(a) for a in args]])
    assert code == 0, err
    return out


def test_gen_complete_class(capsys):
    lg = gen_text(capsys, "complete", 5)
    code, out, _ = run(capsys, ["class"], stdin=lg)
    assert code == 0
    assert out.strip() == "L^4 + L^3 + L^2 + L + 1"


def test_gen_emits_parseable_lg(capsys):
    lg = gen_text(capsys, "star", 4, 2)
    assert "vertex v0" in lg and lg.count("loose v0") == 2
    code, out, _ = run(capsys, ["class", "--strict"], stdin=lg)
    assert code == 0
    assert out.strip() == "L^4 + 2"


def test_compare_hexahedron(capsys):
    lg = gen_text(capsys, "hexahedron")
    code, out, _ = run(capsys, ["compare"], stdin=lg)
    assert code == 0
    assert "8L^3 - 12L + 12" in out
    assert "t^12*(t-3)^8/(t-1)^12" in out
    assert (
        "256u^24 - 768u^22 + 480u^20 + 400u^18 - 183u^16 - 384u^14 + 68u^12"
        " + 144u^10 + 30u^8 - 32u^6 - 12u^4 + 1" in out
    )


def test_ihara_on_tree_exits_1(capsys):
    lg = gen_text(capsys, "path", 2)
    code, out, err = run(capsys, ["ihara"], stdin=lg)
    assert code == 1
    assert "tree" in err and "trivial" in err


def test_ihara_on_degree_one_exits_1(capsys):
    lg = "edge a b\nedge b c\nedge c a\nedge a d\n"
    code, _, err = run(capsys, ["ihara"], stdin=lg)
    assert code == 1
    assert "degree 1" in err


def test_count(capsys):
    code, out, _ = run(capsys, ["count", "--q", "2"], stdin=K4_STAR_LG)
    assert code == 0 and out.strip() == "14"
    code, out, _ = run(capsys, ["count", "--q", "2", "--json"], stdin=K4_STAR_LG)
    assert json.loads(out) == {"prime": 2, "count": 14}


def test_count_usage_errors(capsys):
    code, _, err = run(capsys, ["count", "--q", "4"], stdin="vertex a\n")
    assert code == 2 and "not prime" in err
    code, _, _ = run(capsys, ["count"], stdin="vertex a\n")
    assert code == 2  # missing required --q


def test_verify_exit_codes(capsys, monkeypatch):
    code, out, _ = run(capsys, ["verify", "--primes", "2,3,5"], stdin=K4_STAR_LG)
    assert code == 0
    assert "PASS" in out
    # a failing report must exit 3
    import loosezeta.pointcount as pcmod
    from loosezeta.pointcount import PrimeCheck, VerifyReport

    fake = VerifyReport((PrimeCheck(2, 14, 13, False),), 4, 4)
    monkeypatch.setattr(pcmod, "verify", lambda *a, **kw: fake)
    code, out, _ = run(capsys, ["verify"], stdin=K4_STAR_LG)
    assert code == 3
    assert "FAIL" in out


BIG_PRIME = 1000000000000000003
SEMIPRIME = (10**9 + 7) * (10**9 + 9)


def test_large_q_is_answered_quickly(capsys):
    bound_line = f"error: count_points(): prime {BIG_PRIME} exceeds the bound 13\n"
    cases = [
        (["count", "--q", str(BIG_PRIME)], 1, bound_line),
        (["verify", "--primes", f"2,{BIG_PRIME}"], 1, bound_line),
        (["count", "--q", str(SEMIPRIME)], 2, f"error: --q {SEMIPRIME} is not prime\n"),
        (
            ["verify", "--primes", f"2,{SEMIPRIME}"],
            2,
            f"error: --primes entry {SEMIPRIME} is not prime\n",
        ),
    ]
    for argv, want_code, want_err in cases:
        start = time.monotonic()
        code, out, err = run(capsys, argv, stdin="vertex a\n")
        assert time.monotonic() - start < 2.0, argv
        assert (code, out, err) == (want_code, "", want_err), argv


def test_verify_bad_primes_list(capsys):
    code, _, err = run(capsys, ["verify", "--primes", "2,4"], stdin="vertex a\n")
    assert code == 2 and "not prime" in err


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, ["class"], stdin="edge a a\n")
    assert code == 2 and "loop" in err
    code, _, err = run(capsys, ["class", "--strict"], stdin="edge a b\n")
    assert code == 2


def test_late_declaration_exits_2_and_says_so(capsys):
    code, out, err = run(capsys, ["class"], stdin="edge a b\nvertex a\n")
    assert (code, out, err) == (2, "", "error: line 2: vertex 'a' declared after its first use\n")


# str.splitlines() also breaks lines at these; a .lg line ends only at
# \n, \r\n or \r, so each is whitespace within line 1
OTHER_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", OTHER_LINE_BREAKS, ids=[f"U+{ord(c):04X}" for c in OTHER_LINE_BREAKS])
def test_other_line_breaks_stay_within_the_line(capsys, sep):
    code, out, err = run(capsys, ["class"], stdin=f"vertex a{sep}vertex a\n")
    assert (code, out, err) == (2, "", "error: line 1: vertex takes exactly one name\n")
    code, out, err = run(capsys, ["class"], stdin=f"edge a b{sep}edge a b")
    assert (code, out, err) == (2, "", "error: line 1: edge takes exactly two names\n")


def readme_pipelines() -> list[tuple[list[str], list[str], list[str]]]:
    """(gen argv, command argv, expected lines) of each `loosezeta gen ... |
    loosezeta ...` example in README's "Command line" block."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("loosezeta "):
            examples.append((line, []))
        elif line.startswith("# "):
            examples[-1][1].append(line[2:])
    pipelines = []
    for command, expected in examples:
        if "|" in command:  # the file example shows no output
            gen, cmd = (part.split()[1:] for part in command.split("|"))
            pipelines.append((gen, cmd, expected))
    return pipelines


def test_readme_command_line_examples(capsys):
    pipelines = readme_pipelines()
    assert len(pipelines) == 5
    for gen, cmd, expected in pipelines:
        code, text, err = run(capsys, gen)
        assert code == 0, err
        code, out, err = run(capsys, cmd, stdin=text)
        assert code == 0, err
        lines = out.splitlines()
        assert len(lines) == len(expected), cmd
        for got, want in zip(lines, expected):
            if " ... " in want:  # an elided middle: match both ends
                head, tail = want.split(" ... ")
                assert got.startswith(head) and got.endswith(tail), (cmd, got)
            else:
                assert got == want, cmd


def test_gen_unknown_family_exits_2(capsys):
    code, _, err = run(capsys, ["gen", "dodecahedron"])
    assert code == 2
    code, _, err = run(capsys, ["gen", "star", "2", "5"])
    assert code == 2


def test_usage_error_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["class", "/nonexistent/file.lg"])
    assert code == 2 and "cannot read" in err


def test_file_input(tmp_path, capsys):
    path = tmp_path / "g.lg"
    path.write_text(K4_STAR_LG)
    code, out, _ = run(capsys, ["class", str(path)])
    assert code == 0 and out.strip() == "L^3 + L^2 + 2"


def test_text_and_json_encode_identical_data(capsys):
    lg = K4_STAR_LG
    # class
    _, text, _ = run(capsys, ["class"], stdin=lg)
    _, blob, _ = run(capsys, ["class", "--json"], stdin=lg)
    poly = Poly.from_json(json.loads(blob)["class"])
    assert format_poly(poly, "L") == text.strip()
    # zeta
    _, text, _ = run(capsys, ["zeta"], stdin=lg)
    _, blob, _ = run(capsys, ["zeta", "--json"], stdin=lg)
    z = FactoredZeta.from_json(json.loads(blob))
    assert format_zeta(z) == text.strip()
    # ihara (on a valid graph)
    lg4 = gen_text(capsys, "complete", 4)
    _, text, _ = run(capsys, ["ihara"], stdin=lg4)
    _, blob, _ = run(capsys, ["ihara", "--json"], stdin=lg4)
    poly = Poly.from_json(json.loads(blob)["ihara_inverse"])
    assert format_poly(poly, "u") == text.strip()
    # verify
    _, text, _ = run(capsys, ["verify", "--primes", "2,3"], stdin=lg)
    blob_code, blob, _ = run(capsys, ["verify", "--primes", "2,3", "--json"], stdin=lg)
    data = json.loads(blob)
    assert blob_code == 0 and data["ok"] is True
    for check in data["checks"]:
        assert f"q={check['prime']}: class={check['expected']} counted={check['counted']} ok" in text


def test_trace_text_and_json(capsys):
    lg = gen_text(capsys, "complete", 5)
    code, text, _ = run(capsys, ["trace"], stdin=lg)
    assert code == 0
    assert "tree: class = 5L^4 - 4L + 4" in text
    assert text.strip().splitlines()[-1].endswith("class = L^4 + L^3 + L^2 + L + 1")
    code, blob, _ = run(capsys, ["trace", "--json"], stdin=lg)
    rows = json.loads(blob)
    assert len(rows) == 7
    assert rows[0]["resolvedEdge"] is None
    assert Poly.from_json(rows[0]["running"]) == Poly((4, -4, 0, 0, 5))
    # each row's graph is .lg text that the parser accepts; deltas telescope
    from loosezeta import parse as parse_lg

    running = Poly.from_json(rows[0]["running"])
    for row in rows[1:]:
        parse_lg(row["graph"])
        running = running - Poly.from_json(row["delta"])
        assert running == Poly.from_json(row["running"])
        assert len(row["resolvedEdge"]) == 2


def test_budget_flag(capsys):
    code, _, err = run(capsys, ["count", "--q", "5", "--budget", "3"], stdin=K4_STAR_LG)
    assert code == 1 and "budget" in err


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.lg"
    path.write_bytes(b"vertex a\nedge a \xe9\n")
    code, out, err = run(capsys, ["class", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "UTF-8" in err
    assert len(err.strip().splitlines()) == 1


def test_non_utf8_stdin_exits_2(capsys, monkeypatch):
    raw = io.TextIOWrapper(io.BytesIO(b"vertex a\nedge a \xe9\n"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", raw)
    code = main(["class"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: cannot read stdin") and "UTF-8" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_negative_budget_exits_2(capsys):
    for argv in (["count", "--q", "5", "--budget", "-1"], ["verify", "--budget", "-1"]):
        code, out, err = run(capsys, argv, stdin=K4_STAR_LG)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "--budget -1" in err, argv
    # a budget of zero is valid and simply too small: a domain error
    code, _, err = run(capsys, ["count", "--q", "5", "--budget", "0"], stdin=K4_STAR_LG)
    assert code == 1 and "exceeds budget 0" in err


def test_internal_arithmetic_error_exits_1(capsys, monkeypatch):
    from loosezeta.polyring import ExactDivisionError, PolyMatrix

    def broken_det(self):
        raise ExactDivisionError("7 not divisible by 2")

    monkeypatch.setattr(PolyMatrix, "det", broken_det)
    triangle = "edge a b\nedge b c\nedge c a\n"
    for argv in (["ihara", "-"], ["compare", "--json", "-"]):
        code, out, err = run(capsys, argv, stdin=triangle)
        assert code == 1 and out == "", argv
        assert err == "error: internal arithmetic error: 7 not divisible by 2\n", argv
        assert "Traceback" not in err


def test_unexpected_exception_exits_1_with_one_line(capsys, monkeypatch):
    def broken_class(g):
        raise KeyError("v1")

    monkeypatch.setattr("loosezeta.cli.class_polynomial", broken_class)
    for argv in (["class", "-"], ["zeta", "--json", "-"]):
        code, out, err = run(capsys, argv, stdin=K4_STAR_LG)
        assert code == 1 and out == "", argv
        assert err == "error: internal error: KeyError: 'v1'\n", argv


# CLI fuzz: valid .lg texts with a few lines or tokens mutated.  The seeds
# stay small (at most 8 vertices, mutations add at most 3 names), so every
# command runs in milliseconds on every input.
FUZZ_SEEDS = [
    K4_STAR_LG,
    STEP5_GRAPH_LG,
    serialize(hexloose()),
    "edge a b\nedge b c\nedge c a\nloose c\nfree\n",
    "vertex a\nvertex b\nedge a b\nloose a\nloose a\n",
]
FUZZ_TOKENS = [
    b"edge a a", b"edge a b", b"edge a", b"edge a b c", b"loose a", b"loose a -3", b"loose",
    b"vertex a", b"vertex c", b"vertex", b"free", b"free 2", b"bogus", b"# note", b"",
    str(10**40).encode(), b"edge a " + str(10**40).encode(), b"\x00", b"edge a\x00 b",
    "\ufeff".encode(), "\ufeffvertex z".encode(), b"\r", b"\xff", "\u00e9".encode(), b"\t edge b c",
]
FUZZ_COMMANDS = [
    ["class"], ["class", "--json"], ["class", "--strict"], ["zeta"], ["trace"], ["trace", "--json"],
    ["ihara"], ["compare"], ["count", "--q", "2"], ["verify", "--primes", "2"],
]


@st.composite
def mutated_lg(draw) -> bytes:
    lines = draw(st.sampled_from(FUZZ_SEEDS)).encode().split(b"\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        token = draw(st.sampled_from(FUZZ_TOKENS))
        how = draw(st.sampled_from(["insert", "replace", "append", "crlf"]))
        if how == "insert":
            lines.insert(i, token)
        elif how == "replace":
            lines[i] = token
        elif how == "append":
            lines[i] += b" " + token
        else:
            lines[i] += b"\r"
    return b"\n".join(lines)


def run_quiet(argv, data: bytes):
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with patch("sys.stdin", stdin), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(mutated_lg())
@settings(max_examples=50)
def test_cli_fuzz_exits_with_a_code_and_one_line(data):
    try:
        g = parse(data.decode())
    except (UnicodeDecodeError, ParseError):
        g = None
    else:  # parse() constructs its value itself: it must be the one build() makes
        assert g == LooseGraph.build(g.vertices, g.edges, g.loose, g.free), data
    for argv in FUZZ_COMMANDS:
        code, out, err = run_quiet(argv, data)
        assert code in (0, 1, 2, 3), argv
        assert argv[0] != "verify" or code != 3, data  # the oracle agrees with the class
        assert "Traceback" not in err and "internal error" not in err, (argv, err)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        else:
            assert err == "", (argv, err)
        if argv == ["class", "--json"] and code == 0:
            # P(1) = |V|: the class counts one point per vertex at L = 1
            coeffs = json.loads(out)["class"]
            assert sum(map(int, coeffs)) == g.n_vertices

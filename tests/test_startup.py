"""What a CLI process imports, and the value classes that replace dataclasses.

Each subcommand imports only the engine modules it runs, no module
imports `dataclasses`, every module imports only the standard library
and loosezeta itself, and no module imports another's private names
beyond the few the engine shares.  `import loosezeta` is lazy (PEP 562):
a public name loads its home module on first access.  The eight value
classes are built by `loosegraph.value_class` and keep the
frozen-dataclass contract that the rest of the suite relies on.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import loosezeta
import process_checks
from conftest import relabelled
from loosezeta import (
    FactoredZeta,
    LooseGraph,
    SurgeryStep,
    SurgeryTrace,
    TreeProfile,
    VerifyReport,
    generate,
    serialize,
    surgery_trace,
)
from loosezeta import cli, pointcount
from loosezeta.families import serialize_restoring
from loosezeta.loosegraph import value_class
from loosezeta.pointcount import PrimeCheck
from loosezeta.polyring import Poly
from loosezeta.surgery import NeighborhoodData, neighborhood

SRC = Path(__file__).resolve().parent.parent / "src"

# ---------------------------------------------------------------------------
# Import guard
# ---------------------------------------------------------------------------

# Without site (-S), the modules loaded are those the interpreter and
# loosezeta import, whatever .pth files the environment carries.
GUARD = """
import contextlib, io, json, sys
if sys.argv[1:]:
    from loosezeta.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
else:
    import loosezeta
    code = 0
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

NOT_FOR_GRAPHS = {"dataclasses", "loosezeta.pointcount", "loosezeta.zeta", "loosezeta.ihara"}
FAMILIES, SURGERY, POLYMATRIX = "loosezeta.families", "loosezeta.surgery", "loosezeta.polymatrix"
COLD = {FAMILIES, SURGERY, POLYMATRIX}

# (args, modules that must not load, modules that must); K4 stands for a graph file
GUARD_CASES = [
    (["gen", "path", "3"], NOT_FOR_GRAPHS | {SURGERY, POLYMATRIX}, {"loosezeta.cli", FAMILIES}),
    (["class", "K4"], NOT_FOR_GRAPHS | COLD, {"loosezeta.grothendieck"}),
    (["trace", "--json", "K4"], NOT_FOR_GRAPHS | {POLYMATRIX}, {"loosezeta.grothendieck", SURGERY, FAMILIES}),
    (["trace", "K4"], NOT_FOR_GRAPHS | {POLYMATRIX, FAMILIES}, {"loosezeta.grothendieck", SURGERY}),
    (["ihara", "K4"], {"dataclasses", "loosezeta.pointcount", "loosezeta.zeta", SURGERY}, {"loosezeta.ihara"}),
    (
        ["count", "--q", "3", "K4"],
        {"dataclasses", "loosezeta.zeta", "loosezeta.ihara"} | COLD,
        {"loosezeta.pointcount"},
    ),
    (["verify", "K4"], {"dataclasses", "loosezeta.zeta", "loosezeta.ihara"} | COLD, {"loosezeta.pointcount"}),
    (["zeta", "K4"], {"dataclasses", "loosezeta.pointcount", "loosezeta.ihara"} | COLD, {"loosezeta.zeta"}),
    (["compare", "K4"], {"dataclasses", "loosezeta.pointcount"}, {"loosezeta.zeta", "loosezeta.ihara"}),
]


def loaded_modules(*args: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", GUARD, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    return set(result["modules"])


@pytest.mark.parametrize("args,absent,present", GUARD_CASES, ids=[" ".join(c[0]) for c in GUARD_CASES])
def test_subcommand_imports_only_its_modules(tmp_path, args, absent, present):
    path = tmp_path / "k4.lg"
    path.write_text(serialize(generate("complete", 4)))
    modules = loaded_modules(*(str(path) if a == "K4" else a for a in args))
    assert not modules & absent
    assert present <= modules


# (argv, lines of src/ it may compile); K4 stands for a graph file.  gen is
# the setup_s probe of every benchmark workload
COMPILE_BOUNDS = [
    (["gen", "path", "1"], 1059),
    (["class", "K4"], 952),
    (["count", "--q", "2", "K4"], 1187),
    (["ihara", "K4"], 1211),
    (["zeta", "K4"], 1039),
    (["compare", "K4"], 1298),
    (["trace", "K4"], 1318),
]


@pytest.mark.parametrize("args,bound", COMPILE_BOUNDS, ids=[c[0][0] for c in COMPILE_BOUNDS])
def test_op_compiles_few_lines(tmp_path, args, bound):
    # without bytecode on disk (PYTHONDONTWRITEBYTECODE=1), an op compiles
    # every loosezeta module it loads, and `python -m` adds __main__
    path = tmp_path / "k4.lg"
    path.write_text(serialize(generate("complete", 4)))
    loaded = {m for m in loaded_modules(*(str(path) if a == "K4" else a for a in args)) if m.startswith("loosezeta")}
    files = {"__init__", "__main__"} | {m.partition(".")[2] for m in loaded if "." in m}
    lines = sum(len((SRC / "loosezeta" / f"{f}.py").read_text().splitlines()) for f in files)
    assert lines <= bound, lines


def test_bare_package_import_loads_no_engine_module():
    assert not {m for m in loaded_modules() if m.startswith("loosezeta.")}


def test_modules_import_only_the_standard_library_and_loosezeta():
    # pyproject.toml declares no runtime dependency
    imported = set()
    for path in sorted((SRC / "loosezeta").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name.partition(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add((path.name, node.module.partition(".")[0]))
    assert imported and {name for _, name in imported} >= {"__future__", "itertools"}
    assert not {(f, m) for f, m in imported if m not in sys.stdlib_module_names and m != "loosezeta"}


# the private names one engine module may import from another
SHARED_PRIVATE = {
    ("", "_lazy"),
    ("loosegraph", "_components"),
    ("loosegraph", "_norm_edge"),
}


def test_modules_import_no_other_modules_private_names():
    imported = set()
    for path in sorted((SRC / "loosezeta").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("loosezeta")):
                module = (node.module or "").removeprefix("loosezeta").lstrip(".")
                imported |= {(path.name, module, a.name) for a in node.names if a.name.startswith("_")}
    assert ("grothendieck.py", "", "_lazy") in imported
    assert {(m, name) for _, m, name in imported} <= SHARED_PRIVATE, imported


def test_cli_budget_default_is_the_oracles():
    assert cli.DEFAULT_BUDGET == pointcount.DEFAULT_BUDGET
    args = cli._build_parser().parse_args(["verify"])
    assert args.budget == pointcount.DEFAULT_BUDGET


# ---------------------------------------------------------------------------
# The CLI process
# ---------------------------------------------------------------------------

# a child that makes `verify` fail, then runs loosezeta's __main__ as `python -m` does
FAIL_VERIFY_CHILD = """
import runpy
from loosezeta import pointcount
report = pointcount.VerifyReport((pointcount.PrimeCheck(2, 14, 13, False),), 4, 4)
pointcount.verify = lambda *args, **kwargs: report
runpy.run_module("loosezeta", run_name="__main__", alter_sys=True)
"""


def child(args: list[str], code: str | None = None, **kwargs) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    launch = ["-m", "loosezeta"] if code is None else ["-c", code]
    return subprocess.Popen([sys.executable, *launch, *args], env=env, **kwargs)


@pytest.mark.parametrize(
    "expected,args",
    [(0, ["class", "--json", "K4"]), (1, ["ihara", "PATH3"]), (2, ["zeta", "BAD"]), (3, ["verify", "K4"])],
)
def test_process_matches_main_byte_for_byte(tmp_path, capsys, monkeypatch, expected, args):
    files = {"K4": serialize(generate("complete", 4)), "PATH3": serialize(generate("path", 3)), "BAD": "edge a\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in args]
    proc = child(argv, FAIL_VERIFY_CHILD if expected == 3 else None, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    if expected == 3:
        report = VerifyReport((PrimeCheck(2, 14, 13, False),), 4, 4)
        monkeypatch.setattr(pointcount, "verify", lambda *args, **kwargs: report)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (proc.returncode, out, err) == (code, captured.out.encode(), captured.err.encode())
    assert code == expected
    assert (err == b"") == (code in (0, 3))


class FlushRecorder:
    def __init__(self, name: str, calls: list, fails: bool):
        self.name, self.calls, self.fails = name, calls, fails

    def flush(self) -> None:
        self.calls.append(self.name)
        if self.fails:
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed-reader"])
def test_run_flushes_both_streams_then_exits_with_mains_code(monkeypatch, closed):
    # main() itself never exits: tests and library callers run it in process.
    # A closed reader fails the flush; main() has reported it, so run() goes on
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(cli.sys, "stdout", FlushRecorder("stdout", calls, closed))
    monkeypatch.setattr(cli.sys, "stderr", FlushRecorder("stderr", calls, closed))
    monkeypatch.setattr(cli.os, "_exit", lambda code: calls.append(("_exit", code)))
    cli.run()
    assert calls == ["main", "stdout", "stderr", ("_exit", 3)]


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "args,head",
    [
        (["trace", "--json", "GRID"], b'[{"graph": "vertex g'),
        (["class", "--json", "K4"], b""),
        (["gen", "path", "3"], b""),
        (["gen", "johnson", "20", "3"], b"vertex s01"),
    ],
    ids=["trace-head", "class", "gen", "gen-head"],
)
def test_closed_stdout_exits_1_with_one_error_line(tmp_path, monkeypatch, args, head, unbuffered):
    # trace: a grid's rows fill the pipe many times over, so the child is still
    # writing when the reader closes it (`| head -c 20`).  class and gen: the
    # reader is gone before any output, which, buffered, waits for the flush
    # at exit; that flush must not fail again ("Exception ignored", exit 120).
    # gen-head: 627,570 bytes in one write, which, unbuffered, the raw file
    # takes only in part once the reader is gone (`| head -c 10`)
    n = 8
    grid = [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(n) for j in range(n - 1)]
    grid += [(f"g{j}_{i}", f"g{j + 1}_{i}") for i in range(n) for j in range(n - 1)]
    files = {"GRID": "".join(f"edge {a} {b}\n" for a, b in grid), "K4": serialize(generate("complete", 4))}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    argv = [str(tmp_path / a) if a in files else a for a in args]
    proc = child(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(len(head)) == head
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == "error: standard output was closed before all output was written\n"


@pytest.mark.parametrize("case", process_checks.CASES, ids=[c["id"] for c in process_checks.CASES])
def test_process_boundary(case):
    # closed streams, a reader that leaves, stdin's codec: the cases that
    # `tests/process_checks.py --check` runs on every interpreter
    assert process_checks.run_case(case) == process_checks.expected(case)


# ---------------------------------------------------------------------------
# Lazy package
# ---------------------------------------------------------------------------


def test_every_public_name_resolves_to_its_home_object():
    for name in loosezeta.__all__:
        obj = getattr(loosezeta, name)
        home = sys.modules[type(obj).__module__ if name == "L" else obj.__module__]
        assert getattr(home, name) is obj, name
        assert name in dir(loosezeta)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from loosezeta import *", namespace)
    for name in loosezeta.__all__:
        assert namespace[name] is getattr(loosezeta, name)


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        loosezeta.no_such_name  # noqa: B018
    assert not hasattr(loosezeta, "__no_such_dunder__")


# ---------------------------------------------------------------------------
# Value classes
# ---------------------------------------------------------------------------

K4 = generate("complete", 4)


def _instances():
    """Per class: its fields, one instance's values and a different instance's."""
    n12, n13 = neighborhood(K4, ("v1", "v2")), neighborhood(K4, ("v1", "v3"))
    nd_fields = ("x", "y", "g", "gl", "glx", "gly", "components", "charts_gl", "charts_glx", "charts_gly")
    t1, t2 = surgery_trace(K4), surgery_trace(generate("hexahedron"))
    return {
        LooseGraph: (
            ("vertices", "edges", "loose", "free"),
            (("a", "b"), (("a", "b"),), (("a", 1),), 0),
            (("a", "b"), (("a", "b"),), (("a", 1),), 1),
        ),
        TreeProfile: (("degree_counts", "inner_minus_one", "endpoints"), (((2, 1),), 0, 2), (((2, 1),), 0, 3)),
        NeighborhoodData: (
            nd_fields,
            tuple(getattr(n12, f) for f in nd_fields),
            tuple(getattr(n13, f) for f in nd_fields),
        ),
        SurgeryStep: (
            ("resolved_edge", "delta", "running_class"),
            (("a", "b"), Poly([1]), Poly([0, 1])),
            (("a", "b"), Poly([2]), Poly([0, 1])),
        ),
        SurgeryTrace: (
            ("steps", "final_tree", "final_tree_class"),
            (t1.steps, t1.final_tree, t1.final_tree_class),
            (t2.steps, t2.final_tree, t2.final_tree_class),
        ),
        PrimeCheck: (("prime", "expected", "counted", "ok"), (2, 14, 14, True), (2, 14, 13, False)),
        VerifyReport: (
            ("checks", "euler_expected", "euler_got"),
            ((PrimeCheck(2, 14, 14, True),), 4, 4),
            ((PrimeCheck(2, 14, 14, True),), 4, 5),
        ),
        FactoredZeta: (("factors",), (((0, 1), (1, 1)),), (((0, 1),),)),
    }


CASES = _instances()


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_value_class_contract(cls):
    fields, values, other = CASES[cls]
    assert tuple(cls.__annotations__) == fields
    a = cls(*values)
    b = cls(**dict(zip(fields, values)))
    c = cls(*values[:1], **dict(zip(fields[1:], values[1:])))
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert a != cls(*other)
    assert tuple(getattr(a, f) for f in fields) == values
    twin = value_class(type(cls.__name__, (), {"__annotations__": dict.fromkeys(fields)}))
    assert a != twin(*values) and not (a == twin(*values))
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert tuple(getattr(a, f) for f in fields) == values
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:-1], no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    if cls not in (LooseGraph, FactoredZeta):
        with pytest.raises(TypeError):
            cls()
    assert repr(a) == f"{cls.__name__}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"


def test_value_class_defaults_and_repr():
    assert LooseGraph() == LooseGraph((), (), (), 0)
    assert LooseGraph(free=2) == LooseGraph((), (), (), 2)
    assert FactoredZeta() == FactoredZeta(())
    with pytest.raises(TypeError):
        SurgeryStep(("a", "b"), Poly([1]))
    assert repr(LooseGraph(("a",))) == "LooseGraph(vertices=('a',), edges=(), loose=(), free=0)"
    assert repr(FactoredZeta()) == "FactoredZeta(factors=())"


def test_cached_maps_do_not_change_equality_or_hash():
    g, h = generate("complete", 4), generate("complete", 4)
    assert g.neighbors("v1") == ("v2", "v3", "v4") and g.loose_count("v1") == 0
    assert "_neighbor_map" in vars(g) and "_neighbor_map" not in vars(h)
    assert g == h and hash(g) == hash(h)
    assert repr(g) == repr(h)


# ---------------------------------------------------------------------------
# trace --json rows without a graph per row
# ---------------------------------------------------------------------------

NAMES = st.from_regex(r"[A-Za-z0-9_]{1,3}", fullmatch=True)


@st.composite
def labelled_connected_graphs(draw) -> LooseGraph:
    """Connected loose graphs whose labels differ in length and case, so
    that sorted labels and sorted text lines could disagree."""
    vs = draw(st.lists(NAMES, min_size=1, max_size=7, unique=True))
    tree = [(vs[draw(st.integers(0, i - 1))], vs[i]) for i in range(1, len(vs))]
    pairs = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]]
    chords = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = {tuple(sorted(e)) for e in tree + chords}
    loose = draw(st.dictionaries(st.sampled_from(vs), st.integers(1, 2)))
    return LooseGraph.build(vs, sorted(edges), loose)


@given(labelled_connected_graphs(), st.integers(0, 2**32 - 1))
def test_trace_row_texts_match_serialized_snapshots(g, seed):
    for trace in (surgery_trace(g), surgery_trace(relabelled(g, Random(seed))[0])):
        expected = [serialize(trace.final_tree)]
        expected += [serialize(trace.graph_before(i)) for i in range(len(trace.steps))]
        restored = [step.resolved_edge for step in trace.steps]
        assert list(serialize_restoring(trace.final_tree, restored)) == expected
        # the same edges given as (larger, smaller) label pairs
        flipped = [(b, a) for a, b in restored]
        assert list(serialize_restoring(trace.final_tree, flipped)) == expected

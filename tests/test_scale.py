"""Large sparse inputs: the engine's reach depends on time and memory, not
on Python's recursion limit.  Wall-clock bounds are generous; on a 2-core
x86 machine grid 30x30 takes well under a second for the class and for the
trace."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path
from random import Random

import pytest

import loosezeta
from conftest import hexloose
from loosezeta import (
    IharaDomainError,
    LooseGraph,
    class_polynomial,
    connected_components,
    count_points,
    edge_matrix_inverse,
    format_poly,
    generate,
    ihara_inverse,
    resolution_difference,
    serialize,
    surgery_trace,
    tree_profile,
)
from loosezeta.cli import main
from loosezeta.polyring import L

DEFAULT_RECURSION_LIMIT = 1000


def grid(a: int, b: int) -> LooseGraph:
    name = [[f"g{i}_{j}" for j in range(b)] for i in range(a)]
    edges = [(name[i][j], name[i][j + 1]) for i in range(a) for j in range(b - 1)]
    edges += [(name[i][j], name[i + 1][j]) for i in range(a - 1) for j in range(b)]
    return LooseGraph.build([v for row in name for v in row], edges)


def cocktail(k: int) -> LooseGraph:
    """K_2k minus the perfect matching c0-c1, c2-c3, ..."""
    vs = [f"c{i:02d}" for i in range(2 * k)]
    return LooseGraph.build(vs, [(vs[i], vs[j]) for i, j in combinations(range(2 * k), 2) if j != i ^ 1])


def threshold_graph(n: int, seed: int) -> LooseGraph:
    """Vertices added one at a time, each isolated or joined to every earlier one."""
    rng = Random(seed)
    vs = [f"t{i:03d}" for i in range(n)]
    return LooseGraph.build(vs, [(vs[j], vs[i]) for i in range(1, n) if rng.random() < 0.5 for j in range(i)])


@contextmanager
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@contextmanager
def within(seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


@pytest.mark.parametrize("n", [20, 30])
def test_grid_class_euler_count(n):
    g = grid(n, n)
    with default_recursion_limit(), within(30.0):
        p = class_polynomial(g)
    assert p.evaluate(1) == n * n
    assert p.degree == 4


# The class is one chart census: by surgery, cocktail 11 took 1.3-1.6 s and
# grid 60x60 0.3-0.5 s.  A threshold graph is a chain of apex peels on the
# work list, not a recursion.
@pytest.mark.parametrize(
    "make, seconds",
    [(lambda: cocktail(11), 0.8), (lambda: grid(60, 60), 0.25), (lambda: threshold_graph(300, 7), 1.0)],
    ids=["cocktail_11", "grid_60x60", "threshold_300"],
)
def test_class_census_scale(make, seconds):
    g = make()
    with default_recursion_limit(), within(seconds):
        p = class_polynomial(g)
    assert p.evaluate(1) == g.n_vertices


def test_small_grid_class_matches_oracle():
    g = grid(3, 4)
    p = class_polynomial(g)
    assert p.evaluate(2) == count_points(g, 2)
    assert p.evaluate(3) == count_points(g, 3)


@pytest.mark.parametrize("n", [20, 30])
def test_grid_trace_agrees_with_class(n):
    g = grid(n, n)
    with default_recursion_limit():
        # one validated graph per step made the trace take seconds
        with within(0.5):
            trace = surgery_trace(g)
        p = class_polynomial(g)
    assert len(trace.steps) == (n - 1) * (n - 1)
    assert trace.result_class == p


def cli_command(*args: str) -> tuple[list[str], dict[str, str]]:
    src = str(Path(loosezeta.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return [sys.executable, "-m", "loosezeta", *args], env


def run_cli(*args: str) -> subprocess.CompletedProcess:
    command, env = cli_command(*args)
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)


# A child's ru_maxrss starts at the RSS of the process that forked it, so a
# small launcher forks the CLI and reports that child's own peak, read by
# os.wait4 (RUSAGE_CHILDREN would also take in earlier children).
PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
with open(sys.argv[1], "w") as out:
    proc = subprocess.Popen(sys.argv[2:], stdout=out)
    _, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def run_cli_peak_rss(stdout: Path, *args: str) -> tuple[int, str, float]:
    """Run the CLI as a child writing to ``stdout``; return its exit code,
    its stderr and its peak RSS in MB."""
    command, env = cli_command(*args)
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_LAUNCHER, str(stdout), *command],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = map(int, proc.stdout.split())
    return code, proc.stderr, peak_kb / 1024  # ru_maxrss is in kilobytes on Linux


def test_cli_class_on_grid_20(tmp_path):
    g = grid(20, 20)
    path = tmp_path / "grid20.lg"
    path.write_text(serialize(g))
    with within(60.0):
        proc = run_cli("class", str(path))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip() == format_poly(class_polynomial(g), "L")


# Degree queries read one neighbor map per graph, so every refusal and
# validation below is one pass over the graph, not one pass per vertex.


@pytest.mark.parametrize("command", [["count", "--q", "2"], ["verify", "--primes", "2"]])
def test_cli_budget_refusal_on_grid_80(tmp_path, command):
    path = tmp_path / "grid80.lg"
    path.write_text(serialize(grid(80, 80)))
    with within(3.0):
        proc = run_cli(*command, "--budget", "10", str(path))
    assert proc.returncode == 1
    assert proc.stderr == "error: count_points(): estimated work 99856 exceeds budget 10\n"


def test_resolution_difference_on_every_edge_of_grid_40():
    # Delta reads the two unit balls of its edge, not a copy of the graph:
    # an O(V+E) pass per edge takes seconds here
    g = grid(40, 40)
    with within(0.3):
        deltas = {resolution_difference(g, e) for e in g.edges}
    assert deltas == {L - 1}  # no grid edge has a common neighbor


def test_tree_profile_on_long_path():
    path = generate("path", 3000)
    with within(0.5):
        profile = tree_profile(path)
    assert profile.degree_counts == ((2, 2998),) and profile.endpoints == 2


def test_ihara_refuses_long_cycle_with_pendant_quickly():
    vs = [f"c{i}" for i in range(3000)]
    g = LooseGraph.build(vs + ["p"], [(vs[i], vs[i - 1]) for i in range(3000)] + [(vs[0], "p")])
    with within(0.5), pytest.raises(IharaDomainError, match="degree 1"):
        ihara_inverse(g)


def test_ihara_refuses_k1900_before_building_its_matrix():
    # a 1900 x 1900 matrix of polynomials took 12.6 s and 609 MB to build
    # before det() refused its bound; labels are zero-padded, so the pairs
    # of combinations() are the sorted canonical edges
    vs = tuple(f"k{i:04d}" for i in range(1900))
    g = LooseGraph(vs, tuple(combinations(vs, 2)))
    with within(2.0), pytest.raises(ValueError, match="bound of 20694 bits is past the moduli table"):
        ihara_inverse(g)


def test_edge_route_refuses_k_2_1800_before_building_its_matrix():
    # 7,200 oriented edges: the dense matrix took 24 s and 808 MB
    hubs, rim = ["a0", "a1"], [f"b{i:04d}" for i in range(1800)]
    g = LooseGraph.build(hubs + rim, [(a, b) for a in hubs for b in rim])
    with within(2.0), pytest.raises(ValueError, match="bound of 21265 bits is past the moduli table"):
        edge_matrix_inverse(g)


def test_gen_johnson_40_1(capsys):
    with within(1.0):
        assert main(["gen", "johnson", "40", "1"]) == 0
    assert capsys.readouterr().out.count("vertex ") == 40


def test_gen_johnson_112_2_has_distinct_labels():
    # run-together digits made (11, 12) and (1, 112) the same label, and
    # testing all C(n, k)^2 pairs for neighbors took seconds
    with within(10.0):
        g = generate("johnson", 112, 2)
    assert g.n_vertices == len(set(g.vertices)) == 6216
    assert g.n_edges == 683760
    assert g.vertices[:2] == ("s001002", "s001003")


def test_connected_components_of_many_pieces():
    vs = [f"v{i}" for i in range(4000)]
    g = LooseGraph.build(vs, [(vs[i], vs[i + 1]) for i in range(0, 4000, 2)], {"v7": 2})
    with within(0.3):
        comps = connected_components(g)
    assert len(comps) == 2000
    assert comps[3] == LooseGraph.build(["v6", "v7"], [("v6", "v7")], {"v7": 2})


# The determinant kernel: both Ihara routes as reversed characteristic
# polynomials, one Hessenberg reduction per prime.  With one banded
# elimination per evaluation node, johnson 6 2 took 7.6 s on the edge route
# and johnson 6 3 24-28 s.


def test_ihara_vertex_route_on_grid_8():
    g = grid(8, 8)
    with within(2.5):
        p = ihara_inverse(g)
    assert p.degree == 2 * g.n_edges and p.coefficient(0) == 1


def test_ihara_edge_route_on_grid_6_matches_vertex_route():
    g = grid(6, 6)
    with within(4.0):
        p = edge_matrix_inverse(g)
    assert p == ihara_inverse(g)


def test_ihara_edge_route_on_johnson_6_2():
    g = generate("johnson", 6, 2)
    with within(2.0):
        p = edge_matrix_inverse(g)
    assert p.degree == 2 * g.n_edges and p.coefficient(0) == 1


def test_ihara_edge_route_on_johnson_6_3_matches_vertex_route():
    g = generate("johnson", 6, 3)
    with within(4.0):
        p = edge_matrix_inverse(g)
    assert p == ihara_inverse(g)


# Memory: the oracle holds one part of one lead's keys at a time, each key
# over that lead's own coordinates, and trace --json writes its array one row
# at a time.  Holding every key at once, hexloose at q 13 peaked at 92 MB and
# johnson 5 2 at q 7 at 83 MB; keying over all coordinates, path 50,000 at
# q 2 peaked at 218 MB; holding every row, trace --json on grid 30x30 peaked
# at 136 MB.  A trivial CLI call takes about 16 MB.  The graph's own
# O(n + m) storage passes 40 MB at about 30,000 vertices, so large inputs
# get their own bound.
PEAK_RSS_MB = 40

linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="ru_maxrss is in kilobytes on Linux"
)


@linux_only
@pytest.mark.parametrize(
    "make, q, bound_mb",
    [
        (hexloose, 13, PEAK_RSS_MB),
        (lambda: generate("johnson", 5, 2), 7, PEAK_RSS_MB),
        (lambda: generate("path", 50_000), 2, 100),
        # one chart with 22 directions: 4,194,304 keys if never split
        (lambda: generate("star", 22, 22), 2, PEAK_RSS_MB),
    ],
    ids=["hexloose_q13", "johnson_5_2_q7", "path_50000_q2", "star_22_22_q2"],
)
def test_count_memory_is_bounded_by_one_part(tmp_path, make, q, bound_mb):
    g = make()
    path = tmp_path / "g.lg"
    path.write_text(serialize(g))
    code, err, peak = run_cli_peak_rss(tmp_path / "out.txt", "count", "--q", str(q), str(path))
    assert code == 0, err
    assert int((tmp_path / "out.txt").read_text()) == class_polynomial(g).evaluate(q)
    assert peak < bound_mb, f"peak RSS {peak:.1f} MB"


@linux_only
def test_trace_json_memory_is_bounded_by_one_row(tmp_path):
    g = grid(30, 30)
    path = tmp_path / "grid30.lg"
    path.write_text(serialize(g))
    code, err, peak = run_cli_peak_rss(tmp_path / "out.json", "trace", "--json", str(path))
    assert code == 0, err
    rows = json.loads((tmp_path / "out.json").read_text())
    assert len(rows) == 29 * 29 + 1
    assert rows[-1]["running"] == class_polynomial(g).to_json()
    assert peak < PEAK_RSS_MB, f"peak RSS {peak:.1f} MB"

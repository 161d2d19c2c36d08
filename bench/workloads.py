"""Workload definitions: which ops each workload runs, on which inputs,
and how each op's output is checked.

An input is named by a spec string such as ``grid 12 12`` or
``sparse 40 #2``.  Fixed families (grid, cocktail, johnson, complete,
circulant, multipartite, hexahedron, hexloose) have seed-independent classes, so their stored
references hold for every seed; ``sparse``, ``tree``, ``dense``, ``core``
and ``regular`` draw a new graph per seed.  Every graph is relabelled by
the seed before it is written, so the engine's traversal order varies too.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random

import graphs
from graphs import Graph

#: The seed whose random inputs have stored references.
COMMITTED_SEED = 1

REFERENCES = Path(__file__).with_name("references.json")

RANDOM_FAMILIES = {"sparse", "tree", "dense", "core", "regular"}


@dataclass(frozen=True)
class Op:
    """One process: a CLI command or a library call on one input."""

    command: str  # class, zeta, trace, ihara, compare, count, verify, or edge_matrix_inverse
    spec: str
    args: tuple[str, ...] = ()

    @property
    def is_library(self) -> bool:
        return self.command == "edge_matrix_inverse"

    @property
    def label(self) -> str:
        return " ".join((self.command, *self.args, f"[{self.spec}]"))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]
    #: wall time of one pass over `ops` on a 2-core x86 machine at the
    #: commit that added the benchmark; a run makes round(seconds / pass_s)
    #: passes, at least one, so every run of a seed measures the same ops
    pass_s: float


def _ops(command: str, specs: list[str], *args: str) -> list[Op]:
    return [Op(command, s, args) for s in specs]


def _interleave(*groups: list[Op]) -> tuple[Op, ...]:
    """Round-robin the groups so heavy and light ops alternate."""
    out: list[Op] = []
    for i in range(max(len(g) for g in groups)):
        out.extend(g[i] for g in groups if i < len(g))
    return tuple(out)


# Op lists are ladders of input sizes: with no large gap between
# neighbouring op times, the median and the tail percentile move smoothly
# with machine speed instead of jumping from one op to another.
SPARSE_GRIDS = [
    "grid 5 8", "grid 6 9", "grid 7 10", "grid 8 9", "grid 8 10", "grid 9 9", "grid 9 10", "grid 9 11",
    "grid 10 10", "grid 10 11", "grid 10 12", "grid 11 11", "grid 12 12", "grid 14 14", "grid 17 17",
]  # fmt: skip
SPARSE_RANDOM = [f"sparse {30 + 2 * i} #{i}" for i in range(1, 17)]
# a band of mid-size ops just below the slowest ten, where the tail
# percentile of a one-pass run falls: more ops there, less jitter
SPARSE_MID = [
    "grid 8 8", "sparse 70 #17", "grid 7 9", "sparse 80 #18", "grid 6 11", "grid 6 12", "sparse 90 #19",
    "grid 7 11", "grid 6 13", "grid 8 11",
]  # fmt: skip
DENSE_HEAVY = ["cocktail 7", "johnson 7 3", "multipartite 3 3 3 3 3", "dense 24 #1"]
DENSE_MID = [
    "cocktail 6", "johnson 7 2", "circulant 18 1 2 4 5", "circulant 16 1 2 3 4", "multipartite 3 3 3 3",
    "circulant 20 1 3 5 7",
]  # fmt: skip
DENSE_LIGHT = [
    "johnson 6 3", "johnson 6 2", "circulant 17 1 2 4 8", "multipartite 4 4 4", "cocktail 5",
    "circulant 13 1 3 4", "complete 14",
]  # fmt: skip

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "sparse_surgery",
            "sparse grids and G(n, m=3n/2) with loose edges: structural passes and memo keys dominate; "
            "grid 17x17 overflows the recursion limit",
            _interleave(
                _ops("class", SPARSE_GRIDS),
                _ops("class", SPARSE_RANDOM),
                _ops("class", SPARSE_MID),
                _ops("zeta", ["grid 7 8", "sparse 50 #10", "sparse 60 #15"]),
                _ops("trace", ["grid 5 6", "tree 30 #1", "tree 40 #2", "tree 50 #3"]),
            ),
            22.0,
        ),
        Workload(
            "dense_charts",
            "cocktail, johnson, circulant and multipartite graphs, G(n, m=n(n-1)/4) and one K_n: "
            "chart_class inclusion-exclusion and Poly arithmetic dominate",
            # mostly fixed families, so the seed moves the median little
            _interleave(
                _ops("class", DENSE_HEAVY),
                _ops("class", DENSE_MID),
                _ops("zeta", ["cocktail 6", "johnson 6 3", "dense 22 #3"]),
                _ops("class", DENSE_LIGHT),
            ),
            8.0,
        ),
        Workload(
            "ihara_det",
            "both inverse Ihara routes on grids, johnson and 2-cores: the polynomial Bareiss determinant dominates",
            _interleave(
                _ops("ihara", ["grid 6 6", "grid 4 6", "grid 5 5", "johnson 6 3", "grid 5 6", "grid 4 7", "grid 5 7"]),
                _ops("edge_matrix_inverse", ["johnson 5 2", "complete 6", "grid 3 4", "grid 4 4", "hexahedron", "johnson 4 2"]),
                # mid-size ops where the tail percentile falls
                _ops("ihara", ["grid 3 10", "grid 4 8"]) + _ops("edge_matrix_inverse", ["grid 3 5"]),
                _ops("ihara", ["core 12 #1", "core 14 #2", "core 16 #5"]) + _ops("compare", ["grid 5 6", "core 12 #3", "core 14 #4"]),
            ),
            9.0,
        ),
        Workload(
            "oracle_verify",
            "brute-force point counts on small loose graphs: chart enumeration in pointcount dominates",
            _interleave(
                _ops("count", ["johnson 5 2"], "--q", "7")
                + _ops("count", ["hexloose"], "--q", "11")
                + _ops("count", ["hexloose"], "--q", "13")
                + _ops("count", ["johnson 5 2"], "--q", "5")
                + _ops("count", ["hexloose"], "--q", "7"),
                _ops("verify", ["regular 8 5 #1", "regular 9 5 #2", "regular 10 5 #3"], "--primes", "2,3,5,7"),
                _ops("verify", ["regular 10 6 #4", "regular 9 6 #5", "johnson 5 2", "hexloose"], "--primes", "2,3,5"),
            ),
            6.0,
        ),
    ]
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def hexloose() -> Graph:
    """The cube with loose edges at three corners and one free edge."""
    g = graphs.hexahedron()
    return graphs.Graph(g.vertices, g.edges, {"h000": 2, "h011": 1, "h111": 2}, 1)


def build(spec: str, seed: int) -> Graph:
    """The labelled graph a spec names under a seed."""
    words = spec.split()
    family, params = words[0], [int(w) for w in words[1:] if not w.startswith("#")]
    rng = Random(f"{seed}:{spec}")
    if family == "grid":
        g = graphs.grid(*params)
    elif family == "cocktail":
        g = graphs.cocktail(*params)
    elif family == "johnson":
        g = graphs.johnson(*params)
    elif family == "complete":
        g = graphs.complete(*params)
    elif family == "circulant":
        g = graphs.circulant(*params)
    elif family == "multipartite":
        g = graphs.multipartite(*params)
    elif family == "hexahedron":
        g = graphs.hexahedron()
    elif family == "hexloose":
        g = hexloose()
    elif family == "sparse":
        (n,) = params
        g = graphs.with_loose(rng, graphs.gnm(rng, n, 3 * n // 2), n // 10, 1)
    elif family == "tree":
        (n,) = params
        g = graphs.tree_plus(rng, n, n // 4, n // 10)
    elif family == "dense":
        (n,) = params
        g = graphs.gnm(rng, n, n * (n - 1) // 4)
    elif family == "core":
        (n,) = params
        g = graphs.two_core(rng, n, 7 * n // 4)
    elif family == "regular":
        g = graphs.regular_loose(rng, *params)
    else:
        raise ValueError(f"unknown input family {family!r}")
    return graphs.relabel(rng, g)


def is_random(spec: str) -> bool:
    return spec.split()[0] in RANDOM_FAMILIES


def needs(ops: tuple[Op, ...] | list[Op]) -> dict[str, set[str]]:
    """For each input spec, which reference kinds ('class', 'ihara') its ops check."""
    out: dict[str, set[str]] = {}
    for op in ops:
        kinds = out.setdefault(op.spec, set())
        if op.command in ("class", "zeta", "trace", "count", "verify", "compare"):
            kinds.add("class")
        if op.command in ("ihara", "compare", "edge_matrix_inverse"):
            kinds.add("ihara")
    return out


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def references_for(spec: str, kinds: set[str], seed: int, g: Graph, stored: dict) -> dict:
    """Stored references for fixed inputs and for the committed seed; for any
    other seed, fall back to P(1) = #vertices, the oracle at p = 2 and the
    edge-route Ihara value at u = 2."""
    if not is_random(spec):
        return stored["fixed"][spec]
    if seed == COMMITTED_SEED:
        return stored["seeded"][spec]
    ref: dict = {"vertices": len(g.vertices)}
    if "class" in kinds:
        ref["p2"] = graphs.count_points(g, 2)
    if "ihara" in kinds:
        ref["u2"] = graphs.ihara_edge_route(g, 2)
    return ref


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class Mismatch(Exception):
    """The op's output differs from the reference."""


def _ints(values: list) -> list[int]:
    return [int(v) for v in values]


def _check_class(coeffs: list[int], ref: dict) -> None:
    if "class" in ref:
        if coeffs != ref["class"]:
            raise Mismatch(f"class {coeffs} != reference {ref['class']}")
        return
    if graphs.evaluate(coeffs, 1) != ref["vertices"]:
        raise Mismatch("P(1) differs from the number of vertices")
    if graphs.evaluate(coeffs, 2) != ref["p2"]:
        raise Mismatch("P(2) differs from the oracle count at p = 2")


def _check_ihara(coeffs: list[int], ref: dict) -> None:
    if "ihara" in ref:
        if coeffs != ref["ihara"]:
            raise Mismatch("Ihara polynomial differs from the reference")
        return
    if not coeffs or coeffs[0] != 1 or graphs.evaluate(coeffs, 2) != ref["u2"]:
        raise Mismatch("Ihara polynomial differs from the edge route at u = 2")


def _zeta_class(zeta: dict) -> list[int]:
    factors = {int(k): int(a) for k, a in zeta["factors"]}
    return [factors.get(k, 0) for k in range(max(factors, default=-1) + 1)]


def _class_of(ref: dict) -> list[int]:
    if "class" not in ref:
        raise Mismatch("count needs a stored class reference")
    return ref["class"]


def check(op: Op, stdout: str, ref: dict) -> None:
    """Raise Mismatch unless `stdout` is the right answer for `op`."""
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from exc
    try:
        _check_payload(op, payload, ref)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise Mismatch(f"malformed output: {exc!r}") from exc


def _check_payload(op: Op, payload, ref: dict) -> None:
    cmd = op.command
    if cmd == "class":
        _check_class(_ints(payload["class"]), ref)
    elif cmd == "zeta":
        _check_class(_zeta_class(payload), ref)
    elif cmd == "trace":
        running = [_ints(row["running"]) for row in payload]
        for before, row, after in zip(running, payload[1:], running[1:]):
            delta = _ints(row["delta"])
            size = max(len(before), len(delta))
            expect = [
                (before[i] if i < len(before) else 0) - (delta[i] if i < len(delta) else 0) for i in range(size)
            ]
            while expect and expect[-1] == 0:
                expect.pop()
            if expect != after:
                raise Mismatch("trace running class is not previous minus delta")
        _check_class(running[-1], ref)
    elif cmd == "ihara":
        _check_ihara(_ints(payload["ihara_inverse"]), ref)
    elif cmd == "edge_matrix_inverse":
        _check_ihara(_ints(payload["poly"]), ref)
    elif cmd == "compare":
        coeffs = _ints(payload["class"])
        _check_class(coeffs, ref)
        if _zeta_class(payload["zeta_inverse"]) != coeffs:
            raise Mismatch("compare: zeta factors disagree with the class")
        _check_ihara(_ints(payload["ihara_inverse"]), ref)
    elif cmd == "count":
        q = int(op.args[op.args.index("--q") + 1])
        if payload["prime"] != q or payload["count"] != graphs.evaluate(_class_of(ref), q):
            raise Mismatch(f"count at q={q} differs from the class value")
    elif cmd == "verify":
        primes = [int(p) for p in op.args[op.args.index("--primes") + 1].split(",")]
        checks = payload["checks"]
        if payload["ok"] is not True or [c["prime"] for c in checks] != primes:
            raise Mismatch("verify did not pass on every prime")
        for c in checks:
            if not c["ok"] or c["expected"] != c["counted"]:
                raise Mismatch(f"verify mismatch at q={c['prime']}")
            if "class" in ref and c["expected"] != graphs.evaluate(ref["class"], c["prime"]):
                raise Mismatch(f"verify class value at q={c['prime']} differs from the reference")
            if "p2" in ref and c["prime"] == 2 and c["counted"] != ref["p2"]:
                raise Mismatch("verify count at q=2 differs from the oracle")
        euler = payload["euler"]
        if euler["expected"] != ref["vertices"] or euler["got"] != ref["vertices"]:
            raise Mismatch("verify: P(1) differs from the number of vertices")
    else:
        raise ValueError(f"unknown command {cmd!r}")


def prepare(name: str, seed: int, directory: Path) -> dict:
    """Write a workload's inputs under `directory` and return their paths
    and the references their outputs are checked against."""
    stored = load_references()
    paths, refs = {}, {}
    for i, (spec, kinds) in enumerate(sorted(needs(WORKLOADS[name].ops).items())):
        g = build(spec, seed)
        path = directory / f"{i:02d}.lg"
        path.write_text(graphs.to_lg(g))
        paths[spec] = str(path)
        refs[spec] = references_for(spec, kinds, seed, g, stored)
    return {"paths": paths, "refs": refs}


if __name__ == "__main__":
    # run as a child of run.py, so the oracle's memory never counts
    # towards the op processes' peak RSS
    print(json.dumps(prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))))

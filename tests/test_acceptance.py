"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute; runtime budgets are asserted where stated.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from random import Random

from conftest import (
    CLASS_COEFFS,
    IHARA_COEFFS,
    K5_TRACE,
    K5_TREE_CLASS,
    ZETA_INVERSE,
    corpus_graphs,
    random_ihara_graph,
    random_loose_graph,
    random_loose_tree,
    relabelled,
)
from loosezeta import (
    LooseGraph,
    class_polynomial,
    count_points,
    edge_matrix_inverse,
    f1_zeta,
    format_zeta,
    generate,
    ihara_inverse,
    induced,
    parse,
    reduce,
    resolution_difference,
    resolve,
    surgery_trace,
    tree_class,
)
from loosezeta.cli import main as cli_main
from loosezeta.polyring import L, Poly
from paper_objects import cone, cone_class


def _report(line: str) -> None:
    print(line)
    if sys.stdout is not sys.__stdout__:  # also reach the terminal under capture
        print(line, file=sys.__stdout__)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        _report(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
        )
    _report(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")


def test_criterion_1_k5_surgery_trace(capsys):
    with criterion(1, "K5 surgery trace reproduces the worked table exactly", 1.0):
        trace = surgery_trace(generate("complete", 5))
        assert trace.final_tree_class == Poly(K5_TREE_CLASS)
        assert len(trace.steps) == 6
        for step, (delta, running) in zip(trace.steps, K5_TRACE):
            assert step.delta == Poly(delta)
            assert step.running_class == Poly(running)
        # the CLI table carries the same seven polynomials and six deltas
        import io
        import sys

        old = sys.stdin
        sys.stdin = io.StringIO(
            "".join(f"vertex v{i}\n" for i in range(1, 6))
            + "".join(
                f"edge v{i} v{j}\n" for i in range(1, 6) for j in range(i + 1, 6)
            )
        )
        try:
            assert cli_main(["trace"]) == 0
        finally:
            sys.stdin = old
        out = capsys.readouterr().out
        assert "5L^4 - 4L + 4" in out
        assert "2L^2 - 3L + 1" in out and "2L^4 - 2L^3 - L + 1" in out
        assert "L^4 + L^3 + L^2 + L + 1" in out


def test_criterion_2_corpus_values():
    with criterion(2, "corpus classes, factored zetas and Ihara inverses exact", 5.0):
        for name, g in corpus_graphs().items():
            p = class_polynomial(g)
            assert p == Poly(CLASS_COEFFS[name]), name
            assert format_zeta(f1_zeta(p)) == ZETA_INVERSE[name], name
            assert ihara_inverse(g) == Poly(IHARA_COEFFS[name]), name


def test_criterion_3_oracle_equality():
    with criterion(3, "oracle equality on corpus and 100 random loose graphs", 60.0):
        primes = (2, 3, 5)
        for name, g in corpus_graphs().items():
            p = class_polynomial(g)
            for q in primes:
                assert p.evaluate(q) == count_points(g, q), (name, q)
        rng = Random(94)
        for i in range(100):
            g = random_loose_graph(
                rng, max_vertices=8, max_edges=12, max_loose=3, max_degree=6
            )
            p = class_polynomial(g)
            for q in primes:
                assert p.evaluate(q) == count_points(g, q), (i, q)


def _hub_graph(m, a, b, g_edges=(), resolved=False):
    vs = ["u", "v"] + [f"w{i}" for i in range(1, m + 1)]
    edges = [("u", f"w{i}") for i in range(1, m + 1)]
    edges += [("v", f"w{i}") for i in range(1, m + 1)]
    edges += [(f"w{i}", f"w{j}") for i, j in g_edges]
    if not resolved:
        edges.append(("u", "v"))
    loose = {k: v for k, v in {"u": a, "v": b}.items() if v}
    return LooseGraph.build(vs, edges, loose)


def test_criterion_4_closed_form_families():
    with criterion(4, "closed-form families match over the parameter grid", 10.0):
        patterns = {"empty": (), "p1": ((1, 2),), "path3": ((1, 2), (2, 3))}
        for m in range(0, 5):
            assert class_polynomial(_hub_graph(m, 0, 0)) == L ** (m + 1) + L**m + m
        for m in range(0, 5):
            for a in range(0, 4):
                for b in range(0, 4):
                    unresolved = class_polynomial(_hub_graph(m, a, b))
                    assert unresolved == (
                        L ** (a + m + 1) + L ** (b + m + 1) - L ** (m + 1) + L**m + m
                    )
                    resolved = class_polynomial(_hub_graph(m, a, b, resolved=True))
                    assert resolved == (
                        L ** (a + m) + L ** (b + m) + m * L**2 - 2 * m * (L - 1)
                    )
        for name, g_edges in patterns.items():
            lowest = max((j for _, j in g_edges), default=0)
            for m in range(lowest, 5):
                neighbors = [f"w{i}" for i in range(1, m + 1)]
                pg = class_polynomial(induced(_hub_graph(m, 0, 0, g_edges), neighbors))
                for a in range(0, 4):
                    for b in range(0, 4):
                        unresolved = class_polynomial(_hub_graph(m, a, b, g_edges))
                        assert unresolved == (
                            L ** (a + m + 1) + L ** (b + m + 1) - L ** (m + 1) + L**m + pg
                        ), (name, m, a, b)
                        resolved = class_polynomial(
                            _hub_graph(m, a, b, g_edges, resolved=True)
                        )
                        assert resolved == (
                            L ** (a + m) + L ** (b + m) + pg * (L - 1) ** 2 + pg
                        ), (name, m, a, b)
        # cone formulas: plain product form on graphs, corrected form on loose parts
        parts = {
            "vertex": LooseGraph.build(["p"]),
            "p1": parse("edge a b\n"),
            "k3": parse("edge c d\nedge d e\nedge e c\n"),
            "a2": LooseGraph.build(["q"], (), {"q": 2}),
            "path3": parse("edge f g\nedge g h\n"),
        }
        names = list(parts)
        for i, n1 in enumerate(names):
            for n2 in names[i + 1 :]:
                g1, g2 = parts[n1], parts[n2]
                assert cone_class(g1, g2) == class_polynomial(cone(g1, g2)), (n1, n2)
                if g1.is_reduced() and g2.is_reduced():
                    p1, p2 = class_polynomial(g1), class_polynomial(g2)
                    plain = (
                        p1 * L**g2.n_vertices
                        + p2 * L**g1.n_vertices
                        - p1 * p2 * (L - 1)
                    )
                    assert cone_class(g1, g2) == plain, (n1, n2)


def test_criterion_5_invariant_suite():
    with criterion(5, "euler counts, tree independence, dual routes, complete graphs"):
        rng = Random(505)
        # P(1) = number of vertices on every tested graph
        tested = list(corpus_graphs().values())
        tested += [random_loose_graph(rng) for _ in range(40)]
        for g in tested:
            assert class_polynomial(g).evaluate(1) == g.n_vertices
        # spanning-tree independence over relabelled inputs
        for name, g in corpus_graphs().items():
            reference = class_polynomial(g)
            for _ in range(5):
                assert surgery_trace(relabelled(g, rng)[0]).result_class == reference, name
        # tree formula against the surgery difference route on random trees
        # (the difference is computed on the reduced tree, where it is defined)
        done = 0
        while done < 200:
            t = random_loose_tree(rng, max_vertices=10)
            assert class_polynomial(t) == tree_class(t)
            if t.edges:
                e = t.edges[rng.randrange(t.n_edges)]
                delta = resolution_difference(reduce(t)[0], e)
                assert class_polynomial(resolve(t, e)) - delta == tree_class(t)
            done += 1
        # Bass-Hashimoto equals the edge-matrix determinant
        for name, g in corpus_graphs().items():
            assert ihara_inverse(g) == edge_matrix_inverse(g), name
        for _ in range(20):
            g = random_ihara_graph(rng)
            assert ihara_inverse(g) == edge_matrix_inverse(g)
        # complete graphs are projective spaces
        for n in range(1, 8):
            assert class_polynomial(generate("complete", n)) == Poly((1,) * n)


def test_criterion_6_degenerate_inputs(capsys):
    with criterion(6, "degenerate inputs and Ihara rejections"):
        assert class_polynomial(LooseGraph.build()) == Poly.zero()
        assert class_polynomial(LooseGraph.build(["a"])) == Poly.one()
        assert class_polynomial(LooseGraph.build((), (), (), 1)) == L - 1
        import io
        import sys

        for text in ("vertex a\nvertex b\nedge a b\n", "edge a b\nedge b c\nedge c a\nedge a d\n"):
            old = sys.stdin
            sys.stdin = io.StringIO(text)
            try:
                assert cli_main(["ihara"]) == 1
            finally:
                sys.stdin = old
        capsys.readouterr()

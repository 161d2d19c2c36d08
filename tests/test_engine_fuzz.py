"""Differential property tests of the class engine on small random loose
graphs with loose and free edges, possibly disconnected.  The brute-force
point count, the Euler count P(1) = #vertices, relabelling, the surgery
trace on relabelled inputs (so under other spanning trees) and the
loose-tree closed forms are independent of the chart census that computes
the class."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import loose_graphs, relabelled
from loosezeta import (
    LooseGraph,
    LooseGraphError,
    class_polynomial,
    count_points,
    f1_zeta,
    is_connected,
    resolve,
    spanning_tree,
    surgery_trace,
    tree_class,
    tree_zeta_closed_form,
)
from loosezeta import grothendieck
from loosezeta.grothendieck import chart_class
from loosezeta.pointcount import estimated_work
from loosezeta.polyring import L

#: Enumeration work allowed per oracle call at p = 5, to keep examples fast.
P5_WORK = 2 * 10**5


def engine_class(g: LooseGraph):
    """class_polynomial with the memo emptied, so the census itself runs."""
    grothendieck._memo.clear()
    return class_polynomial(g)


@given(loose_graphs())
def test_class_matches_point_counts(g):
    p = engine_class(g)
    assert p.evaluate(1) == g.n_vertices
    assert p.evaluate(2) == count_points(g, 2)
    assert p.evaluate(3) == count_points(g, 3)


@given(loose_graphs())
def test_class_matches_point_count_at_five(g):
    assume(estimated_work(g, 5) <= P5_WORK)
    assert engine_class(g).evaluate(5) == count_points(g, 5)


@given(loose_graphs())
def test_class_is_the_unfactored_chart_census(g):
    # one chart per vertex: its neighbors plus one phantom token per loose
    # edge; no component split and no apex peel
    charts = {v: {*g.neighbors(v), *(f"{v}/{i}" for i in range(g.loose_count(v)))} for v in g.vertices}
    assert engine_class(g) == chart_class(charts) + g.free * (L - 1)


@given(loose_graphs(), st.randoms(use_true_random=False))
def test_class_is_label_independent(g, rnd):
    assert engine_class(relabelled(g, rnd)[0]) == engine_class(g)


@st.composite
def loose_trees(draw, max_vertices: int = 7) -> LooseGraph:
    """A random tree on 1..max_vertices vertices with loose edges."""
    n = draw(st.integers(1, max_vertices))
    vs = [f"v{i}" for i in range(n)]
    tree = [(vs[draw(st.integers(0, i - 1))], vs[i]) for i in range(1, n)]
    loose = draw(st.dictionaries(st.sampled_from(vs), st.integers(1, 2)))
    return LooseGraph.build(vs, tree, loose)


@st.composite
def connected_loose_graphs(draw, max_vertices: int = 7) -> LooseGraph:
    """A random loose tree plus chords."""
    t = draw(loose_trees(max_vertices))
    vs = t.vertices
    pairs = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :] if (a, b) not in t.edges]
    chords = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return LooseGraph.build(vs, t.edges + tuple(chords), t.loose)


@given(loose_trees())
def test_tree_closed_forms_match_oracle(t):
    assume(estimated_work(t, 5) <= P5_WORK)
    cls = tree_class(t)
    for p in (2, 3, 5):
        assert cls.evaluate(p) == count_points(t, p)
    if t.n_edges or t.loose:
        assert f1_zeta(cls) == tree_zeta_closed_form(t)


@given(connected_loose_graphs(), st.integers(0, 2**32 - 1))
def test_trace_under_random_spanning_tree(g, seed):
    assert surgery_trace(relabelled(g, Random(seed))[0]).result_class == engine_class(g)


@given(connected_loose_graphs(), st.integers(0, 2**32 - 1))
def test_trace_snapshots_follow_the_resolve_chain(g, seed):
    # the trace keeps no graph per step: each snapshot is rebuilt from the
    # final tree, and must be the graph that public resolve() steps reach
    g = relabelled(g, Random(seed))[0]
    trace = surgery_trace(g)
    tree, fundamental = spanning_tree(g)
    downward = [step.resolved_edge for step in reversed(trace.steps)]
    assert tuple(downward) == fundamental
    chain = [g]
    for e in downward:
        chain.append(resolve(chain[-1], e))
    assert trace.final_tree == chain[-1]
    assert trace.final_tree.edges == tree.edges
    assert [trace.graph_before(i) for i in range(len(trace.steps))] == chain[-2::-1]
    assert trace.final_tree_class == tree_class(trace.final_tree)


def test_trace_rejects_a_lone_free_edge():
    # shrunk failure: one free edge is a single component, yet it has no
    # spanning tree to trace
    g = LooseGraph.build((), (), (), 1)
    assert is_connected(g)
    with pytest.raises(LooseGraphError, match="surgery_trace\\(\\): connected input required"):
        surgery_trace(g)

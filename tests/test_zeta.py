"""Factored zeta functions from counting polynomials."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CLASS_COEFFS, ZETA_INVERSE, corpus_graphs, random_loose_tree
from loosezeta import (
    FactoredZeta,
    LooseGraph,
    LooseGraphError,
    class_polynomial,
    f1_zeta,
    format_zeta,
    generate,
    tree_class,
    tree_zeta_closed_form,
)
from loosezeta.polyring import L, Poly


def test_f1_zeta_factors():
    assert f1_zeta(Poly(CLASS_COEFFS["K4"])).factors == ((0, 1), (1, 1), (2, 1), (3, 1))
    assert f1_zeta(Poly(CLASS_COEFFS["J42"])).factors == (
        (0, 8),
        (1, -16),
        (2, 20),
        (3, -12),
        (4, 6),
    )
    assert f1_zeta(Poly.zero()).factors == ()
    assert f1_zeta(Poly(CLASS_COEFFS["hexahedron"])).factors == ((0, 12), (1, -12), (3, 8))


def test_k4_inverse_expands_to_printed_polynomial():
    # t(t-1)(t-2)(t-3) = t^4 - 6t^3 + 11t^2 - 6t
    t = Poly.monomial(1)
    product = t * (t - 1) * (t - 2) * (t - 3)
    assert product == Poly((0, -6, 11, -6, 1))
    # and the factored form of K4* expands to t^4 - 5t^3 + 6t^2
    assert t**2 * (t - 2) * (t - 3) == Poly((0, 0, 6, -5, 1))


def test_format_zeta_corpus():
    for name in corpus_graphs():
        z = f1_zeta(Poly(CLASS_COEFFS[name]))
        assert format_zeta(z) == ZETA_INVERSE[name], name


def test_format_zeta_styles():
    assert format_zeta(FactoredZeta()) == "1"
    z = f1_zeta(Poly((12, -12, 0, 8)))
    assert format_zeta(z) == "t^12*(t-3)^8/(t-1)^12"


def test_euler_characteristic():
    # the Euler characteristic is P(1), the number of closed points
    assert Poly(CLASS_COEFFS["K5"]).evaluate(1) == 5
    assert Poly(CLASS_COEFFS["J42"]).evaluate(1) == 6
    assert Poly.zero().evaluate(1) == 0


def test_euler_equals_vertex_count():
    rng = Random(8128)
    graphs = list(corpus_graphs().values())
    graphs += [random_loose_tree(rng) for _ in range(10)]
    for g in graphs:
        assert class_polynomial(g).evaluate(1) == g.n_vertices


@given(st.lists(st.integers(min_value=-30, max_value=30), max_size=8))
def test_zeta_round_trip(coeffs):
    p = Poly(coeffs)
    assert sum((a * L**k for k, a in f1_zeta(p).factors), Poly.zero()) == p


def test_factored_zeta_json():
    z = f1_zeta(Poly((2, 0, -3, 1)))
    assert z.to_json() == {"factors": [[0, 2], [2, -3], [3, 1]]}
    assert FactoredZeta.from_json(z.to_json()) == z


def test_tree_zeta_closed_form_examples():
    p1 = generate("path", 2)
    assert tree_zeta_closed_form(p1).factors == ((0, 1), (1, 1))  # 1/(t(t-1))
    for n in range(1, 6):
        z = tree_zeta_closed_form(generate("affine", n))
        assert z == f1_zeta(Poly.monomial(n))  # 1/(t-n)
    s44 = generate("star", 4, 4)
    assert format_zeta(tree_zeta_closed_form(s44)) == "t^4*(t-4)"


def test_tree_zeta_closed_form_matches_coefficients():
    rng = Random(60902)
    done = 0
    while done < 200:
        t = random_loose_tree(rng, max_vertices=10)
        if t.n_vertices == 1 and not t.loose:
            continue
        assert tree_zeta_closed_form(t) == f1_zeta(tree_class(t))
        done += 1


def test_tree_zeta_closed_form_errors():
    with pytest.raises(LooseGraphError):
        tree_zeta_closed_form(generate("cycle", 3))
    with pytest.raises(LooseGraphError):
        tree_zeta_closed_form(LooseGraph.build(["a"]))


def test_projective_spaces():
    for n in range(0, 6):
        z = f1_zeta(class_polynomial(generate("projective", n)))
        assert z.factors == tuple((k, 1) for k in range(n + 1))
    assert format_zeta(f1_zeta(Poly((1, 1, 1)))) == "t*(t-1)*(t-2)"

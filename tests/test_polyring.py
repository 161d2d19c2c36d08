"""Exact polynomial arithmetic and determinants."""

from __future__ import annotations

import io
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import IHARA_COEFFS
from loosezeta import polyring
from loosezeta.cli import main
from loosezeta.polyring import (
    ExactDivisionError,
    L,
    Poly,
    PolyMatrix,
    _bound_squared,
    _modulus,
    divmod_exact,
    exact_div,
    format_poly,
)

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=8)


def test_add_examples():
    assert (L + 1) + (L - 1) == 2 * L
    p = Poly((3, 0, -2, 7))
    assert p + Poly.zero() == p
    s = Poly((2, 0, 1)) + Poly((2, -2, 3))
    assert s == Poly((4, -2, 4))
    for x in (-3, 2, 11):  # independent check by evaluation
        assert s.evaluate(x) == (x * x + 2) + (3 * x * x - 2 * x + 2)


def test_mul_examples():
    assert (L - 1) * (L + 1) == L**2 - 1
    p = Poly((5, -1, 2))
    assert p * Poly.one() == p
    prod = (L**2 + L) * (L**2 - 1)
    assert prod == L**4 + L**3 - L**2 - L
    for x in (-2, 3, 7):
        assert prod.evaluate(x) == (x * x + x) * (x * x - 1)


def test_eval_examples():
    assert (L**4 + L**3 + L**2 + L + 1).evaluate(2) == 31  # (2^5 - 1)/(2 - 1)
    p = Poly((42, 7, -3))
    assert p.evaluate(0) == 42
    assert (8 * L**3 - 12 * L + 12).evaluate(3) == 192


def test_normalization_and_zero():
    assert Poly((0, 0, 0)) == Poly.zero()
    assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
    assert not Poly.zero()
    assert Poly.zero().degree == -1
    assert Poly.zero().evaluate(17) == 0


def test_format():
    assert format_poly(5 * L**4 - 4 * L + 4, "L") == "5L^4 - 4L + 4"
    assert format_poly(Poly.zero(), "L") == "0"
    assert format_poly(-(L**2) + 1, "u") == "-u^2 + 1"
    assert format_poly(L, "t") == "t"


def test_json_round_trip():
    p = L**4 + L**3 + L**2 + L + 1
    assert p.to_json() == ["1", "1", "1", "1", "1"]
    assert Poly.from_json(p.to_json()) == p
    big = Poly((10**30, -(10**25), 3))
    assert Poly.from_json(big.to_json()) == big


@given(coeff_lists, coeff_lists)
def test_eval_is_ring_homomorphism(a, b):
    p, q = Poly(a), Poly(b)
    rng = Random(str((tuple(a), tuple(b))))
    for _ in range(5):
        x = rng.randint(-20, 20)
        assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
        assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


@given(coeff_lists, coeff_lists)
def test_ring_laws(a, b):
    p, q = Poly(a), Poly(b)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + Poly.one()) == p * q + p


@given(
    st.one_of(
        coeff_lists.map(Poly),
        st.builds(Poly.monomial, st.integers(0, 6), st.integers(-50, 50)),
        st.just(Poly.zero()),
    ),
    st.integers(0, 6),
)
def test_pow_is_repeated_multiplication(p, n):
    expected = Poly.one()
    for _ in range(n):
        expected = expected * p
    assert p**n == expected


def test_divmod_exact():
    p = (L**2 - 1) * (3 * L + 2) + 5
    q, r = divmod_exact(p, L**2 - 1)
    assert q == 3 * L + 2 and r == Poly.const(5)
    assert exact_div((L - 1) * (L + 1), L - 1) == L + 1
    with pytest.raises(ExactDivisionError):
        exact_div(L**2 + 1, L - 1)


def test_det_identity_and_small():
    for n in range(0, 6):
        assert PolyMatrix.identity(n).det() == Poly.one()
    m = PolyMatrix([[L, Poly.one()], [Poly.one(), L]])
    assert m.det() == L**2 - 1
    zero_col = PolyMatrix([[Poly.zero(), L], [Poly.zero(), L]])
    assert zero_col.det() == Poly.zero()
    needs_pivot = PolyMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert needs_pivot.det() == Poly.const(2)


def _bass_hashimoto_matrix(adjacency: list[list[int]], degrees: list[int]) -> PolyMatrix:
    n = len(degrees)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            c0 = 1 if i == j else 0
            c2 = degrees[i] - 1 if i == j else 0
            row.append(Poly((c0, -adjacency[i][j], c2)))
        rows.append(row)
    return PolyMatrix(rows)


def test_det_k4_matrix_reproduces_ihara():
    adjacency = [[0 if i == j else 1 for j in range(4)] for i in range(4)]
    m = _bass_hashimoto_matrix(adjacency, [3, 3, 3, 3])
    assert Poly((1, 0, -1)) ** 2 * m.det() == Poly(IHARA_COEFFS["K4"])


def _evaluate(m: PolyMatrix, x: int) -> list[list[int]]:
    return [[e.evaluate(x) for e in row] for row in m.entries]


def _fraction_det(rows: list[list[int]]) -> int:
    """Independent integer determinant via Gaussian elimination over Q."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    assert det.denominator == 1
    return det.numerator


def _newton_interpolation(xs: list[int], ys: list[int]) -> list[Fraction]:
    """Coefficients of the unique degree < len(xs) polynomial through the points."""
    n = len(xs)
    d = [Fraction(y) for y in ys]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            d[i] = (d[i] - d[i - 1]) / (xs[i] - xs[i - level])
    acc = [d[n - 1]]
    for i in range(n - 2, -1, -1):
        shifted = [Fraction(0)] + acc
        for k in range(len(acc)):
            shifted[k] -= xs[i] * acc[k]
        shifted[0] += d[i]
        acc = shifted
    return acc


def _det_by_interpolation(m: PolyMatrix) -> Poly:
    """Evaluate entrywise at degree-bound + 1 points, take exact integer
    determinants and interpolate back; coefficients must come out integral.
    An all-zero row counts as degree 0 in the bound."""
    bound = sum(max([0, *(e.degree for e in row)]) for row in m.entries) + 1
    xs = list(range(bound + 1))
    ys = [_fraction_det(_evaluate(m, x)) for x in xs]
    coeffs = _newton_interpolation(xs, ys)
    assert all(c.denominator == 1 for c in coeffs)
    return Poly([c.numerator for c in coeffs])


def test_interpolation_helper_is_sane():
    # p(x) = x^2 - 3x + 2 through 4 points
    xs = [0, 1, 2, 3]
    ys = [2, 0, 0, 2]
    coeffs = _newton_interpolation(xs, ys)
    assert [int(c) for c in coeffs] == [2, -3, 1, 0]


def test_det_bareiss_matches_interpolation_on_corpus_matrices():
    from conftest import corpus_graphs

    for name, g in corpus_graphs().items():
        vs = list(g.vertices)
        pos = {v: i for i, v in enumerate(vs)}
        adjacency = [[0] * len(vs) for _ in vs]
        for a, b in g.edges:
            adjacency[pos[a]][pos[b]] = adjacency[pos[b]][pos[a]] = 1
        m = _bass_hashimoto_matrix(adjacency, [g.graph_degree(v) for v in vs])
        assert m.det() == _det_by_interpolation(m), name


def test_det_commutes_with_evaluation():
    rng = Random(7)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = PolyMatrix(
            [
                [Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]) for _ in range(n)]
                for _ in range(n)
            ]
        )
        d = m.det()
        for _ in range(3):
            x = rng.randint(-6, 6)
            assert d.evaluate(x) == _fraction_det(_evaluate(m, x))


def test_det_edge_cases():
    assert PolyMatrix([]).det() == Poly.one()
    assert PolyMatrix([[0]]).det() == Poly.zero()
    assert PolyMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]]).det() == Poly.const(18)
    zero_row = PolyMatrix([[L, 1, 2], [0, 0, 0], [L**2, L, 1]])
    assert zero_row.det() == Poly.zero()
    zero_col = PolyMatrix([[L, 0, 1], [L**3, 0, L], [1, 0, 2]])
    assert zero_col.det() == Poly.zero()
    # after the first elimination step the (1, 1) entry is 0 at every x != 0
    late_zero_pivot = PolyMatrix([[L, 1, 0], [L, 1, 1], [0, 1, L]])
    assert late_zero_pivot.det() == -L


@st.composite
def poly_matrices(draw) -> PolyMatrix:
    n = draw(st.integers(min_value=0, max_value=5))
    entry = st.one_of(
        st.just(Poly.zero()),
        st.lists(st.integers(min_value=-5, max_value=5), max_size=4).map(Poly),
    )
    row = st.lists(entry, min_size=n, max_size=n)
    return PolyMatrix(draw(st.lists(row, min_size=n, max_size=n)))


@given(poly_matrices(), st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3))
def test_det_matches_fraction_oracles(m, points):
    d = m.det()
    assert d == _det_by_interpolation(m)
    for x in points:
        assert d.evaluate(x) == _fraction_det(_evaluate(m, x))


# -- the modular kernel --------------------------------------------------------


@st.composite
def wide_matrices(draw) -> PolyMatrix:
    """Matrices up to 4x4 with coefficients up to 10^12."""
    n = draw(st.integers(min_value=1, max_value=4))
    coeff = st.one_of(st.integers(-9, 9), st.integers(-(10**12), 10**12))
    entry = st.lists(coeff, max_size=3).map(Poly)
    row = st.lists(entry, min_size=n, max_size=n)
    return PolyMatrix(draw(st.lists(row, min_size=n, max_size=n)))


@given(st.one_of(poly_matrices(), wide_matrices()))
def test_det_coefficients_stay_within_the_kernel_bound(m):
    h2 = _bound_squared(m)
    assert all(c * c <= h2 for c in m.det().coeffs)


def test_det_is_exact_where_the_bound_is_tight():
    # a diagonal matrix of constants meets Hadamard's bound: H = |det|
    for prime in polyring._MODULI[:-1]:  # the last one's p/2 + 1 is past the table
        for c in (prime // 2 - 1, prime // 2 + 1, prime - 2, prime + 2):
            for sign in (1, -1):
                assert PolyMatrix([[sign * c]]).det() == Poly.const(sign * c)
                diagonal = PolyMatrix([[c, 0], [0, -3 * sign]])
                assert diagonal.det() == Poly.const(-3 * sign * c)


def _random_ihara_matrix(rng: Random, n: int) -> PolyMatrix:
    adjacency = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.4:
                adjacency[i][j] = adjacency[j][i] = 1
    return _bass_hashimoto_matrix(adjacency, [max(sum(row), 1) for row in adjacency])


def test_det_is_invariant_under_symmetric_relabelling():
    rng = Random(11)
    for _ in range(20):
        m = _random_ihara_matrix(rng, rng.randint(1, 12))
        perm = list(range(m.n))
        rng.shuffle(perm)
        relabelled = PolyMatrix([[m.entries[i][j] for j in perm] for i in perm])
        assert relabelled.det() == m.det()


def _huge_matrix(rng: Random, n: int) -> PolyMatrix:
    def entry() -> Poly:
        return Poly([rng.randint(-(10**30), 10**30) for _ in range(3)])

    return PolyMatrix([[entry() for _ in range(n)] for _ in range(n)])


def test_det_with_huge_entries_takes_a_large_modulus():
    rng = Random(30)
    for n in (2, 3, 4):
        m = _huge_matrix(rng, n)
        assert _modulus(_bound_squared(m)) > 2**127
        d = m.det()
        assert d == _det_by_interpolation(m)
        for x in (-3, 5):
            assert d.evaluate(x) == _fraction_det(_evaluate(m, x))


def test_too_small_modulus_is_caught_by_the_check_node(monkeypatch, capsys):
    m = _huge_matrix(Random(4), 4)
    monkeypatch.setattr(polyring, "_MODULI", (8191,))
    assert 8191**2 < 4 * _bound_squared(m)
    with pytest.raises(ExactDivisionError, match="check node"):
        m.det()
    # K4's vertex matrix has H = 144, so a single prime 31 < 2H lifts wrongly
    monkeypatch.setattr(polyring, "_MODULI", (31,))
    k4 = "".join(f"edge {a} {b}\n" for a, b in ["ab", "ac", "ad", "bc", "bd", "cd"])
    monkeypatch.setattr("sys.stdin", io.StringIO(k4))
    assert main(["ihara", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal arithmetic error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


# -- det(I - uM): the pencil the Ihara routes hand the kernel -------------------


def _pencil(m: list[list[int]]) -> PolyMatrix:
    """I - uM for an integer matrix M."""
    return PolyMatrix([[Poly((int(i == j), -x)) for j, x in enumerate(row)] for i, row in enumerate(m)])


@st.composite
def integer_matrices(draw) -> tuple[str, list[list[int]]]:
    """Random integer matrices, plus the zero, nilpotent, permutation and
    singular matrices whose char polys are degenerate."""
    n = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["random", "zero", "nilpotent", "permutation", "singular"]))
    if kind == "permutation":
        perm = draw(st.permutations(range(n)))
        return kind, [[int(j == perm[i]) for j in range(n)] for i in range(n)]
    m = [draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)) for _ in range(n)]
    if kind == "zero":
        m = [[0] * n for _ in range(n)]
    elif kind == "nilpotent":  # strictly upper triangular
        m = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(m)]
    elif kind == "singular":  # the last row repeats a multiple of the first
        c = draw(st.integers(-3, 3))
        m[-1] = [c * x for x in m[0]] if n > 1 else [0]
    return kind, m


@given(integer_matrices(), st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=2))
def test_det_of_pencils_matches_fraction_oracles(case, points):
    kind, m = case
    pencil = _pencil(m)
    d = pencil.det()
    assert d == _det_by_interpolation(pencil)
    for x in points:
        assert d.evaluate(x) == _fraction_det(_evaluate(pencil, x))
    if kind in ("zero", "nilpotent"):
        assert d == Poly.one()
    if kind == "permutation":  # one factor 1 - u^len per cycle
        expected, seen = Poly.one(), set()
        for start in range(len(m)):
            length = 0
            while start not in seen:
                seen.add(start)
                start, length = m[start].index(1), length + 1
            if length:
                expected = expected * (1 - L**length)
        assert d == expected


def test_det_shifts_past_singular_values_at_zero():
    cases = [
        (PolyMatrix([[L, 0], [0, L]]), L**2),
        (PolyMatrix([[L, L], [1, 2]]), L),
        (PolyMatrix([[L * (L - 1), 0, 0], [0, L - 2, 1], [0, 0, L + 1]]), L * (L - 1) * (L - 2) * (L + 1)),
        (PolyMatrix([[L**3, 1], [0, L**2]]), L**5),
    ]
    for m, expected in cases:
        assert _fraction_det(_evaluate(m, 0)) == 0  # M(0) is singular, so s > 0
        assert m.det() == expected == _det_by_interpolation(m)


@given(poly_matrices())
def test_det_with_a_column_divisible_by_x(m):
    if m.n:
        shifted = PolyMatrix([[e * L if j == 0 else e for j, e in enumerate(row)] for row in m.entries])
        d = shifted.det()
        assert d == _det_by_interpolation(shifted) == L * m.det()


def test_det_of_matrices_singular_at_every_value():
    for m in (
        PolyMatrix([[L, L**2], [1, L]]),
        PolyMatrix([[L + 1, 2 * L + 2], [3, 6]]),
        PolyMatrix([[L, 1, L**2], [1, L, L + 1], [L + 1, L + 1, L**2 + L + 1]]),
    ):
        assert all(row for row in m.entries)  # no zero row to short-cut on
        assert m.det() == Poly.zero()


def _wide_integer_matrix() -> list[list[int]]:
    rng = Random(12)
    return [[rng.randint(-(10**12), 10**12) for _ in range(5)] for _ in range(5)]


def test_det_of_a_pencil_that_needs_a_large_modulus():
    m = _wide_integer_matrix()
    pencil = _pencil(m)
    assert _modulus(_bound_squared(pencil)) > 2**127
    d = pencil.det()
    assert d == _det_by_interpolation(pencil)
    assert d.degree == 5 and d.coefficient(5) == -_fraction_det(m)


def test_det_under_too_small_a_modulus_fails_its_check_node(monkeypatch):
    matrices = [_huge_matrix(Random(4), 4), _pencil(_wide_integer_matrix())]
    small = 2**61 - 1
    for m in matrices:  # the true det has a coefficient that one prime cannot lift
        assert max(map(abs, _det_by_interpolation(m).coeffs)) > small // 2
    monkeypatch.setattr(polyring, "_modulus", lambda h2: small)
    for m in matrices:
        with pytest.raises(ExactDivisionError, match="check node"):
            m.det()


def test_det_refuses_a_bound_past_the_moduli_table():
    with pytest.raises(ValueError, match="bound of 23253 bits is past the moduli table"):
        PolyMatrix([[10**7000, 0], [0, 1]]).det()
    largest = (polyring._MODULI[-1] - 1) // 2  # the largest |det| that the largest prime lifts
    assert PolyMatrix([[largest]]).det() == Poly.const(largest)
    assert PolyMatrix([[-largest]]).det() == Poly.const(-largest)
    with pytest.raises(ValueError, match="past the moduli table"):
        PolyMatrix([[largest + 1]]).det()


def test_det_takes_one_pass(monkeypatch):
    passes = []
    det_mod = polyring._det_mod
    monkeypatch.setattr(polyring, "_det_mod", lambda *args: passes.append(args[-1]) or det_mod(*args))
    n = 9  # grid 9x9's vertex route, whose H needs more than 2^127 - 1
    grid = [[int(abs(i // n - j // n) + abs(i % n - j % n) == 1) for j in range(n * n)] for i in range(n * n)]
    for m in (_pencil(_wide_integer_matrix()), _bass_hashimoto_matrix(grid, [sum(row) for row in grid])):
        passes.clear()
        m.det()
        assert passes == [_modulus(_bound_squared(m))]

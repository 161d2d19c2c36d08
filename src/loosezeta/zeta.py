"""Zeta functions built from counting polynomials.

A counting polynomial P = sum a_k L^k determines the zeta function
zeta(t) = prod (t - k)^(-a_k) over its nonzero coefficients, kept here
in factored form.  For loose trees the same object has a closed form
read off the degree spectrum (tree_profile()), which must (and does)
agree with the coefficient route.
"""

from __future__ import annotations

from collections import Counter

from .loosegraph import LooseGraph, LooseGraphError, is_loose_tree, value_class
from .polyring import Poly


@value_class
class FactoredZeta:
    """zeta(t) = prod (t - k)^(-a_k), stored as (k, a_k) pairs with distinct
    k in increasing order and a_k != 0."""

    factors: tuple[tuple[int, int], ...] = ()

    def to_json(self) -> dict:
        return {"factors": [[k, a] for k, a in self.factors]}


def f1_zeta(p: Poly) -> FactoredZeta:
    """Factored zeta of a counting polynomial: one factor (t - k)^(-a_k)
    per nonzero coefficient a_k."""
    return FactoredZeta(tuple((k, a) for k, a in enumerate(p.coeffs) if a))


@value_class
class TreeProfile:
    """Degree bookkeeping of a loose tree: counts of degrees > 1, the inner
    count I = (#inner vertices) - 1 and the number E of degree-1 vertices."""

    degree_counts: tuple[tuple[int, int], ...]
    inner_minus_one: int
    endpoints: int


def tree_profile(t: LooseGraph) -> TreeProfile:
    if not is_loose_tree(t):
        raise LooseGraphError("tree_profile() needs a connected loose tree")
    degrees = [t.degree(v) for v in t.vertices]
    counts = Counter(d for d in degrees if d > 1)
    inner = sum(counts.values())
    return TreeProfile(tuple(sorted(counts.items())), inner - 1, degrees.count(1))


def tree_zeta_closed_form(t: LooseGraph) -> FactoredZeta:
    """Zeta of a loose tree straight from its degree spectrum.

    With n_d vertices of degree d > 1, I = #inner - 1 and E endpoints:
    zeta(t) = (t - 1)^I / t^(E+I) * prod (t - d)^(-n_d).  Equals
    f1_zeta(tree_class(t)) for every loose tree with an edge.
    """
    profile = tree_profile(t)  # validates tree-ness
    if not profile.degree_counts and profile.endpoints == 0:
        raise LooseGraphError("tree_zeta_closed_form(): tree needs at least one edge")
    items = [(0, profile.endpoints + profile.inner_minus_one), (1, -profile.inner_minus_one), *profile.degree_counts]
    return FactoredZeta(tuple((k, a) for k, a in items if a))


def _factor_text(k: int) -> str:
    return "t" if k == 0 else f"(t-{k})"


def _powered(base: str, e: int) -> str:
    return base if e == 1 else f"{base}^{e}"


def format_zeta(z: FactoredZeta) -> str:
    """Deterministic display string of the inverse zeta function:
    prod (t-k)^(+a_k) with negative exponents in the denominator."""
    numerator = [_powered(_factor_text(k), a) for k, a in z.factors if a > 0]
    denominator = [_powered(_factor_text(k), -a) for k, a in z.factors if a < 0]
    num = "*".join(numerator) if numerator else "1"
    if not denominator:
        return num
    den = "*".join(denominator)
    if len(denominator) > 1:
        den = f"({den})"
    return f"{num}/{den}"

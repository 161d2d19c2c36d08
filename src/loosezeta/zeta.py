"""Zeta functions built from counting polynomials.

A counting polynomial P = sum a_k L^k determines the zeta function
zeta(t) = prod (t - k)^(-a_k) over its nonzero coefficients, kept here
in factored form.  For loose trees the same object has a closed form
read off the degree spectrum, which must (and does) agree with the
coefficient route.
"""

from __future__ import annotations

from typing import Iterable, Literal

from .loosegraph import LooseGraph, LooseGraphError, tree_profile, value_class
from .polyring import Poly

ZetaStyle = Literal["inverse", "direct", "fp"]


@value_class
class FactoredZeta:
    """zeta(t) = prod (t - k)^(-a_k), stored as (k, a_k) pairs with distinct
    k in increasing order and a_k != 0."""

    factors: tuple[tuple[int, int], ...] = ()

    @classmethod
    def build(cls, items: Iterable[tuple[int, int]]) -> "FactoredZeta":
        merged: dict[int, int] = {}
        for k, a in items:
            if k < 0:
                raise ValueError("factor roots must be nonnegative")
            merged[k] = merged.get(k, 0) + a
        return cls(tuple(sorted((k, a) for k, a in merged.items() if a != 0)))

    def to_json(self) -> dict:
        return {"factors": [[k, a] for k, a in self.factors]}

    @classmethod
    def from_json(cls, data: dict) -> "FactoredZeta":
        return cls.build((int(k), int(a)) for k, a in data["factors"])


def f1_zeta(p: Poly) -> FactoredZeta:
    """Factored zeta of a counting polynomial: one factor (t - k)^(-a_k)
    per nonzero coefficient a_k."""
    return FactoredZeta.build((k, p.coefficient(k)) for k in range(p.degree + 1))


def tree_zeta_closed_form(t: LooseGraph) -> FactoredZeta:
    """Zeta of a loose tree straight from its degree spectrum.

    With n_d vertices of degree d > 1, I = #inner - 1 and E endpoints:
    zeta(t) = (t - 1)^I / t^(E+I) * prod (t - d)^(-n_d).  Equals
    f1_zeta(tree_class(t)) for every loose tree with an edge.
    """
    profile = tree_profile(t)  # validates tree-ness
    if not profile.degree_counts and profile.endpoints == 0:
        raise LooseGraphError("tree_zeta_closed_form(): tree needs at least one edge")
    items = [(0, profile.endpoints + profile.inner_minus_one), (1, -profile.inner_minus_one)]
    items.extend(profile.degree_counts)
    return FactoredZeta.build(items)


def _factor_text(k: int) -> str:
    return "t" if k == 0 else f"(t-{k})"


def _powered(base: str, e: int) -> str:
    return base if e == 1 else f"{base}^{e}"


def format_zeta(z: FactoredZeta, style: ZetaStyle = "inverse") -> str:
    """Deterministic display string.

    inverse: prod (t-k)^(+a_k) with negative exponents in the denominator;
    direct: the zeta function itself (exponents -a_k); fp: the finite-field
    shape prod (1 - p^(k-s))^(-a_k), string-level only.
    """
    if style == "fp":
        if not z.factors:
            return "1"
        parts = []
        for k, a in z.factors:
            exponent = f"p^-s" if k == 0 else f"p^({k}-s)"
            parts.append(f"(1 - {exponent})^{-a}")
        return "*".join(parts)
    if style == "direct":
        z = FactoredZeta.build((k, -a) for k, a in z.factors)
    elif style != "inverse":
        raise ValueError(f"unknown zeta style {style!r}")
    numerator = [_powered(_factor_text(k), a) for k, a in z.factors if a > 0]
    denominator = [_powered(_factor_text(k), -a) for k, a in z.factors if a < 0]
    num = "*".join(numerator) if numerator else "1"
    if not denominator:
        return num
    den = "*".join(denominator)
    if len(denominator) > 1:
        den = f"({den})"
    return f"{num}/{den}"

"""Exact integer-coefficient univariate polynomials.

Coefficients are arbitrary-precision Python ints stored little-endian
(index i = coefficient of the i-th power).  The zero polynomial is the
empty coefficient tuple.  No floating point is used anywhere.

The same representation serves three roles in this package: classes in
the Lefschetz variable L, inverse Ihara zeta functions in u, and
counting polynomials evaluated at prime powers q.  The variable symbol
only matters when formatting.

Polynomial matrices, their determinant kernel and exact division live
in `polymatrix`, which only the `ihara` and `compare` commands load.
The benchmark's tracer still looks `PolyMatrix` and `exact_div` up
here, so each is imported on first lookup.
"""

from __future__ import annotations

from typing import Iterable

from . import _lazy


class ExactDivisionError(ArithmeticError):
    """An exact division left a remainder or a determinant failed its check (a bug)."""


class Poly:
    """Univariate polynomial over the integers, immutable and hashable."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "Poly":
        if k < 0:
            raise ValueError("negative exponent")
        return cls((0,) * k + (c,))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @staticmethod
    def _coerce(other) -> "Poly | None":
        if isinstance(other, int):
            return Poly((other,))
        return other if isinstance(other, Poly) else None

    def _merge(self, other, sign: int) -> "Poly":
        """``self + sign * other`` as one new Poly."""
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        a, b = self.coeffs, q.coeffs
        out = [*a, *(0,) * (len(b) - len(a))]
        for i, c in enumerate(b):
            out[i] += sign * c
        return Poly(out)

    def __add__(self, other) -> "Poly":
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        return self._merge(other, -1)

    def __rsub__(self, other) -> "Poly":
        q = self._coerce(other)
        return NotImplemented if q is None else q._merge(self, -1)

    def __mul__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        a, b = self.coeffs, q.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        cs = self.coeffs
        if cs and not any(cs[:-1]):
            return Poly.monomial((len(cs) - 1) * n, cs[-1] ** n)
        result, base = Poly((1,)), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):  # by value, a bool too: 1 == True
            return self.coeffs == ((other,) if other else ())
        return self.coeffs == other.coeffs if isinstance(other, Poly) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs[0] if len(self.coeffs) == 1 else self.coeffs or 0)

    def evaluate(self, x: int) -> int:
        """Exact Horner evaluation at an integer point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json(self) -> list[str]:
        """Little-endian coefficient array of decimal strings."""
        return [str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"Poly({format_poly(self, 'x')})"


#: The class of the affine line, the usual indeterminate of counting polynomials.
L = Poly.monomial(1)


def format_poly(p: Poly, symbol: str) -> str:
    """Human-readable form with descending powers, e.g. ``5L^4 - 4L + 4``."""
    if not p:
        return "0"
    parts: list[str] = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = symbol if k == 1 else f"{symbol}^{k}"
            body = var if mag == 1 else f"{mag}{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


__getattr__ = _lazy(globals(), {"polymatrix": "PolyMatrix exact_div"})

"""Exact integer-coefficient univariate polynomials and polynomial matrices.

Coefficients are arbitrary-precision Python ints stored little-endian
(index i = coefficient of the i-th power).  The zero polynomial is the
empty coefficient tuple.  No floating point is used anywhere.

The same representation serves three roles in this package: classes in
the Lefschetz variable L, inverse Ihara zeta functions in u, and
counting polynomials evaluated at prime powers q.  The variable symbol
only matters when formatting.  Determinants of polynomial matrices are
taken by integer Bareiss elimination at integer points, followed by
exact Newton interpolation.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class ExactDivisionError(ArithmeticError):
    """A division that must be exact left a remainder (implementation bug)."""


class Poly:
    """Univariate polynomial over the integers, immutable and hashable."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "Poly":
        if k < 0:
            raise ValueError("negative exponent")
        return cls((0,) * k + (c,))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):
            return Poly((other,))
        return None

    def __add__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        a, b = self.coeffs, q.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        a, b = self.coeffs, q.coeffs
        if not a or not b:
            return Poly(())
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
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self.coeffs == q.coeffs

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def evaluate(self, x: int) -> int:
        """Exact Horner evaluation at an integer point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __call__(self, x: int) -> int:
        return self.evaluate(x)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list[str]:
        """Little-endian coefficient array of decimal strings."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "Poly":
        return cls(int(s) for s in data)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self, 'x')})"


#: The class of the affine line, the usual indeterminate of counting polynomials.
L = Poly.monomial(1)


def format_poly(p: Poly, symbol: str) -> str:
    """Human-readable form with descending powers, e.g. ``5L^4 - 4L + 4``."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for k in range(p.degree, -1, -1):
        c = p.coefficient(k)
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


def divmod_exact(p: Poly, d: Poly) -> tuple[Poly, Poly]:
    """Polynomial long division p = q*d + r, valid only when every
    leading-coefficient division along the way is exact over the integers."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p.coeffs)
    dc = d.coeffs
    dd = d.degree
    lead = dc[-1]
    quo = [0] * max(len(rem) - dd, 0)
    while len(rem) - 1 >= dd and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        c, r = divmod(rem[-1], lead)
        if r != 0:
            raise ExactDivisionError(f"{rem[-1]} not divisible by {lead}")
        shift = len(rem) - 1 - dd
        quo[shift] = c
        for i, dci in enumerate(dc):
            rem[shift + i] -= c * dci
    return Poly(quo), Poly(rem)


def exact_div(p: Poly, d: Poly) -> Poly:
    """Exact division; raises ExactDivisionError on any nonzero remainder."""
    q, r = divmod_exact(p, d)
    if not r.is_zero():
        raise ExactDivisionError("exact polynomial division left a remainder")
    return q


class PolyMatrix:
    """Square matrix of integer polynomials with an exact determinant."""

    __slots__ = ("n", "entries")

    def __init__(self, entries: Sequence[Sequence[Poly | int]]):
        n = len(entries)
        rows: list[tuple[Poly, ...]] = []
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
            rows.append(tuple(e if isinstance(e, Poly) else Poly.const(e) for e in row))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", tuple(rows))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        one, zero = Poly.one(), Poly.zero()
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def evaluate(self, x: int) -> list[list[int]]:
        return [[e.evaluate(x) for e in row] for row in self.entries]

    def det(self) -> Poly:
        """Exact determinant, of degree at most D = sum over rows of the largest
        entry degree.  The matrix is evaluated at D + 1 consecutive integers
        centred on 0, one at a time; integer Bareiss elimination gives each
        value and exact Newton interpolation the coefficients.  Every
        division is checked: a remainder raises ExactDivisionError."""
        if self.n == 0:
            return Poly.one()
        nodes = max(sum(max(e.degree for e in row) for row in self.entries), 0) + 1
        x0 = -(nodes // 2)
        dd = [_bareiss(self.evaluate(x0 + i)) for i in range(nodes)]
        # divided differences on unit-spaced nodes: forward differences / k!
        for k in range(1, nodes):
            for i in range(nodes - 1, k - 1, -1):
                dd[i], r = divmod(dd[i] - dd[i - 1], k)
                if r:
                    raise ExactDivisionError(f"divided difference not divisible by {k}")
        coeffs = [dd[-1]]
        for k in range(nodes - 2, -1, -1):  # Horner in the Newton basis
            root = x0 + k
            shifted = [low - root * high for low, high in zip(coeffs, coeffs[1:])]
            coeffs = [dd[k] - root * coeffs[0], *shifted, coeffs[-1]]
        return Poly(coeffs)


def _bareiss(a: list[list[int]]) -> int:
    """Fraction-free (Bareiss 1968) determinant of a square integer matrix;
    each step drops the pivot row and column, down to a 1x1 matrix."""
    sign, prev = 1, 1
    while len(a) > 1:
        if not a[0][0]:
            swap = next((i for i, row in enumerate(a) if row[0]), None)
            if swap is None:
                return 0
            a[0], a[swap], sign = a[swap], a[0], -sign
        (pivot, *top), rest = a[0], a[1:]
        a = []
        for f, *row in rest:
            if f:
                row = [x * pivot - f * y for x, y in zip(row, top)]
            else:
                row = [x * pivot for x in row]
            if prev != 1:
                qr = [divmod(x, prev) for x in row]
                if any([r for _, r in qr]):
                    raise ExactDivisionError(f"Bareiss step not divisible by {prev}")
                row = [q for q, _ in qr]
            a.append(row)
        prev = pivot
    return sign * a[0][0]


def det(m: PolyMatrix) -> Poly:
    """Exact determinant of a polynomial matrix."""
    return m.det()

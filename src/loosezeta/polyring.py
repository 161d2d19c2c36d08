"""Exact integer-coefficient univariate polynomials and polynomial matrices.

Coefficients are arbitrary-precision Python ints stored little-endian
(index i = coefficient of the i-th power).  The zero polynomial is the
empty coefficient tuple.  No floating point is used anywhere.

The same representation serves three roles in this package: classes in
the Lefschetz variable L, inverse Ihara zeta functions in u, and
counting polynomials evaluated at prime powers q.  The variable symbol
only matters when formatting.

Determinants of polynomial matrices come from one modular kernel.  On
|z| = 1 each |M_ij(z)| <= |M_ij|_1, so by Hadamard's inequality and
Cauchy's coefficient bound every coefficient of det M is at most H, where
H^2 = prod_i sum_j |M_ij|_1^2.  With rows and columns in one reverse
Cuthill-McKee order, det M(x) is eliminated at x = 0..D (D the degree
bound) modulo Mersenne primes whose product P exceeds 2H; CRT, Newton
interpolation and the lift to (-P/2, P/2) are then exact.  The value at
x = D + 1 under an independent prime checks the result.
"""

from __future__ import annotations

from itertools import accumulate
from math import prod
from operator import mul
from typing import Iterable, Sequence


class ExactDivisionError(ArithmeticError):
    """An exact division left a remainder or a determinant failed its check (a bug)."""


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

    def det(self) -> Poly:
        """Exact determinant by the modular kernel of the module docstring;
        raises ExactDivisionError if the check node disagrees."""
        if self.n == 0:
            return Poly.one()
        h2 = _bound_squared(self)
        if not h2:  # a zero row
            return Poly.zero()
        order = _rcm_order(self)
        where = {old: new for new, old in enumerate(order)}
        rows = [sorted((where[j], e) for j, e in enumerate(self.entries[i]) if e) for i in order]
        nodes = sum(max(e.degree for _, e in row) for row in rows) + 1
        values, product = [0] * nodes, 1
        for p in _moduli(h2):  # CRT, one prime at a time
            inv = pow(product, -1, p)
            residues = [_det_mod(rows, x, p) for x in range(nodes)]
            values = [v + product * ((r - v) * inv % p) for v, r in zip(values, residues)]
            product *= p
        coeffs = _interpolate(values, product)
        result = Poly([c - product if 2 * c > product else c for c in coeffs])
        q = _CHECK_MODULUS
        if (result.evaluate(nodes) - _det_mod(rows, nodes, q)) % q:
            raise ExactDivisionError(f"determinant disagrees with its check node modulo {q}")
        return result


#: Mersenne primes 2^e - 1: proven prime, pairwise coprime, and a pass
#: costs about the same under each of the first four.
_MODULI = tuple((1 << e) - 1 for e in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253))
#: The check node's prime, a Mersenne prime outside the table.
_CHECK_MODULUS = (1 << 31) - 1


def _bound_squared(m: PolyMatrix) -> int:
    """H^2, where H bounds every coefficient of det M (module docstring)."""
    return prod(sum(sum(map(abs, e.coeffs)) ** 2 for e in row) for row in m.entries)


def _moduli(h2: int) -> list[int]:
    """Primes with product P > 2H: the first cheap one that does alone, else the
    shortest prefix of the table (or all of it, which the check then rejects)."""
    single = [p for p in _MODULI[:4] if p * p > 4 * h2]
    products = enumerate(accumulate(_MODULI, mul), 1)
    count = next((k for k, q in products if q * q > 4 * h2), len(_MODULI))
    return single[:1] or list(_MODULI[:count])


def _rcm_order(m: PolyMatrix) -> list[int]:
    """Reverse Cuthill-McKee order of the symmetrised nonzero pattern:
    breadth-first from least-degree indices, lower degrees first."""
    adj = [{j for j, e in enumerate(row) if e} for row in m.entries]
    for j, col in enumerate(zip(*m.entries)):
        adj[j] |= {i for i, e in enumerate(col) if e}
    key = [(len(ns), v) for v, ns in enumerate(adj)]
    order: list[int] = []
    seen: set[int] = set()
    for start in sorted(range(m.n), key=key.__getitem__):
        if start not in seen:
            seen.add(start)
            part = [start]
            for v in part:  # grows while it is walked
                fresh = sorted(adj[v] - seen, key=key.__getitem__)
                seen.update(fresh)
                part += fresh
            order += part
    return order[::-1]


def _det_mod(rows: list[list[tuple[int, Poly]]], x: int, p: int) -> int:
    """det M(x) mod p from sparse rows of (column, entry): partial pivoting within
    the lower bandwidth, updates up to the pivot row's last nonzero column,
    and only the pivot row reduced mod p."""
    n = len(rows)
    a = [[0] * n for _ in rows]
    for i, row in enumerate(rows):
        for j, e in row:
            a[i][j] = e.evaluate(x)
    last = [row[-1][0] for row in rows]
    band = max(i - row[0][0] for i, row in enumerate(rows))
    det = 1
    for k in range(n):
        window = range(k, min(n, k + band + 1))
        # the pivot row ends first, so no update reaches past a row's own last column
        piv = min((r for r in window if a[r][k] % p), key=last.__getitem__, default=None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv], last[k], last[piv], det = a[piv], a[k], last[piv], last[k], -det
        stop = last[k] + 1
        det = det * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        seg = [v % p for v in a[k][k + 1 : stop]]
        for r in window[1:]:
            f = a[r][k] * inv % p
            if f:
                a[r][k + 1 : stop] = [u - f * v for u, v in zip(a[r][k + 1 : stop], seg)]
    return det


def _interpolate(values: list[int], modulus: int) -> list[int]:
    """Coefficients mod ``modulus`` of the polynomial taking values[x] at x = 0, 1, ...:
    divided differences on unit-spaced nodes, then Horner in the Newton basis."""
    dd = list(values)
    for k in range(1, len(dd)):
        inv = pow(k, -1, modulus)
        for i in range(len(dd) - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) * inv % modulus
    coeffs = [dd[-1]]
    for k in range(len(dd) - 2, -1, -1):
        shifted = [(low - k * high) % modulus for low, high in zip(coeffs, coeffs[1:])]
        coeffs = [(dd[k] - k * coeffs[0]) % modulus, *shifted, coeffs[-1]]
    return coeffs


def det(m: PolyMatrix) -> Poly:
    """Exact determinant of a polynomial matrix."""
    return m.det()

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
H^2 = prod_i sum_j |M_ij|_1^2.  Modulo the smallest Mersenne prime p of
a table with p > 2H, x = v + s shifts to the first s = 0..D (D the degree
bound) with M(s) invertible, else det M = 0 mod p.  For M(v + s) = sum
N_k v^k, det M(v + s) = det N_0 det(I - vC) with the block companion C
of first block row -N_0^-1 N_k and identity blocks below: the reversed
char poly of C, by Hessenberg reduction (Cohen 1993, 2.2.4).  The lift
to (-p/2, p/2) is exact; det M(D + 1) by plain elimination under an
independent prime checks the result.
"""

from __future__ import annotations

from math import prod
from operator import itemgetter, mul
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

    @staticmethod
    def _coerce(other) -> "Poly | None":
        if isinstance(other, int):
            return Poly((other,))
        return other if isinstance(other, Poly) else None

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
        return NotImplemented if q is None else self + (-q)

    def __rsub__(self, other) -> "Poly":
        q = self._coerce(other)
        return NotImplemented if q is None else q + (-self)

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
        result, base = Poly.one(), self
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

    __call__ = evaluate

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
    rem, dc, dd = list(p.coeffs), d.coeffs, d.degree
    quo = [0] * max(len(rem) - dd, 0)
    for shift in reversed(range(len(quo))):  # a zero top term divides to 0
        c, r = divmod(rem[shift + dd], dc[-1])
        if r:
            raise ExactDivisionError(f"{rem[shift + dd]} not divisible by {dc[-1]}")
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
        raises ValueError for a bound past the moduli table and
        ExactDivisionError if the check node disagrees."""
        if self.n == 0:
            return Poly.one()
        h2 = _bound_squared(self)
        if not h2:  # a zero row
            return Poly.zero()
        if h2 > _H2_CEILING:
            raise ValueError(f"determinant bound of {h2.bit_length() // 2} bits is past the moduli table")
        top = sum(max(e.degree for e in row) for row in self.entries)
        terms = [(i, j, e) for i, row in enumerate(self.entries) for j, e in enumerate(row) if e]
        p = _modulus(h2)
        residues = _det_mod(terms, self.n, top, p)[: top + 1]  # the rest are 0
        result = Poly([r - p if 2 * r > p else r for r in residues])
        q, x = _CHECK_MODULUS, top + 1
        if (result.evaluate(x) - _gauss_jordan([[e.evaluate(x) for e in row] for row in self.entries], q)) % q:
            raise ExactDivisionError(f"determinant disagrees with its check node modulo {q}")
        return result


#: Mersenne primes 2^e - 1, proven prime, in increasing order; det works
#: modulo the first with p > 2H.
_MODULI = tuple(
    (1 << e) - 1 for e in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937)
)
#: The largest H^2 for which the largest prime still has p > 2H.
_H2_CEILING = _MODULI[-1] ** 2 // 4
#: The check node's prime, a Mersenne prime outside the table.
_CHECK_MODULUS = (1 << 31) - 1


def _bound_squared(m: PolyMatrix) -> int:
    """H^2, where H bounds every coefficient of det M (module docstring)."""
    return prod(sum(sum(map(abs, e.coeffs)) ** 2 for e in row) for row in m.entries)


def _modulus(h2: int) -> int:
    """The smallest prime of the table with p > 2H, else the largest (det
    refuses such H first)."""
    return next((p for p in _MODULI if p * p > 4 * h2), _MODULI[-1])


def _det_mod(terms: list[tuple[int, int, Poly]], n: int, top: int, p: int) -> list[int]:
    """Coefficients mod p of det M, given as its nonzero entries (row, column,
    entry), by the shift, the linearisation and the char poly of the module docstring."""
    size = n * max(e.degree for _, _, e in terms)
    for s in range(top + 1):
        a = [[0] * (size + n) for _ in range(n)]  # [N_0 | N_1 | ... | N_d] of M(v + s)
        for i, j, e in terms:
            for k, c in enumerate(_shift(e.coeffs, s, p)):
                a[i][k * n + j] = c
        det0 = _gauss_jordan(a, p)  # leaves [I | K N_1 | ... | K N_d], K = N_0^-1
        if det0:
            break
    else:  # det M(x) vanishes mod p at top + 1 points, more than its degree
        return [0] * (top + 1)
    # C: first block row -K N_1 .. -K N_d, identity blocks below (empty if M is constant)
    c = [[-x % p for x in row[n:]] for row in a][:size]
    c += [[int(j == i - n) for j in range(size)] for i in range(n, size)]
    reversed_charpoly = _charpoly(c, p)[::-1]  # det(I - vC)
    return [det0 * x % p for x in _shift(reversed_charpoly, -s, p)]


def _shift(coeffs: Sequence[int], s: int, p: int) -> list[int]:
    """Coefficients of f(x + s) mod p, low to high (Taylor shift)."""
    c = [x % p for x in coeffs]
    for i in range(len(c) - 1 if s else 0):
        for k in range(len(c) - 2, i - 1, -1):
            c[k] = (c[k] + s * c[k + 1]) % p
    return c


def _gauss_jordan(a: list[list[int]], p: int) -> int:
    """det mod p of the square block that leads the rows of ``a``.  If ``a`` is
    wider and the det is nonzero, ``a`` is left as [I | block^-1 * rest]."""
    n, det = len(a), 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] % p), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv], det = a[piv], a[k], -det
        det = det * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        a[k][k:] = pivot = [x * inv % p for x in a[k][k:]]
        for r in range(n) if len(a[0]) > n else range(k + 1, n):
            f = a[r][k] % p
            if f and r != k:
                a[r][k:] = [(x - f * y) % p for x, y in zip(a[r][k:], pivot)]
    return det % p


def _charpoly(h: list[list[int]], p: int) -> list[int]:
    """det(xI - H) mod p, low to high: H is put in Hessenberg form in place by
    similarity transforms, then the Hessenberg recurrence (Cohen 1993, Alg. 2.2.9)."""
    n = len(h)
    for j in range(n - 2):
        piv = next((r for r in range(j + 1, n) if h[r][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(h[j + 1][j], -1, p)
        pivot = h[j + 1][j:]
        rs = [r for r in range(j + 2, n) if h[r][j]]
        ts = [h[r][j] * inv % p for r in rs]
        for r, t in zip(rs, ts):  # row r -= t * row j + 1 ...
            h[r][j:] = [(x - t * y) % p for x, y in zip(h[r][j:], pivot)]
        if rs:  # ... and column j + 1 += t * column r
            get = itemgetter(*rs) if len(rs) > 1 else lambda row: (row[rs[0]],)
            for row in h:
                row[j + 1] = (row[j + 1] + sum(map(mul, ts, get(row)))) % p
    cols: list[list[int]] = []  # cols[k]: coefficient k of each leading block's char poly
    last = [1]  # the char poly of the leading m x m block
    for m in range(n):
        w, t = [], 1  # w[m - 1 - i]: h[i][m] times the subdiagonal from i + 1 to m
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            w.append(h[i][m] * t % p)
        cols.append([])
        nxt = [(x - h[m][m] * y - sum(map(mul, w, reversed(col)))) % p for col, x, y in zip(cols, [0, *last], last)]
        for col, c in zip(cols, last):
            col.append(c)
        last = nxt + [1]
    return last

"""Polynomial matrices and their exact determinant, with exact division.

Determinants of polynomial matrices come from one modular kernel.  On
|z| = 1 each |M_ij(z)| <= |M_ij|_1, so by Hadamard's inequality and
Cauchy's coefficient bound every coefficient of det M is at most H, where
H^2 = prod_i sum_j |M_ij|_1^2.  Modulo p = modulus(H^2), the smallest
Mersenne prime of a table with p > 2H, x = v + s shifts to the first
s = 0..D (D the degree bound) with M(s) invertible, else det M = 0 mod p.
For M(v + s) = sum N_k v^k, det M(v + s) = det N_0 det(I - vC) with the
block companion C of first block row -N_0^-1 N_k and identity blocks
below: the reversed char poly of C, by Hessenberg reduction (Cohen 1993,
2.2.4).  The lift to (-p/2, p/2) is exact; det M(D + 1) by plain
elimination under an independent prime checks the result.
"""

from __future__ import annotations

from math import prod
from operator import itemgetter, mul
from typing import Sequence

from .polyring import ExactDivisionError, Poly


def exact_div(p: Poly, d: Poly) -> Poly:
    """Exact division by long division; raises ExactDivisionError when a
    leading coefficient does not divide or a remainder is left."""
    if not d:
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
    if any(rem):
        raise ExactDivisionError("exact polynomial division left a remainder")
    return Poly(quo)


class PolyMatrix:
    """Square matrix of integer polynomials with an exact determinant."""

    __slots__ = ("n", "entries")

    def __init__(self, entries: Sequence[Sequence[Poly | int]]):
        n = len(entries)
        rows: list[tuple[Poly, ...]] = []
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
            rows.append(tuple(e if isinstance(e, Poly) else Poly((e,)) for e in row))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", tuple(rows))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("PolyMatrix is immutable")

    def det(self) -> Poly:
        """Exact determinant by the modular kernel of the module docstring;
        raises ValueError for a bound past the moduli table and
        ExactDivisionError if the check node disagrees."""
        p = modulus(_bound_squared(self))
        top = sum(max(e.degree for e in row) for row in self.entries)
        terms = [(i, j, e) for i, row in enumerate(self.entries) for j, e in enumerate(row) if e]
        residues = _det_mod(terms, self.n, top, p)[: top + 1]  # the rest are 0
        result = Poly([r - p if 2 * r > p else r for r in residues])
        q, x = _CHECK_MODULUS, top + 1
        if (result.evaluate(x) - _gauss_jordan([[e.evaluate(x) for e in row] for row in self.entries], q)) % q:
            raise ExactDivisionError(f"determinant disagrees with its check node modulo {q}")
        return result


#: Mersenne primes 2^e - 1, proven prime, in increasing order, for modulus.
_MODULI = tuple(
    (1 << e) - 1 for e in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937)
)
#: The check node's prime, a Mersenne prime outside the table.
_CHECK_MODULUS = (1 << 31) - 1


def _bound_squared(m: PolyMatrix) -> int:
    """H^2, where H bounds every coefficient of det M (module docstring)."""
    return prod(sum(sum(map(abs, e.coeffs)) ** 2 for e in row) for row in m.entries)


def modulus(h2: int) -> int:
    """The smallest prime p of the table with p > 2H, H^2 = h2; raises
    ValueError for a bound past the table."""
    for p in _MODULI:
        if p * p > 4 * h2:
            return p
    raise ValueError(f"determinant bound of {h2.bit_length() // 2} bits is past the moduli table")


def _det_mod(terms: list[tuple[int, int, Poly]], n: int, top: int, p: int) -> list[int]:
    """Coefficients mod p of det M, given as its nonzero entries (row, column,
    entry), by the shift, the linearisation and the char poly of the module docstring."""
    size = n * max((e.degree for _, _, e in terms), default=0)
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
            get, ts = itemgetter(j + 1, *rs), [1, *ts]
            for row in h:
                row[j + 1] = sum(map(mul, ts, get(row))) % p
    ps = [[1]]  # ps[m]: the char poly of the leading m x m block
    for m in range(n):  # ps[m + 1] = x ps[m] - sum over i <= m of h[i][m] t ps[i],
        nxt, t = [0, *ps[m]], 1  # t the product of h[k][k - 1] for k = i + 1 .. m
        for i in range(m, -1, -1):
            f = h[i][m] * t % p
            if f:
                nxt[: i + 1] = [x - f * y for x, y in zip(nxt, ps[i])]
            t = t * h[i][i - 1] % p if i else 0
        ps.append([x % p for x in nxt])
    return ps[n]

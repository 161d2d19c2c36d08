"""Brute-force rational point counting over small prime fields.

Independent oracle for the symbolic engine.  count_points() inserts the key
sum x_i p^i (first nonzero x_i scaled to 1) of every point of every vertex
chart (x_v = 1, support in v's closed star and phantoms) into one set: p^v
+ T(after v) where v leads, and s p^v + p^d + T(dirs after d) for each s in
1..p-1 where an earlier direction d leads, T(D) being all sums sum w_i p^i
over w in F_p^D.  All sum p^deg(v) keys are generated (estimated_work()).
"""

from __future__ import annotations

from .grothendieck import class_polynomial
from .loosegraph import LooseGraph, ambient_space, value_class

DEFAULT_PRIME_BOUND = 13
DEFAULT_BUDGET = 10_000_000
#: Sums per table; bounds the memory a chart adds to the point set.
TABLE_CAP = 1024


class BudgetError(ValueError):
    """Estimated enumeration work exceeds the configured budget."""


#: Miller-Rabin with the first 13 primes as bases is exact below this
#: bound (Sorenson & Webster 2015); larger q are refused by size untested.
PRIMALITY_LIMIT = 3_317_044_064_679_887_385_961_981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < PRIMALITY_LIMIT."""
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for b in _BASES:
        x = pow(b, d, n)
        if x != 1 and n - 1 not in (pow(x, 1 << i, n) for i in range(s)):
            return False
    return True


def estimated_work(g: LooseGraph, p: int) -> int:
    """Chart enumeration cost: sum of p^deg(v) plus (p-1) per free edge."""
    return sum(p ** g.degree(v) for v in g.vertices) + g.free * (p - 1)


def _check_limits(g: LooseGraph, p: int, budget: int) -> None:
    """Raise unless p is a prime within the bound whose work fits the budget."""
    if p < PRIMALITY_LIMIT and not is_prime(p):
        raise ValueError(f"count_points(): {p} is not prime")
    if p > DEFAULT_PRIME_BOUND:
        raise ValueError(f"count_points(): prime {p} exceeds the bound {DEFAULT_PRIME_BOUND}")
    work = estimated_work(g, p)
    if work > budget:
        raise BudgetError(f"count_points(): estimated work {work} exceeds budget {budget}")


def _grow(table: list[int], offsets: list[int], step: int, p: int) -> tuple[list[int], list[int]]:
    """T(D + {d}) from T(D) = table + offsets, where step = p^d.  Once the
    table holds TABLE_CAP sums it stays, and the offsets grow instead."""
    small = len(table) < TABLE_CAP
    sums = table if small else offsets
    grown = sums[:]
    for w in range(1, p):
        grown += map((w * step).__add__, sums)
    return (grown, offsets) if small else (table, grown)


def count_points(g: LooseGraph, p: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of F_p-rational points of the scheme attached to g."""
    _check_limits(g, p, budget)
    index = {name: i for i, name in enumerate(ambient_space(g).coordinates)}
    ppow = [p**i for i in range(len(index))]
    # phantom coordinate indices of each vertex's loose edges
    phantoms = {v: [index[f"{v}#loose{i}"] for i in range(k)] for v, k in g.loose}

    points: set[int] = set()
    adjacency = g._neighbor_map
    for v in g.vertices:
        base = ppow[index[v]]
        dirs = sorted([index[u] for u in adjacency[v]] + phantoms.get(v, []))
        before = [i for i in dirs if i < index[v]]
        table, offsets = [0], [0]
        for i in dirs[len(before) :]:
            table, offsets = _grow(table, offsets, ppow[i], p)
        for o in offsets:
            points.update(map((base + o).__add__, table))
        for j in reversed(range(len(before))):
            lead = ppow[before[j]]
            for s in range(1, p):
                for o in offsets:
                    points.update(map((s * base + lead + o).__add__, table))
            if j:
                table, offsets = _grow(table, offsets, lead, p)
    # free edges live on their own pair of coordinates, disjoint from all charts
    return len(points) + g.free * (p - 1)


@value_class
class PrimeCheck:
    prime: int
    expected: int
    counted: int
    ok: bool


@value_class
class VerifyReport:
    """Per-prime oracle comparison plus the P(1) = #vertices check."""

    checks: tuple[PrimeCheck, ...]
    euler_expected: int
    euler_got: int

    @property
    def euler_ok(self) -> bool:
        return self.euler_expected == self.euler_got

    @property
    def ok(self) -> bool:
        return self.euler_ok and all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {
            "checks": [
                {"prime": c.prime, "expected": c.expected, "counted": c.counted, "ok": c.ok}
                for c in self.checks
            ],
            "euler": {
                "expected": self.euler_expected,
                "got": self.euler_got,
                "ok": self.euler_ok,
            },
            "ok": self.ok,
        }


def verify(
    g: LooseGraph, primes: tuple[int, ...] | list[int], budget: int = DEFAULT_BUDGET
) -> VerifyReport:
    """Compare eval(class, q) against the brute-force count for each prime."""
    for q in primes:
        _check_limits(g, q, budget)
    poly = class_polynomial(g)
    checks = []
    for q in primes:
        expected = poly.evaluate(q)
        counted = count_points(g, q, budget=budget)
        checks.append(PrimeCheck(q, expected, counted, expected == counted))
    return VerifyReport(tuple(checks), g.n_vertices, poly.evaluate(1))

"""Brute-force rational point counting over small prime fields.

Independent oracle for the symbolic engine.  count_points() enumerates every
point of every vertex chart (x_v = 1, support in v's closed star and
phantoms), first nonzero x_i scaled to 1, and counts the distinct points.
Vertices are coordinates 0..n-1 and phantoms n, n+1, ..., so the first
nonzero x_i, the lead, is a vertex L.  Lead L's points are x_L = 1 plus
T(dirs(L) after L) from chart L, and x_u = s, x_L = 1 plus T(dirs(u) after L)
from each later neighbour u, s in 1..p-1, T(D) being F_p^D.  They are keyed
by sum x_i p^j, j the position of i among L's own coordinates.  Each chart
and scale is a block of keys, base + T(dirs); while some block's table would
pass TABLE_CAP, its group is split into at most p disjoint groups by the
digit on that block's last direction.  Each group is counted in its own set,
since keys of two leads may coincide, so memory is bounded by one group and
the graph's O(n + m).  All sum p^deg(v) keys are still generated
(estimated_work()).
"""

from __future__ import annotations

from bisect import bisect
from itertools import accumulate, count, islice, repeat
from operator import mul

from .grothendieck import class_polynomial
from .loosegraph import LooseGraph, value_class

DEFAULT_PRIME_BOUND = 13
DEFAULT_BUDGET = 10_000_000
#: Most sums in one chart's table within a part; bounds the part's set.
TABLE_CAP = 2048


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


def _keys(dirs: tuple[int, ...], weight: dict[int, int], p: int) -> list[int]:
    """T(dirs): each sum sum x_i weight[i] over x in F_p^dirs."""
    keys = [0]
    for i in dirs:
        # w runs over 0, weight[i], ..., (p-1) weight[i]
        keys = [b + w for w in accumulate(repeat(weight[i], p - 1), initial=0) for b in keys]
    return keys


def _count_lead(blocks: list, weight: dict[int, int], p: int) -> int:
    """Distinct keys of one lead's blocks (base, dirs, u, s), each block the
    keys base + T(dirs) with x_u = s.  A group of blocks whose tables all fit
    TABLE_CAP is counted in one set; any other group is split by the digit on
    the last direction of its first too-wide block."""
    tables: dict[tuple[int, ...], list[int]] = {}
    counted = 0
    stack = [blocks]
    while stack:
        group = stack.pop()
        wide = next((dirs for _, dirs, _, _ in group if p ** len(dirs) > TABLE_CAP), None)
        if wide is None:
            for _, dirs, _, _ in group:
                if dirs not in tables:
                    tables[dirs] = _keys(dirs, weight, p)
            counted += len(set().union(*[map(base.__add__, tables[dirs]) for base, dirs, _, _ in group]))
            continue
        i = wide[-1]
        groups: list[list] = [[] for _ in range(p)]
        for base, dirs, u, s in group:
            if i in dirs:
                rest = tuple(d for d in dirs if d != i)
                for w in range(p):
                    groups[w].append((base + w * weight[i], rest, u, s))
            else:
                # x_i is fixed in this block: s on its own coordinate, else 0
                groups[s if i == u else 0].append((base, dirs, u, s))
        stack += filter(None, groups)
    return counted


def count_points(g: LooseGraph, p: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of F_p-rational points of the scheme attached to g."""
    _check_limits(g, p, budget)
    n = g.n_vertices
    index = {v: i for i, v in enumerate(g.vertices)}
    adjacency = g._neighbor_map
    # dirs[v]: sorted coordinates of vertex v's neighbours, then its phantoms
    dirs = [tuple(sorted(index[u] for u in adjacency[v])) for v in g.vertices]
    phantoms = count(n)
    for v, k in g.loose:
        dirs[index[v]] += tuple(islice(phantoms, k))
    counted = 0
    for lead in range(n):
        after = dirs[lead][bisect(dirs[lead], lead) :]
        later = [(u, dirs[u][bisect(dirs[u], lead) :]) for u in after if u < n]
        # the lead's keys are written in base p over its own coordinates only
        coords = {lead}.union(after, *(d for _, d in later))
        weight = dict(zip(coords, accumulate(repeat(p), mul, initial=1)))
        # the chart at lead, x_lead = 1, and each later neighbour u's chart
        # with x_u = s; keys of two leads may coincide, so no set spans two
        one = weight[lead]
        blocks = [(one, after, lead, 1)]
        blocks += [(one + s * weight[u], d, u, s) for u, d in later for s in range(1, p)]
        counted += _count_lead(blocks, weight, p)
    # free edges live on their own pair of coordinates, disjoint from all charts
    return counted + g.free * (p - 1)


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

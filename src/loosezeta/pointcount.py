"""Brute-force rational point counting over small finite fields.

Independent oracle for the symbolic engine.  count_points() enumerates every
point of every vertex chart (x_v = 1, support in v's closed star and
phantoms), first nonzero x_i scaled to 1, and counts the distinct points.
It never multiplies field elements, so p symbols with 0 special serve for
any prime power p.  Vertices are coordinates 0..n-1 and phantoms n, n+1,
..., so the first nonzero x_i, the lead, is a vertex L.  Lead L's points are
x_L = 1 plus T(dirs(L) after L) from chart L, and x_u = s, x_L = 1 plus
T(dirs(u) after L) from each later neighbour u, s in 1..p-1, T(D) being
F_p^D.  They are keyed by sum x_i p^j over L's other coordinates, p^j the
weight of the j-th; the coordinates free in the most keys come first.
The lowest k digits, p^k <= ROW_BITS, pick a bit of a row, an int bitset,
and the other digits pick the row.  Each chart and scale is a block
(base, weights), the keys base + T(weights) over the weights of its free
directions: it ORs the bits of T(its lo weights), shifted by its lo
digits, into each of its p^(#hi weights) rows.  While some block would
touch more than ROW_CAP rows, its group is split into at most p disjoint
groups by the digit on one of that block's hi weights; a block fixed
there reads that digit from its base.  Each group's rows are counted by
their set bits and dropped, since keys of two leads may coincide, so
memory is bounded by one group and the graph's O(n + m).  Every key still
sets its own bit, so all sum p^deg(v) keys are generated (estimated_work()).
"""

from __future__ import annotations

from bisect import bisect
from collections import defaultdict
from itertools import accumulate, count, islice, repeat
from operator import mul

from .grothendieck import class_polynomial
from .loosegraph import LooseGraph, value_class

#: The q the oracle counts at: every prime power up to 13.  Its count is then
#: #F_q-points, since it enumerates q symbols and never multiplies them.
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13)
DEFAULT_BUDGET = 10_000_000
#: Most bits in one row: a row holds the keys that differ in their lo digits.
ROW_BITS = 4096
#: Most rows one block may touch within a group; bounds the group's rows.
ROW_CAP = 256


class BudgetError(ValueError):
    """Estimated enumeration work exceeds the configured budget."""


def estimated_work(g: LooseGraph, p: int) -> int:
    """Chart enumeration cost: sum of p^deg(v) plus (p-1) per free edge."""
    lm = g._loose_counts
    return sum(p ** (len(ns) + lm.get(v, 0)) for v, ns in g._neighbor_map.items()) + g.free * (p - 1)


def _check_limits(g: LooseGraph, p: int, budget: int) -> None:
    """Raise unless p is in PRIME_POWERS and its work fits the budget."""
    if p not in PRIME_POWERS:
        if p > PRIME_POWERS[-1]:
            raise ValueError(f"count_points(): q {p} exceeds the bound {PRIME_POWERS[-1]}")
        raise ValueError(f"count_points(): {p} is not a prime power")
    work = estimated_work(g, p)
    if work > budget:
        raise BudgetError(f"count_points(): estimated work {work} exceeds budget {budget}")


def _keys(hi: tuple[int, ...], p: int) -> list[int]:
    """T(hi): each sum sum x_i w_i over x in F_p^hi, hi the weights w_i."""
    keys = [0]
    for w in hi:
        # x_i w runs over 0, w, ..., (p-1) w
        keys = [b + x for x in accumulate(repeat(w, p - 1), initial=0) for b in keys]
    return keys


def _mask(lo: tuple[int, ...], p: int, masks: dict) -> int:
    """T(lo) as bits, kept in masks: bit sum x_i w_i set for each x in
    F_p^lo, lo the weights w_i."""
    if lo not in masks:
        mask = 1
        for w in lo:
            # bits 0, w, ..., (p-1) w; the digits never carry, so * is a disjoint OR
            mask *= ((1 << p * w) - 1) // ((1 << w) - 1)
        masks[lo] = mask
    return masks[lo]


def _rows(group: list, p: int, width: int, masks: dict, tables: dict) -> dict[int, int]:
    """A group's keys as rows: each key sets bit key % width of the row at
    key - key % width, its hi digits."""
    rows: dict[int, int] = defaultdict(int)
    for base, lo, hi in group:
        if hi not in tables:
            tables[hi] = _keys(hi, p)
        bits = _mask(lo, p, masks) << base % width
        first = base - base % width
        for r in tables[hi]:
            rows[first + r] |= bits
    return rows


def _count_lead(blocks: list, p: int, width: int, masks: dict) -> int:
    """Distinct keys of one lead's blocks (base, weights), each block the
    keys base + T(weights).  A weight below width is lo and picks the bit,
    any other is hi and picks the row.  A group of blocks that each touch
    at most ROW_CAP rows is counted in one dict of rows; any other group is
    split by the digit on the last hi weight of its first block that
    touches more.  A block fixed on that weight has its digit in its base."""
    group = [(b, tuple(w for w in ws if w < width), tuple(w for w in ws if w >= width)) for b, ws in blocks]
    tables: dict[tuple[int, ...], list[int]] = {}
    counted = 0
    stack = [group]
    while stack:
        group = stack.pop()
        wide = next((hi for _, _, hi in group if p ** len(hi) > ROW_CAP), None)
        if wide is None:
            counted += sum(map(int.bit_count, _rows(group, p, width, masks, tables).values()))
            continue
        w = wide[-1]
        groups: list[list] = [[] for _ in range(p)]
        for base, lo, hi in group:
            if w in hi:
                rest = tuple(h for h in hi if h != w)
                for x in range(p):
                    groups[x].append((base + x * w, lo, rest))
            else:
                # the base holds digits only at u and at earlier splits
                groups[base // w % p].append((base, lo, hi))
        stack += filter(None, groups)
    return counted


def count_points(g: LooseGraph, p: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of F_p-rational points of the scheme attached to g, p a prime power."""
    _check_limits(g, p, budget)
    n = g.n_vertices
    index = {v: i for i, v in enumerate(g.vertices)}
    adjacency = g._neighbor_map
    # dirs[v]: sorted coordinates of vertex v's neighbours, then its phantoms
    dirs = [tuple(sorted(index[u] for u in adjacency[v])) for v in g.vertices]
    phantoms = count(n)
    for v, k in g.loose:
        dirs[index[v]] += tuple(islice(phantoms, k))
    # a row holds the keys that differ only in their digits of weight below width
    width = 1
    while width * p <= ROW_BITS:
        width *= p
    masks: dict[tuple[int, ...], int] = {}
    counted = 0
    for lead in range(n):
        after = dirs[lead][bisect(dirs[lead], lead) :]
        later = [(u, dirs[u][bisect(dirs[u], lead) :]) for u in after if u < n]
        # x_lead = 1 in all the lead's keys, so they are written in base p
        # over its other coordinates only
        coords = set(after).union(*(d for _, d in later))
        one_row = p ** len(coords) <= width
        if not one_row:
            # the coordinates free in the most keys take the lowest digits
            free = dict.fromkeys(coords, 0)
            for c in after:
                free[c] += p ** len(after)
            for _, d in later:
                for c in d:
                    free[c] += (p - 1) * p ** len(d)
            coords = sorted(coords, key=free.__getitem__, reverse=True)
        weight = dict(zip(coords, accumulate(repeat(p), mul, initial=1)))
        # the chart at lead, x_lead = 1, and each later neighbour u's chart
        # with x_u = s; keys of two leads may coincide, so no row spans two
        w = weight.__getitem__
        blocks = [(0, tuple(map(w, after)))]
        blocks += [(s * w(u), ws) for u, d in later for ws in [tuple(map(w, d))] for s in range(1, p)]
        if one_row:  # every key of the lead lies in one row
            row = 0
            for base, ws in blocks:
                row |= _mask(ws, p, masks) << base
            counted += row.bit_count()
        else:
            counted += _count_lead(blocks, p, width, masks)
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
    """Compare eval(class, q) against the brute-force count for each q in
    primes, each one of PRIME_POWERS."""
    for q in primes:
        _check_limits(g, q, budget)
    poly = class_polynomial(g)
    checks = []
    for q in primes:
        expected = poly.evaluate(q)
        counted = count_points(g, q, budget=budget)
        checks.append(PrimeCheck(q, expected, counted, expected == counted))
    return VerifyReport(tuple(checks), g.n_vertices, poly.evaluate(1))

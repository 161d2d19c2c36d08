"""Regenerate bench/references.json, cross-checking every entry once.

    python3 bench/make_references.py

For each input the workloads use: the class (from class_polynomial, or
from the iterative surgery_trace where the recursion overflows) must give
P(1) = #vertices and match the benchmark's own point count at p = 2 and,
when the enumeration is small enough, p = 3.  The Ihara polynomial (vertex
route) must equal the edge route: the engine's edge_matrix_inverse where
the 2|E| matrix is small, else the benchmark's integer determinant of
I - uE at several integer points.  Random inputs are stored for
workloads.COMMITTED_SEED only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import graphs  # noqa: E402
import workloads  # noqa: E402
from loosezeta import class_polynomial, edge_matrix_inverse, ihara_inverse, parse, surgery_trace  # noqa: E402

P3_WORK_LIMIT = 1_500_000
EDGE_MATRIX_LIMIT = 48
IHARA_POINTS = (2, 3, -2)


def class_entry(g: graphs.Graph) -> tuple[list[int], list[str]]:
    lg = parse(graphs.to_lg(g))
    try:
        poly, route = class_polynomial(lg), "class_polynomial"
    except RecursionError:
        poly, route = surgery_trace(lg).result_class, "surgery_trace"
    coeffs = [int(c) for c in poly.to_json()]
    checks = [route]
    if graphs.evaluate(coeffs, 1) != len(g.vertices):
        raise SystemExit("P(1) differs from the number of vertices")
    checks.append("P(1)")
    for p in (2, 3):
        if p == 3 and graphs.chart_work(g, 3) > P3_WORK_LIMIT:
            continue
        if graphs.evaluate(coeffs, p) != graphs.count_points(g, p):
            raise SystemExit(f"class disagrees with the oracle at p = {p}")
        checks.append(f"oracle p={p}")
    return coeffs, checks


def ihara_entry(g: graphs.Graph) -> tuple[list[int], list[str]]:
    lg = parse(graphs.to_lg(g))
    coeffs = [int(c) for c in ihara_inverse(lg).to_json()]
    if 2 * len(g.edges) <= EDGE_MATRIX_LIMIT:
        if [int(c) for c in edge_matrix_inverse(lg).to_json()] != coeffs:
            raise SystemExit("vertex and edge routes disagree")
        return coeffs, ["ihara_inverse", "edge_matrix_inverse"]
    for u in IHARA_POINTS:
        if graphs.evaluate(coeffs, u) != graphs.ihara_edge_route(g, u):
            raise SystemExit(f"vertex route disagrees with det(I - uE) at u = {u}")
    return coeffs, ["ihara_inverse", "det(I - uE) at u=" + ",".join(map(str, IHARA_POINTS))]


def main() -> None:
    needed: dict[str, set[str]] = {}
    for w in workloads.WORKLOADS.values():
        for spec, kinds in workloads.needs(w.ops).items():
            needed.setdefault(spec, set()).update(kinds)
    out: dict = {"seed": workloads.COMMITTED_SEED, "fixed": {}, "seeded": {}}
    for spec in sorted(needed):
        g = workloads.build(spec, workloads.COMMITTED_SEED)
        entry: dict = {"vertices": len(g.vertices), "checked": []}
        if "class" in needed[spec]:
            entry["class"], checks = class_entry(g)
            entry["checked"] += checks
        if "ihara" in needed[spec]:
            entry["ihara"], checks = ihara_entry(g)
            entry["checked"] += checks
        out["seeded" if workloads.is_random(spec) else "fixed"][spec] = entry
        print(f"{spec}: {', '.join(entry['checked'])}", flush=True)
    workloads.REFERENCES.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""Command-line front end.

Subcommands: gen, class, zeta, ihara, count, verify, trace, compare.
Graphs are read from a path or stdin ("-", the default).  Exit codes:
0 success, 1 domain error or internal error, 2 parse/usage error,
3 verification failure.  An error prints one ``error: ...`` line on
stderr instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

# pointcount, zeta and ihara are imported by the subcommands that use them.
# class_polynomial stays a module-level name: the benchmark's tracer wraps
# it here, never in its home module.
from .grothendieck import class_polynomial, surgery_trace
from .loosegraph import (
    GenerateError,
    LooseGraph,
    ParseError,
    generate,
    parse,
    serialize,
    serialize_restoring,
)
from .polyring import ExactDivisionError, Poly, format_poly

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3

#: Default --budget; equal to pointcount.DEFAULT_BUDGET (a test pins it).
DEFAULT_BUDGET = 10_000_000

BUDGET_HELP = (
    "most chart keys one count may generate (default %(default)s); the keys are counted "
    "in small disjoint parts, so memory is bounded by one part, not by the budget"
)


class UsageError(Exception):
    pass


def _read_graph(path: str, strict: bool) -> LooseGraph:
    name = "stdin" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {name}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {name}: not UTF-8 text (byte {exc.start})") from exc
    return parse(text, strict=strict)


def _check_budget(budget: int) -> int:
    if budget < 0:
        raise UsageError(f"--budget {budget} is negative")
    return budget


def _check_prime(what: str, q: int) -> None:
    from .pointcount import PRIMALITY_LIMIT, is_prime
    # larger q get count_points()'s bound message, with no primality test
    if q < PRIMALITY_LIMIT and not is_prime(q):
        raise UsageError(f"{what} {q} is not prime")


def _parse_primes(spec: str) -> list[int]:
    try:
        primes = [int(s) for s in spec.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --primes list {spec!r}") from exc
    if not primes:
        raise UsageError("empty --primes list")
    for q in primes:
        _check_prime("--primes entry", q)
    return primes


def _emit(payload: dict, text: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload))
    else:
        print(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loosezeta",
        description="Exact counting polynomials and zeta functions of loose graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", nargs="?", default="-", help="path to a .lg file, or - for stdin")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--strict", action="store_true", help="require vertex declarations")
        return p

    graph_command("class", "print the counting polynomial (Grothendieck class)")
    graph_command("zeta", "print the factored zeta function (inverse form)")
    graph_command("ihara", "print the inverse Ihara zeta polynomial")
    pc = graph_command("count", "brute-force point count over a prime field")
    pc.add_argument("--q", type=int, required=True, metavar="PRIME")
    pc.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
    pv = graph_command("verify", "compare the class against brute-force counts")
    pv.add_argument("--primes", default="2,3,5", metavar="LIST")
    pv.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
    graph_command("trace", "print the surgery table down from a loose spanning tree")
    graph_command("compare", "print class, zeta inverse and Ihara inverse side by side")

    pg = sub.add_parser("gen", help="emit a built-in family as .lg text")
    pg.add_argument("family")
    pg.add_argument("params", nargs="*", type=int)
    return parser


def _cmd_class(g: LooseGraph, as_json: bool) -> int:
    p = class_polynomial(g)
    _emit({"class": p.to_json()}, format_poly(p, "L"), as_json)
    return EXIT_OK


def _cmd_zeta(g: LooseGraph, as_json: bool) -> int:
    from .zeta import f1_zeta, format_zeta
    z = f1_zeta(class_polynomial(g))
    _emit(z.to_json(), format_zeta(z), as_json)
    return EXIT_OK


def _cmd_ihara(g: LooseGraph, as_json: bool) -> int:
    from .ihara import ihara_inverse
    p = ihara_inverse(g)
    _emit({"ihara_inverse": p.to_json()}, format_poly(p, "u"), as_json)
    return EXIT_OK


def _cmd_count(g: LooseGraph, q: int, budget: int, as_json: bool) -> int:
    from .pointcount import count_points
    _check_prime("--q", q)
    n = count_points(g, q, budget=budget)
    _emit({"prime": q, "count": n}, str(n), as_json)
    return EXIT_OK


def _cmd_verify(g: LooseGraph, primes: list[int], budget: int, as_json: bool) -> int:
    from .pointcount import verify
    report = verify(g, primes, budget=budget)
    lines = [
        f"q={c.prime}: class={c.expected} counted={c.counted} {'ok' if c.ok else 'MISMATCH'}"
        for c in report.checks
    ]
    lines.append(
        f"euler: vertices={report.euler_expected} P(1)={report.euler_got} "
        f"{'ok' if report.euler_ok else 'MISMATCH'}"
    )
    lines.append("PASS" if report.ok else "FAIL")
    _emit(report.to_json(), "\n".join(lines), as_json)
    return EXIT_OK if report.ok else EXIT_VERIFY


def _cmd_trace(g: LooseGraph, as_json: bool) -> int:
    trace = surgery_trace(g)
    if as_json:
        # the array json.dumps would write, one row's text live at a time
        texts = serialize_restoring(trace.final_tree, [step.resolved_edge for step in trace.steps])
        first = {"graph": next(texts), "resolvedEdge": None, "delta": None}
        first["running"] = trace.final_tree_class.to_json()
        out = sys.stdout
        out.write("[" + json.dumps(first))
        for text, step in zip(texts, trace.steps):
            row = {
                "graph": text,
                "resolvedEdge": list(step.resolved_edge),
                "delta": step.delta.to_json(),
                "running": step.running_class.to_json(),
            }
            out.write(", " + json.dumps(row))
        out.write("]\n")
        return EXIT_OK
    lines = [f"tree: class = {format_poly(trace.final_tree_class, 'L')}"]
    for i, step in enumerate(trace.steps, start=1):
        a, b = step.resolved_edge
        lines.append(
            f"step {i}: edge {a}~{b}  delta = {format_poly(step.delta, 'L')}  "
            f"class = {format_poly(step.running_class, 'L')}"
        )
    print("\n".join(lines))
    return EXIT_OK


def _cmd_compare(g: LooseGraph, as_json: bool) -> int:
    from .ihara import IharaDomainError, ihara_inverse
    from .zeta import f1_zeta, format_zeta
    p = class_polynomial(g)
    z = f1_zeta(p)
    try:
        ih: Poly | None = ihara_inverse(g)
        ih_text = format_poly(ih, "u")
    except IharaDomainError as exc:
        ih = None
        ih_text = f"n/a ({exc})"
    payload = {
        "class": p.to_json(),
        "zeta_inverse": z.to_json(),
        "ihara_inverse": ih.to_json() if ih is not None else None,
    }
    text = "\n".join(
        [
            f"class:        {format_poly(p, 'L')}",
            f"zeta inverse: {format_zeta(z)}",
            f"ihara inverse: {ih_text}",
        ]
    )
    _emit(payload, text, as_json)
    return EXIT_OK


def _cmd_gen(family: str, params: list[int]) -> int:
    print(serialize(generate(family, *params)), end="")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.command == "gen":
            return _cmd_gen(args.family, args.params)
        g = _read_graph(args.input, args.strict)
        if args.command == "class":
            return _cmd_class(g, args.json)
        if args.command == "zeta":
            return _cmd_zeta(g, args.json)
        if args.command == "ihara":
            return _cmd_ihara(g, args.json)
        if args.command == "count":
            return _cmd_count(g, args.q, _check_budget(args.budget), args.json)
        if args.command == "verify":
            primes = _parse_primes(args.primes)
            return _cmd_verify(g, primes, _check_budget(args.budget), args.json)
        if args.command == "trace":
            return _cmd_trace(g, args.json)
        return _cmd_compare(g, args.json)  # argparse admits no other command
    except (ParseError, GenerateError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ExactDivisionError as exc:
        print(f"error: internal arithmetic error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

COMMANDS lists the subcommands, and the parser and the dispatch are built
from it.  Graphs are read from a path or stdin ("-", the default).  Exit
codes: 0 success, 1 domain error, internal error or closed output, 2
parse/usage error, 3 verification failure.  An error prints one
``error: ...`` line on stderr instead of a traceback.  The process ends
in run(), through os._exit, with no interpreter shutdown.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import Sequence

# The other engine modules are imported by the subcommands that use them,
# so a process compiles only its command's code.  class_polynomial stays a
# module-level name and surgery_trace is looked up through grothendieck:
# that is where the benchmark's tracer wraps them.
from .grothendieck import class_polynomial
from .loosegraph import GenerateError, LooseGraph, ParseError, parse
from .polyring import ExactDivisionError, Poly, format_poly

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3

#: Default --budget; equal to pointcount.DEFAULT_BUDGET (a test pins it).
DEFAULT_BUDGET = 10_000_000

BUDGET_HELP = (
    "most chart keys one count may generate (default %(default)s); each key sets one bit "
    "of a row, and the rows are counted in small disjoint parts, so memory is bounded by "
    "one part, not by the budget: 10^7 keys take about the RSS of a trivial call"
)


class UsageError(Exception):
    pass


def _read_graph(path: str, strict: bool) -> LooseGraph:
    name = "stdin" if path == "-" else path
    try:
        if path != "-":
            with open(path, "rb") as fh:
                data = fh.read()
        elif sys.stdin is None:  # the process started with stdin closed
            raise OSError("standard input is closed")
        else:  # a host's stdin with no byte layer (a StringIO) is read as text
            data = getattr(sys.stdin, "buffer", sys.stdin).read()
        text = data if isinstance(data, str) else data.decode("utf-8")  # never the locale's codec
    except OSError as exc:
        raise UsageError(f"cannot read {name}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {name}: not UTF-8 text (byte {exc.start})") from exc
    return parse(text, strict=strict)


def _check_budget(budget: int) -> int:
    if budget < 0:
        raise UsageError(f"--budget {budget} is negative")
    return budget


def _check_q(what: str, q: int) -> None:
    from .pointcount import PRIME_POWERS
    if q not in PRIME_POWERS:
        raise UsageError(f"{what} {q} is not a prime power up to {PRIME_POWERS[-1]}")


def _parse_primes(spec: str) -> list[int]:
    try:
        primes = [int(s) for s in spec.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --primes list {spec!r}") from exc
    if not primes:
        raise UsageError("empty --primes list")
    for q in primes:
        _check_q("--primes entry", q)
    return primes


def _write(text: str) -> None:
    """Write text to stdout in full, or raise.  Under PYTHONUNBUFFERED the
    text layer sits on a raw file, whose write may take only part of the
    bytes once the reader has gone, and the text layer drops the rest."""
    out = sys.stdout
    if out is None:  # the process started with stdout closed
        raise BrokenPipeError
    raw = getattr(out, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[raw.write(data) :]


def _emit(payload: dict, text: str, as_json: bool) -> None:
    _write((json.dumps(payload) if as_json else text) + "\n")


def _cmd_class(g: LooseGraph, args: argparse.Namespace) -> int:
    p = class_polynomial(g)
    _emit({"class": p.to_json()}, format_poly(p, "L"), args.json)
    return EXIT_OK


def _cmd_zeta(g: LooseGraph, args: argparse.Namespace) -> int:
    from .zeta import f1_zeta, format_zeta
    z = f1_zeta(class_polynomial(g))
    _emit(z.to_json(), format_zeta(z), args.json)
    return EXIT_OK


def _cmd_ihara(g: LooseGraph, args: argparse.Namespace) -> int:
    from .ihara import ihara_inverse
    p = ihara_inverse(g)
    _emit({"ihara_inverse": p.to_json()}, format_poly(p, "u"), args.json)
    return EXIT_OK


def _cmd_count(g: LooseGraph, args: argparse.Namespace) -> int:
    from .pointcount import count_points
    budget = _check_budget(args.budget)
    _check_q("--q", args.q)
    n = count_points(g, args.q, budget=budget)
    _emit({"prime": args.q, "count": n}, str(n), args.json)
    return EXIT_OK


def _cmd_verify(g: LooseGraph, args: argparse.Namespace) -> int:
    from .pointcount import verify
    primes = _parse_primes(args.primes)
    report = verify(g, primes, budget=_check_budget(args.budget))
    lines = [
        f"q={c.prime}: class={c.expected} counted={c.counted} {'ok' if c.ok else 'MISMATCH'}"
        for c in report.checks
    ]
    lines.append(
        f"euler: vertices={report.euler_expected} P(1)={report.euler_got} "
        f"{'ok' if report.euler_ok else 'MISMATCH'}"
    )
    lines.append("PASS" if report.ok else "FAIL")
    _emit(report.to_json(), "\n".join(lines), args.json)
    return EXIT_OK if report.ok else EXIT_VERIFY


def _cmd_trace(g: LooseGraph, args: argparse.Namespace) -> int:
    from .grothendieck import surgery_trace
    trace = surgery_trace(g)
    if args.json:
        from .families import serialize_restoring
        # the array json.dumps would write, one row's text live at a time
        texts = serialize_restoring(trace.final_tree, [step.resolved_edge for step in trace.steps])
        first = {"graph": next(texts), "resolvedEdge": None, "delta": None}
        first["running"] = trace.final_tree_class.to_json()
        _write("[" + json.dumps(first))
        for text, step in zip(texts, trace.steps):
            row = {
                "graph": text,
                "resolvedEdge": list(step.resolved_edge),
                "delta": step.delta.to_json(),
                "running": step.running_class.to_json(),
            }
            _write(", " + json.dumps(row))
        _write("]\n")
        return EXIT_OK
    lines = [f"tree: class = {format_poly(trace.final_tree_class, 'L')}"]
    for i, step in enumerate(trace.steps, start=1):
        a, b = step.resolved_edge
        lines.append(
            f"step {i}: edge {a}~{b}  delta = {format_poly(step.delta, 'L')}  "
            f"class = {format_poly(step.running_class, 'L')}"
        )
    _write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_compare(g: LooseGraph, args: argparse.Namespace) -> int:
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
    _emit(payload, text, args.json)
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    from .families import generate, serialize
    _write(serialize(generate(args.family, *args.params)))
    return EXIT_OK


#: The subcommands, in usage order: name -> (help line, handler).  A handler
#: takes the graph read from its input and the arguments; gen's takes only the arguments.
COMMANDS = {
    "class": ("print the counting polynomial (Grothendieck class)", _cmd_class),
    "zeta": ("print the factored zeta function (inverse form)", _cmd_zeta),
    "ihara": ("print the inverse Ihara zeta polynomial", _cmd_ihara),
    "count": ("brute-force point count over a finite field", _cmd_count),
    "verify": ("compare the class against brute-force counts", _cmd_verify),
    "trace": ("print the surgery table down from a loose spanning tree", _cmd_trace),
    "compare": ("print class, zeta inverse and Ihara inverse side by side", _cmd_compare),
    "gen": ("emit a built-in family as .lg text", _cmd_gen),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loosezeta",
        description="Exact counting polynomials and zeta functions of loose graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=handler)
        if handler is _cmd_gen:
            p.add_argument("family")
            p.add_argument("params", nargs="*", type=int)
            continue
        p.add_argument("input", nargs="?", default="-", help="path to a .lg file, or - for stdin")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--strict", action="store_true", help="require vertex declarations")
        if handler is _cmd_count:
            p.add_argument("--q", type=int, required=True, metavar="PRIME")
        if handler is _cmd_verify:
            p.add_argument("--primes", default="2,3,5", metavar="LIST")
        if handler in (_cmd_count, _cmd_verify):
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=BUDGET_HELP)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    # argparse refuses -h with an argument ('-hx', '-h x') before 3.13 and prints the help from 3.13 on
    for a in argv[: argv.index("--")] if "--" in argv else argv:
        if a[:2] == "-h" and a[2:3] not in ("", "="):
            print(f"error: argument -h/--help: ignored explicit argument {a[2:]!r}", file=sys.stderr)
            return EXIT_USAGE
    try:
        # argparse quotes the choices in this message on some versions only.  Its own test of
        # what is positional ('', '-', '-1', 'a b', ...) says when it takes argv[0] as the command
        if argv and argv[0] not in COMMANDS and parser._parse_optional(argv[0]) is None:
            choices = ", ".join(map(repr, COMMANDS))
            parser.error(f"argument command: invalid choice: {argv[0]!r} (choose from {choices})")
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        code = args.run(args) if args.run is _cmd_gen else args.run(_read_graph(args.input, args.strict), args)
        sys.stdout.flush()  # a closed stdout fails here, where it is reported, not in run()
        return code
    except BrokenPipeError:
        print("error: standard output was closed before all output was written", file=sys.stderr)
        return EXIT_DOMAIN
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
        detail = f": {exc}" if str(exc) else ""  # MemoryError() has no message
        print(f"error: internal error: {type(exc).__name__}{detail}", file=sys.stderr)
        return EXIT_DOMAIN


def run() -> None:
    """Entry point of the ``loosezeta`` command and ``python -m loosezeta``,
    and the only code that ends the process: main(), one flush of each stream,
    then os._exit with main()'s code.  No interpreter shutdown runs: no final
    collection, no atexit handler and no second flush of a closed stdout."""
    if sys.stderr is None:  # started with it closed: print(file=None) would write errors to stdout
        sys.stderr = open(os.devnull, "w")
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None: the process started with it closed
                stream.flush()
        except OSError:  # the closed reader main() has reported
            pass
    os._exit(code)


if __name__ == "__main__":
    run()

"""One benchmark op in a fresh process: a library call, or a traced CLI call.

    python3 bench/op.py [--spans OUT] lib edge_matrix_inverse GRAPH.lg
    python3 bench/op.py --spans OUT cli COMMAND ARGS...

`lib` prints the polynomial as {"poly": [...]}, the shape the CLI uses.
With --spans the loosezeta functions are traced (see tracing.py) and the
spans are written to OUT as JSON when the op ends, also when it raises.
Untraced CLI ops do not come through here: they run `python -m loosezeta`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def run(kind: str, args: list[str]) -> int:
    if kind == "cli":
        from loosezeta import cli

        return cli.main(args)
    if kind == "lib" and args[0] == "edge_matrix_inverse":
        from loosezeta import ihara, loosegraph

        with open(args[1], encoding="utf-8") as fh:
            g = loosegraph.parse(fh.read())
        print(json.dumps({"poly": ihara.edge_matrix_inverse(g).to_json()}))
        return 0
    raise SystemExit(f"op.py: unknown op {kind} {args[:1]}")


def main(argv: list[str]) -> int:
    if argv[0] != "--spans":
        return run(argv[0], argv[1:])
    from tracing import Tracer

    out, kind, args = argv[1], argv[2], argv[3:]
    tracer = Tracer()
    try:
        with tracer.installed():
            return run(kind, args)
    finally:
        Path(out).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

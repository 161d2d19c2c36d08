"""Run ``python -m loosezeta`` as child processes, so that ``cli.run()`` and
the real standard streams are checked, with the standard library only:

    python tests/process_checks.py --check

prints the id of each case whose exit code, stdout or stderr differs from
what it should be, then a total, and exits 1 if any case differs.  Every
error is one ``error:`` line on stderr, with no traceback.  The goldens
replay in process, where no stream is closed and no reader leaves; these
cases close a stream in the child, so they need a POSIX system.
"""

from __future__ import annotations

import os
import subprocess
import sys
from functools import partial
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CLOSED_OUTPUT = "error: standard output was closed before all output was written\n"
PATH2 = b"vertex v1\nvertex v2\nedge v1 v2\n"

#: Each case runs argv with stdin (bytes, or None: closed in the child) and
#: extra environment.  stdout "all" is read in full, None is closed in the
#: child, and a number is the bytes a reader takes before it leaves (its
#: command must not read stdin, which is written after the reader has gone).
#: stderr None is closed in the child: errors then go nowhere, not to stdout.
CASES = [
    {"id": "stdout-closed", "argv": ["gen", "path", "2"], "stdout": None, "code": 1, "err": CLOSED_OUTPUT},
    {
        "id": "stdout-closed-parse-error",
        "argv": ["class"],
        "stdin": b"bogus\n",
        "stdout": None,
        "code": 2,
        "err": "error: line 1: unknown directive 'bogus'\n",
    },
    {
        "id": "stdin-closed",
        "argv": ["class"],
        "stdin": None,
        "code": 2,
        "err": "error: cannot read stdin: standard input is closed\n",
    },
    {
        "id": "stdin-utf8-bom-latin1-env",
        "argv": ["class"],
        "stdin": b"\xef\xbb\xbfvertex a\n",
        "env": {"PYTHONIOENCODING": "latin-1"},
        "out": b"1\n",
    },
    {
        "id": "stdin-not-utf8-latin1-env",
        "argv": ["class"],
        "stdin": b"vertex a\xff",
        "env": {"PYTHONIOENCODING": "latin-1"},
        "code": 2,
        "err": "error: cannot read stdin: not UTF-8 text (byte 8)\n",
    },
    {"id": "reader-gone", "argv": ["gen", "path", "2"], "stdout": 0, "code": 1, "err": CLOSED_OUTPUT},
    {
        "id": "reader-gone-unbuffered",
        "argv": ["gen", "path", "2"],
        "env": {"PYTHONUNBUFFERED": "1"},
        "stdout": 0,
        "code": 1,
        "err": CLOSED_OUTPUT,
    },
    {
        "id": "reader-leaves-early-unbuffered",
        "argv": ["gen", "johnson", "20", "3"],
        "env": {"PYTHONUNBUFFERED": "1"},
        "stdout": 10,
        "out": b"vertex s01",
        "code": 1,
        "err": CLOSED_OUTPUT,
    },
    {"id": "unbuffered", "argv": ["gen", "path", "2"], "env": {"PYTHONUNBUFFERED": "1"}, "out": PATH2},
    {"id": "stderr-closed-parse-error", "argv": ["class"], "stdin": b"bogus\n", "stderr": None, "code": 2},
    {"id": "stderr-closed-unknown-command", "argv": ["frobnicate"], "stderr": None, "code": 2},
    {"id": "stderr-closed", "argv": ["gen", "path", "2"], "stderr": None, "out": PATH2},
]


def run_case(case: dict) -> dict:
    """Run one case in a child; return its code, stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    env.update(case.get("env", {}))
    stdin, stdout, stderr = case.get("stdin", b""), case.get("stdout", "all"), case.get("stderr", "all")
    closed = 0 if stdin is None else 1 if stdout is None else 2 if stderr is None else None
    proc = subprocess.Popen(
        [sys.executable, "-m", "loosezeta", *case["argv"]],
        stdin=None if stdin is None else subprocess.PIPE,
        stdout=None if stdout is None else subprocess.PIPE,
        stderr=None if stderr is None else subprocess.PIPE,
        env=env,
        preexec_fn=None if closed is None else partial(os.closerange, closed, closed + 1),
    )
    head = b""
    if isinstance(stdout, int):  # the reader takes its bytes and leaves
        head = proc.stdout.read(stdout)
        proc.stdout.close()
    out, err = proc.communicate(stdin, timeout=60)
    return {"code": proc.returncode, "out": head + (out or b""), "err": (err or b"").decode(errors="backslashreplace")}


def expected(case: dict) -> dict:
    """The code, stdout and stderr a case must give: each error case's is one
    ``error:`` line, so a traceback on stderr fails it."""
    return {"code": case.get("code", 0), "out": case.get("out", b""), "err": case.get("err", "")}


def check() -> int:
    failed = []
    for case in CASES:
        got = run_case(case)
        if got != expected(case):
            failed.append(case["id"])
            print(f"FAIL {case['id']}: {got}")
    print(f"{len(CASES) - len(failed)} of {len(CASES)} process cases pass on Python {sys.version.split()[0]}")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--check"]:
        print("usage: process_checks.py --check", file=sys.stderr)
        sys.exit(2)
    sys.exit(check())

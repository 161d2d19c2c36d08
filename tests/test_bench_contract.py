"""The benchmark's tracer wraps engine functions by name.

`bench/tracing.py` looks up every name in its SPANS and COUNTED tables,
plus `grothendieck._memo`, and patches it for the length of one op.  A
renamed or deleted engine name would otherwise break only a traced
benchmark run; these tests make it fail the test suite as well.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

from loosezeta import LooseGraph, class_polynomial, format_poly, generate, serialize
from loosezeta.cli import main
from loosezeta.polyring import Poly, PolyMatrix

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def attribute_snapshot(modules) -> dict[int, dict]:
    owners = [importlib.import_module("loosezeta." + m) for m in modules]
    owners += [sys.modules["loosezeta"], LooseGraph, Poly, PolyMatrix]
    return {id(o): dict(vars(o)) for o in owners}


def test_every_traced_name_resolves(tracing):
    for qualname in [*tracing.SPANS, *tracing.COUNTED, "grothendieck._memo"]:
        owner = importlib.import_module("loosezeta." + qualname.split(".")[0])
        for part in qualname.split(".")[1:]:
            assert hasattr(owner, part), qualname
            owner = getattr(owner, part)


def test_traced_class_run_restores_every_attribute(tracing, tmp_path, capsys):
    k4 = generate("complete", 4)
    path = tmp_path / "k4.lg"
    path.write_text(serialize(k4))
    before = attribute_snapshot(tracing.MODULES)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main(["class", str(path)]) == 0
        class_out = capsys.readouterr().out
        # the trace path too: it serializes each row's graph from the final tree
        # with the row's edges restored, and builds no graph per row
        assert main(["trace", "--json", str(path)]) == 0
        rows = json.loads(capsys.readouterr().out)
    assert class_out == format_poly(class_polynomial(k4), "L") + "\n"
    assert rows[-1]["running"] == class_polynomial(k4).to_json()
    assert rows[-1]["graph"] == serialize(k4)
    assert tracer.spans
    after = attribute_snapshot(tracing.MODULES)
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys()
        for name, value in attrs.items():
            assert after[key][name] is value, name

"""The benchmark's tracer wraps engine functions by name.

`bench/tracing.py` looks up every name in its SPANS and COUNTED tables,
plus `grothendieck._memo`, and patches it for the length of one op.  A
renamed or deleted engine name would otherwise break only a traced
benchmark run; these tests make it fail the test suite as well.  A name
that moved to a module only some commands load is still found where the
tracer looks, through its old module's lazy lookup.
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

#: Traced names whose home is no longer the module the tracer names.
MOVED = {
    "loosegraph.connected_components": "surgery",
    "loosegraph.spanning_tree": "surgery",
    "loosegraph.neighborhood": "surgery",
    "loosegraph.induced": "surgery",
    "loosegraph.delete_vertex": "surgery",
    "loosegraph.reduce": "surgery",
    "loosegraph.resolve": "surgery",
    "grothendieck.surgery_trace": "surgery",
    "grothendieck.tree_class": "surgery",
    "grothendieck.resolution_difference": "surgery",
    "loosegraph.tree_profile": "zeta",
    "polyring.PolyMatrix.det": "polymatrix",
    "polyring.exact_div": "polymatrix",
}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def resolve_traced_names(tracing) -> None:
    """Look every SPANS and COUNTED name up as the tracer does: a moved name
    enters its old module's namespace on its first lookup."""
    for qualname in [*tracing.SPANS, *tracing.COUNTED]:
        owner, attr = tracing._resolve(qualname)
        getattr(owner, attr)


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


def test_every_traced_name_is_its_home_object(tracing):
    assert set(MOVED) <= {*tracing.SPANS, *tracing.COUNTED}
    for qualname in [*tracing.SPANS, *tracing.COUNTED]:
        module, *path = qualname.split(".")
        home = importlib.import_module("loosezeta." + MOVED.get(qualname, module))
        for part in path[:-1]:
            home = getattr(home, part)
        owner, attr = tracing._resolve(qualname)
        if isinstance(owner, type):  # a method: the tracer patches its class
            assert owner is home, qualname
        else:
            assert getattr(owner, attr) is vars(home)[attr], qualname


def test_traced_trace_op_records_chart_class_spans(tracing, tmp_path, capsys):
    path = tmp_path / "k4.lg"
    path.write_text(serialize(generate("complete", 4)))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert main(["trace", "--json", str(path)]) == 0
    capsys.readouterr()
    names = [tracer.names[span[0]] for span in tracer.spans]
    assert names.count("grothendieck.surgery_trace") == 1
    # three chart classes for each of K4's three fundamental edges
    assert names.count("grothendieck.chart_class") == 9


def test_traced_class_run_restores_every_attribute(tracing, tmp_path, capsys):
    k4 = generate("complete", 4)
    path = tmp_path / "k4.lg"
    path.write_text(serialize(k4))
    resolve_traced_names(tracing)
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

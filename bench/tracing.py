"""Per-layer tracing of one op process, from the benchmark's own files.

`Tracer.installed()` wraps loosezeta's public functions where they are
looked up (each module namespace that imported them by name, and the
class for methods), records spans (name, start, end, parent) in memory,
and restores every original on exit.  `Tracer.dump` writes the spans when
the op ends; `LayerTotals` folds the dumps of a run into the per-layer
metrics.

`class_polynomial` is wrapped only where the CLI and the oracle enter it,
never inside its own recursion: a wrapper frame per level would lower the
graph size at which the engine hits Python's recursion limit.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

#: Wrapped functions that record spans, by "module.qualname", with their layer.
SPANS = {
    "cli.main": "cli",
    "loosegraph.parse": "loosegraph",
    "loosegraph.LooseGraph.build": "loosegraph",
    "loosegraph.LooseGraph.neighbors": "loosegraph",
    "loosegraph.connected_components": "loosegraph",
    "loosegraph.is_connected": "loosegraph",
    "loosegraph.is_loose_tree": "loosegraph",
    "loosegraph.spanning_tree": "loosegraph",
    "loosegraph.neighborhood": "loosegraph",
    "loosegraph.induced": "loosegraph",
    "loosegraph.delete_vertex": "loosegraph",
    "loosegraph.reduce": "loosegraph",
    "loosegraph.resolve": "loosegraph",
    "loosegraph.tree_profile": "loosegraph",
    "grothendieck.class_polynomial": "grothendieck",
    "grothendieck.surgery_trace": "grothendieck",
    "grothendieck.tree_class": "grothendieck",
    "grothendieck.canonical_key": "grothendieck",
    "grothendieck.resolution_difference": "grothendieck",
    "grothendieck.chart_class": "chart_class",
    "polyring.PolyMatrix.det": "polyring",
    "ihara.ihara_inverse": "ihara",
    "ihara.edge_matrix_inverse": "ihara",
    "pointcount.count_points": "pointcount",
    "pointcount.verify": "pointcount",
    "zeta.f1_zeta": "zeta",
    "zeta.format_zeta": "zeta",
}

#: Hot functions whose calls are only counted.
COUNTED = ("polyring.Poly.__mul__", "polyring.Poly.__rmul__", "polyring.exact_div")

#: Modules whose namespaces are searched for imported names.
MODULES = ("cli", "loosegraph", "grothendieck", "polyring", "ihara", "pointcount", "zeta")

#: Per-layer metrics: name -> (unit, better, end-to-end metric and workload it should move).
LAYER_METRICS = {
    "cli.self_s": ("s", "lower", "setup_s and latency_p50_s on every workload"),
    "loosegraph.parse_s": ("s", "lower", "latency_p50_s on sparse_surgery"),
    "loosegraph.build_calls": ("count", "lower", "latency_p50_s and throughput_ops_s on sparse_surgery"),
    "loosegraph.build_s": ("s", "lower", "latency_p50_s and throughput_ops_s on sparse_surgery"),
    "loosegraph.components_calls": ("count", "lower", "latency_p50_s and throughput_ops_s on sparse_surgery"),
    "loosegraph.components_s": ("s", "lower", "latency_p50_s and throughput_ops_s on sparse_surgery"),
    "loosegraph.spanning_tree_s": ("s", "lower", "latency_p50_s and throughput_ops_s on sparse_surgery"),
    "loosegraph.neighborhood_s": ("s", "lower", "latency_p50_s and throughput_ops_s on sparse_surgery"),
    "loosegraph.neighbors_calls": ("count", "lower", "latency_p50_s and throughput_ops_s on sparse_surgery"),
    "loosegraph.self_s": ("s", "lower", "latency_p50_s and throughput_ops_s on sparse_surgery; flat on dense_charts"),
    "grothendieck.class_calls": ("count", "lower", "latency_p50_s and fail_ratio on sparse_surgery"),
    "grothendieck.memo_hits": ("count", "higher", "latency_p50_s on sparse_surgery"),
    "grothendieck.memo_misses": ("count", "lower", "latency_p50_s on sparse_surgery"),
    "grothendieck.surgery_steps": ("count", "lower", "latency_p50_s and fail_ratio on sparse_surgery"),
    "grothendieck.apex_peels": ("count", "lower", "latency_p50_s on dense_charts (K_n)"),
    "grothendieck.reductions": ("count", "lower", "latency_p50_s and fail_ratio on sparse_surgery"),
    "grothendieck.canonical_key_s": ("s", "lower", "latency_p50_s on sparse_surgery"),
    "grothendieck.resolution_difference_s": ("s", "lower", "latency_p50_s on sparse_surgery and dense_charts"),
    "grothendieck.chart_class_calls": ("count", "lower", "latency_p50_s and latency_tail_s on dense_charts"),
    "grothendieck.chart_class_s": ("s", "lower", "latency_p50_s and latency_tail_s on dense_charts"),
    "grothendieck.chart_reals_max": ("count", "lower", "latency_tail_s on dense_charts"),
    "grothendieck.self_s": ("s", "lower", "latency_p50_s and fail_ratio on sparse_surgery"),
    "polyring.mul_calls": ("count", "lower", "latency_p50_s on dense_charts; flat on sparse_surgery"),
    "polyring.det_calls": ("count", "lower", "latency_p50_s on ihara_det"),
    "polyring.det_s": ("s", "lower", "latency_p50_s on ihara_det"),
    "polyring.det_size_max": ("count", "lower", "latency_p50_s on ihara_det"),
    "polyring.exact_div_calls": ("count", "lower", "latency_p50_s on ihara_det"),
    "polyring.degree_max": ("count", "lower", "latency_p50_s on ihara_det and dense_charts"),
    "ihara.vertex_route_s": ("s", "lower", "latency_p50_s on ihara_det"),
    "ihara.edge_route_s": ("s", "lower", "latency_p50_s on ihara_det"),
    "pointcount.count_points_s": ("s", "lower", "latency_p50_s and throughput_ops_s on oracle_verify"),
    "pointcount.chart_points": ("count", "lower", "latency_p50_s on oracle_verify"),
    "pointcount.chart_points_per_s": ("1/s", "higher", "throughput_ops_s on oracle_verify"),
    "zeta.s": ("s", "lower", "negligible on every workload"),
    "trace_overhead_ratio": ("ratio", "higher", "none: traced over untraced throughput_ops_s"),
}


class _CountingMemo(dict):
    """Stand-in for grothendieck._memo that counts its lookups.

    A hit is a lookup that finds a stored class.  Counting lookups directly,
    instead of reading how len(_memo) grows, keeps frames that looked up
    their key but never stored a result (an op that raised) out of the hits.
    """

    def __init__(self, entries: dict, counts: list[int]) -> None:
        super().__init__(entries)
        self.counts = counts

    def get(self, key, default=None):
        value = super().get(key, default)
        self.counts[0 if value is not None else 1] += 1
        return value


def _resolve(qualname: str):
    """(owner object, attribute name) for a wrapped name."""
    parts = qualname.split(".")
    owner = importlib.import_module("loosezeta." + parts[0])
    for p in parts[1:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class Tracer:
    """Spans and counters of one op process."""

    def __init__(self) -> None:
        self.names = list(SPANS)
        self.spans: list = []
        self.current = -1
        self.paused = False
        self.counts = dict.fromkeys(COUNTED, 0)
        self.maxima = {"chart_reals": 0, "det_size": 0, "degree": 0}
        self.chart_points = 0
        self.memo = [0, 0]  # lookups in grothendieck._memo that hit, that missed
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name_id: int, fn, probe=None):
        spans = self.spans

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if probe is not None:
                probe(*args)
            parent = self.current
            idx = len(spans)
            spans.append(None)
            self.current = idx
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name_id, start, perf_counter(), parent)
                self.current = parent

        return wrapper

    def _mul_counter(self, key: str, fn):
        counts, maxima = self.counts, self.maxima

        def wrapper(a, b):
            r = fn(a, b)
            if r is NotImplemented:
                return r
            counts[key] += 1
            d = len(r.coeffs) - 1
            if d > maxima["degree"]:
                maxima["degree"] = d
            return r

        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _probe(self, qualname: str):
        maxima = self.maxima
        if qualname == "grothendieck.chart_class":

            def probe(charts):
                maxima["chart_reals"] = max(maxima["chart_reals"], len(charts))

        elif qualname == "polyring.PolyMatrix.det":

            def probe(matrix):
                maxima["det_size"] = max(maxima["det_size"], matrix.n)

        elif qualname == "pointcount.count_points":
            from loosezeta.pointcount import estimated_work

            def probe(g, p, *rest):
                self.paused = True
                try:
                    self.chart_points += estimated_work(g, p)
                finally:
                    self.paused = False

        else:
            return None
        return probe

    # -- install / restore ---------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install_one(self, qualname: str, make) -> None:
        owner, attr = _resolve(qualname)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(make(raw.__func__)))
            else:
                self._set(owner, attr, make(raw))
            return
        original = getattr(owner, attr)
        wrapped = make(original)
        for short in MODULES + ("__init__",):
            module = importlib.import_module("loosezeta" if short == "__init__" else "loosezeta." + short)
            if qualname == "grothendieck.class_polynomial" and short == "grothendieck":
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapped)

    @contextmanager
    def installed(self):
        """Wrap every traced name; restore all of them on exit."""
        from loosezeta import grothendieck

        memo = grothendieck._memo
        counting = _CountingMemo(memo, self.memo)
        try:
            self._set(grothendieck, "_memo", counting)
            for i, qualname in enumerate(self.names):
                probe = self._probe(qualname)
                self._install_one(qualname, lambda fn, i=i, probe=probe: self._span(i, fn, probe))
            for qualname in COUNTED:
                if qualname.endswith("mul__"):
                    self._install_one(qualname, lambda fn, q=qualname: self._mul_counter(q, fn))
                else:
                    self._install_one(qualname, lambda fn, q=qualname: self._counter(q, fn))
            yield self
        finally:
            memo.update(counting)  # keep what the traced op stored
            self.restore()

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": self.counts,
            "maxima": self.maxima,
            "chart_points": self.chart_points,
            "memo": self.memo,
        }


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class LayerTotals:
    """Running totals over the dumps of traced ops, read one at a time."""

    def __init__(self) -> None:
        self.inclusive = dict.fromkeys(SPANS, 0.0)
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_time = dict.fromkeys(sorted(set(SPANS.values())), 0.0)
        self.counts = dict.fromkeys(COUNTED, 0)
        self.maxima = {"chart_reals": 0, "det_size": 0, "degree": 0}
        self.chart_points = 0
        self.memo_hits = 0
        self.memo_misses = 0

    def add(self, dump: dict) -> None:
        names, spans = dump["names"], dump["spans"]
        # a span's self time is its duration minus what its child spans cover
        covered = [0.0] * len(spans)
        for s in spans:
            if s is not None and s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        for i, s in enumerate(spans):
            if s is None:
                continue
            name = names[s[0]]
            duration = s[2] - s[1]
            self.inclusive[name] += duration
            self.calls[name] += 1
            self.self_time[SPANS[name]] += duration - covered[i]
        for k in self.counts:
            self.counts[k] += dump["counts"][k]
        for k in self.maxima:
            self.maxima[k] = max(self.maxima[k], dump["maxima"][k])
        self.chart_points += dump["chart_points"]
        self.memo_hits += dump["memo"][0]
        self.memo_misses += dump["memo"][1]

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics: times and counts summed per pass, maxima over
        all ops.  trace_overhead_ratio is left to the caller."""
        inc, calls = self.inclusive, self.calls
        summed = {
            "cli.self_s": self.self_time["cli"],
            "loosegraph.parse_s": inc["loosegraph.parse"],
            "loosegraph.build_calls": calls["loosegraph.LooseGraph.build"],
            "loosegraph.build_s": inc["loosegraph.LooseGraph.build"],
            "loosegraph.components_calls": calls["loosegraph.connected_components"],
            "loosegraph.components_s": inc["loosegraph.connected_components"],
            "loosegraph.spanning_tree_s": inc["loosegraph.spanning_tree"],
            "loosegraph.neighborhood_s": inc["loosegraph.neighborhood"],
            "loosegraph.neighbors_calls": calls["loosegraph.LooseGraph.neighbors"],
            "loosegraph.self_s": self.self_time["loosegraph"],
            "grothendieck.class_calls": calls["grothendieck.canonical_key"],
            "grothendieck.memo_hits": self.memo_hits,
            "grothendieck.memo_misses": self.memo_misses,
            "grothendieck.surgery_steps": calls["loosegraph.resolve"],
            "grothendieck.apex_peels": calls["loosegraph.delete_vertex"],
            "grothendieck.reductions": calls["loosegraph.reduce"],
            "grothendieck.canonical_key_s": inc["grothendieck.canonical_key"],
            "grothendieck.resolution_difference_s": inc["grothendieck.resolution_difference"],
            "grothendieck.chart_class_calls": calls["grothendieck.chart_class"],
            "grothendieck.chart_class_s": inc["grothendieck.chart_class"],
            "grothendieck.self_s": self.self_time["grothendieck"],
            "polyring.mul_calls": self.counts["polyring.Poly.__mul__"] + self.counts["polyring.Poly.__rmul__"],
            "polyring.det_calls": calls["polyring.PolyMatrix.det"],
            "polyring.det_s": inc["polyring.PolyMatrix.det"],
            "polyring.exact_div_calls": self.counts["polyring.exact_div"],
            "ihara.vertex_route_s": inc["ihara.ihara_inverse"],
            "ihara.edge_route_s": inc["ihara.edge_matrix_inverse"],
            "pointcount.count_points_s": inc["pointcount.count_points"],
            "pointcount.chart_points": self.chart_points,
            "zeta.s": inc["zeta.f1_zeta"] + inc["zeta.format_zeta"],
        }
        n = max(passes, 1)
        out = {k: v / n for k, v in summed.items()}
        out["grothendieck.chart_reals_max"] = self.maxima["chart_reals"]
        out["polyring.det_size_max"] = self.maxima["det_size"]
        out["polyring.degree_max"] = self.maxima["degree"]
        points_s = inc["pointcount.count_points"]
        out["pointcount.chart_points_per_s"] = self.chart_points / points_s if points_s else 0.0
        return out

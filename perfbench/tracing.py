"""Spans around the benchmark's own calls into bellpoly's public functions.

The program is not instrumented: `bind` hands the workloads a namespace of
the public functions they call, either the functions themselves (untraced,
no added cost) or wrappers that record one span per call.  A span is
(name, start, end, parent span index, item key); each item is a span of its
own and is the parent of the calls made inside it.  Spans stay in memory
until `dump` writes them out.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from types import SimpleNamespace

# module -> public names the workloads call
TRACED = {
    "transform": ("walsh_hadamard",),
    "inequality": (
        "id_to_signs",
        "signs_to_id",
        "bell_table_from_id",
        "polynomial_string",
        "parse_polynomial",
        "signs_from_coefficients",
        "bell_table_to_json",
        "bell_table_from_json",
    ),
    "compose": ("full_nesting", "evaluate_nesting", "nesting_to_json", "nesting_from_json"),
    "symmetry": ("classify_all", "orbit_of_id", "apply", "GroupElement"),
    "quantum": (
        "max_violation",
        "DensityMatrix",
        "ObservableSpec",
        "PhaseVector",
        "simulate_correlations",
        "ghz_state",
        "ghz_observables",
        "extreme_point_q",
    ),
    "classical": ("l1_margin", "witness", "lp_membership"),
    "cli": ("main",),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._parent: int | None = None
        self._item: str | None = None

    def wrap(self, name: str, fn):
        spans = self.spans

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, start, time.perf_counter(), self._parent, self._item))

        return traced

    @contextmanager
    def item(self, key: str):
        index = len(self.spans)
        self.spans.append(None)  # filled in when the item ends
        self._parent, self._item = index, key
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = ("item", start, time.perf_counter(), None, key)
            self._parent = self._item = None

    def busy(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, summed span seconds) over all non-item spans."""
        out: dict[str, tuple[int, float]] = {}
        for name, start, end, _, _ in self.spans:
            if name != "item":
                calls, total = out.get(name, (0, 0.0))
                out[name] = (calls + 1, total + end - start)
        return out

    def dump(self, path) -> None:
        """Write every span with its self time (duration minus its children's).

        Calls run one after another in one thread, so children never overlap
        and their durations can simply be summed.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        rows = [
            {"name": name, "start": start, "end": end, "parent": parent, "item": key,
             "self_s": end - start - child[i]}
            for i, (name, start, end, parent, key) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def bind(tracer: Tracer | None = None) -> SimpleNamespace:
    """A namespace per bellpoly module of the traced public names, wrapped when tracing."""
    spaces = {}
    for mod, names in TRACED.items():
        module = importlib.import_module(f"bellpoly.{mod}")
        fns = {name: getattr(module, name) for name in names}
        if tracer is not None:
            fns = {name: tracer.wrap(f"{mod}.{name}", fn) for name, fn in fns.items()}
        spaces[mod] = SimpleNamespace(**fns)
    return SimpleNamespace(**spaces)

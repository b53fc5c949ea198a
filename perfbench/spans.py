"""Spans recorded around calls into qfilter's public functions.

While ``Tracer.instrument()`` is active, each function named in ``TARGETS`` is
replaced, in every loaded qfilter module that holds a reference to it, by a
wrapper that records a span and the target's counts. The originals are put
back on exit. The package source is not modified, so calls a module makes to
another module's public function are caught too, as child spans.
"""
from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


# (module, attribute, counts) per traced function. Each count is
# (name, function of the bound arguments and the result) and is derived from
# sizes, never from timings, so it repeats exactly for the same inputs.
TARGETS = (
    ("qfilter.boolfn", "boolean_problem", ()),
    ("qfilter.boolfn", "povm_advantage", ()),
    ("qfilter.ensemble", "FilteringProblem.__post_init__", ()),
    ("qfilter.ensemble", "decompose_target", ()),
    ("qfilter.strategies", "optimal_filtering", (
        ("strategies.optimal_filtering.calls", lambda a, r: 1),
    )),
    ("qfilter.strategies", "failure_curve", (
        ("strategies.failure_curve.points", lambda a, r: len(r)),
    )),
    ("qfilter.neumark", "failure_allocations", ()),
    ("qfilter.neumark", "success_gram", (
        ("neumark.success_gram.bytes", lambda a, r: a["problem"].n_states ** 2 * 16),
    )),
    ("qfilter.neumark", "build_neumark", ()),
    ("qfilter.neumark", "povm_elements", ()),
    ("qfilter.simulate", "simulate", (
        ("simulate.draws", lambda a, r: a["problem"].n_states * int(a["trials_per_state"])),
    )),
    ("qfilter.ensemble_io", "load_problem", (
        ("ensemble_io.bytes_read", lambda a, r: os.path.getsize(a["path"])),
    )),
    ("qfilter.ensemble_io", "save_problem", (
        ("ensemble_io.bytes_written", lambda a, r: os.path.getsize(a["path"])),
    )),
)


def span_name(module: str, attribute: str) -> str:
    """``qfilter.neumark`` + ``build_neumark`` -> ``neumark.build_neumark``."""
    return f"{module.split('.', 1)[1]}.{attribute.split('.')[0]}"


class Tracer:
    """In-memory span and count store for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._plan = None

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, original, counts):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if counts:
                bound = signature.bind(*args, **kwargs).arguments
                for count_name, measure in counts:
                    self.counts[count_name] += measure(bound, result)
            return result

        return traced

    def _patches(self) -> list[tuple[object, str, object, object]]:
        """(holder, attribute, original, wrapper) for every reference to a target."""
        patches = []
        for module_name, attribute, counts in TARGETS:
            module = importlib.import_module(module_name)
            name = span_name(module_name, attribute)
            if "." in attribute:
                owner_name, method = attribute.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                patches.append((owner, method, original, self._wrap(name, original, counts)))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original, counts)
            for holder in [m for k, m in sys.modules.items() if k.split(".")[0] == "qfilter"]:
                for key, value in vars(holder).items():
                    if value is original:
                        patches.append((holder, key, original, wrapper))
        return patches

    @contextmanager
    def instrument(self):
        """Record spans around every call into ``TARGETS`` while active."""
        if self._plan is None:
            self._plan = self._patches()
        try:
            for holder, key, _, wrapper in self._plan:
                setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original, _ in self._plan:
                setattr(holder, key, original)

    def child_time(self) -> list[float]:
        """Per span, the time its direct child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return covered

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child-covered time."""
        totals: dict[str, float] = defaultdict(float)
        for span, covered in zip(self.spans, self.child_time()):
            totals[span.name] += span.duration - covered
        return totals

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": [asdict(s) for s in self.spans], "counts": dict(self.counts)}, fh
            )

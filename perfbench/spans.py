"""Span tracing around the layer calls ``seqaccel.bench.run`` makes.

The tracer replaces module bindings (``bench.generate``, ``bench.apply_transform``
and so on) with timing wrappers for the duration of a ``with tracer.installed():``
block and puts the originals back in ``finally``.  Nothing inside ``src/``
changes: the spans sit at the boundaries between the benchmark, ``bench`` and
the layers ``bench`` calls into.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# Field order of one span record.
ID, PARENT, PASS, MATRIX, NAME, ATTR, START, END = range(8)


class Tracer:
    """In-memory span recorder.

    Each span is ``[id, parent, pass, matrix, name, attr, start_ns, end_ns]``;
    ``parent`` is -1 for a root span and ``matrix`` identifies the matrix the
    span belongs to.  ``attr`` holds the transform kind of a build, the
    format of a render, and ``fallback`` on a staircase lookup that returned
    less than the highest candidate order.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pass_no = 0
        self.matrix = ""
        self._stack: list[list] = []

    def open(self, name: str, attr: str = "") -> list:
        parent = self._stack[-1][ID] if self._stack else -1
        span = [len(self.spans), parent, self.pass_no, self.matrix, name, attr,
                perf_counter_ns(), 0]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, attr: str = ""):
        s = self.open(name, attr)
        try:
            yield s
        finally:
            self.close(s)

    def _wrap(self, name, fn, attr_of=None):
        def traced(*args, **kwargs):
            s = self.open(name, attr_of(*args, **kwargs) if attr_of else "")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(s)
        return traced

    def _wrap_staircase(self, fn):
        def traced(table, budget):
            s = self.open("core.staircase_entry")
            try:
                entry = fn(table, budget)
            finally:
                self.close(s)
            # staircase_entry walks orders up in steps of approximant_step while
            # the window fits; a lower k was returned iff the next order still fits.
            next_width = table.width(entry.k + table.approximant_step)
            if budget - next_width - table.lookback >= 0:
                s[ATTR] = "fallback"
            return entry
        return traced

    @contextmanager
    def installed(self, bench, problems):
        """Wrap the layer bindings of ``bench`` (and ``problems.reference``)."""
        replacements = [
            (bench, "run", self._wrap("bench.run", bench.run)),
            (bench, "generate", self._wrap("problems.generate", bench.generate)),
            (bench, "reference", self._wrap("problems.reference", bench.reference)),
            # generate() looks reference() up in its own module a second time.
            (problems, "reference", self._wrap("problems.reference", problems.reference)),
            (bench, "apply_transform", self._wrap("transforms.apply", bench.apply_transform,
                                                  lambda spec, sample: spec.kind)),
            (bench, "staircase_entry", self._wrap_staircase(bench.staircase_entry)),
            (bench, "check_fixture", self._wrap("bench.check_fixture", bench.check_fixture)),
            (bench, "render", self._wrap("bench.render", bench.render,
                                         lambda report, fmt: fmt)),
        ]
        originals = [(module, name, getattr(module, name)) for module, name, _ in replacements]
        try:
            for module, name, wrapper in replacements:
                setattr(module, name, wrapper)
            yield self
        finally:
            for module, name, original in originals:
                setattr(module, name, original)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "parent", "pass", "matrix", "name", "attr",
                             "start_ns", "end_ns"])
            writer.writerows(self.spans)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another (single thread, strictly
    nested calls), so their durations never overlap and can be summed.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def per_pass(spans: list[list]) -> dict[int, dict[str, float]]:
    """Layer totals of each traced pass, in ms and counts.

    Keys: ``<name>.ms`` (total duration), ``<name>.self_ms``, ``<name>.calls``,
    ``<name>.<attr>.ms`` and ``<name>.<attr>.calls`` for spans with an attribute.
    """
    own = self_times(spans)
    totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s, self_ns in zip(spans, own):
        t = totals[s[PASS]]
        dur = (s[END] - s[START]) / 1e6
        t[f"{s[NAME]}.ms"] += dur
        t[f"{s[NAME]}.self_ms"] += self_ns / 1e6
        t[f"{s[NAME]}.calls"] += 1
        if s[ATTR]:
            t[f"{s[NAME]}.{s[ATTR]}.ms"] += dur
            t[f"{s[NAME]}.{s[ATTR]}.calls"] += 1
    return totals

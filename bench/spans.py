"""Spans and counts around calls into simulbeam's modules, patched in from
outside the package for the traced run only.

A span records ``(name, start, end, parent, utterance id)``. Spans stay in
memory for the run and are written out when it ends. Hot calls that happen
once per candidate hypothesis (``Hypothesis.extended`` and ``.score``) are
counted, not spanned, to keep the trace small.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, NamedTuple

import simulbeam


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    utt: str | None


class Tracer:
    """Collects spans and named counts for one traced round."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.utt: str | None = None
        self._stack: list[int] = []

    def wrap(
        self,
        fn: Callable,
        name: str,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        """``fn`` recording a span per call; hooks see the arguments (and result)."""

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.utt)
            if after is not None:
                after(self, args, result)
            return result

        return traced


def _enter_utterance(tracer: Tracer, args: tuple) -> None:
    tracer.utt = args[0].id


def _count_events(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["harness.trace_events"] += len(result[1])


def _count_stop(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts[f"core.stop_{result.value}"] += 1


def _count_held(tracer: Tracer, args: tuple, result) -> None:
    best, state = args[1], result[0]
    tracer.counts["search.policy.held_tokens"] += len(best.tokens) - len(state.committed)


# (defining module, function, span name, before hook, after hook)
SPANNED = (
    ("harness", "run_corpus", "harness.run_corpus", None, None),
    ("harness", "run_utterance", "harness.run_utterance", _enter_utterance, _count_events),
    ("harness", "load_corpus", "harness.load_corpus", None, None),
    ("model", "load_model_file", "model.load_model_file", None, None),
    ("model", "make_toy_model", "model.make_toy_model", None, None),
    ("search", "decode_session", "search.decode_session", None, None),
    ("search", "standard_beam_search", "search.bs", None, None),
    ("search", "bwbs_block", "search.bwbs", None, None),
    ("search", "ibwbs_block", "search.ibwbs", None, None),
    ("search", "select_best", "search.select", None, None),
    ("search", "apply_policy", "search.policy", None, _count_held),
    ("core", "detect_stop", "core.detect_stop", None, _count_stop),
    ("metrics", "corpus_bleu", "metrics.bleu", None, None),
    ("metrics", "average_lagging", "metrics.al", None, None),
    ("metrics", "laal", "metrics.laal", None, None),
    ("metrics", "token_delays", "metrics.delays", None, None),
    ("cli", "main", "cli.main", None, None),
)

# (class, attribute, count name)
COUNTED = (
    ("Hypothesis", "extended", "core.extended"),
    ("Hypothesis", "score", "core.score"),
)


def _modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "simulbeam"]


def _replace(modules: list, original, replacement, undo: list) -> None:
    """Swap ``original`` for ``replacement`` wherever a module refers to it,
    including dispatch tables held in module-level dicts."""
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                undo.append(lambda m=module, n=name: setattr(m, n, original))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement
                        undo.append(lambda d=value, k=key: d.__setitem__(k, original))


def _counted(attribute, counts: Counter, key: str):
    if isinstance(attribute, property):
        fget = attribute.fget

        def counted_property(self):
            counts[key] += 1
            return fget(self)

        return property(counted_property)

    def counted_method(self, *args):
        counts[key] += 1
        return attribute(self, *args)

    return counted_method


@contextmanager
def tracing(tracer: Tracer, only: set[str] | None = None) -> Iterator[Tracer]:
    """Patch spans (and counts) into every loaded simulbeam module; restore on exit.

    ``only`` limits the patch to the named spans. A name the program no
    longer defines is skipped, so its metrics read zero.
    """
    modules = _modules()
    undo: list = []
    try:
        for module_name, attr, span, before, after in SPANNED:
            if only is not None and span not in only:
                continue
            module = sys.modules.get(f"simulbeam.{module_name}")
            original = getattr(module, attr, None)
            if original is not None:
                _replace(modules, original, tracer.wrap(original, span, before, after), undo)
        if only is None:
            for class_name, attr, key in COUNTED:
                cls = getattr(simulbeam, class_name, None)
                original = vars(cls).get(attr) if cls is not None else None
                if original is not None:
                    setattr(cls, attr, _counted(original, tracer.counts, key))
                    undo.append(lambda c=cls, a=attr, o=original: setattr(c, a, o))
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end - span.start - covered)
    return result


class Totals(NamedTuple):
    calls: int
    busy_s: float
    self_s: float


def totals(spans: list[Span]) -> dict[str, Totals]:
    """Calls, total duration and self time per span name."""
    acc: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        entry = acc[span.name]
        entry[0] += 1
        entry[1] += span.end - span.start
        entry[2] += own
    return {name: Totals(*entry) for name, entry in acc.items()}


def write_spans(rounds: list[list[Span]], path: Path) -> None:
    """Gzipped JSON lines, one per span; times are seconds from the run's first span."""
    origin = min((r[0].start for r in rounds if r), default=0.0)
    with gzip.open(path, "wt", compresslevel=1) as out:
        for number, spans in enumerate(rounds):
            for span in spans:
                doc = {
                    "round": number,
                    "name": span.name,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "parent": span.parent,
                    "utt": span.utt,
                }
                out.write(json.dumps(doc) + "\n")

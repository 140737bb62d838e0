"""Delegating ``ModelSession`` wrappers the benchmark puts between the harness
and the toy model. Each run's factory returns one of these around the
program's own session, so the program is measured through its public API."""

from __future__ import annotations

from time import perf_counter

import numpy as np
from simulbeam.model import Block, ModelSession


class IngestMarker(ModelSession):
    """Timestamps each ``ingest_block`` and the session's end, for block timings.

    ``next_token_logprobs`` is bound to the inner session's method in
    ``__init__``, so a forward pass runs exactly as it would unwrapped.
    """

    def __init__(self, inner: ModelSession) -> None:
        self._inner = inner
        self.next_token_logprobs = inner.next_token_logprobs
        self.created = perf_counter()
        self.stamps: list[float] = []
        self.end: float | None = None

    def ingest_block(self, block: Block) -> None:
        self.stamps.append(perf_counter())
        self._inner.ingest_block(block)

    def next_token_logprobs(self, prefix):  # shadowed per instance, see __init__
        return self._inner.next_token_logprobs(prefix)

    def forward_pass_count(self) -> int:
        # decode_session asks for the count as it returns: the session's end.
        self.end = perf_counter()
        return self._inner.forward_pass_count()

    def blocks_ingested(self) -> int:
        return self._inner.blocks_ingested()


def block_durations(markers: list[IngestMarker], unit_end: float) -> list[float]:
    """Wall time of every block decision, in session then block order.

    A block runs from its ``ingest_block`` to the next one; the last block of
    a session ends when the session returns. A program that never asks for
    the forward-pass count ends it when the next session is created instead.
    """
    durations = []
    for index, marker in enumerate(markers):
        end = marker.end
        if end is None:
            end = markers[index + 1].created if index + 1 < len(markers) else unit_end
        stamps = marker.stamps + [end]
        durations.extend(b - a for a, b in zip(stamps, stamps[1:]))
    return durations


class CountingSession(ModelSession):
    """Counts forward passes, to check them against ``SessionTranscript.forward_passes``."""

    def __init__(self, inner: ModelSession) -> None:
        self._inner = inner
        self.calls = 0

    def ingest_block(self, block: Block) -> None:
        self._inner.ingest_block(block)

    def next_token_logprobs(self, prefix):
        self.calls += 1
        return self._inner.next_token_logprobs(prefix)

    def forward_pass_count(self) -> int:
        return self._inner.forward_pass_count()

    def blocks_ingested(self) -> int:
        return self._inner.blocks_ingested()


class TracedSession(CountingSession):
    """Counts and times forward passes and block ingestion as ``model`` spans,
    and counts the finite log-probs each pass returns."""

    def __init__(self, inner: ModelSession, tracer) -> None:
        super().__init__(inner)
        self.finite = 0
        self._ingest = tracer.wrap(inner.ingest_block, "model.ingest")
        self._query = tracer.wrap(inner.next_token_logprobs, "model.fwd")

    def ingest_block(self, block: Block) -> None:
        self._ingest(block)

    def next_token_logprobs(self, prefix):
        self.calls += 1
        logprobs = self._query(prefix)
        self.finite += int(np.count_nonzero(np.isfinite(logprobs)))
        return logprobs

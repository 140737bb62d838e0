"""Quality, latency, and compute measurement over session transcripts.

Latency is non-computation-aware: a token's delay is how much source time
had been consumed when it was emitted, so results are deterministic and
hardware-neutral. Compute is counted in decoder forward passes (one per
next-token query).

Corpus BLEU is computed from sufficient statistics: each hypothesis and
reference pair is counted once (:func:`bleu_statistics`), and the corpus
score is the score of the element-wise sum (:func:`bleu_score`), so a
per-utterance row and the corpus row share one n-gram pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, fsum, log
from typing import Sequence

from .core import SessionTranscript


@dataclass(frozen=True)
class LatencyInput:
    """Per-token emission delays for one utterance.

    ``delays_ms[i]`` is the source time consumed when output token ``i`` was
    emitted; every token a block committed carries that block's timestamp.
    """

    delays_ms: tuple[float, ...]
    source_duration_ms: float
    ref_len: int

    def __post_init__(self) -> None:
        if self.source_duration_ms <= 0:
            raise ValueError("source_duration_ms must be positive")
        if self.ref_len < 1:
            raise ValueError("ref_len must be positive")
        last = 0.0
        for d in self.delays_ms:
            if d < last:
                raise ValueError("delays must be non-decreasing")
            if d > self.source_duration_ms:
                raise ValueError("a delay cannot exceed the source duration")
            last = d


def token_delays(transcript: SessionTranscript) -> tuple[float, ...]:
    """One delay per committed token: the source time its block had read."""
    return tuple(d.source_ms for d in transcript.decisions for _ in d.committed)


def _lagging(inp: LatencyInput, rate_denominator: int) -> float:
    delays = inp.delays_ms
    total = inp.source_duration_ms
    if not delays:
        return total  # nothing emitted: as late as offline output
    step = total / rate_denominator
    tau = len(delays)
    for i, d in enumerate(delays):
        if d >= total:
            tau = i + 1
            break
    return fsum(delays[i] - i * step for i in range(tau)) / tau


def average_lagging(inp: LatencyInput) -> float:
    """Mean excess delay (ms) versus an ideal uniform emission rate.

    AL = (1/tau) * sum_{i=1..tau} [d_i - (i-1) * T / ref_len], where tau is
    the index of the first delay that reaches the source duration T (all of
    them, if none does). Offline output degenerates to T, and so does an
    output with no tokens at all.
    """
    return _lagging(inp, inp.ref_len)


def laal(inp: LatencyInput) -> float:
    """Length-aware average lagging (ms).

    Same as :func:`average_lagging` but the ideal rate divides by
    ``max(|output|, ref_len)``, so over-generating cannot game the metric.
    Always >= the plain average lagging.
    """
    return _lagging(inp, max(len(inp.delays_ms), inp.ref_len))


BLEU_MAX_ORDER = 4


def bleu_statistics(hypothesis: Sequence[int], reference: Sequence[int]) -> tuple[int, ...]:
    """BLEU's sufficient statistics for one pair, each counted once.

    The clipped n-gram matches for n = 1..4, then the hypothesis's n-gram
    totals for n = 1..4, then the hypothesis and reference lengths. Corpus
    statistics are the element-wise sum over pairs (see :func:`bleu_score`).
    """
    matches = []
    totals = []
    for n in range(1, BLEU_MAX_ORDER + 1):
        unmatched: dict[tuple[int, ...], int] = {}
        for gram in zip(*[reference[i:] for i in range(n)]):
            unmatched[gram] = unmatched.get(gram, 0) + 1
        # Each hypothesis n-gram consumes one unmatched reference copy, so
        # the hits are the counts clipped by the reference's.
        hits = 0
        for gram in zip(*[hypothesis[i:] for i in range(n)]):
            left = unmatched.get(gram)
            if left:
                hits += 1
                unmatched[gram] = left - 1
        matches.append(hits)
        totals.append(max(len(hypothesis) - n + 1, 0))
    return (*matches, *totals, len(hypothesis), len(reference))


def bleu_score(statistics: Sequence[int]) -> float:
    """BLEU in [0, 100] from the (summed) statistics of :func:`bleu_statistics`.

    Geometric mean of clipped n-gram precisions (n = 1..4) times the brevity
    penalty ``exp(min(0, 1 - r/c))``. Unsmoothed, so tiny corpora stay
    hand-checkable: any zero precision yields 0.0.
    """
    matches = statistics[:BLEU_MAX_ORDER]
    totals = statistics[BLEU_MAX_ORDER : 2 * BLEU_MAX_ORDER]
    hyp_len, ref_len = statistics[2 * BLEU_MAX_ORDER :]
    if 0 in matches:  # also when an order has no n-grams at all
        return 0.0
    log_precisions = [log(match / total) for match, total in zip(matches, totals)]
    brevity = exp(min(0.0, 1.0 - ref_len / hyp_len))
    return 100.0 * brevity * exp(fsum(log_precisions) / BLEU_MAX_ORDER)


@dataclass(frozen=True)
class UtteranceReport:
    """Per-utterance metric row."""

    id: str
    bleu: float
    al_ms: float
    laal_ms: float
    forward_passes: int
    output_len: int
    ref_len: int


@dataclass(frozen=True)
class EvalReport:
    """Corpus-level aggregates plus the per-utterance rows behind them.

    BLEU is corpus-level; AL/LAAL are averaged over utterances; forward
    passes are summed.
    """

    bleu: float
    al_ms: float
    laal_ms: float
    forward_passes: int
    utterances: tuple[UtteranceReport, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.bleu <= 100.0:
            raise ValueError("bleu must lie in [0, 100]")
        if self.laal_ms < self.al_ms - 1e-9:
            raise ValueError("laal_ms cannot be smaller than al_ms")

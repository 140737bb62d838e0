"""Slow reference for BLEU: the per-order ``Counter`` formula that
``metrics.corpus_bleu`` used before it summed per-pair statistics.

Every order of every pair is counted with a fresh ``Counter`` of n-gram
tuples and clipped with ``min``; :func:`bleu_statistics` reads the same counts
for one pair. ``tests/test_metrics.py`` compares the fast path against it
bit for bit.
"""

from __future__ import annotations

from collections import Counter
from math import exp, fsum, log
from typing import Sequence

MAX_ORDER = 4


def _ngram_counts(seq: Sequence[int], order: int) -> Counter:
    return Counter(tuple(seq[i : i + order]) for i in range(len(seq) - order + 1))


def _counts(hyp: Sequence[int], ref: Sequence[int], n: int) -> tuple[int, int]:
    """Clipped matches and hypothesis total for order ``n``."""
    hyp_counts = _ngram_counts(hyp, n)
    ref_counts = _ngram_counts(ref, n)
    return (
        sum(min(c, ref_counts[g]) for g, c in hyp_counts.items()),
        sum(hyp_counts.values()),
    )


def bleu_statistics(hyp: Sequence[int], ref: Sequence[int]) -> tuple[int, ...]:
    """Matches for n = 1..4, totals for n = 1..4, then both lengths."""
    counts = [_counts(hyp, ref, n) for n in range(1, MAX_ORDER + 1)]
    return (*(m for m, _ in counts), *(t for _, t in counts), len(hyp), len(ref))


def corpus_bleu(
    hypotheses: Sequence[Sequence[int]], references: Sequence[Sequence[int]]
) -> float:
    if len(hypotheses) != len(references):
        raise ValueError("hypotheses and references must pair up one to one")
    if not hypotheses:
        raise ValueError("cannot score an empty corpus")
    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_ORDER + 1):
            match, total = _counts(hyp, ref, n)
            matches[n - 1] += match
            totals[n - 1] += total
    if 0 in matches:
        return 0.0
    log_precisions = [log(match / total) for match, total in zip(matches, totals)]
    brevity = exp(min(0.0, 1.0 - ref_len / hyp_len))
    return 100.0 * brevity * exp(fsum(log_precisions) / MAX_ORDER)

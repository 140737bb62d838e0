"""Value types and scoring helpers shared by the decoding and evaluation layers.

Tokens are integer ids into a :class:`Vocabulary`; one reserved id marks the
end of an output sequence. Scores are natural-log probabilities summed per
token; length normalization divides by token count. Everything in this module
is an immutable value type, safe to share between concurrent sessions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence


class StopReason(enum.Enum):
    """Outcome of the per-step stop heuristic."""

    NONE = "none"
    REPEAT = "repeat"
    EOS = "eos"


@dataclass(frozen=True)
class Vocabulary:
    """Closed token inventory with a designated end-of-sequence id; decoding
    operates on ids throughout."""

    size: int
    eos_id: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"vocabulary size must be positive, got {self.size}")
        if not 0 <= self.eos_id < self.size:
            raise ValueError(f"eos_id {self.eos_id} out of range for size {self.size}")


@dataclass(frozen=True)
class Hypothesis:
    """A scored partial output: tokens plus their per-token log-probabilities.

    A finished hypothesis is one that ends with the EOS token; a beam trimmed
    by the stop heuristic simply carries fewer tokens.
    """

    tokens: tuple[int, ...] = ()
    token_logprobs: tuple[float, ...] = ()

    # The exact score once summed. Not a field: the constructor, eq, hash,
    # repr and ``dataclasses.replace`` ignore it, so every new instance sums
    # its own. The beam step stores the sum it ranked a hypothesis by. Two
    # threads that race to fill it store the same value.
    _score = None

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.token_logprobs):
            raise ValueError("tokens and token_logprobs must have equal length")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def score(self) -> float:
        """Cumulative log-probability of the token sequence, summed exactly
        (``math.fsum``) once per instance."""
        score = self._score
        if score is None:
            score = math.fsum(self.token_logprobs)
            object.__setattr__(self, "_score", score)
        return score

    def extended(self, token: int, logprob: float) -> Hypothesis:
        """Copy with one more scored token appended."""
        return Hypothesis(self.tokens + (token,), self.token_logprobs + (logprob,))

    def sliced(self, length: int) -> Hypothesis:
        """Copy keeping only the first ``length`` tokens."""
        return Hypothesis(self.tokens[:length], self.token_logprobs[:length])


@dataclass(frozen=True)
class BlockDecision:
    """What one block decided, stamped with the source time read by its end:
    ``best`` is the visible best hypothesis (no EOS), ``committed`` the tokens
    this block committed (always ``()`` in re-translation mode)."""

    source_ms: float
    best: tuple[int, ...]
    committed: tuple[int, ...]


@dataclass(frozen=True)
class SessionTranscript:
    """Complete record of one decoding session: one :class:`BlockDecision`
    per block, in order, and the forward passes the session spent.

    The last decision's ``best`` is the final output and its ``source_ms``
    the source duration. In incremental sessions the committed tokens
    concatenate to the final output, each stamped with its block's
    ``source_ms``. Sessions that revise their output (re-translation) commit
    nothing: each decision's ``best`` is the snapshot shown after that block.
    """

    decisions: tuple[BlockDecision, ...]
    forward_passes: int

    def __post_init__(self) -> None:
        if not self.decisions:
            raise ValueError("a transcript needs at least one block decision")
        if self.forward_passes < 0:
            raise ValueError("forward_passes must be non-negative")
        if not self.decisions[0].source_ms > 0:
            raise ValueError("source_ms must be positive")
        joined: tuple[int, ...] = ()
        last = 0.0
        for decision in self.decisions:
            if not decision.source_ms >= last:
                raise ValueError("decision timestamps must be non-decreasing")
            joined += decision.committed
            last = decision.source_ms
        if joined and joined != self.final_output:
            raise ValueError("committed tokens must concatenate to the last best")

    @property
    def final_output(self) -> tuple[int, ...]:
        return self.decisions[-1].best

    @property
    def source_duration_ms(self) -> float:
        return self.decisions[-1].source_ms


MAX_TOKENS_PER_SECOND = 10.0  # output tokens allowed per source second
MAX_TOKENS_OFFSET = 20


@dataclass(frozen=True)
class SearchConfig:
    """Knobs shared by all decoding strategies."""

    beam_size: int = 6
    repetition_detection: bool = True

    def __post_init__(self) -> None:
        if self.beam_size < 1:
            raise ValueError("beam_size must be at least 1")


def max_output_tokens(source_duration_ms: float) -> int:
    """Hard cap on hypothesis length once this much source has been read:
    ``ceil(MAX_TOKENS_PER_SECOND * source_seconds) + MAX_TOKENS_OFFSET``."""
    return math.ceil(MAX_TOKENS_PER_SECOND * source_duration_ms / 1000.0) + MAX_TOKENS_OFFSET


def longest_common_prefix(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Maximal sequence that is a prefix of both ``a`` and ``b``."""
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return tuple(a[:n])


def normalized_score(hyp: Hypothesis) -> float:
    """Mean per-token log-probability; 0.0 for the empty hypothesis.

    The empty case is a convention only: selection ranks an empty candidate
    below every non-empty one regardless of this value (see search module).
    """
    if not hyp.tokens:
        return 0.0
    return hyp.score / len(hyp.tokens)


def detect_stop(hyp: Hypothesis, cfg: SearchConfig, eos_id: int) -> StopReason:
    """Check a hypothesis against the stop heuristic.

    EOS takes precedence: a hypothesis ending in the EOS token reports
    :attr:`StopReason.EOS` even when it also repeats. A repetition is the
    last token equalling the one before it.
    """
    if not hyp.tokens:
        raise ValueError("detect_stop requires a non-empty hypothesis")
    if hyp.tokens[-1] == eos_id:
        return StopReason.EOS
    if cfg.repetition_detection and len(hyp.tokens) >= 2 and hyp.tokens[-1] == hyp.tokens[-2]:
        return StopReason.REPEAT
    return StopReason.NONE

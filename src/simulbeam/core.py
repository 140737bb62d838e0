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

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.token_logprobs):
            raise ValueError("tokens and token_logprobs must have equal length")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def score(self) -> float:
        """Cumulative log-probability of the token sequence."""
        return math.fsum(self.token_logprobs)

    def extended(self, token: int, logprob: float) -> Hypothesis:
        """Copy with one more scored token appended."""
        return Hypothesis(self.tokens + (token,), self.token_logprobs + (logprob,))

    def sliced(self, length: int) -> Hypothesis:
        """Copy keeping only the first ``length`` tokens."""
        return Hypothesis(self.tokens[:length], self.token_logprobs[:length])


@dataclass(frozen=True)
class CommitEvent:
    """Tokens irrevocably shown to the user, stamped with the amount of
    source time that had been read when they were emitted."""

    tokens: tuple[int, ...]
    source_consumed_ms: float

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("a commit must carry at least one token")
        if self.source_consumed_ms < 0:
            raise ValueError("source_consumed_ms must be non-negative")


@dataclass(frozen=True)
class SessionTranscript:
    """Complete record of one decoding session.

    For incremental sessions the commit stream concatenates to
    ``final_output``. Sessions that revise their output (re-translation)
    carry no commits; only the final hypothesis is recorded.
    """

    commits: tuple[CommitEvent, ...]
    final_output: tuple[int, ...]
    source_duration_ms: float
    forward_passes: int

    def __post_init__(self) -> None:
        if self.source_duration_ms <= 0:
            raise ValueError("source_duration_ms must be positive")
        if self.forward_passes < 0:
            raise ValueError("forward_passes must be non-negative")
        if self.commits:
            joined: tuple[int, ...] = ()
            last = 0.0
            for event in self.commits:
                joined += event.tokens
                if event.source_consumed_ms < last:
                    raise ValueError("commit timestamps must be non-decreasing")
                if event.source_consumed_ms > self.source_duration_ms:
                    raise ValueError("commit timestamp exceeds source duration")
                last = event.source_consumed_ms
            if joined != self.final_output:
                raise ValueError("commits must concatenate to final_output")


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
    """Hard cap on hypothesis length for an utterance of the given duration:
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

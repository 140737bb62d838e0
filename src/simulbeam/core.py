"""Value types and scoring helpers shared by the decoding and evaluation layers.

Tokens are integer ids into a :class:`Vocabulary`; one reserved id marks the
end of an output sequence. Scores are natural-log probabilities summed per
token; length normalization divides by token count. Everything in this module
is an immutable value type, safe to share between concurrent sessions.

:func:`check_types` is the one type rule for the settings types (here
:class:`Vocabulary` and :class:`SearchConfig`; in the other modules
``PolicyState``, ``RunConfig``, ``ToyTransducerSpec`` and ``CorpusRecord``):
each constructor names its fields' kinds once, and a wrong type fails by name.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence


# A frozen dataclass's own ``__setattr__`` raises: copies, the stored score
# and the terms are written through ``object``'s.
_new = object.__new__
_set = object.__setattr__

# The kind of a float setting: an int is a number too, a bool is not.
NUMBER = (int, float)
_KIND_NAMES = {int: "an integer", bool: "a bool", str: "a string", tuple: "a tuple",
               NUMBER: "a number"}


def check_types(obj, error=ValueError, /, **kinds) -> None:
    """Check the named fields of ``obj`` by exact type: ``type(value)`` must
    be the field's kind, or one of :data:`NUMBER`'s. So a bool never passes
    as an int, and an enum field takes only its members. ``None`` passes only
    in a field whose default is ``None``. Otherwise raise ``error("{field}
    must be {kind}, got {value!r}")``."""
    for name, kind in kinds.items():
        value = getattr(obj, name)
        if type(value) is kind or kind is NUMBER and type(value) in NUMBER:
            continue
        if value is None and getattr(type(obj), name, ...) is None:
            continue
        what = _KIND_NAMES.get(kind) or f"a member of {kind.__name__}"
        raise error(f"{name} must be {what}, got {value!r}")


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
        check_types(self, size=int, eos_id=int)
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
    #
    # ``extended`` and ``sliced`` build their copy without the constructor:
    # they set the two fields on a bare instance. Both tuples grow or shrink
    # together, so the lengths stay equal without the check, and a copy
    # starts without a stored score, as a constructed one does.
    _score = None
    # A short exact form of the score, once filled (see ``_exact_terms``):
    # a few floats whose exact sum is the exact sum of the log-probs.
    # ``math.fsum`` rounds the exact sum of its inputs once, so
    # ``fsum(terms + rest)`` equals ``fsum(log-probs + rest)`` for any
    # ``rest``. The beam step scores a child as ``fsum(parent terms +
    # (lp,))``, whatever the parent's length, and stores that tuple as the
    # child's terms. Not a field either, and copies start without it.
    _terms = None

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
            _set(self, "_score", score)
        return score

    def extended(self, token: int, logprob: float) -> Hypothesis:
        """Copy with one more scored token appended."""
        hyp = _new(Hypothesis)
        _set(hyp, "tokens", self.tokens + (token,))
        _set(hyp, "token_logprobs", self.token_logprobs + (logprob,))
        return hyp

    def sliced(self, length: int) -> Hypothesis:
        """Copy keeping only the first ``length`` tokens."""
        hyp = _new(Hypothesis)
        _set(hyp, "tokens", self.tokens[:length])
        _set(hyp, "token_logprobs", self.token_logprobs[:length])
        return hyp


def _exact_terms(hyp: Hypothesis) -> tuple[float, ...]:
    """``hyp``'s terms, filled on first use: its score, then the rounded
    remainders ``fsum(log-probs + negated terms)`` until one is 0. Only a
    zero exact sum rounds to 0, so then the terms' exact sum is the
    log-probs'. Each remainder is at most half an ulp of the term before
    it, so a finite score needs at most 40 terms. A ``-inf`` score is its
    own single term."""
    terms = hyp._terms
    if terms is None:
        score = hyp.score
        terms, negated = (score,), (-score,)
        if score > -math.inf:
            while remainder := math.fsum(hyp.token_logprobs + negated):
                terms += (remainder,)
                negated += (-remainder,)
        _set(hyp, "_terms", terms)
    return terms


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
        # A list grows in place: joining tuples would copy the prefix per block.
        joined: list[int] = []
        last = 0.0
        for decision in self.decisions:
            if not decision.source_ms >= last:
                raise ValueError("decision timestamps must be non-decreasing")
            joined += decision.committed
            last = decision.source_ms
        if joined and tuple(joined) != self.final_output:
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
        check_types(self, beam_size=int, repetition_detection=bool)
        if self.beam_size < 1:
            raise ValueError(f"beam_size must be an integer, at least 1, got {self.beam_size!r}")


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

"""Pluggable sequence-model sessions and configurable toy models.

A :class:`ModelSession` is the decoding engine's only view of a model: it
ingests source blocks and answers next-token log-probability queries for a
given output prefix. Every query counts as one decoder forward pass, which is
the compute measure reported by the evaluation harness.

The toy transducer turns a source-symbol-to-target-tokens mapping into a
session whose behavior under insufficient context is configurable. It scores
by monotone alignment:

1. Concatenating the target sequences of the ingested source symbols yields
   the visible reference; the j-th reference token is aligned to the source
   symbol that produced it.
2. A position is *confident* once ``aligned_symbol + lookahead`` symbols have
   been read; the correct token then receives mass ``1 - epsilon`` and the
   remainder is spread uniformly over the other tokens.
3. Past the visible reference with the final block seen, EOS receives the
   confident mass.
4. Otherwise the context is insufficient and the confident mass goes to the
   configured fallback: repeat the previous output token, end the sequence,
   or spread over all non-EOS tokens.

Rule 4 is what makes the toy reproduce the failure modes that the stop
heuristic in the search module exploits: repeated tokens and premature ends.
"""

from __future__ import annotations

import enum
import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import Vocabulary

EOS_SURFACE = "<eos>"


class ContextMode(enum.Enum):
    """How a session maintains its conditioning state.

    BLOCKWISE sessions may only append state per ingested block; FULL_CONTEXT
    sessions recompute their conditioning from all blocks on every query.
    For the toy models the two produce identical distributions, so any
    downstream difference is attributable to the search, not the model.
    """

    BLOCKWISE = "blockwise"
    FULL_CONTEXT = "full"


class InsufficientContextMode(enum.Enum):
    """What the toy model does when asked to translate beyond its context."""

    REPEAT = "repeat"
    EOS = "eos"
    HALLUCINATE = "hallucinate"


@dataclass(frozen=True)
class Block:
    """A fixed-duration segment of source input.

    ``payload`` holds source symbol ids for toy models; non-integer entries
    (e.g. opaque feature frames) are accepted and ignored by toy models.
    """

    payload: tuple
    duration_ms: float
    is_final: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.duration_ms < math.inf:
            raise ValueError("block duration_ms must be positive and finite")


@dataclass(frozen=True)
class ToyTransducerSpec:
    """Deterministic source-to-target mapping plus failure-mode knobs."""

    mapping: Mapping[int, tuple[int, ...]]
    noise_epsilon: float = 0.0
    insufficient_context_mode: InsufficientContextMode = InsufficientContextMode.REPEAT
    lookahead: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise_epsilon < 1.0:
            raise ValueError("noise_epsilon must lie in [0, 1)")
        if self.lookahead < 0:
            raise ValueError("lookahead must be non-negative")
        for symbol, targets in self.mapping.items():
            if not targets:
                raise ValueError(f"mapped target sequence for symbol {symbol} is empty")

    def validate_against(self, vocab: Vocabulary) -> None:
        for symbol, targets in self.mapping.items():
            for token in targets:
                if not 0 <= token < vocab.size:
                    raise ValueError(
                        f"mapping for symbol {symbol} references token {token} "
                        f"outside the vocabulary of size {vocab.size}"
                    )


class ModelSession(ABC):
    """Stateful scorer: block ingestion plus next-token distributions.

    Contract: ``next_token_logprobs`` returns a log-distribution over the
    whole vocabulary (exponentials sum to 1) and increments the forward-pass
    counter by exactly one. Ingesting after the final block is an error.
    A session is single-threaded; distinct sessions are independent.
    """

    @abstractmethod
    def ingest_block(self, block: Block) -> None:
        """Feed the next source block into the session."""

    @abstractmethod
    def next_token_logprobs(self, prefix: Sequence[int]) -> np.ndarray:
        """Log-probabilities of the next token given the output prefix."""

    @abstractmethod
    def forward_pass_count(self) -> int:
        """Number of distribution queries served so far.

        ``decode_session`` calls this exactly once per utterance, as its last
        call on the session, so a wrapper may take the call as the session's
        end.
        """


ModelFactory = Callable[[], ModelSession]


class _ToySession(ModelSession):
    """Session over a :class:`ToyTransducerSpec`; see the module docstring."""

    def __init__(self, spec: ToyTransducerSpec, vocab: Vocabulary, context: ContextMode) -> None:
        self._spec = spec
        self._vocab = vocab
        self._context = context
        self._blocks: list[Block] = []
        self._final_seen = False
        self._forward_passes = 0
        # Incrementally maintained conditioning (BLOCKWISE contract).
        self._symbols: list[int] = []
        self._reference: list[int] = []
        self._alignment: list[int] = []  # 1-based source position per reference token

    def ingest_block(self, block: Block) -> None:
        if self._final_seen:
            raise RuntimeError("cannot ingest: session already received its final block")
        symbols = [s for s in block.payload if isinstance(s, int) and not isinstance(s, bool)]
        for symbol in symbols:
            if symbol not in self._spec.mapping:
                raise ValueError(f"source symbol {symbol} not covered by the model mapping")
        self._blocks.append(block)
        if self._context is ContextMode.BLOCKWISE:
            self._append_symbols(symbols)
        self._final_seen = block.is_final

    def _append_symbols(self, symbols: Sequence[int]) -> None:
        for symbol in symbols:
            self._symbols.append(symbol)
            position = len(self._symbols)
            for token in self._spec.mapping[symbol]:
                self._reference.append(token)
                self._alignment.append(position)

    def _conditioning(self) -> tuple[list[int], list[int], int]:
        if self._context is ContextMode.FULL_CONTEXT:
            # Recompute from scratch on every query, per the full-context contract.
            self._symbols, self._reference, self._alignment = [], [], []
            for block in self._blocks:
                self._append_symbols(
                    [s for s in block.payload if isinstance(s, int) and not isinstance(s, bool)]
                )
        return self._reference, self._alignment, len(self._symbols)

    def next_token_logprobs(self, prefix: Sequence[int]) -> np.ndarray:
        if not self._blocks:
            raise RuntimeError("cannot score: no block ingested yet")
        self._forward_passes += 1
        reference, alignment, n_symbols = self._conditioning()
        vocab_size = self._vocab.size
        eos = self._vocab.eos_id
        j = len(prefix)
        if j < len(reference) and alignment[j] + self._spec.lookahead <= n_symbols:
            favored: tuple[int, ...] = (reference[j],)
        elif j >= len(reference) and self._final_seen:
            favored = (eos,)
        else:
            mode = self._spec.insufficient_context_mode
            if mode is InsufficientContextMode.REPEAT and j > 0:
                favored = (int(prefix[-1]),)
            elif mode is InsufficientContextMode.EOS:
                favored = (eos,)
            else:
                # HALLUCINATE, or REPEAT with nothing emitted yet to repeat.
                favored = tuple(t for t in range(vocab_size) if t != eos)
        epsilon = self._spec.noise_epsilon
        rest = vocab_size - len(favored)
        probs = np.full(vocab_size, (epsilon / rest) if rest else 0.0)
        probs[list(favored)] = (1.0 - epsilon) / len(favored)
        with np.errstate(divide="ignore"):
            return np.log(probs)

    def forward_pass_count(self) -> int:
        return self._forward_passes


def make_toy_model(
    spec: ToyTransducerSpec,
    vocab: Vocabulary,
    mode: ContextMode = ContextMode.BLOCKWISE,
) -> ModelFactory:
    """Factory producing independent toy sessions for the given spec.

    The toy distributions are closed-form, so sessions are fully
    deterministic: identical call sequences yield identical vectors.
    """
    spec.validate_against(vocab)

    def factory() -> ModelSession:
        return _ToySession(spec, vocab, mode)

    return factory


def json_ids(values: Iterable, field: str) -> tuple[int, ...]:
    """The entries of a JSON id list as a tuple. Each must be a JSON integer:
    a float, a numeric string or a boolean raises ``TypeError`` instead of
    being truncated or converted."""
    ids = tuple(values)
    for value in ids:
        if type(value) is not int:
            raise TypeError(f"{field} must hold integer ids, got {value!r}")
    return ids


def json_number(value, field: str) -> float:
    """A JSON number as a float. A boolean or a string raises ``ValueError``
    instead of being converted, and so does an integer past the float range."""
    if type(value) not in (int, float):
        raise ValueError(f"{field} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{field} is out of the float range") from None


def spec_from_json(doc: Mapping) -> tuple[ToyTransducerSpec, Vocabulary]:
    """Parse the toy-model JSON schema.

    Schema: ``{"vocab": [...], "mapping": {...}, "epsilon": r, "mode": "...",
    "lookahead": k}``. The vocabulary is the list of surface strings; the
    entry equal to ``"<eos>"`` designates the end-of-sequence token, and no
    entry may repeat. Mapping keys are integer strings; targets and
    ``lookahead`` are JSON integers, and ``epsilon`` is a JSON number.
    """
    try:
        surfaces = tuple(str(s) for s in doc["vocab"])
        raw_mapping = doc["mapping"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"model spec missing required field: {exc}") from exc
    eos_positions = [i for i, s in enumerate(surfaces) if s == EOS_SURFACE]
    if len(eos_positions) != 1:
        raise ValueError(f'model vocab must contain exactly one "{EOS_SURFACE}" entry')
    if len(set(surfaces)) != len(surfaces):
        raise ValueError("surface strings must be unique")
    vocab = Vocabulary(size=len(surfaces), eos_id=eos_positions[0])
    try:
        mapping = {
            int(sym): json_ids(tgt, f"mapping for symbol {sym}") for sym, tgt in raw_mapping.items()
        }
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed model mapping: {exc}") from exc
    lookahead = doc.get("lookahead", 0)
    if type(lookahead) is not int:
        raise ValueError(f"lookahead must be an integer, got {lookahead!r}")
    spec = ToyTransducerSpec(
        mapping=mapping,
        noise_epsilon=json_number(doc.get("epsilon", 0.0), "epsilon"),
        insufficient_context_mode=InsufficientContextMode(str(doc.get("mode", "repeat")).lower()),
        lookahead=lookahead,
    )
    spec.validate_against(vocab)
    return spec, vocab


def load_model_file(path: str | Path) -> tuple[ToyTransducerSpec, Vocabulary]:
    """Load a toy-model JSON file, reporting schema problems by name."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON: {exc}") from exc
    try:
        return spec_from_json(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

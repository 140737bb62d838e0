"""Pluggable sequence-model sessions and configurable toy models.

A :class:`ModelSession` is the decoding engine's only view of a model: it
ingests source blocks and answers next-token log-probability queries for a
given output prefix. Every query counts as one decoder forward pass, which is
the compute measure reported by the evaluation harness.

The toy transducer turns a source-symbol-to-target-tokens mapping into a
session whose behavior under insufficient context is configurable.
Concatenating the target sequences of the ingested source symbols yields the
visible reference, aligned monotonically to the source. Each query for
position ``j`` makes one three-way decision:

1. The reference token at ``j`` is known and trusted (*confident*): it was
   produced by a symbol followed by at least ``lookahead`` more read symbols,
   or the final block has been read. It receives mass ``1 - epsilon`` and the
   remainder is spread uniformly over the other tokens.
2. Otherwise, with the final block read, the source is complete and EOS
   receives the confident mass.
3. Otherwise context is missing, and the confident mass goes to the
   configured fallback: repeat the previous output token, end the sequence,
   or spread over all non-EOS tokens.

Rule 3 is what makes the toy reproduce the failure modes that the stop
heuristic in the search module exploits: repeated tokens and premature ends.
"""

from __future__ import annotations

import enum
import json
import numbers
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import NUMBER, Vocabulary, check_types

EOS_SURFACE = "<eos>"


class ContextMode(enum.Enum):
    """How a session maintains its conditioning state.

    FULL_CONTEXT sessions re-encode all source read so far once per ingested
    block, as an offline-trained model run online does; BLOCKWISE sessions
    encode only the new block. Queries read that state in both modes.
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


def _is_id(value) -> bool:
    """Whether ``value`` is a symbol or token id: a Python or NumPy integer,
    never a bool."""
    # ``type`` first: the ``Integral`` check is an order of magnitude slower.
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class Block:
    """A fixed-duration segment of source input.

    ``payload`` holds source symbol ids for toy models: any integer but a
    bool, Python or NumPy, is a symbol. Other entries (e.g. opaque feature
    frames) are accepted and ignored by toy models.
    """

    payload: tuple
    duration_ms: float
    is_final: bool = False

    def __post_init__(self) -> None:
        check_types(self, payload=tuple, duration_ms=NUMBER, is_final=bool)
        # An integer past the float range would overflow the clock.
        if not 0 < self.duration_ms <= sys.float_info.max:
            raise ValueError("block duration_ms must be positive and finite")


@dataclass(frozen=True)
class ToyTransducerSpec:
    """Deterministic source-to-target mapping plus failure-mode knobs."""

    mapping: Mapping[int, tuple[int, ...]]
    noise_epsilon: float = 0.0
    insufficient_context_mode: InsufficientContextMode = InsufficientContextMode.REPEAT
    lookahead: int = 0

    def __post_init__(self) -> None:
        check_types(self, noise_epsilon=NUMBER, insufficient_context_mode=InsufficientContextMode,
                    lookahead=int)
        if not 0.0 <= self.noise_epsilon < 1.0:
            raise ValueError("noise_epsilon must lie in [0, 1)")
        if self.lookahead < 0:
            raise ValueError("lookahead must be non-negative")
        if not isinstance(self.mapping, Mapping):
            raise ValueError(f"mapping must be a mapping, got {self.mapping!r}")
        for symbol, targets in self.mapping.items():
            if not _is_id(symbol):
                raise ValueError(f"mapping keys must be integer symbol ids, got {symbol!r}")
            if type(targets) is not tuple:
                raise ValueError(f"mapping for symbol {symbol} must be a tuple, got {targets!r}")
            if not targets:
                raise ValueError(f"mapped target sequence for symbol {symbol} is empty")
            for token in targets:
                if not _is_id(token):
                    raise ValueError(f"mapping for symbol {symbol} must hold integer token ids, "
                                     f"got {token!r}")


class ModelSession(ABC):
    """Stateful scorer: block ingestion plus next-token distributions.

    Contract: ``next_token_logprobs`` returns a log-distribution over the
    whole vocabulary (exponentials sum to 1) and increments the forward-pass
    counter by exactly one. The decoder checks that every entry is at most
    0: NaN, ``+inf`` and positive entries are rejected. Ingesting after the
    final block is an error.
    Per-block work, such as encoding the source, belongs in ``ingest_block``:
    queries are decoder forward passes and should only read that state.
    The decoder only reads an answer, never writes to it, so a session may
    return one shared read-only array for equal distributions.
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

    def __init__(
        self,
        spec: ToyTransducerSpec,
        vocab: Vocabulary,
        context: ContextMode,
        vectors: dict[int | None, np.ndarray],
    ) -> None:
        self._spec = spec
        self._vocab = vocab
        self._context = context
        self._vectors = vectors  # shared by the factory's sessions; see make_toy_model
        self._final_seen = False
        self._forward_passes = 0
        # Conditioning that queries read, rebuilt or extended per ingested block:
        # the source read so far, its targets end to end (None before the first
        # block), and how many of those targets the model is sure of.
        self._symbols: list[int] = []
        self._reference: list[int] | None = None
        self._confident = 0

    def ingest_block(self, block: Block) -> None:
        if self._final_seen:
            raise RuntimeError("cannot ingest: session already received its final block")
        symbols = [int(s) for s in block.payload if _is_id(s)]
        mapping, lookahead = self._spec.mapping, self._spec.lookahead
        for symbol in symbols:
            if symbol not in mapping:
                raise ValueError(f"source symbol {symbol} not covered by the model mapping")
        self._symbols += symbols
        if self._context is ContextMode.FULL_CONTEXT or self._reference is None:
            # Re-encode all source read so far, as an offline model does per
            # block; on a session's first block that is the block itself.
            self._reference = [t for s in self._symbols for t in mapping[s]]
        else:
            self._reference += [t for s in symbols for t in mapping[s]]
        self._confident = len(self._reference)
        if lookahead and not block.is_final:
            # Alignment is monotone: only the last ``lookahead`` symbols'
            # targets wait for context, and none once the final block is read.
            self._confident -= sum(len(mapping[s]) for s in self._symbols[-lookahead:])
        self._final_seen = block.is_final

    def next_token_logprobs(self, prefix: Sequence[int]) -> np.ndarray:
        reference = self._reference
        if reference is None:
            raise RuntimeError("cannot score: no block ingested yet")
        self._forward_passes += 1
        eos = self._vocab.eos_id
        j = len(prefix)
        # The favored token, or None for every non-EOS token.
        if j < self._confident:
            key: int | None = reference[j]
        elif self._final_seen:
            key = eos
        else:
            mode = self._spec.insufficient_context_mode
            if mode is InsufficientContextMode.REPEAT and j > 0:
                key = int(prefix[-1])
                if not 0 <= key < self._vocab.size:
                    raise ValueError(f"cannot repeat token {key}: outside the "
                                     f"vocabulary [0, {self._vocab.size})")
            elif mode is InsufficientContextMode.EOS:
                key = eos
            else:
                # HALLUCINATE, or REPEAT with nothing emitted yet to repeat.
                key = None
        vector = self._vectors.get(key)
        if vector is None:
            vector = self._vectors[key] = self._vector(key)
        return vector

    def _vector(self, key: int | None) -> np.ndarray:
        """The read-only log-distribution that favors ``key``."""
        vocab_size = self._vocab.size
        eos = self._vocab.eos_id
        if key is None:
            favored: tuple[int, ...] = tuple(t for t in range(vocab_size) if t != eos)
        else:
            favored = (key,)
        epsilon = self._spec.noise_epsilon
        rest = vocab_size - len(favored)  # at least 1: make_toy_model requires V >= 2
        probs = np.full(vocab_size, epsilon / rest)
        probs[list(favored)] = (1.0 - epsilon) / len(favored)
        with np.errstate(divide="ignore"):
            vector = np.log(probs)
        vector.flags.writeable = False
        return vector

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
    A toy answer depends only on its favored token, or on "every non-EOS
    token", so the factory builds each distribution once, on first use, and
    its sessions share that read-only array; each session keeps its own
    conditioning and pass count. For prefixes of vocabulary ids the cache
    holds at most ``V + 1`` vectors of ``V`` floats, with ``V`` the
    vocabulary size (8 MB at ``V = 1001``), and lives as long as the factory.

    This is where a spec meets its vocabulary: a target outside it, and a
    vocabulary with no token besides EOS (the noise and the HALLUCINATE
    fallback spread over the other tokens), raise ``ValueError``.
    """
    if vocab.size < 2:
        raise ValueError("the toy's vocabulary needs a token besides EOS")
    for symbol, targets in spec.mapping.items():
        for token in targets:
            if not 0 <= token < vocab.size:
                raise ValueError(f"mapping for symbol {symbol} references token {token} "
                                 f"outside the vocabulary of size {vocab.size}")
    vectors: dict[int | None, np.ndarray] = {}

    def factory() -> ModelSession:
        return _ToySession(spec, vocab, mode, vectors)

    return factory


def json_ids(values, field: str) -> tuple[int, ...]:
    """The entries of a JSON id array as a tuple. Anything but an array raises
    ``TypeError`` instead of being iterated (a string or an object would be).
    The entries are not checked here: the value type the tuple goes to
    (``CorpusRecord`` or ``ToyTransducerSpec``) rejects any entry that is not
    an id, whoever builds it."""
    if type(values) is not list:
        raise TypeError(f"{field} must be a JSON array of integer ids, got {json.dumps(values)}")
    return tuple(values)


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
    "lookahead": k}``. The vocabulary is a JSON array of surface strings; the
    entry equal to ``"<eos>"`` designates the end-of-sequence token, and no
    entry may repeat. The mapping is a JSON object whose keys are canonical
    integer strings (``"7"``, not ``"07"``); targets and ``lookahead`` are
    JSON integers, ``epsilon`` is a JSON number, and ``mode`` is one of the
    lowercase mode names (default ``"repeat"``). The spec's own type rules
    check the targets and ``lookahead``, and :func:`make_toy_model` checks
    the targets against the vocabulary.
    """
    if not isinstance(doc, Mapping):
        raise ValueError("model spec must be a JSON object")
    try:
        surfaces, raw_mapping = doc["vocab"], doc["mapping"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"model spec missing required field: {exc}") from exc
    if type(surfaces) is not list or not all(type(s) is str for s in surfaces):
        raise ValueError("model vocab must be a JSON array of strings")
    if type(raw_mapping) is not dict:
        raise ValueError("model mapping must be a JSON object")
    eos_positions = [i for i, s in enumerate(surfaces) if s == EOS_SURFACE]
    if len(eos_positions) != 1:
        raise ValueError(f'model vocab must contain exactly one "{EOS_SURFACE}" entry')
    if len(set(surfaces)) != len(surfaces):
        raise ValueError("surface strings must be unique")
    vocab = Vocabulary(size=len(surfaces), eos_id=eos_positions[0])
    try:
        for sym in raw_mapping:
            # Only one spelling per symbol: "00", "+1" or " 1_0 " would alias "0" or "10".
            if str(int(sym)) != sym:
                raise ValueError(f"mapping key {sym!r} is not a canonical integer")
        mapping = {
            int(sym): json_ids(tgt, f"mapping for symbol {sym}") for sym, tgt in raw_mapping.items()
        }
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed model mapping: {exc}") from exc
    modes = [m.value for m in InsufficientContextMode]
    mode = doc.get("mode", "repeat")
    if mode not in modes:
        raise ValueError(f"mode must be one of {', '.join(modes)}, got {mode!r}")
    spec = ToyTransducerSpec(
        mapping=mapping,
        noise_epsilon=json_number(doc.get("epsilon", 0.0), "epsilon"),
        insufficient_context_mode=InsufficientContextMode(mode),
        lookahead=doc.get("lookahead", 0),
    )
    return spec, vocab


def load_model_file(path: str | Path) -> tuple[ToyTransducerSpec, Vocabulary]:
    """Load a toy-model JSON file, reporting schema problems by name."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: malformed JSON: {exc}") from exc
    try:
        return spec_from_json(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

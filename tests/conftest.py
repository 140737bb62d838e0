"""Shared fixtures: vocabularies, toy specs, scripted sessions, corpora, and
writers for the corpus and model file formats.

The scripted session scores prefixes from an explicit per-block probability
table, which lets tests construct search dynamics (like beams that stop at
different steps) that the position-aligned toy transducer cannot express.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from simulbeam import Block, ContextMode, CorpusRecord, ModelSession, PolicyKind, make_toy_model
from simulbeam.core import Vocabulary
from simulbeam.model import InsufficientContextMode, ToyTransducerSpec
from simulbeam.search import PolicyState

def dump_corpus(records, path) -> None:
    """Write records as corpus JSONL (round-trips with ``load_corpus``)."""
    lines = [
        json.dumps(
            {
                "id": r.id,
                "source": list(r.source),
                "reference": list(r.reference),
                "block_ms": r.block_ms,
            },
            sort_keys=True,
        )
        for r in records
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def spec_to_json(spec: ToyTransducerSpec, vocab: Vocabulary) -> dict:
    """Model-file JSON document for a toy model (see ``load_model_file``);
    the surface strings are ``tok<i>`` and ``<eos>``."""
    return {
        "vocab": ["<eos>" if i == vocab.eos_id else f"tok{i}" for i in range(vocab.size)],
        "mapping": {str(sym): list(tgt) for sym, tgt in sorted(spec.mapping.items())},
        "epsilon": spec.noise_epsilon,
        "mode": spec.insufficient_context_mode.value,
        "lookahead": spec.lookahead,
    }


# Token ids used by the scripted two-path model.
A, B, C, D, E = 0, 1, 2, 3, 4
TWO_PATH_EOS = 5


def make_vocab(content_tokens: int) -> Vocabulary:
    """Vocabulary with ``content_tokens`` ordinary ids and EOS last."""
    return Vocabulary(size=content_tokens + 1, eos_id=content_tokens)


class ScriptedSession(ModelSession):
    """Model whose distributions come from a hand-written table.

    ``script[level][prefix]`` maps a token id to its probability after
    ``level`` blocks have been ingested; unlisted tokens share the remaining
    mass uniformly, and unlisted prefixes are fully uniform.
    """

    def __init__(self, script: dict[int, dict[tuple, dict[int, float]]], vocab_size: int):
        self._script = script
        self._vocab_size = vocab_size
        self._blocks = 0
        self._final = False
        self._forward_passes = 0

    def ingest_block(self, block: Block) -> None:
        if self._final:
            raise RuntimeError("cannot ingest: session already received its final block")
        self._blocks += 1
        self._final = block.is_final

    def next_token_logprobs(self, prefix) -> np.ndarray:
        if self._blocks == 0:
            raise RuntimeError("cannot score: no block ingested yet")
        self._forward_passes += 1
        level = self._script.get(self._blocks, {})
        pinned = level.get(tuple(prefix), {})
        probs = np.zeros(self._vocab_size)
        for token, p in pinned.items():
            probs[token] = p
        free = [t for t in range(self._vocab_size) if t not in pinned]
        if free:
            probs[free] = (1.0 - sum(pinned.values())) / len(free)
        with np.errstate(divide="ignore"):
            logprobs = np.log(probs)
        logprobs.flags.writeable = False  # a write by the decoder fails loudly
        return logprobs

    def forward_pass_count(self) -> int:
        return self._forward_passes


class VectorSession(ModelSession):
    """Model whose log-probability vectors come straight from a function of
    ``(blocks ingested, prefix)``, so tests can set exact float values:
    ties, one-ulp neighbours, NaN or ``+inf``."""

    def __init__(self, logprobs):
        self._logprobs = logprobs
        self._blocks = 0
        self._forward_passes = 0

    def ingest_block(self, block: Block) -> None:
        self._blocks += 1

    def next_token_logprobs(self, prefix) -> np.ndarray:
        self._forward_passes += 1
        logprobs = np.array(self._logprobs(self._blocks, tuple(prefix)), dtype=float)
        logprobs.flags.writeable = False  # a write by the decoder fails loudly
        return logprobs

    def forward_pass_count(self) -> int:
        return self._forward_passes


class ScriptedData:
    """Stands in for ``st.data()`` in an ``@example``: each ``draw`` ignores
    its strategy and returns the next of ``values``, starting over after the
    last, so a test that draws them all up front replays the same values
    each time the example runs."""

    def __init__(self, *values):
        self._values = values
        self._next = itertools.cycle(values)

    def draw(self, strategy, label=None):
        return next(self._next)

    def __repr__(self) -> str:
        return f"ScriptedData{self._values!r}"


class RecordingSession(ModelSession):
    """Delegates to an inner session and records, in order, the name of
    every method called on it."""

    def __init__(self, inner: ModelSession):
        self._inner = inner
        self.calls: list[str] = []

    def ingest_block(self, block: Block) -> None:
        self.calls.append("ingest_block")
        self._inner.ingest_block(block)

    def next_token_logprobs(self, prefix) -> np.ndarray:
        self.calls.append("next_token_logprobs")
        return self._inner.next_token_logprobs(prefix)

    def forward_pass_count(self) -> int:
        self.calls.append("forward_pass_count")
        return self._inner.forward_pass_count()


def two_path_script() -> dict[int, dict[tuple, dict[int, float]]]:
    """Two competing decode paths over the reference ``[B, C, D, E]``.

    After one block the model strongly suggests ``A`` then ends prematurely
    (path one), while the correct path starts from the lower-scoring ``B``
    and stays confident until it wants to repeat ``D`` beyond its context.
    Once the final block arrives, the premature-end path still looks great
    per token, so any decode that was not already committed to ``B..`` falls
    into it.
    """
    return {
        1: {
            (): {A: 0.7, B: 0.25},
            (A,): {TWO_PATH_EOS: 0.95},
            (B,): {C: 0.95},
            (B, C): {D: 0.95},
            (B, C, D): {D: 0.9},
        },
        2: {
            (): {A: 0.7, B: 0.25},
            (A,): {TWO_PATH_EOS: 0.95},
            (B,): {C: 0.95},
            (B, C): {D: 0.95},
            (B, C, D): {E: 0.95},
            (B, C, D, E): {TWO_PATH_EOS: 0.95},
        },
    }


@pytest.fixture
def two_path_factory():
    script = two_path_script()

    def factory() -> ModelSession:
        return ScriptedSession(script, vocab_size=6)

    return factory


@pytest.fixture
def two_path_record() -> CorpusRecord:
    return CorpusRecord(id="trap", source=(0, 1), reference=(B, C, D, E), block_ms=500.0)


def ladder_spec(symbols: int = 8, tokens_per_symbol: int = 2) -> tuple[ToyTransducerSpec, Vocabulary]:
    """Deterministic noiseless spec: symbol s maps to its own token run."""
    mapping = {
        s: tuple(range(s * tokens_per_symbol, (s + 1) * tokens_per_symbol))
        for s in range(symbols)
    }
    vocab = make_vocab(symbols * tokens_per_symbol)
    return (
        ToyTransducerSpec(mapping=mapping, noise_epsilon=0.0,
                          insufficient_context_mode=InsufficientContextMode.REPEAT),
        vocab,
    )


def ladder_record(record_id: str, symbols: int, block_ms: float = 500.0,
                  tokens_per_symbol: int = 2) -> CorpusRecord:
    reference = tuple(
        t for s in range(symbols) for t in range(s * tokens_per_symbol, (s + 1) * tokens_per_symbol)
    )
    return CorpusRecord(id=record_id, source=tuple(range(symbols)), reference=reference,
                        block_ms=block_ms)


def random_toy(rng: random.Random, *, epsilon: float | None = None,
               mode: InsufficientContextMode | None = None):
    """Random toy spec, vocabulary, and utterance source for fuzzing runs."""
    content = rng.randint(4, 8)
    vocab = make_vocab(content)
    n_symbols = rng.randint(3, 6)
    mapping = {
        s: tuple(rng.randrange(content) for _ in range(rng.randint(1, 3)))
        for s in range(n_symbols)
    }
    spec = ToyTransducerSpec(
        mapping=mapping,
        noise_epsilon=rng.uniform(0.01, 0.3) if epsilon is None else epsilon,
        insufficient_context_mode=mode or rng.choice(list(InsufficientContextMode)),
        lookahead=rng.randint(0, 2),
    )
    source = tuple(rng.randrange(n_symbols) for _ in range(rng.randint(3, 10)))
    return spec, vocab, source


# Every commit policy, with the parameters that random toy runs use.
POLICIES = st.one_of(
    st.just(PolicyState()),
    st.integers(0, 2).map(lambda n: PolicyState(PolicyKind.HOLD, n)),
    st.integers(2, 3).map(lambda n: PolicyState(PolicyKind.LOCAL_AGREEMENT, n)),
)


def as_blocks(source, block_symbols: int, symbol_ms: float = 250.0) -> list[Block]:
    blocks = []
    for start in range(0, len(source), block_symbols):
        chunk = tuple(source[start : start + block_symbols])
        blocks.append(
            Block(payload=chunk, duration_ms=len(chunk) * symbol_ms,
                  is_final=start + block_symbols >= len(source))
        )
    return blocks


def reference_for(spec: ToyTransducerSpec, source) -> tuple[int, ...]:
    return tuple(t for s in source for t in spec.mapping[s])


@pytest.fixture
def repeat_toy():
    """Single-symbol REPEAT-mode toy: argmax goes t0, t1, then repeats t1."""
    vocab = make_vocab(2)
    spec = ToyTransducerSpec(
        mapping={7: (0, 1)},
        noise_epsilon=0.0,
        insufficient_context_mode=InsufficientContextMode.REPEAT,
    )
    return spec, vocab, make_toy_model(spec, vocab, ContextMode.BLOCKWISE)


def exhaustive_best(session, vocab: Vocabulary, max_total: int):
    """Brute-force oracle: score every EOS-terminated sequence of at most
    ``max_total`` tokens by direct model queries and return the winner.

    Ranking is max mean log-probability, ties to the longer sequence, then
    to the smaller token sequence. Zero-probability sequences are skipped.
    Written independently of the search module on purpose.
    """
    import itertools
    import math

    content = [t for t in range(vocab.size) if t != vocab.eos_id]
    best_tokens = None
    best_key = None
    for body_len in range(max_total):
        for body in itertools.product(content, repeat=body_len):
            tokens = body + (vocab.eos_id,)
            logprob_sum = 0.0
            feasible = True
            for position, token in enumerate(tokens):
                lp = float(session.next_token_logprobs(tokens[:position])[token])
                if lp == -math.inf:
                    feasible = False
                    break
                logprob_sum += lp
            if not feasible:
                continue
            key = (-logprob_sum / len(tokens), -len(tokens), tokens)
            if best_key is None or key < best_key:
                best_key = key
                best_tokens = tokens
    return best_tokens

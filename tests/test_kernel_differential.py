"""Differential test: the shared beam step against the per-strategy loops
it replaced (``reference_search``).

Both sides decode the same blocks from the same seeds on twin sessions, and
must agree exactly on every returned beam (tokens and log-probabilities),
on any error raised, and on the forward passes spent. Each model strategy also gives the
log-probabilities the seed beams draw from.
"""

from __future__ import annotations

import math
import random
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_search
from conftest import ScriptedSession, VectorSession, as_blocks, random_toy
from simulbeam import Block, ContextMode, Hypothesis, make_toy_model
from simulbeam.core import SearchConfig
from simulbeam.model import InsufficientContextMode
from simulbeam.search import bwbs_block, ibwbs_block, standard_beam_search

SMALL_LOGPROBS = st.sampled_from([-0.05, -0.7, -2.3])

STRATEGIES = {
    "bs": (standard_beam_search, reference_search.standard_beam_search),
    "bwbs": (bwbs_block, reference_search.bwbs_block),
    "ibwbs": (ibwbs_block, reference_search.ibwbs_block),
}


@st.composite
def toy_models(draw):
    """A random toy transducer in any insufficient-context mode, with its
    utterance cut into blocks."""
    mode = draw(st.sampled_from(list(InsufficientContextMode)))
    spec, vocab, source = random_toy(random.Random(draw(st.integers(0, 2**32 - 1))), mode=mode)
    factory = make_toy_model(spec, vocab, draw(st.sampled_from(list(ContextMode))))
    blocks = as_blocks(source, draw(st.integers(1, 4)))
    return factory, vocab.size, vocab.eos_id, blocks, SMALL_LOGPROBS


@st.composite
def scripted_models(draw):
    """A random probability table: peaked pins make repeats, premature EOS
    and exact ties; pins summing to one make zero-probability tokens."""
    vocab_size = draw(st.integers(2, 5))
    token = st.integers(0, vocab_size - 1)
    pins = st.dictionaries(token, st.sampled_from([0.0, 0.1, 0.45, 0.9]), max_size=2).filter(
        lambda d: sum(d.values()) <= 1.0
    )
    prefixes = st.lists(token, max_size=3).map(tuple)
    n_blocks = draw(st.integers(1, 3))
    script = {
        level: draw(st.dictionaries(prefixes, pins, max_size=8))
        for level in range(1, n_blocks + 1)
    }
    blocks = [
        Block(payload=(), duration_ms=100.0, is_final=level == n_blocks)
        for level in range(1, n_blocks + 1)
    ]
    factory = partial(ScriptedSession, script, vocab_size)
    return factory, vocab_size, vocab_size - 1, blocks, SMALL_LOGPROBS


@st.composite
def vector_models(draw):
    """Raw log-prob vectors over up to 40 tokens, drawn per prefix from a
    few values, their neighbours one ulp (of themselves or of a large seed
    score) away, and ``-inf``, so exact ties and scores that rounding
    merges against large seed log-probs are common."""
    vocab_size = draw(st.integers(2, 40))
    bases = draw(st.lists(st.sampled_from([-0.05, -0.5, -0.7, -2.3]), min_size=1, max_size=3))
    offsets = draw(st.lists(st.sampled_from([-2, -1, -0.5, 0.5, 1, 2]), min_size=1, max_size=3))
    palette = [-math.inf]
    for b in bases:
        palette += [b, math.nextafter(b, 0), math.nextafter(b, -math.inf)]
        palette += [b + k * math.ulp(big) for k in offsets for big in (1000.0, 1e6)]
    seed = draw(st.integers(0, 2**32 - 1))

    def logprobs(level, prefix):
        rng = random.Random(f"{seed}/{level}/{prefix}")
        return [rng.choice(palette) for _ in range(vocab_size)]

    n_blocks = draw(st.integers(1, 3))
    blocks = [
        Block(payload=(), duration_ms=100.0, is_final=level == n_blocks)
        for level in range(1, n_blocks + 1)
    ]
    seed_logprobs = st.sampled_from([-0.05, -1000.0, -1e6 - 0.3])
    return partial(VectorSession, logprobs), vocab_size, vocab_size - 1, blocks, seed_logprobs


def _outcome(fn, *args):
    try:
        return "returned", fn(*args)
    except ValueError as exc:
        return "raised", str(exc)


@settings(max_examples=300, deadline=None)
@given(
    model=st.one_of(toy_models(), scripted_models(), vector_models()),
    algo=st.sampled_from(sorted(STRATEGIES)),
    beam=st.integers(1, 6),
    detection=st.booleans(),
    data=st.data(),
)
def test_kernel_matches_reference(model, algo, beam, detection, data):
    factory, vocab_size, eos_id, blocks, logprob = model
    cfg = SearchConfig(beam_size=beam, repetition_detection=detection)
    token = st.integers(0, vocab_size - 1)
    committed = tuple(data.draw(st.lists(token, max_size=3), label="committed"))
    extra = data.draw(st.integers(0, 2), label="extra")
    seeds = []
    for _ in range(data.draw(st.integers(1, 3), label="seeds")):
        tokens = committed + tuple(data.draw(st.lists(token, min_size=extra, max_size=extra)))
        logprobs = tuple(data.draw(st.lists(logprob, min_size=len(tokens), max_size=len(tokens))))
        seeds.append(Hypothesis(tokens, logprobs))
    max_total = len(seeds[0]) + data.draw(st.integers(0, 6), label="headroom")

    new_fn, ref_fn = STRATEGIES[algo]
    new_session, ref_session = factory(), factory()
    beams = tuple(seeds)
    for block in blocks:
        new_session.ingest_block(block)
        ref_session.ingest_block(block)
        if algo == "bs":
            new = _outcome(new_fn, new_session, committed, cfg, eos_id, max_total)
            ref = _outcome(ref_fn, ref_session, committed, cfg, eos_id, max_total)
        else:
            args = (beams, len(committed))
            new = _outcome(new_fn, *args, new_session, cfg, eos_id, max_total, block.is_final)
            ref = _outcome(ref_fn, *args, ref_session, cfg, eos_id, max_total, block.is_final)
        assert new == ref
        assert new_session.forward_pass_count() == ref_session.forward_pass_count()
        if new[0] == "raised":
            break
        if isinstance(new[1], tuple):
            beams = new[1]

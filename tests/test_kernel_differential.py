"""Differential tests: the shared beam step against the per-strategy loops
it replaced (``reference_search``).

Both sides decode the same blocks from the same distinct seeds on twin
sessions, and must agree exactly on every returned beam (tokens and
log-probabilities), on any error raised, and on the forward passes spent. On
the final block the complete-source search (``search._final_block``) must return the best of the
reference op's ``final=True`` beams. Each model strategy also gives the
log-probabilities the seed beams draw from. A second test checks one beam
step alone: ``search._expand`` against the reference's expand-then-prune.
"""

from __future__ import annotations

import math
import random
from functools import partial

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_search
from conftest import ScriptedData, ScriptedSession, VectorSession, as_blocks, random_toy
from simulbeam import Block, ContextMode, Hypothesis, make_toy_model, search
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
# Repeated seeds, the second of them scored higher, are rejected by both sides
# before any forward pass, on a mid-source block and on a lone final block.
# The draws are the committed prefix, the extra tokens per seed, each seed's
# extra tokens, each seed's log-probs, and headroom.
@example(
    model=(partial(VectorSession, lambda level, prefix: [-0.5, -1.2, -2.3, -0.9] if len(prefix) % 2
                   else [-0.9, -2.3, -1.2, -0.5]),
           4, 3, [Block((), 100.0), Block((), 100.0, True)], SMALL_LOGPROBS),
    algo="ibwbs", beam=3, detection=True,
    data=ScriptedData([0], 1, [(1,), (1,), (2,)], [-0.05, -0.7], [-0.05, -0.05], [-0.05, -0.7], 3),
)
@example(
    model=(partial(VectorSession, lambda level, prefix: [-0.5, -1.2, -2.3, -0.9] if len(prefix) % 2
                   else [-0.9, -2.3, -1.2, -0.5]),
           4, 3, [Block((), 100.0, True)], SMALL_LOGPROBS),
    algo="bwbs", beam=3, detection=True,
    data=ScriptedData([0], 1, [(1,), (1,), (2,)], [-0.05, -0.7], [-0.05, -0.05], [-0.05, -0.7], 3),
)
# Two seeds that differ in their last token stop at once and trim to one
# token sequence scored two ways, tied in normalized score and length: the
# selection takes the lower log-probs in tuple order, in any pool order.
@example(
    model=(partial(VectorSession, lambda level, prefix: [-3.0, -3.0, -0.1]),
           3, 2, [Block((), 100.0), Block((), 100.0, True)], SMALL_LOGPROBS),
    algo="ibwbs", beam=2, detection=True,
    data=ScriptedData([0, 0, 0], 1, [(0,), (1,)], [-0.05, -0.05, -2.3, -0.7],
                      [-0.05, -2.3, -0.05, -0.05], 6),
)
def test_kernel_matches_reference(model, algo, beam, detection, data):
    factory, vocab_size, eos_id, blocks, logprob = model
    cfg = SearchConfig(beam_size=beam, repetition_detection=detection)
    token = st.integers(0, vocab_size - 1)
    committed = tuple(data.draw(st.lists(token, max_size=3), label="committed"))
    extra = data.draw(st.integers(0, 2), label="extra")
    suffix = st.lists(token, min_size=extra, max_size=extra).map(tuple)
    seeds = []
    for tail in data.draw(st.lists(suffix, min_size=1, max_size=3, unique=True), label="seeds"):
        tokens = committed + tail
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
        elif block.is_final:
            new = _outcome(search._final_block, beams, new_session, cfg, eos_id, max_total)
            ref = _outcome(
                lambda *args: reference_search.select_best(ref_fn(*args, final=True)),
                beams, len(committed), ref_session, cfg, eos_id, max_total,
            )
        else:
            args = (beams, len(committed))
            new = _outcome(new_fn, *args, new_session, cfg, eos_id, max_total)
            ref = _outcome(ref_fn, *args, ref_session, cfg, eos_id, max_total)
        assert new == ref
        assert new_session.forward_pass_count() == ref_session.forward_pass_count()
        if new[0] == "raised":
            break
        if isinstance(new[1], tuple):
            beams = new[1]


@st.composite
def beam_steps(draw):
    """One beam step: distinct parents of one length (up to three tokens, as a
    block's beams share one), scored from small log-probs, ``-1000``,
    magnitudes near ``1e6`` and ``-inf``, and one row per parent drawn from
    a few values, their neighbours one ulp (of themselves or of ``1e6``)
    away, and ``-inf``, so exact ties within and across rows and scores
    that rounding merges are common."""
    vocab_size = draw(st.integers(1, 30))
    palette = [-math.inf]
    for b in draw(st.lists(st.sampled_from([-0.05, -0.5, -0.7, -2.3]), min_size=1, max_size=3)):
        palette += [b, math.nextafter(b, 0), math.nextafter(b, -math.inf)]
        palette += [b + k * math.ulp(1e6) for k in (-1, -0.5, 0.5, 1)]
    parent_logprob = st.sampled_from([-0.05, -0.7, -1000.0, -1e6, -1e6 - 0.3, -math.inf])
    length = draw(st.integers(0, 3))
    prefix = st.lists(st.integers(0, 3), min_size=length, max_size=length).map(tuple)
    prefixes = draw(st.lists(prefix, min_size=1, max_size=6, unique=True))
    parents = [
        Hypothesis(p, tuple(draw(st.lists(parent_logprob, min_size=len(p), max_size=len(p)))))
        for p in prefixes
    ]
    row = st.lists(st.sampled_from(palette), min_size=vocab_size, max_size=vocab_size)
    rows = {p: draw(row) for p in prefixes}
    return parents, rows, draw(st.integers(1, 6))


def wide_step(parent_scores, width=6):
    """One beam step of the ``wide-vocab`` shape: a parent per score, each
    row 1001 tokens wide with one favoured token at ``log(0.95)`` and the
    other 1000 tied at ``log(0.05 / 1000)``, about 9.9 nats below it."""
    parents = [Hypothesis((i,), (score,)) for i, score in enumerate(parent_scores)]
    rows = {}
    for i, parent in enumerate(parents):
        row = [math.log(0.05 / 1000)] * 1001
        row[(i + 1) * 167 % 1001] = math.log(0.95)
        rows[parent.tokens] = row
    return parents, rows, width


@settings(max_examples=500, deadline=None)
@given(step=beam_steps())
# Distinct parent scores closer than the favoured-to-noise gap: the cut's
# threshold is the sixth favoured token.
@example(step=wide_step([-0.05, -0.3, -0.7, -1.1, -2.3, -3.0]))
# Scores spread wider than the gap: the threshold falls inside the first
# row's group of 1000 tied tokens, so the tie cap and the id order decide.
@example(step=wide_step([-0.05, -12.0, -25.0, -40.0, -55.0, -70.0]))
# A parent scored -inf beside a finite one: fewer than ``width`` finite
# approximate scores, so K is -inf, nothing is cut, and two of the -inf
# parent's children place by token order.
@example(step=(
    [Hypothesis((0,), (-0.05,)), Hypothesis((1,), (-math.inf,))],
    {(0,): [-0.5, -math.inf, -0.7, -math.inf], (1,): [-0.1, -0.2, -0.3, -math.inf]},
    4,
))
# Rows mixing -1e300 with small log-probs and K small: the -1e300 children lie
# far beyond 2A. The first parent's stored score rounds its sum, so its child's
# approximate score is one ulp under K while the exact scores tie, and the
# child wins the tie by its tokens.
@example(step=(
    [Hypothesis((0, 0), (-0.41, -2.54)), Hypothesis((0, 1), (-2.6399999999999997, -0.0))],
    {(0, 0): [-0.1, -1e300, -math.inf], (0, 1): [-math.inf, -1e300, -0.41]},
    1,
))
# The same near -1e300, where K is too: the parent (0, 0) sums to 0.6 ulp
# below -1e300 and stores a full ulp below, so its child's approximate score
# is two ulps under -1e300 and its exact score one, tying K's and winning the
# tie by its tokens. The margin must scale with the 1e300 magnitudes.
@example(step=(
    [Hypothesis((0, 0), (-1e300, -0.6 * math.ulp(1e300))), Hypothesis((0, 1), (-1e300, -0.5))],
    {(0, 0): [-0.55 * math.ulp(1e300), -1e300, -0.5], (0, 1): [-math.ulp(1e300), -0.5, -1e300]},
    2,
))
# At the binade edge 2, where the ulp doubles: each parent's exact sum lies
# halfway between two floats and is stored rounded away from zero, so the child
# of (0, 1, 1) has an approximate score two ulps of K below K = -(2 + 2**-51),
# while both children score -(2 + 2**-50) exactly. It wins that tie by its
# tokens, so a margin of one ulp of K would lose it.
@example(step=(
    [Hypothesis((0, 1, 1), (-(2 - 2**-50), -3 * 2**-52, -2**-50)),
     Hypothesis((2, 2, 2), (-(2 - 2**-51), -0.0, -3 * 2**-52))],
    {(0, 1, 1): [-math.inf, -1.5 * 2**-52], (2, 2, 2): [-2**-51, -math.inf]},
    1,
))
# A positive log-prob, which no probability has, is rejected after the step's
# last query. Accepted, it would cancel that parent's -1e300: its child's
# approximate score -1 ulp(1e300) would hide an exact score of -0.6 ulp, above
# the other child's -0.8 ulp, and the margin would need the parent scores.
@example(step=(
    [Hypothesis((0, 0), (-1e300, -0.6 * math.ulp(1e300))),
     Hypothesis((0, 1), (-0.8 * math.ulp(1e300), -0.0))],
    {(0, 0): [1e300, -math.inf], (0, 1): [-0.0, -math.inf]},
    1,
))
def test_step_matches_reference(step):
    parents, rows, width = step
    new = _outcome(search._expand, parents, VectorSession(lambda level, prefix: rows[prefix]),
                   width)
    positive = [parent.tokens for parent in parents if max(rows[parent.tokens]) > 0]
    if positive:
        message = "model returned a NaN or positive log-probability after prefix"
        assert new == ("raised", f"{message} {positive[0]}")
        return
    ref_pool = reference_search._expand(parents, VectorSession(lambda level, prefix: rows[prefix]))
    assert new == ("returned", reference_search._prune(ref_pool, width))

"""Causality property: a decision taken after block k reads blocks 1..k only.

Two streams share every block before the shorter one's final block; the
longer one goes on with more source. Every block decision up to the end of
the shared blocks (the best hypothesis shown and the tokens committed) must
be identical in both, or it depended on source that had not yet arrived. The
per-block length cap is the part this pins: it grows with the source read
so far, not with the whole utterance.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import POLICIES, as_blocks, random_toy
from simulbeam import Algorithm, ContextMode, make_toy_model
from simulbeam.core import SearchConfig
from simulbeam.search import PolicyState, decode_session


@settings(max_examples=150, deadline=None)
# A cap that also counted the next block's duration would change the fourth
# decision of this run, whatever the draws.
@example(seed=2, extension=1, context=ContextMode.BLOCKWISE, block_symbols=2, algo=Algorithm.BS,
         retranslation=False, policy=PolicyState(), beam=1, detection=False)
@given(
    seed=st.integers(0, 2**32 - 1),
    extension=st.integers(1, 12),
    context=st.sampled_from(list(ContextMode)),
    block_symbols=st.integers(1, 3),
    algo=st.sampled_from(list(Algorithm)),
    retranslation=st.booleans(),
    policy=POLICIES,
    beam=st.integers(1, 4),
    detection=st.booleans(),
)
def test_decisions_before_the_final_block_ignore_later_source(
    seed, extension, context, block_symbols, algo, retranslation, policy, beam, detection
):
    if retranslation:
        policy = PolicyState()  # a policy with re-translation is rejected
    rng = random.Random(seed)
    spec, vocab, source = random_toy(rng)
    longer = source + tuple(rng.randrange(len(spec.mapping)) for _ in range(extension))
    factory = make_toy_model(spec, vocab, context)
    short_blocks = as_blocks(source, block_symbols)
    shared_ms = sum(block.duration_ms for block in short_blocks[:-1])

    def decisions_in_shared_blocks(blocks):
        transcript = decode_session(
            factory,
            blocks,
            vocab.eos_id,
            algo=algo,
            policy=policy,
            retranslation=retranslation,
            cfg=SearchConfig(beam_size=beam, repetition_detection=detection),
        )
        return [d for d in transcript.decisions if d.source_ms <= shared_ms]

    assert decisions_in_shared_blocks(short_blocks) == decisions_in_shared_blocks(
        as_blocks(longer, block_symbols)
    )

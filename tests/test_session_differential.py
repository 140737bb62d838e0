"""Differential test: ``decode_session`` against the session loop it replaced
(``reference_search.decode_session``), which keeps the committed prefix in
a local of its own and drives the reference block ops.

Both sides decode the same random toy utterance, and must agree exactly on
the transcript (commits with their timestamps, final output, forward
passes), on the re-translation snapshots and on any error raised.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_search
from conftest import as_blocks, random_toy
from simulbeam import Algorithm, ContextMode, PolicyKind, make_toy_model
from simulbeam.core import SearchConfig
from simulbeam.search import PolicyState, decode_session

POLICIES = st.one_of(
    st.just(PolicyState()),
    st.integers(0, 2).map(lambda n: PolicyState(PolicyKind.HOLD, n)),
    st.integers(2, 3).map(lambda n: PolicyState(PolicyKind.LOCAL_AGREEMENT, n)),
)


def _outcome(decode, *args, **kwargs):
    snapshots: list = []
    try:
        transcript = decode(*args, snapshots=snapshots, **kwargs)
    except ValueError as exc:
        return "raised", str(exc)
    return "returned", transcript, snapshots


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    context=st.sampled_from(list(ContextMode)),
    block_symbols=st.integers(1, 3),
    algo=st.sampled_from(list(Algorithm)),
    retranslation=st.booleans(),
    policy=POLICIES,
    beam=st.integers(1, 4),
    detection=st.booleans(),
)
def test_session_matches_reference(
    seed, context, block_symbols, algo, retranslation, policy, beam, detection
):
    if retranslation:
        policy = PolicyState()  # a policy with re-translation is rejected
    spec, vocab, source = random_toy(random.Random(seed))
    factory = make_toy_model(spec, vocab, context)
    args = (factory, as_blocks(source, block_symbols), vocab.eos_id)
    kwargs = dict(
        algo=algo,
        policy=policy,
        retranslation=retranslation,
        cfg=SearchConfig(beam_size=beam, repetition_detection=detection),
    )
    new = _outcome(decode_session, *args, **kwargs)
    assert new == _outcome(reference_search.decode_session, *args, **kwargs)

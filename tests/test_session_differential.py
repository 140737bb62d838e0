"""Differential test: ``decode_session`` against the session loop it replaced
(``reference_search.decode_session``), which keeps the committed prefix in
a local of its own and drives the reference block ops.

Both sides decode the same random toy utterance, and must agree exactly on
the transcript (commits with their timestamps, final output, forward
passes), on the re-translation snapshots and on any error raised. The
reference hands its snapshots out through a ``snapshots`` list; the new
side records one decision per block on the transcript, whose best is the
snapshot.
"""

from __future__ import annotations

import random
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_search
from conftest import POLICIES, as_blocks, random_toy
from simulbeam import Algorithm, ContextMode, make_toy_model
from simulbeam.core import CommitEvent, SearchConfig
from simulbeam.search import PolicyState, decode_session


def _outcome(decode, *args, **kwargs):
    snapshots: list = []
    if decode is reference_search.decode_session:
        kwargs["snapshots"] = snapshots
    try:
        transcript = decode(*args, **kwargs)
    except ValueError as exc:
        return "raised", str(exc)
    if decode is decode_session:
        decisions = transcript.decisions
        # One decision per block, stamped with the source time read so far.
        assert [d.source_ms for d in decisions] == list(
            accumulate(block.duration_ms for block in args[1])
        )
        assert decisions[-1].best == transcript.final_output
        assert transcript.commits == tuple(
            CommitEvent(d.committed, d.source_ms) for d in decisions if d.committed
        )
        if kwargs["retranslation"]:
            snapshots = [(d.source_ms, d.best) for d in decisions]
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

"""Metamorphic end-to-end property: the toy models give identical
distributions in both context modes, so with repetition detection pinned
(on, then off) a blockwise and a full-context model must give byte-identical
CSV reports for every strategy and commit policy."""

from __future__ import annotations

import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_toy, reference_for
from simulbeam import (
    Algorithm,
    ContextMode,
    CorpusRecord,
    PolicyKind,
    RunConfig,
    make_toy_model,
    run_corpus,
)
from simulbeam.model import InsufficientContextMode
from simulbeam.harness import report_to_csv

POLICIES = [(PolicyKind.NONE, 0), (PolicyKind.HOLD, 1), (PolicyKind.LOCAL_AGREEMENT, 2)]


@st.composite
def toy_corpora(draw):
    """A random toy spec and a corpus of one to three utterances over it."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    spec, vocab, _ = random_toy(
        rng,
        epsilon=draw(st.sampled_from([0.0, 0.05])),
        mode=draw(st.sampled_from(list(InsufficientContextMode))),
    )
    spec = replace(spec, lookahead=draw(st.integers(0, 2)))
    corpus = []
    for index in range(draw(st.integers(1, 3))):
        source = tuple(rng.randrange(len(spec.mapping)) for _ in range(rng.randint(2, 6)))
        corpus.append(CorpusRecord(f"u{index}", source, reference_for(spec, source), 250.0))
    return spec, vocab, corpus


@settings(max_examples=15, deadline=None)
@given(
    toy=toy_corpora(),
    beam=st.integers(1, 4),
    block_symbols=st.integers(1, 2),
)
def test_context_mode_does_not_change_reports(toy, beam, block_symbols):
    spec, vocab, corpus = toy
    factories = {context: make_toy_model(spec, vocab, context) for context in ContextMode}
    for detection in (True, False):
        for algo in Algorithm:
            for policy, param in POLICIES:
                reports = set()
                for context, factory in factories.items():
                    cfg = RunConfig(
                        algo=algo,
                        policy=policy,
                        policy_param=param,
                        beam_size=beam,
                        block_symbols=block_symbols,
                        context=context,
                        repetition_detection=detection,
                    )
                    reports.add(report_to_csv(run_corpus(corpus, factory, cfg, vocab.eos_id), cfg))
                assert len(reports) == 1

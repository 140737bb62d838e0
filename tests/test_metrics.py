"""Latency, quality, and compute metric tests."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from simulbeam import Algorithm, Block, EvalReport, Hypothesis, make_toy_model
from simulbeam.core import BlockDecision, SearchConfig, SessionTranscript
from simulbeam.metrics import (
    LatencyInput,
    UtteranceReport,
    average_lagging,
    bleu_score,
    bleu_statistics,
    laal,
    token_delays,
)
from simulbeam.search import bwbs_block, decode_session

import reference_metrics
from conftest import ScriptedSession, ladder_spec


def corpus_bleu(hypotheses, references):
    """Corpus BLEU as the harness scores it: the summed pair statistics."""
    pairs = map(bleu_statistics, hypotheses, references)
    return bleu_score([sum(column) for column in zip(*pairs)])


class TestAverageLagging:
    def test_uniform_emission_hand_computation(self):
        inp = LatencyInput((1000.0, 2000.0, 3000.0, 4000.0), 4000.0, 4)
        assert average_lagging(inp) == pytest.approx(1000.0, abs=1e-9)

    def test_offline_degenerates_to_duration(self):
        inp = LatencyInput((4000.0,) * 5, 4000.0, 5)
        assert average_lagging(inp) == pytest.approx(4000.0, abs=1e-9)

    def test_first_delay_at_duration_sets_tau_one(self):
        inp = LatencyInput((4000.0, 4000.0), 4000.0, 4)
        assert average_lagging(inp) == pytest.approx(4000.0, abs=1e-9)

    def test_tau_falls_back_to_output_length(self):
        # No delay reaches the duration: the sum runs over every token.
        inp = LatencyInput((1000.0, 2000.0), 4000.0, 4)
        assert average_lagging(inp) == pytest.approx((1000.0 + 1000.0) / 2, abs=1e-9)

    def test_empty_delays_give_the_source_duration(self):
        inp = LatencyInput((), 1000.0, 3)
        assert average_lagging(inp) == laal(inp) == 1000.0


class TestLaal:
    def test_equals_al_when_output_not_longer(self):
        inp = LatencyInput((1000.0, 2500.0, 4000.0), 4000.0, 4)
        assert laal(inp) == pytest.approx(average_lagging(inp), abs=1e-12)

    def test_over_generation_hand_computation(self):
        inp = LatencyInput((1000.0, 2000.0, 3000.0, 4000.0, 4000.0, 4000.0), 4000.0, 4)
        assert laal(inp) == pytest.approx(1500.0, abs=1e-9)

    def test_never_below_al(self):
        rng = random.Random(7)
        for _ in range(300):
            duration = rng.uniform(500.0, 5000.0)
            n = rng.randint(1, 12)
            delays = sorted(rng.uniform(0.0, duration) for _ in range(n))
            if rng.random() < 0.5:
                delays[-1] = duration
            inp = LatencyInput(tuple(delays), duration, rng.randint(1, 10))
            assert laal(inp) >= average_lagging(inp) - 1e-9

    def test_scale_invariance(self):
        base = LatencyInput((500.0, 1500.0, 3000.0), 3000.0, 3)
        scaled = LatencyInput((1000.0, 3000.0, 6000.0), 6000.0, 3)
        assert average_lagging(scaled) == pytest.approx(2 * average_lagging(base), rel=1e-12)
        assert laal(scaled) == pytest.approx(2 * laal(base), rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            LatencyInput((2000.0, 1000.0), 3000.0, 2)
        with pytest.raises(ValueError, match="exceed"):
            LatencyInput((4000.0,), 3000.0, 2)


    def test_duration_and_reference_length_must_be_positive(self):
        with pytest.raises(ValueError, match="^source_duration_ms must be positive and finite$"):
            LatencyInput((), 0.0, 2)
        with pytest.raises(ValueError, match="^ref_len must be positive$"):
            LatencyInput((), 3000.0, 0)

    @pytest.mark.parametrize(
        "delays, duration, message",
        [
            ((10.0, math.nan, 20.0), 100.0, "non-decreasing"),
            ((math.nan,), 100.0, "non-decreasing"),
            ((10.0,), math.nan, "positive and finite"),
            ((10.0,), math.inf, "positive and finite"),
            ((), math.inf, "positive and finite"),
        ],
    )
    def test_nan_and_infinite_inputs_are_rejected(self, delays, duration, message):
        with pytest.raises(ValueError, match=message):
            LatencyInput(delays, duration, 3)


class TestCorpusBleu:
    def test_perfect_match_is_100(self):
        pairs = [((1, 2, 3, 4), (1, 2, 3, 4)), ((4, 5), (4, 5))]
        assert corpus_bleu([h for h, _ in pairs], [r for _, r in pairs]) == pytest.approx(100.0)

    def test_corpus_without_fourgrams_scores_zero(self):
        # BLEU-4 is undefined without any 4-gram; we pin the score to zero.
        assert corpus_bleu([(1, 2)], [(1, 2)]) == 0.0

    def test_missing_fourgram_zeroes_unsmoothed_score(self):
        assert corpus_bleu([(1, 2, 3, 4)], [(1, 2, 3, 5)]) == 0.0

    def test_empty_hypothesis_scores_zero(self):
        assert corpus_bleu([()], [(1, 2)]) == 0.0

    def test_brevity_penalty(self):
        # Hypothesis matches a prefix of the reference: precisions are all
        # one, so the score is exactly the brevity penalty.
        got = corpus_bleu([(1, 2, 3, 4)], [(1, 2, 3, 4, 5, 6)])
        assert got == pytest.approx(100.0 * math.exp(1 - 6 / 4), rel=1e-12)

    def test_corpus_counts_pool_across_pairs(self):
        hyps = [(1, 2, 3, 4), (1, 2, 3, 4)]
        refs = [(1, 2, 3, 4), (9, 9, 9, 9)]
        single = corpus_bleu([hyps[0]], [refs[0]])
        pooled = corpus_bleu(hyps, refs)
        assert 0.0 < pooled < single

    def test_order_permutation_invariance(self):
        rng = random.Random(3)
        pairs = [
            (
                tuple(rng.randrange(5) for _ in range(rng.randint(1, 8))),
                tuple(rng.randrange(5) for _ in range(rng.randint(1, 8))),
            )
            for _ in range(6)
        ]
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        assert corpus_bleu(
            [h for h, _ in pairs], [r for _, r in pairs]
        ) == pytest.approx(
            corpus_bleu([h for h, _ in shuffled], [r for _, r in shuffled]), rel=1e-12
        )

    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 4), min_size=0, max_size=8),
                st.lists(st.integers(0, 4), min_size=4, max_size=8),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_range_and_identity(self, pairs):
        # References of length >= 4 keep every n-gram order populated, the
        # domain on which BLEU(x, x) = 100 holds.
        hyps = [tuple(h) for h, _ in pairs]
        refs = [tuple(r) for _, r in pairs]
        score = corpus_bleu(hyps, refs)
        assert 0.0 <= score <= 100.0
        assert corpus_bleu(refs, refs) == pytest.approx(100.0)


# A three-token alphabet makes repeated n-grams, and so clipping, common.
TOKENS = st.lists(st.integers(0, 2), max_size=12).map(tuple)
# A long pair with repeated n-grams of every order: a period-5 pattern,
# against the same pattern shifted, with two edits.
LONG_HYP = tuple(i * i % 5 for i in range(120))
LONG_REF = LONG_HYP[3:60] + (2, 2) + LONG_HYP[60:] + (0,)


class TestBleuStatistics:
    def test_layout_matches_then_totals_then_lengths(self):
        # (1, 1, 1) against (1, 1): three unigrams clipped to two, two
        # bigrams clipped to one, one trigram with no match, no 4-gram.
        assert bleu_statistics((1, 1, 1), (1, 1)) == (2, 1, 0, 0, 3, 2, 1, 0, 3, 2)

    @example(hyp=(), ref=(1, 2))
    @example(hyp=(1, 2, 1), ref=(1, 2, 1, 2))
    @example(hyp=(0, 0, 0, 0, 0, 0), ref=(0, 0, 0, 0))
    @example(hyp=(1, 2, 1, 2, 1, 2), ref=(1, 2, 1, 2, 1, 2))
    @example(hyp=(2,), ref=(2, 2, 1))  # fewer n-grams than orders
    @example(hyp=(1, 2), ref=(1, 2, 1, 2))
    @example(hyp=(0, 1, 0), ref=(0, 1, 0, 1, 0))
    @example(hyp=(1, 1, 2, 1, 1, 2, 1, 1), ref=(1, 1, 2, 1, 1))  # repeated n-grams
    @example(hyp=LONG_HYP, ref=LONG_REF)
    @given(hyp=TOKENS, ref=TOKENS)
    def test_pair_matches_counter_reference_bit_for_bit(self, hyp, ref):
        stats = bleu_statistics(hyp, ref)
        assert stats == reference_metrics.bleu_statistics(hyp, ref)
        assert bleu_score(stats) == reference_metrics.corpus_bleu([hyp], [ref])

    @given(st.lists(st.tuples(TOKENS, TOKENS), min_size=1, max_size=6))
    def test_summed_statistics_match_counter_reference_bit_for_bit(self, pairs):
        hyps = [h for h, _ in pairs]
        refs = [r for _, r in pairs]
        assert corpus_bleu(hyps, refs) == reference_metrics.corpus_bleu(hyps, refs)


class TestForwardPassAccounting:
    def test_greedy_chain_costs_length_plus_terminal_query(self):
        spec, vocab = ladder_spec(symbols=2)
        factory = make_toy_model(spec, vocab)
        blocks = [Block(payload=(0, 1), duration_ms=500.0, is_final=True)]
        transcript = decode_session(
            factory, blocks, eos_id=vocab.eos_id, algo=Algorithm.IBWBS,
            cfg=SearchConfig(beam_size=1),
        )
        out_len = len(transcript.final_output)
        assert transcript.forward_passes == out_len + 1

    def test_full_width_steps_cost_width_times_steps(self):
        session = ScriptedSession({}, vocab_size=6)
        session.ingest_block(Block(payload=(0,), duration_ms=100.0, is_final=False))
        seeds = tuple(Hypothesis((t,), (-1.0,)) for t in range(3))
        cfg = SearchConfig(beam_size=3, repetition_detection=False)
        bwbs_block(seeds, 0, session, cfg, eos_id=5, max_total=5)
        # Three beams advance from length one to the cap of five: 4 steps.
        assert session.forward_pass_count() == 3 * 4

    def test_transcript_carries_session_count(self):
        transcript = SessionTranscript((BlockDecision(100.0, (), ()),), forward_passes=17)
        assert transcript.forward_passes == 17


class TestTokenDelays:
    def test_every_token_inherits_its_block_timestamp(self):
        transcript = SessionTranscript(
            decisions=(
                BlockDecision(400.0, (1, 2, 4), (1, 2)),
                BlockDecision(600.0, (1, 2, 4), ()),
                BlockDecision(900.0, (1, 2, 3), (3,)),
            ),
            forward_passes=0,
        )
        assert token_delays(transcript) == (400.0, 400.0, 900.0)


class TestEvalReport:
    def test_rejects_inconsistent_aggregates(self):
        row = UtteranceReport("u", 50.0, 100.0, 120.0, 3, 4, 4)
        with pytest.raises(ValueError):
            EvalReport(bleu=101.0, al_ms=1.0, laal_ms=1.0, forward_passes=0, utterances=(row,))
        with pytest.raises(ValueError):
            EvalReport(bleu=50.0, al_ms=2.0, laal_ms=1.0, forward_passes=0, utterances=(row,))

"""Core type and helper-operation tests."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from simulbeam import Hypothesis
from simulbeam.core import (
    BlockDecision,
    SearchConfig,
    SessionTranscript,
    StopReason,
    Vocabulary,
    detect_stop,
    longest_common_prefix,
    max_output_tokens,
    normalized_score,
)

EOS = 9


class TestLongestCommonPrefix:
    def test_diverging_tail(self):
        assert longest_common_prefix((1, 2, 3), (1, 2, 4)) == (1, 2)

    def test_identity(self):
        assert longest_common_prefix((1, 2), (1, 2)) == (1, 2)

    def test_empty(self):
        assert longest_common_prefix((), (1,)) == ()

    @given(st.lists(st.integers(0, 5)), st.lists(st.integers(0, 5)))
    def test_commutative_and_bounded(self, a, b):
        p = longest_common_prefix(a, b)
        assert p == longest_common_prefix(b, a)
        assert len(p) <= min(len(a), len(b))
        assert tuple(a[: len(p)]) == p and tuple(b[: len(p)]) == p

    @given(st.lists(st.integers(0, 5)))
    def test_idempotent(self, a):
        assert longest_common_prefix(a, a) == tuple(a)


class TestNormalizedScore:
    @pytest.mark.parametrize(
        "logprobs,expected",
        [((-0.5, -1.5), -1.0), ((-2.0,), -2.0), ((-1.0, -1.0, -1.0, -1.0), -1.0)],
    )
    def test_mean_logprob(self, logprobs, expected):
        hyp = Hypothesis(tokens=tuple(range(len(logprobs))), token_logprobs=logprobs)
        assert normalized_score(hyp) == pytest.approx(expected, abs=1e-12)

    def test_empty_is_zero(self):
        assert normalized_score(Hypothesis()) == 0.0

    @given(st.lists(st.floats(min_value=-20.0, max_value=0.0), min_size=1, max_size=12))
    def test_invariant_under_appending_the_mean(self, logprobs):
        hyp = Hypothesis(tuple(range(len(logprobs))), tuple(logprobs))
        mean = normalized_score(hyp)
        extended = hyp.extended(99, mean)
        assert normalized_score(extended) == pytest.approx(mean, abs=1e-9)


class TestDetectStop:
    def test_unigram_repeat(self):
        hyp = Hypothesis((1, 2, 2), (-0.1, -0.1, -0.1))
        assert detect_stop(hyp, SearchConfig(), EOS) is StopReason.REPEAT

    def test_eos(self):
        hyp = Hypothesis((1, EOS), (-0.1, -0.1))
        assert detect_stop(hyp, SearchConfig(), EOS) is StopReason.EOS

    def test_no_trigger(self):
        hyp = Hypothesis((1, 2, 3), (-0.1, -0.1, -0.1))
        assert detect_stop(hyp, SearchConfig(), EOS) is StopReason.NONE

    def test_eos_takes_precedence_over_repeat(self):
        hyp = Hypothesis((EOS, EOS), (-0.1, -0.1))
        assert detect_stop(hyp, SearchConfig(), EOS) is StopReason.EOS

    def test_detection_can_be_disabled(self):
        cfg = SearchConfig(repetition_detection=False)
        hyp = Hypothesis((2, 2), (-0.1, -0.1))
        assert detect_stop(hyp, cfg, EOS) is StopReason.NONE

    def test_empty_hypothesis_rejected(self):
        with pytest.raises(ValueError):
            detect_stop(Hypothesis(), SearchConfig(), EOS)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=10))
    def test_unigram_rule_exactly(self, tokens):
        hyp = Hypothesis(tuple(tokens), (-0.5,) * len(tokens))
        got = detect_stop(hyp, SearchConfig(), EOS)
        if tokens[-1] == EOS:
            assert got is StopReason.EOS
        elif len(tokens) >= 2 and tokens[-1] == tokens[-2]:
            assert got is StopReason.REPEAT
        else:
            assert got is StopReason.NONE


class TestMaxOutputTokens:
    def test_formula(self):
        assert max_output_tokens(3000.0) == 50
        assert max_output_tokens(3100.0) == 51

    def test_defaults_match_documentation(self):
        assert max_output_tokens(1000.0) == 30


class TestValidation:
    def test_vocabulary_bounds(self):
        with pytest.raises(ValueError):
            Vocabulary(size=3, eos_id=3)
        with pytest.raises(ValueError):
            Vocabulary(size=0, eos_id=0)

    def test_hypothesis_length_mismatch(self):
        with pytest.raises(ValueError):
            Hypothesis((1, 2), (-0.1,))

    def test_hypothesis_score_is_sum(self):
        hyp = Hypothesis((1, 2), (-0.25, -0.75))
        assert hyp.score == pytest.approx(-1.0)
        assert math.isfinite(hyp.score)

    def test_derived_hypotheses_sum_their_own_score(self):
        hyp = Hypothesis((1, 2, 3), (-0.5, -0.25, -1.0))
        assert hyp.score == -1.75  # summed and kept
        assert hyp.sliced(2).score == -0.75
        assert hyp.extended(4, -0.25).score == -2.0
        assert dataclasses.replace(hyp, token_logprobs=(-1.0, -1.0, -1.0)).score == -3.0

    def test_kept_score_is_not_part_of_the_value(self):
        hyp = Hypothesis((1, 2), (-0.25, -0.75))
        fresh = Hypothesis((1, 2), (-0.25, -0.75))
        assert hyp.score == -1.0
        assert hyp == fresh and hash(hyp) == hash(fresh) and repr(hyp) == repr(fresh)
        assert [f.name for f in dataclasses.fields(Hypothesis)] == ["tokens", "token_logprobs"]
        assert isinstance(vars(Hypothesis)["score"], property)

    def test_transcript_needs_a_decision(self):
        with pytest.raises(ValueError, match="at least one block decision"):
            SessionTranscript((), 0)

    def test_transcript_commit_concatenation(self):
        decisions = (BlockDecision(100.0, (1, 4), (1,)), BlockDecision(200.0, (1, 2, 3), (2, 3)))
        transcript = SessionTranscript(decisions, 5)
        assert transcript.final_output == (1, 2, 3)
        assert transcript.source_duration_ms == 200.0
        with pytest.raises(ValueError, match="concatenate"):
            SessionTranscript(decisions[:1] + (BlockDecision(200.0, (1, 2), (2, 3)),), 5)
        # Re-translation commits nothing: the output is the last snapshot.
        snapshots = (BlockDecision(100.0, (4,), ()), BlockDecision(200.0, (1, 2), ()))
        assert SessionTranscript(snapshots, 3).final_output == (1, 2)

    def test_transcript_timestamps_monotone(self):
        backwards = (BlockDecision(200.0, (1,), (1,)), BlockDecision(100.0, (1, 2), (2,)))
        with pytest.raises(ValueError, match="non-decreasing"):
            SessionTranscript(backwards, 0)
        same = (BlockDecision(100.0, (1,), (1,)), BlockDecision(100.0, (1, 2), (2,)))
        assert SessionTranscript(same, 0).source_duration_ms == 100.0

    def test_transcript_source_time_positive(self):
        for source_ms in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="positive"):
                SessionTranscript((BlockDecision(source_ms, (), ()),), 0)

    def test_search_config_bounds(self):
        with pytest.raises(ValueError):
            SearchConfig(beam_size=0)

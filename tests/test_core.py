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
    _exact_terms,
    detect_stop,
    longest_common_prefix,
    max_output_tokens,
    normalized_score,
)

EOS = 9

# The differential tests' palettes: one-ulp neighbours of 1e300 and 1e6,
# subnormals, the binade edge at 2 and small log-probs, whose sums rounding
# loses, and -inf.
_EDGES = [-1e300, -1e6, -2.0, -0.05, -0.7]
TERM_PALETTE = sorted(
    {math.nextafter(x, to) for x in _EDGES for to in (0.0, -math.inf)} | set(_EDGES)
    | {-5e-324, -2.5e-323, -2.2250738585072014e-308, -2**-51, -3 * 2**-52}
)


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

    def test_a_partial_token_rounds_up(self):
        # 30.5 tokens' worth of source allows 31, and 1 ms allows one.
        assert max_output_tokens(3050.0) == 51
        assert max_output_tokens(1.0) == 21


class TestValidation:
    def test_vocabulary_bounds(self):
        with pytest.raises(ValueError):
            Vocabulary(size=3, eos_id=3)
        with pytest.raises(ValueError):
            Vocabulary(size=0, eos_id=0)

    @pytest.mark.parametrize(
        "size, eos_id, named",
        [(2.5, 0, "size"), ("3", 0, "size"), (3, True, "eos_id"), (3, 1.0, "eos_id")],
    )
    def test_vocabulary_fields_are_ints(self, size, eos_id, named):
        # Neither is truncated or read as an int: each fails here, by name,
        # not at the model's first query.
        with pytest.raises(ValueError, match=rf"^{named} must be an integer, got "):
            Vocabulary(size=size, eos_id=eos_id)

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

    @pytest.mark.parametrize(
        "copy, built",
        [
            (lambda h: h.extended(4, -0.5), Hypothesis((1, 2, 3, 4), (-0.5, -0.25, -1.0, -0.5))),
            (lambda h: h.sliced(2), Hypothesis((1, 2), (-0.5, -0.25))),
            (lambda h: h.sliced(0), Hypothesis()),
            (lambda h: Hypothesis().extended(7, -0.125), Hypothesis((7,), (-0.125,))),
        ],
        ids=["extended", "sliced", "sliced-to-empty", "extended-from-empty"],
    )
    def test_copies_equal_the_constructed_value(self, copy, built):
        # Copies skip the constructor; they must still be the same value.
        hyp = Hypothesis((1, 2, 3), (-0.5, -0.25, -1.0))
        assert hyp.score == -1.75  # stored on the parent; no copy may carry it over
        made = copy(hyp)
        assert type(made) is Hypothesis
        assert made == built and hash(made) == hash(built) and repr(made) == repr(built)
        assert dataclasses.replace(made) == built
        assert vars(made) == vars(built)  # the two fields and no stored score
        assert made.score == built.score

    def test_sliced_copy_sums_its_own_score(self):
        hyp = Hypothesis((1, 2, 3), (-0.5, -0.25, -1.0))
        object.__setattr__(hyp, "_score", -100.0)  # a stored score no copy may reuse
        assert hyp.sliced(3).score == -1.75
        assert hyp.sliced(1).score == -0.5

    @given(
        logprobs=st.lists(st.sampled_from(TERM_PALETTE + [-math.inf]), max_size=150),
        rest=st.lists(st.sampled_from(TERM_PALETTE).map(abs) | st.sampled_from(TERM_PALETTE),
                      max_size=4),
    )
    def test_terms_sum_exactly_to_the_logprobs(self, logprobs, rest):
        hyp = Hypothesis(tuple(range(len(logprobs))), tuple(logprobs))
        terms = _exact_terms(hyp)
        assert terms[0] == hyp.score and len(terms) <= 40
        assert _exact_terms(hyp) is terms  # filled once
        # Any floats added to both sides round alike; so does the score's
        # negation, which leaves only what the score rounded away.
        extras = [tuple(rest)]
        if hyp.score > -math.inf:
            extras.append(tuple(rest) + (-hyp.score,))
        else:
            assert terms == (-math.inf,)
        for extra in extras:
            assert math.fsum(terms + extra) == math.fsum(hyp.token_logprobs + extra)

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

    def test_transcript_pass_count_non_negative(self):
        with pytest.raises(ValueError, match="^forward_passes must be non-negative$"):
            SessionTranscript((BlockDecision(1.0, (), ()),), -1)

    @pytest.mark.parametrize("value", [0, 1, "off", None])
    def test_search_config_repetition_detection_must_be_a_bool(self, value):
        # A truthy "off" would otherwise turn detection on.
        with pytest.raises(ValueError, match=f"repetition_detection must be a bool, got {value!r}$"):
            SearchConfig(repetition_detection=value)

    def test_search_config_bounds(self):
        with pytest.raises(ValueError):
            SearchConfig(beam_size=0)

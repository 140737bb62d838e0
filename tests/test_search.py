"""Decoding strategies, commit policies, and full-session behavior."""

from __future__ import annotations

import dataclasses
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_search

from simulbeam import (
    Algorithm,
    Block,
    ContextMode,
    Hypothesis,
    PolicyKind,
    make_toy_model,
    search,
)
from simulbeam.core import BlockDecision, SearchConfig, _exact_terms, normalized_score
from simulbeam.metrics import token_delays
from simulbeam.model import InsufficientContextMode, ToyTransducerSpec
from simulbeam.search import (
    PolicyState,
    apply_policy,
    bwbs_block,
    decode_session,
    ibwbs_block,
    select_best,
    standard_beam_search,
)

from conftest import (
    A,
    B,
    C,
    D,
    E,
    TWO_PATH_EOS,
    RecordingSession,
    ScriptedSession,
    VectorSession,
    as_blocks,
    exhaustive_best,
    ladder_spec,
    make_vocab,
    random_toy,
    reference_for,
    two_path_script,
)
from test_kernel_differential import beam_steps, scripted_models, toy_models, vector_models


def hyp(*tokens: int, lp: float = -0.1) -> Hypothesis:
    return Hypothesis(tuple(tokens), (lp,) * len(tokens))


class TestApplyPolicy:
    def test_hold_withholds_last_n(self):
        state, new = apply_policy(PolicyState(PolicyKind.HOLD, 2), hyp(1, 2, 3, 4))
        assert new == (1, 2)
        assert state.committed == (1, 2)

    def test_hold_larger_than_output_commits_nothing(self):
        state, new = apply_policy(PolicyState(PolicyKind.HOLD, 5), hyp(1, 2, 3))
        assert new == ()
        assert state.committed == ()

    def test_hold_zero_commits_everything(self):
        _, new = apply_policy(PolicyState(PolicyKind.HOLD, 0), hyp(1, 2, 3))
        assert new == (1, 2, 3)

    def test_local_agreement_commits_common_prefix(self):
        state = PolicyState(PolicyKind.LOCAL_AGREEMENT, n=2, history=((1, 2, 3),), committed=(1,))
        state, new = apply_policy(state, hyp(1, 2, 4))
        assert new == (2,)
        assert state.committed == (1, 2)
        assert state.history == ((1, 2, 4),)

    def test_local_agreement_waits_for_enough_contexts(self):
        state = PolicyState(PolicyKind.LOCAL_AGREEMENT, 2)
        state, new = apply_policy(state, hyp(1, 2))
        assert new == ()
        assert state.history == ((1, 2),)

    def test_local_agreement_three_contexts(self):
        state = PolicyState(PolicyKind.LOCAL_AGREEMENT, 3)
        state, _ = apply_policy(state, hyp(1, 2, 3))
        state, _ = apply_policy(state, hyp(1, 2, 4))
        state, new = apply_policy(state, hyp(1, 2, 5))
        assert new == (1, 2)

    def test_local_agreement_compares_every_context_in_the_window(self):
        # The middle output disagrees earliest, so it decides the commit.
        state = PolicyState(PolicyKind.LOCAL_AGREEMENT, 3)
        state, _ = apply_policy(state, hyp(1, 2, 3))
        state, _ = apply_policy(state, hyp(1, 9))
        state, new = apply_policy(state, hyp(1, 2, 5))
        assert new == (1,)

    def test_none_commits_everything_new(self):
        state, new = apply_policy(PolicyState(), hyp(1, 2))
        assert new == (1, 2)
        state, new = apply_policy(state, hyp(1, 2, 3))
        assert new == (3,)

    def test_commitment_never_retracts(self):
        state = PolicyState(PolicyKind.HOLD, n=0, committed=(1, 2))
        state, new = apply_policy(state, hyp(1, 2))
        assert new == ()
        assert state.committed == (1, 2)

    def test_rejects_non_extending_hypothesis(self):
        state = PolicyState(PolicyKind.NONE, committed=(9,))
        with pytest.raises(ValueError, match="extend"):
            apply_policy(state, hyp(1, 2))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PolicyState(PolicyKind.HOLD, -1)
        with pytest.raises(ValueError):
            PolicyState(PolicyKind.LOCAL_AGREEMENT, 0)
        with pytest.raises(ValueError):
            PolicyState(PolicyKind.LOCAL_AGREEMENT, 1)

    @pytest.mark.parametrize("kind", ["hold", "la", None])
    def test_kind_must_be_a_policy_kind(self, kind):
        # A string is not read as local agreement with the given n.
        with pytest.raises(ValueError, match="kind must be a member of PolicyKind"):
            PolicyState(kind, 2)


class TestPolicySuccessor:
    """``apply_policy`` builds its successor without the constructor; the
    result is still a complete ``PolicyState``, the one a constructor call
    with the same fields gives."""

    # Per policy: the outputs fed in, then the history and committed prefix
    # after each.
    RUNS = {
        "none": (PolicyState(), [((1, 2), (), (1, 2)), ((1, 2, 3), (), (1, 2, 3))]),
        "hold-1": (PolicyState(PolicyKind.HOLD, 1),
                   [((1, 2), (), (1,)), ((1, 2, 3), (), (1, 2))]),
        "la-2": (PolicyState(PolicyKind.LOCAL_AGREEMENT, 2),
                 [((1, 2, 3), ((1, 2, 3),), ()), ((1, 2, 4), ((1, 2, 4),), (1, 2)),
                  ((1, 2, 4, 5), ((1, 2, 4, 5),), (1, 2, 4))]),
    }

    @pytest.mark.parametrize("policy", sorted(RUNS))
    def test_successor_is_a_constructed_state(self, policy):
        state, steps = self.RUNS[policy]
        for tokens, history, committed in steps:
            # Each step's input is the state the step before returned.
            state, _ = apply_policy(state, hyp(*tokens))
            expected = PolicyState(state.kind, state.n, history, committed)
            assert type(state) is PolicyState
            assert vars(state) == vars(expected)
            assert state == expected and hash(state) == hash(expected)
            assert repr(state) == repr(expected)
            assert dataclasses.replace(state) == expected

    def test_replace_still_checks(self):
        state, _ = apply_policy(PolicyState(PolicyKind.HOLD, 1), hyp(1, 2))
        with pytest.raises(ValueError, match="hold-n requires n >= 0"):
            dataclasses.replace(state, n=-1)


class TestSelectBest:
    def test_normalized_ranking(self):
        short = Hypothesis((1,), (-2.0,))
        long = Hypothesis((2, 3), (-1.0, -1.0))
        assert select_best([short, long]) == long

    def test_longer_wins_ties(self):
        one = Hypothesis((1,), (-1.0,))
        two = Hypothesis((2, 3), (-1.0, -1.0))
        assert select_best([one, two]) == two

    def test_lexicographic_final_tiebreak(self):
        x = Hypothesis((2, 1), (-1.0, -1.0))
        y = Hypothesis((1, 2), (-1.0, -1.0))
        assert select_best([x, y]) == y

    def test_log_prob_order_breaks_full_ties(self):
        # One token sequence scored two ways, tied in normalized score and
        # length: the lower log-probs in tuple order win, in either pool order.
        x = Hypothesis((0, 0, 0), (-0.05, -0.05, -2.3))
        y = Hypothesis((0, 0, 0), (-0.05, -2.3, -0.05))
        assert normalized_score(x) == normalized_score(y)
        assert select_best([x, y]) is y
        assert select_best([y, x]) is y

    def test_empty_never_beats_nonempty(self):
        empty = Hypothesis()
        real = Hypothesis((1, 2), (-5.0, -5.0))
        assert select_best([empty, real]) == real

    def test_empty_selectable_when_alone(self):
        empty = Hypothesis()
        assert select_best([empty]) == empty

    def test_empty_candidate_set_rejected(self):
        with pytest.raises(ValueError, match="^cannot select from an empty candidate set$"):
            select_best([])

    @pytest.mark.parametrize("tokens", [(), (1, 2)])
    def test_lone_candidate_returned_unranked(self, tokens, monkeypatch):
        lone = Hypothesis(tokens, (-0.5,) * len(tokens))

        def unranked(hyp):
            raise AssertionError("a lone candidate was ranked")

        monkeypatch.setattr(search, "_selection_rank", unranked)
        assert select_best((lone,)) is lone


def _script_seed(committed=()) -> tuple[tuple[Hypothesis, ...], int]:
    """One seed beam holding the committed prefix, and the prefix's length."""
    seed = Hypothesis(tuple(committed), (-0.05,) * len(committed))
    return (seed,), len(committed)


def _two_path_session(n_blocks: int = 1) -> ScriptedSession:
    session = ScriptedSession(two_path_script(), vocab_size=6)
    session.ingest_block(Block(payload=(0,), duration_ms=500.0, is_final=False))
    if n_blocks == 2:
        session.ingest_block(Block(payload=(1,), duration_ms=500.0, is_final=True))
    return session


class TestBwbsBlock:
    def test_repeat_trigger_truncates_every_beam(self, repeat_toy):
        _, vocab, factory = repeat_toy
        session = factory()
        session.ingest_block(Block(payload=(7,), duration_ms=100.0, is_final=False))
        out = bwbs_block(*_script_seed(), session, SearchConfig(), vocab.eos_id, max_total=10)
        top = select_best(out)
        assert top.tokens == (0,)
        assert all(len(h.tokens) == 1 for h in out)

    def test_final_block_runs_to_eos_without_truncation(self, repeat_toy):
        _, vocab, factory = repeat_toy
        session = factory()
        session.ingest_block(Block(payload=(7,), duration_ms=100.0, is_final=True))
        cfg = SearchConfig(beam_size=1)
        beams, _ = _script_seed()
        best = search._final_block(beams, session, cfg, vocab.eos_id, max_total=10)
        assert best.tokens == (0, 1, vocab.eos_id)

    def test_zero_length_budget_leaves_state_unchanged(self, repeat_toy):
        _, vocab, factory = repeat_toy
        session = factory()
        session.ingest_block(Block(payload=(7,), duration_ms=100.0, is_final=False))
        beams, floor = _script_seed()
        out = bwbs_block(beams, floor, session, SearchConfig(), vocab.eos_id, max_total=0)
        assert out == beams
        assert session.forward_pass_count() == 0

    def test_any_beam_trigger_halts_the_whole_block(self):
        # The junk EOS path stops the search two steps in; the good path
        # loses its progress beyond the committed floor.
        session = _two_path_session()
        cfg = SearchConfig(beam_size=2)
        out = bwbs_block(*_script_seed(), session, cfg, TWO_PATH_EOS, max_total=20)
        assert all(h.tokens == () for h in out)

    def test_early_trigger_truncates_to_committed_floor(self):
        script = {1: {(5,): {0: 0.9}, (5, 0): {TWO_PATH_EOS: 0.9}}}
        session = ScriptedSession(script, vocab_size=6)
        session.ingest_block(Block(payload=(0,), duration_ms=100.0, is_final=False))
        cfg = SearchConfig(beam_size=1)
        out = bwbs_block(*_script_seed(committed=(5,)), session, cfg, TWO_PATH_EOS, max_total=20)
        assert out[0].tokens == (5,)

    # The beams come back ranked by ``(-score, tokens)``, as the reference's
    # do, though the loop keeps them in token order. Here the two seeds' only
    # children are (1, 2, token) at -1.2 and (2, 3, 4) at -0.7: the second
    # ranks first.
    SEEDS = (Hypothesis((1, 2), (-0.1, -0.1)), Hypothesis((2, 3), (-0.1, -0.1)))

    @classmethod
    def _ranked_block(cls, token):
        def logprobs(level, prefix):
            row = [-math.inf] * 6
            if prefix == (1, 2):
                row[token] = -1.0
            else:
                row[4] = -0.5
            return row

        cfg = SearchConfig(beam_size=2)
        out = bwbs_block(cls.SEEDS, 0, VectorSession(logprobs), cfg, 5, 3)
        assert out == reference_search.bwbs_block(cls.SEEDS, 0, VectorSession(logprobs), cfg, 5, 3)
        return [h.tokens for h in out]

    def test_halt_returns_the_trimmed_beams_ranked(self):
        # (1, 2, 2) repeats its last token, so the first step halts the block.
        assert self._ranked_block(2) == [(2,), (1,)]

    def test_cap_returns_the_beams_ranked(self):
        # Nothing stops, and the cap of 3 tokens ends the block after one step.
        assert self._ranked_block(0) == [(2, 3, 4), (1, 2, 0)]

    @pytest.mark.parametrize("max_total, passes", [(2, 0), (4, 2)],
                             ids=["no-headroom", "no-finite"])
    def test_no_step_returns_the_beams_as_given(self, max_total, passes):
        # The beams are given out of rank order and out of token order; no
        # step runs, or none builds a beam.
        beams = (Hypothesis((2, 3), (-0.5, -0.5)), Hypothesis((1, 2), (-0.1, -0.1)))
        session = VectorSession(lambda level, prefix: [-math.inf] * 6)
        cfg = SearchConfig(beam_size=2)
        out = bwbs_block(beams, 0, session, cfg, 5, max_total)
        assert out == beams
        assert out == reference_search.bwbs_block(beams, 0, session, cfg, 5, max_total)
        assert session.forward_pass_count() == 2 * passes  # ours, then the reference's


class TestIbwbsBlock:
    def test_two_path_fixture_keeps_the_long_beam(self):
        session = _two_path_session()
        cfg = SearchConfig(beam_size=2)
        out = ibwbs_block(*_script_seed(), session, cfg, TWO_PATH_EOS, max_total=20)
        assert len(out) == 1
        assert out[0].tokens == (B, C)

    def test_beats_bwbs_on_the_two_path_fixture(self):
        cfg = SearchConfig(beam_size=2)
        conservative = bwbs_block(
            *_script_seed(), _two_path_session(), cfg, TWO_PATH_EOS, max_total=20
        )
        relaxed = ibwbs_block(
            *_script_seed(), _two_path_session(), cfg, TWO_PATH_EOS, max_total=20
        )
        top_conservative = select_best(conservative)
        assert len(relaxed[0].tokens) >= len(top_conservative.tokens)
        assert len(relaxed[0].tokens) - len(top_conservative.tokens) == 2

    def test_width_shrinks_without_refill(self):
        # Steps query 1, 2, 1, 1 beams; a refill would query 2 at step 3.
        session = _two_path_session()
        cfg = SearchConfig(beam_size=2)
        ibwbs_block(*_script_seed(), session, cfg, TWO_PATH_EOS, max_total=20)
        assert session.forward_pass_count() == 5

    def test_triggered_beam_loses_exactly_two_tokens(self, repeat_toy):
        _, vocab, factory = repeat_toy
        session = factory()
        session.ingest_block(Block(payload=(7,), duration_ms=100.0, is_final=False))
        out = ibwbs_block(*_script_seed(), session, SearchConfig(), vocab.eos_id, max_total=10)
        # Trigger fires at [t0, t1, t1]; the only stopped beam keeps it minus two.
        assert out[0].tokens == (0,)

    def test_simultaneous_stops_reduce_to_raw_score(self):
        script = {
            1: {
                (): {0: 0.5, 1: 0.3},
                (0,): {TWO_PATH_EOS: 0.9},
                (1,): {TWO_PATH_EOS: 0.9},
            }
        }
        session = ScriptedSession(script, vocab_size=6)
        session.ingest_block(Block(payload=(0,), duration_ms=100.0, is_final=False))
        cfg = SearchConfig(beam_size=2)
        out = ibwbs_block(*_script_seed(), session, cfg, TWO_PATH_EOS, max_total=20)
        assert out[0].tokens == ()  # both trimmed by two from length two

    def test_length_cap_survivors_selected_as_is(self):
        spec, vocab = ladder_spec(symbols=4)
        factory = make_toy_model(spec, vocab)
        session = factory()
        session.ingest_block(Block(payload=(0, 1), duration_ms=500.0, is_final=False))
        out = ibwbs_block(*_script_seed(), session, SearchConfig(), vocab.eos_id, max_total=3)
        # No trigger fires within three tokens of reference; the survivor
        # joins the pool unmodified and is selected untrimmed.
        assert out[0].tokens == (0, 1, 2)

    def test_single_active_hypothesis_after_block(self):
        rng = random.Random(5)
        for _ in range(10):
            spec, vocab, source = random_toy(rng)
            session = make_toy_model(spec, vocab)()
            session.ingest_block(Block(payload=tuple(source), duration_ms=400.0, is_final=False))
            out = ibwbs_block(*_script_seed(), session, SearchConfig(beam_size=3),
                              vocab.eos_id, max_total=12)
            assert len(out) == 1

    def test_every_hypothesis_extends_the_committed_prefix(self):
        rng = random.Random(6)
        for _ in range(10):
            spec, vocab, source = random_toy(rng)
            session = make_toy_model(spec, vocab)()
            session.ingest_block(Block(payload=tuple(source), duration_ms=400.0, is_final=False))
            committed = tuple(spec.mapping[source[0]])[:1]
            out = ibwbs_block(*_script_seed(committed), session, SearchConfig(beam_size=3),
                              vocab.eos_id, max_total=10)
            for hypothesis in out:
                assert hypothesis.tokens[: len(committed)] == committed


class TestStandardBeamSearch:
    def test_deterministic_toy_decodes_reference(self):
        spec, vocab = ladder_spec(symbols=3)
        session = make_toy_model(spec, vocab)()
        session.ingest_block(Block(payload=(0, 1, 2), duration_ms=500.0, is_final=True))
        best = standard_beam_search(session, (), SearchConfig(), vocab.eos_id, max_total=20)
        assert best.tokens == reference_for(spec, (0, 1, 2)) + (vocab.eos_id,)

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(21)
        vocab = make_vocab(2)  # vocabulary of three ids including EOS
        for _ in range(5):
            toy = ToyTransducerSpec(
                mapping={0: tuple(rng.randrange(2) for _ in range(rng.randint(1, 3)))},
                noise_epsilon=rng.uniform(0.05, 0.4),
            )
            factory = make_toy_model(toy, vocab)
            oracle_session = factory()
            search_session = factory()
            block = Block(payload=(0,), duration_ms=300.0, is_final=rng.random() < 0.5)
            oracle_session.ingest_block(block)
            search_session.ingest_block(block)
            expected = exhaustive_best(oracle_session, vocab, max_total=4)
            got = standard_beam_search(
                search_session, (), SearchConfig(beam_size=81), vocab.eos_id, max_total=4
            )
            assert got.tokens == expected

    def test_zero_budget_returns_empty(self, repeat_toy):
        _, vocab, factory = repeat_toy
        session = factory()
        session.ingest_block(Block(payload=(7,), duration_ms=100.0, is_final=True))
        best = standard_beam_search(session, (), SearchConfig(), vocab.eos_id, max_total=0)
        assert best.tokens == ()

    def test_forced_prefix_is_requeried(self, repeat_toy):
        _, vocab, factory = repeat_toy
        session = factory()
        session.ingest_block(Block(payload=(7,), duration_ms=100.0, is_final=True))
        before = session.forward_pass_count()
        best = standard_beam_search(session, (0,), SearchConfig(beam_size=1),
                                    vocab.eos_id, max_total=10)
        # One query for the forced position plus one per extension step.
        assert session.forward_pass_count() - before == 1 + 2
        assert best.tokens == (0, 1, vocab.eos_id)


def _wide_toy(mode=InsufficientContextMode.REPEAT):
    """V=1001 toy with noise: besides its favoured token(s), the other ids
    all tie at ``epsilon / rest``."""
    vocab = make_vocab(1000)
    spec = ToyTransducerSpec(
        mapping={s: (2 * s, 2 * s + 1) for s in range(500)},
        noise_epsilon=0.05,
        insufficient_context_mode=mode,
    )
    return spec, vocab


def _noisy_toy():
    """V=21 toy with noise: every token is finite on every pass."""
    vocab = make_vocab(20)
    spec = ToyTransducerSpec(
        mapping={s: (2 * s % 20, (7 * s + 3) % 20) for s in range(10)},
        noise_epsilon=0.05,
    )
    return spec, vocab


class TestBeamStep:
    @pytest.mark.parametrize(
        "block_ops",
        [(bwbs_block, reference_search.bwbs_block), (ibwbs_block, reference_search.ibwbs_block)],
    )
    def test_rounding_collapse_breaks_tie_on_token_order(self, block_ops):
        # Against a -1000 seed, -0.5 and the next float up round to one
        # score, so token 1 beats token 3 on token order even though
        # token 3 has the higher log-prob.
        close = math.nextafter(-0.5, 0)
        assert math.fsum((-1000.0, -0.5)) == math.fsum((-1000.0, close))
        vector = [-math.inf, -0.5, -math.inf, close, -math.inf]
        seed = Hypothesis((2,), (-1000.0,))
        results = []
        for fn in block_ops:
            session = VectorSession(lambda level, prefix: vector)
            session.ingest_block(Block(payload=(), duration_ms=100.0, is_final=False))
            results.append(fn((seed,), 0, session, SearchConfig(beam_size=1),
                              eos_id=4, max_total=2))
        new, reference = results
        assert new[0].tokens == (2, 1)
        assert new == reference

    @pytest.mark.parametrize(
        "block_ops",
        [(bwbs_block, reference_search.bwbs_block), (ibwbs_block, reference_search.ibwbs_block)],
    )
    @pytest.mark.parametrize("case", ["rounding", "tie"])
    def test_cross_beam_ranking_is_exact(self, block_ops, case):
        if case == "rounding":
            # The first parent's score rounds -1 - 2**-53 up to -1, so
            # ``parent.score + lp`` ranks its child first, but the exact
            # scores tie and token order ranks the second parent's child first.
            seeds = (Hypothesis((3, 1), (-1.0, -(2.0**-53))), Hypothesis((3, 0), (-1.0, 0.0)))
            step = {(3, 1): -(2.0**-53), (3, 0): -1.5 * 2.0**-53}
            assert seeds[0].score + step[(3, 1)] > seeds[1].score + step[(3, 0)]
        else:
            # Parents with one score: their children tie exactly, and the
            # lower tokens win although their beam comes second.
            seeds = (Hypothesis((3, 1), (-0.5, -0.25)), Hypothesis((3, 0), (-0.25, -0.5)))
            step = {(3, 1): -0.1, (3, 0): -0.1}
        exact = [math.fsum(h.token_logprobs + (step[h.tokens],)) for h in seeds]
        assert exact[0] == exact[1]

        def logprobs(level, prefix):
            return [-math.inf, -math.inf, step[prefix], -math.inf, -math.inf]

        results = []
        for fn in block_ops:
            session = VectorSession(logprobs)
            session.ingest_block(Block(payload=(), duration_ms=100.0, is_final=False))
            results.append(fn(seeds, 0, session, SearchConfig(beam_size=1),
                              eos_id=4, max_total=3))
        new, reference = results
        assert [h.tokens for h in new] == [(3, 0, 2)]
        assert new == reference

    def test_prefix_scored_minus_inf_is_ranked_by_token_order(self):
        # The final block rules out the committed token 0, so the re-scored
        # prefix and every extension of it score -inf: no cut across beams
        # applies, and the ranking falls to token order.
        def logprobs(level, prefix):
            if level == 1:
                return [-0.1, -3.0, -3.0, -3.0] if prefix == () else [-3.0, -3.0, -3.0, -0.1]
            if prefix == ():
                return [-math.inf, -0.1, -3.0, -3.0]
            return [-2.0, -0.5, -1.0, -3.0]

        blocks = [Block(payload=(), duration_ms=100.0, is_final=False),
                  Block(payload=(), duration_ms=100.0, is_final=True)]
        new, reference = (
            fn(lambda: VectorSession(logprobs), blocks, eos_id=3, algo=Algorithm.BS,
               cfg=SearchConfig(beam_size=2))
            for fn in (decode_session, reference_search.decode_session)
        )
        assert new.decisions[0].committed == (0,)
        assert new == reference

    def test_exact_ties_keep_lowest_ids(self):
        spec, vocab = _wide_toy()
        results = []
        for fn in (bwbs_block, reference_search.bwbs_block):
            session = make_toy_model(spec, vocab)()
            session.ingest_block(Block(payload=(250,), duration_ms=100.0, is_final=False))
            results.append(fn((Hypothesis(),), 0, session,
                              SearchConfig(beam_size=3), eos_id=vocab.eos_id, max_total=1))
        new, reference = results
        # Token 500 is favoured; the other 1000 ids tie on the noise mass.
        assert [h.tokens for h in new] == [(500,), (0,), (1,)]
        assert new == reference

    @pytest.mark.parametrize("size", [21, 1001])
    @pytest.mark.parametrize("case", ["one-row", "two-rows"])
    def test_tied_rows_on_both_sides_of_the_prefilter(self, case, size, monkeypatch):
        # Rows of 21 tokens, as the V = 21 toy gives, leave fewer survivors
        # than ``_PREFILTER``, and the ranking loop caps each tie group; rows
        # of 1,001 leave more, and NumPy caps them first. Either way exactly
        # the ``width`` lowest ids of each ``(row, lp)`` group the cut leaves
        # reach the ranking, each with one ``divmod``.
        if case == "one-row":
            # One favoured token per row, the rest tied about 3 to 10 nats
            # below it, and parent scores spread wider than that: the cut
            # falls inside the first row's tie group, and that row's
            # favoured token and its whole group survive.
            noise = math.log(0.05 / (size - 1))
            parents = [Hypothesis((i,), (score,))
                       for i, score in enumerate([-0.05, -12.0, -25.0, -40.0, -55.0, -70.0])]
            rows = {p.tokens: [noise] * size for p in parents}
            for i, parent in enumerate(parents):
                rows[parent.tokens][(i + 1) * 7 % size] = math.log(0.95)
            survivors, ranked, placed = size, 1 + 6, [(0, 7), (0, 0), (0, 1), (0, 2), (0, 3),
                                                      (0, 4)]
        else:
            # Two rows tied at one log-prob, under parents one ulp apart: the
            # second row's children score one ulp higher, both groups survive
            # the cut, and only a cap that keeps the rows apart lets the
            # second row's lowest ids place.
            parents = [Hypothesis((0,), (-1.5,)), Hypothesis((1,), (math.nextafter(-1.5, 0),))]
            rows = {p.tokens: [-0.25] * size for p in parents}
            assert math.fsum((parents[0].score, -0.25)) < math.fsum((parents[1].score, -0.25))
            survivors, ranked, placed = 2 * size, 2 * 6, [(1, token) for token in range(6)]
        assert (survivors > search._PREFILTER) is (size == 1001)
        calls = []

        def counted_divmod(index, divisor):
            calls.append(index)
            return divmod(index, divisor)

        monkeypatch.setattr(search, "divmod", counted_divmod, raising=False)
        new = search._expand(parents, VectorSession(lambda level, prefix: rows[prefix]), 6)
        assert len(calls) == ranked
        assert [h.tokens for h in new] == placed
        assert new == reference_search._prune(
            reference_search._expand(parents, VectorSession(lambda level, prefix: rows[prefix])),
            6)

    @pytest.mark.parametrize("mode", list(InsufficientContextMode))
    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_builds_at_most_beam_size_candidates_per_forward_pass(self, algo, mode,
                                                                  monkeypatch):
        extended = Hypothesis.extended
        calls = []

        def counted(self, token, logprob):
            calls.append((self.tokens, token))
            return extended(self, token, logprob)

        monkeypatch.setattr(Hypothesis, "extended", counted)
        spec, vocab = _wide_toy(mode)
        transcript = decode_session(
            make_toy_model(spec, vocab),
            as_blocks((3, 141, 59, 26, 5, 358), 2),
            eos_id=vocab.eos_id,
            algo=algo,
            policy=PolicyState(PolicyKind.HOLD, 2),
            cfg=SearchConfig(beam_size=6),
        )
        assert transcript.forward_passes > 0
        assert len(calls) <= 6 * transcript.forward_passes

    @pytest.mark.parametrize("toy", ["wide", "noisy"])
    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_builds_at_most_twice_beam_size_candidates_per_step(self, algo, toy, monkeypatch):
        extended = Hypothesis.extended
        step = search._step
        built = []
        per_step = []

        def counted(self, token, logprob):
            built.append(token)
            return extended(self, token, logprob)

        def counted_step(active, session, width):
            before = len(built)
            children = step(active, session, width)
            per_step.append(len(built) - before)
            return children

        monkeypatch.setattr(Hypothesis, "extended", counted)
        monkeypatch.setattr(search, "_step", counted_step)
        if toy == "wide":
            spec, vocab = _wide_toy()
            source = (3, 141, 59, 26, 5, 358)
        else:
            spec, vocab = _noisy_toy()
            source = (3, 1, 4, 1, 5, 9, 2, 6, 5, 3)
        decode_session(
            make_toy_model(spec, vocab, ContextMode.FULL_CONTEXT),
            as_blocks(source, 3),
            eos_id=vocab.eos_id,
            algo=algo,
            policy=PolicyState(PolicyKind.LOCAL_AGREEMENT, 2),
            cfg=SearchConfig(beam_size=6),
        )
        assert per_step and max(per_step) <= 2 * 6

    @pytest.mark.parametrize("toy", ["wide", "noisy"])
    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_step_ranks_and_builds_at_most_width_candidates(self, algo, toy, monkeypatch):
        # Each step returns at most ``width`` distinct hypotheses in token
        # order, the top ``width`` by ``(-score, tokens)``, and builds only
        # those. On these toys it ranks at most ``2 x width`` candidates, and
        # scores at most as many exactly: the tie cap keeps a row's tied noise
        # tokens (1000 of them on the wide toy) out of the ranking.
        extended = Hypothesis.extended
        step = search._step
        fsum = math.fsum
        counts = {"built": 0, "ranked": 0, "scored": 0}
        steps = []

        def counted_extended(self, token, logprob):
            counts["built"] += 1
            return extended(self, token, logprob)

        def counted_divmod(index, size):
            counts["ranked"] += 1  # once per candidate that reaches the ranking
            return divmod(index, size)

        def counted_fsum(values):
            counts["scored"] += 1
            return fsum(values)

        def checked_step(active, session, width):
            counts.update(built=0, ranked=0, scored=0)
            children = step(active, session, width)
            assert len(children) <= width
            assert len({h.tokens for h in children}) == len(children)
            assert counts["built"] == len(children)
            assert counts["ranked"] <= 2 * width
            assert counts["scored"] <= 2 * width
            assert [h.tokens for h in children] == sorted(h.tokens for h in children)
            ranked = sorted(children, key=lambda h: (-h.score, h.tokens))
            assert ranked == reference_search._prune(reference_search._expand(active, session),
                                                     width)
            steps.append(width)
            return children

        monkeypatch.setattr(Hypothesis, "extended", counted_extended)
        # Only the search module's own ``divmod`` and ``fsum`` calls are
        # counted: parent scores come from ``Hypothesis.score`` in the core
        # module.
        monkeypatch.setattr(search, "divmod", counted_divmod, raising=False)
        monkeypatch.setattr(search, "math", SimpleNamespace(**{**vars(math), "fsum": counted_fsum}))
        monkeypatch.setattr(search, "_step", checked_step)
        if toy == "wide":
            spec, vocab = _wide_toy()
            source = (3, 141, 59, 26, 5, 358)
        else:
            spec, vocab = _noisy_toy()
            source = (3, 1, 4, 1, 5, 9, 2, 6, 5, 3)
        decode_session(
            make_toy_model(spec, vocab, ContextMode.FULL_CONTEXT),
            as_blocks(source, 3),
            eos_id=vocab.eos_id,
            algo=algo,
            policy=PolicyState(PolicyKind.LOCAL_AGREEMENT, 2),
            cfg=SearchConfig(beam_size=6),
        )
        assert steps

    @pytest.mark.parametrize(
        "row, message",
        [
            ([-3.0, -0.5, -3.0, -3.0], r"model returned 4 log-probabilities after prefix \(1,\)"),
            ([[-3.0, -0.5, -3.0]], r"model returned 2-D log-probabilities after prefix \(1,\)"),
            ([], r"model returned 0 log-probabilities after prefix \(1,\)"),
        ],
        ids=["ragged", "2-D", "empty"],
    )
    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_ragged_or_not_1d_logprobs_are_rejected(self, algo, row, message):
        def logprobs(level, prefix):
            return row if prefix == (1,) else [-0.5, -1.0, -math.inf]

        with pytest.raises(ValueError, match=message):
            decode_session(
                lambda: VectorSession(logprobs),
                [Block(payload=(), duration_ms=100.0, is_final=False),
                 Block(payload=(), duration_ms=100.0, is_final=True)],
                eos_id=2,
                algo=algo,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.5])
    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_nan_and_positive_inf_logprobs_are_rejected(self, algo, bad):
        def logprobs(level, prefix):
            return [bad, -0.1, -3.0] if prefix == (1,) else [-3.0, -0.1, -3.0]

        with pytest.raises(ValueError,
                           match=r"NaN or positive log-probability after prefix \(1,\)$"):
            decode_session(
                lambda: VectorSession(logprobs),
                [Block(payload=(), duration_ms=100.0, is_final=False),
                 Block(payload=(), duration_ms=100.0, is_final=True)],
                eos_id=2,
                algo=algo,
            )


class TestTokenOrder:
    """The beam loop puts a block's seeds in token order once, and from then
    on the order of its active list is the token order, with no other
    carrier. Here every step ties children of different parents exactly, so
    each step's choice rests on that order: the seeds, of one score, are
    given out of token order; the first step keeps a child whose score ranks
    it after a child it precedes in token order; and in ``ibwbs`` and the
    final block a beam that ends in EOS at the third step leaves the others
    in the order they were."""

    EOS = 7
    SEEDS = (Hypothesis((4, 2), (-0.5, -0.5)), Hypothesis((0, 4), (-0.5, -0.5)),
             Hypothesis((2, 0), (-0.5, -0.5)))
    OPS = {
        "bwbs": (
            lambda seeds, *args: bwbs_block(seeds, 2, *args),
            lambda seeds, *args: reference_search.bwbs_block(seeds, 2, *args),
        ),
        "ibwbs": (
            lambda seeds, *args: ibwbs_block(seeds, 2, *args),
            lambda seeds, *args: reference_search.ibwbs_block(seeds, 2, *args),
        ),
        "final": (
            lambda seeds, *args: (search._final_block(seeds, *args),),
            lambda seeds, *args: (select_best(reference_search.bwbs_block(seeds, 2, *args,
                                                                          final=True)),),
        ),
    }
    # The tokens of the beams each step is given, in the order given: the
    # seeds', then the kept children's. (0, 4, 5) ranks last on the first
    # step, and (0, 4, 0, 2, 7) stops on the third.
    ACTIVE = {
        "bwbs": [
            [(0, 4), (2, 0), (4, 2)],
            [(0, 4, 0), (0, 4, 5), (2, 0, 2), (4, 2, 4)],
            [(0, 4, 0, 2), (0, 4, 5, 0), (2, 0, 2, 4), (4, 2, 4, 0)],
        ],
    }
    ACTIVE["ibwbs"] = ACTIVE["bwbs"] + [
        [(0, 4, 0, 2, 4), (0, 4, 5, 0, 2), (2, 0, 2, 4, 0)],
        [(0, 4, 0, 2, 4, 0), (0, 4, 5, 0, 2, 4), (2, 0, 2, 4, 0, 2)],
    ]
    ACTIVE["final"] = ACTIVE["ibwbs"]

    @classmethod
    def _session(cls):
        # A row offers the two tokens after its last one (mod 6), and EOS
        # after a 2 at length 4. Each log-prob is -1, plus the last token's
        # potential, less the new token's (0.5 for an odd token besides EOS,
        # else 0). Every seed ends in an even token, so a child's exact score
        # is its seed's, less one per step and less its last token's
        # potential, whatever its parent.
        def potential(token):
            return 0.5 if token % 2 and token != cls.EOS else 0.0

        def logprobs(level, prefix):
            last = prefix[-1]
            row = [-math.inf] * 8
            offered = [(last + 1) % 6, (last + 2) % 6]
            if len(prefix) == 4 and last == 2:
                offered.append(cls.EOS)
            for token in offered:
                row[token] = -1.0 + potential(last) - potential(token)
            return row

        session = VectorSession(logprobs)
        session.ingest_block(Block(payload=(), duration_ms=100.0, is_final=False))
        return session

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_each_step_matches_the_reference(self, op, monkeypatch):
        step = search._step
        steps = []

        def recorded(active, session, width):
            built = step(active, session, width)
            steps.append((list(active), width, built))
            return built

        monkeypatch.setattr(search, "_step", recorded)
        new, reference = (fn(self.SEEDS, self._session(), SearchConfig(beam_size=4), self.EOS, 7)
                          for fn in self.OPS[op])
        assert new == reference
        assert [[beam.tokens for beam in active] for active, _, _ in steps] == self.ACTIVE[op]
        for active, width, built in steps:
            twin = self._session()
            ranked = sorted(built, key=lambda h: (-h.score, h.tokens))
            assert ranked == reference_search._prune(reference_search._expand(active, twin), width)
            # Children of different parents tie exactly on every step.
            parents: dict[float, set] = {}
            for child in built:
                parents.setdefault(child.score, set()).add(child.tokens[:-1])
            assert any(len(tied) > 1 for tied in parents.values())


class TestBeamsOfOneLength:
    """A block starts from one or more distinct beams of one length, each
    scored at most 0. No beams, a beam beside a longer one, or a beam scored
    above 0 is one named error before any forward pass, and a beam that
    repeats another's tokens is a second."""

    OPS = {
        "bwbs": bwbs_block,
        "ibwbs": ibwbs_block,
        "final": lambda beams, floor, *args: search._final_block(beams, *args),
    }

    def _rejected(self, op, beams, message):
        session = RecordingSession(VectorSession(lambda level, prefix: [-0.7] * 6))
        session.ingest_block(Block(payload=(), duration_ms=100.0, is_final=False))
        with pytest.raises(ValueError, match=message):
            self.OPS[op](beams, 0, session, SearchConfig(beam_size=2), 5, 4)
        assert session.calls == ["ingest_block"]

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize(
        "beams",
        [
            (),
            (Hypothesis((1,), (-0.5,)), Hypothesis((1, 0), (-0.25, -0.25))),
            (Hypothesis((0,), (-0.5,)), Hypothesis((1,), (0.5,))),
        ],
    )
    def test_rejected_before_any_forward_pass(self, op, beams):
        message = r"^a block needs one or more beams, all of one length and scored at most 0$"
        self._rejected(op, beams, message)

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_repeated_beams_rejected_before_any_forward_pass(self, op):
        # The repeat is scored higher than the beam it repeats.
        beams = (Hypothesis((0, 1), (-0.5, -0.5)), Hypothesis((1, 1), (-0.5, -0.5)),
                 Hypothesis((0, 1), (-0.25, -0.25)))
        self._rejected(op, beams, r"^a block's beams must not repeat a token sequence$")


class TestBatchedGuard:
    """A step's answers are checked for NaN, ``+inf`` and positive entries
    together, after the step's last query, and the error names the first
    offending prefix."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.5])
    @pytest.mark.parametrize("offending, named", [({1}, 1), ({1, 2}, 1), ({2}, 2)])
    def test_later_beams_answer(self, bad, offending, named):
        def logprobs(level, prefix):
            return [-0.1, bad, -2.0] if prefix[0] in offending else [-0.5, -0.7, -2.0]

        session = VectorSession(logprobs)
        active = [Hypothesis((token,), (-0.1,)) for token in range(3)]
        with pytest.raises(ValueError,
                           match=rf"NaN or positive log-probability after prefix \({named},\)$"):
            search._expand(active, session, 3)
        assert session.forward_pass_count() == 3

    @pytest.mark.parametrize("row", [[-0.1, math.nan, -2.0], [math.nan, -0.1, -2.0]],
                             ids=["nan-after-max", "nan-before-max"])
    @pytest.mark.parametrize("beams, offending, named",
                             [(1, {0}, 0), (3, {1}, 1), (3, {1, 2}, 1), (3, {2}, 2)])
    def test_nan_before_or_after_the_maximum(self, row, beams, offending, named):
        # The clean rows hold the step's maximum, before and after a NaN row.
        def logprobs(level, prefix):
            return row if prefix[0] in offending else [-0.5, -0.05, -2.0]

        session = VectorSession(logprobs)
        active = [Hypothesis((token,), (-0.1,)) for token in range(beams)]
        with pytest.raises(ValueError,
                           match=rf"NaN or positive log-probability after prefix \({named},\)$"):
            search._expand(active, session, 3)
        assert session.forward_pass_count() == beams

    @pytest.mark.parametrize("op", sorted(TestBeamsOfOneLength.OPS))
    def test_beams_are_queried_in_token_order(self, op):
        # The first step's children are (0, 1) at -0.6 and (0, 2) at -0.2, so
        # (0, 2) ranks first and (0, 1) comes first in token order. Both break
        # the contract on the second step, and the error names the first
        # queried.
        def logprobs(level, prefix):
            return [-math.inf, -0.5, -0.1, -math.inf] if prefix == (0,) else [0.5, -0.1, -2.0, -2.0]

        session = VectorSession(logprobs)
        with pytest.raises(ValueError,
                           match=r"NaN or positive log-probability after prefix \(0, 1\)$"):
            TestBeamsOfOneLength.OPS[op]([Hypothesis((0,), (-0.1,))], 0, session,
                                         SearchConfig(beam_size=2), 3, 5)
        assert session.forward_pass_count() == 3

    def test_lone_positive_entry(self):
        session = VectorSession(lambda level, prefix: [-math.inf, 0.5, -math.inf])
        with pytest.raises(ValueError,
                           match=r"NaN or positive log-probability after prefix \(1,\)$"):
            search._expand([Hypothesis((1,), (-0.1,))], session, 3)
        assert session.forward_pass_count() == 1

    def test_no_finite_entry_builds_no_child(self):
        session = VectorSession(lambda level, prefix: [-math.inf] * 3)
        assert search._expand([Hypothesis((1,), (-0.1,))], session, 3) == []
        assert session.forward_pass_count() == 1

    @pytest.mark.parametrize("where", [(0, 0), (0, 2), (2, 1)])
    def test_lone_finite_entry_is_the_child(self, where):
        row, token = where

        def logprobs(level, prefix):
            return [-0.3 if (prefix[0], i) == where else -math.inf for i in range(3)]

        session = VectorSession(logprobs)
        active = [Hypothesis((beam,), (-0.1,)) for beam in range(3)]
        assert search._expand(active, session, 3) == [Hypothesis((row, token), (-0.1, -0.3))]
        assert session.forward_pass_count() == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.5])
    def test_later_position_of_the_re_scored_prefix(self, bad):
        def logprobs(level, prefix):
            return [-0.1, bad, -2.0] if prefix == (0, 1) else [-0.5, -0.1, -2.0]

        session = VectorSession(logprobs)
        session.ingest_block(Block(payload=(), duration_ms=100.0, is_final=True))
        with pytest.raises(ValueError,
                           match=r"NaN or positive log-probability after prefix \(0, 1\)$"):
            standard_beam_search(session, (0, 1, 1), SearchConfig(beam_size=2), eos_id=2,
                                 max_total=10)
        assert session.forward_pass_count() == 3

    def test_re_scored_prefix_is_one_hypothesis(self, monkeypatch):
        built = []
        monkeypatch.setattr(Hypothesis, "extended",
                            lambda self, token, logprob: built.append(token))
        session = VectorSession(lambda level, prefix: [-0.5, -0.25, -2.0])
        session.ingest_block(Block(payload=(), duration_ms=100.0, is_final=True))
        best = standard_beam_search(session, (0, 1, 1), SearchConfig(beam_size=2), eos_id=2,
                                    max_total=3)
        assert best == Hypothesis((0, 1, 1), (-0.5, -0.25, -0.25))
        assert built == []


class TestArgmaxContract:
    """The step's check is one ``argmax`` (``search._answers``), which rests
    on NumPy returning the first NaN if there is one, else the first of
    equal maxima, at every length its vectorized loops handle."""

    @staticmethod
    def _expected(values):
        nans = [i for i, value in enumerate(values) if value != value]
        return nans[0] if nans else values.index(max(values))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-math.inf, -2.0, -0.5, 0.0, 0.5, math.inf, math.nan]),
                    min_size=1, max_size=200))
    def test_first_nan_else_first_maximum(self, values):
        assert np.array(values).argmax() == self._expected(values)

    @pytest.mark.parametrize("size", [2, 17, 126, 1001, 6006])
    def test_at_the_workloads_lengths(self, size):
        for first, second in [(0, size - 1), (size // 3, size // 2), (size - 2, size - 1)]:
            for a, b in [(math.nan, math.nan), (-0.5, math.nan), (math.nan, -0.5),
                         (-0.5, -0.5), (math.inf, math.nan), (0.5, 0.5)]:
                values = [-2.0] * size
                values[first], values[second] = a, b
                assert np.array(values).argmax() == self._expected(values)


@settings(max_examples=300, deadline=None)
@given(step=beam_steps())
def test_step_stores_each_built_hypothesis_exact_score(step):
    parents, rows, width = step
    for hyp in search._expand(parents, VectorSession(lambda level, prefix: rows[prefix]), width):
        assert hyp.score == math.fsum(hyp.token_logprobs)


@settings(max_examples=150, deadline=None)
@given(
    model=st.one_of(toy_models(), scripted_models(), vector_models()),
    beam=st.integers(1, 6),
    detection=st.booleans(),
    data=st.data(),
)
def test_block_ops_return_exact_scores(model, beam, detection, data):
    # Every hypothesis a step builds and every one the block ops and the
    # final block return has the exact sum of its log-probs as its score.
    factory, vocab_size, eos_id, blocks, logprob = model
    cfg = SearchConfig(beam_size=beam, repetition_detection=detection)
    # A block's beams are distinct and share one length.
    length = data.draw(st.integers(0, 3), label="length")
    tokens = st.lists(st.integers(0, vocab_size - 1), min_size=length, max_size=length).map(tuple)
    lps = st.lists(logprob, min_size=length, max_size=length).map(tuple)
    seeds = [Hypothesis(prefix, data.draw(lps))
             for prefix in data.draw(st.lists(tokens, min_size=1, max_size=3, unique=True))]
    max_total = length + data.draw(st.integers(0, 6), label="headroom")
    step = search._step
    seen: list[Hypothesis] = []
    steps = []

    def recorded(active, session, width):
        children = step(active, session, width)
        seen.extend(children)
        steps.append(width)
        return children

    ops = (
        lambda session: bwbs_block(seeds, 0, session, cfg, eos_id, max_total),
        lambda session: ibwbs_block(seeds, 0, session, cfg, eos_id, max_total),
        lambda session: (search._final_block(seeds, session, cfg, eos_id, max_total),),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_step", recorded)
        for op in ops:
            session = factory()
            for block in blocks:
                session.ingest_block(block)
            seen.extend(op(session))
    # Each op runs a step unless the cap leaves no headroom.
    assert steps or max_total == length
    for hyp in seen:
        assert hyp.score == math.fsum(hyp.token_logprobs)


@settings(max_examples=300, deadline=None)
@given(step=beam_steps())
def test_step_stores_terms_that_sum_to_each_score(step):
    # A child's terms are its parent's plus its own log-prob: their exact sum
    # is the child's, so they round to the score it was ranked by.
    parents, rows, width = step
    for hyp in search._expand(parents, VectorSession(lambda level, prefix: rows[prefix]), width):
        assert math.fsum(_exact_terms(hyp)) == hyp.score == math.fsum(hyp.token_logprobs)


@settings(max_examples=150, deadline=None)
@given(
    model=st.one_of(toy_models(), scripted_models(), vector_models()),
    beam=st.integers(1, 6),
    detection=st.booleans(),
    data=st.data(),
)
def test_block_ops_return_terms_that_sum_to_each_score(model, beam, detection, data):
    # As test_block_ops_return_exact_scores, for the terms: every hypothesis a
    # step builds and every one the block ops and the final block return.
    factory, vocab_size, eos_id, blocks, logprob = model
    cfg = SearchConfig(beam_size=beam, repetition_detection=detection)
    length = data.draw(st.integers(0, 3), label="length")
    tokens = st.lists(st.integers(0, vocab_size - 1), min_size=length, max_size=length).map(tuple)
    lps = st.lists(logprob, min_size=length, max_size=length).map(tuple)
    seeds = [Hypothesis(prefix, data.draw(lps))
             for prefix in data.draw(st.lists(tokens, min_size=1, max_size=3, unique=True))]
    max_total = length + data.draw(st.integers(0, 6), label="headroom")
    step = search._step
    seen: list[Hypothesis] = []
    steps = []

    def recorded(active, session, width):
        children = step(active, session, width)
        seen.extend(children)
        steps.append(width)
        return children

    ops = (
        lambda session: bwbs_block(seeds, 0, session, cfg, eos_id, max_total),
        lambda session: ibwbs_block(seeds, 0, session, cfg, eos_id, max_total),
        lambda session: (search._final_block(seeds, session, cfg, eos_id, max_total),),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_step", recorded)
        for op in ops:
            session = factory()
            for block in blocks:
                session.ingest_block(block)
            seen.extend(op(session))
    # Each op runs a step unless the cap leaves no headroom.
    assert steps or max_total == length
    for hyp in seen:
        assert math.fsum(_exact_terms(hyp)) == hyp.score


class TestDecodeSession:
    def test_long_committed_prefix_matches_reference(self, monkeypatch):
        # 112 symbols, one token each, with every correct token at log(0.9):
        # ibwbs hold-1 commits over 100 tokens before the final block, and the
        # prefix's float score is not its exact sum, so the seeds' terms carry
        # remainders.
        vocab = make_vocab(7)
        spec = ToyTransducerSpec(mapping={s: (s,) for s in range(7)}, noise_epsilon=0.1)
        factory = make_toy_model(spec, vocab)
        blocks = as_blocks([i % 7 for i in range(112)], 2)
        policy = PolicyState(PolicyKind.HOLD, 1)
        step = search._step
        parents: list[Hypothesis] = []

        def recorded(active, session, width):
            parents.extend(active)
            return step(active, session, width)

        monkeypatch.setattr(search, "_step", recorded)
        transcript = decode_session(factory, blocks, vocab.eos_id, policy=policy)
        assert transcript == reference_search.decode_session(
            factory, blocks, vocab.eos_id, algo=Algorithm.IBWBS, policy=policy)
        assert sum(len(d.committed) for d in transcript.decisions[:-1]) >= 100
        assert any(len(_exact_terms(p)) > 1 for p in parents if len(p) >= 100)

    def test_incremental_commits_split_across_blocks(self):
        spec, vocab = ladder_spec(symbols=2, tokens_per_symbol=3)
        factory = make_toy_model(spec, vocab)
        blocks = as_blocks((0, 1), 1)
        transcript = decode_session(
            factory, blocks, eos_id=vocab.eos_id,
            algo=Algorithm.IBWBS, policy=PolicyState(PolicyKind.HOLD, 0),
        )
        assert transcript.final_output == reference_for(spec, (0, 1))
        first, second = transcript.decisions
        assert first.committed == (0, 1) and first.source_ms == 250.0
        assert second.committed and second.source_ms == 500.0

    def test_source_duration_is_the_last_block_time_whatever_sum_rounds(self, monkeypatch):
        # Python 3.12's sum() of floats is compensated, so it can round the
        # blocks' total differently from the running sum that stamps each
        # block; math.fsum stands in for it here.
        monkeypatch.setattr(search, "sum", math.fsum, raising=False)
        spec, vocab = ladder_spec(symbols=6)
        transcript = decode_session(
            make_toy_model(spec, vocab), as_blocks(range(6), 1, symbol_ms=0.3),
            eos_id=vocab.eos_id, algo=Algorithm.IBWBS,
        )
        assert transcript.final_output == reference_for(spec, range(6))
        assert transcript.source_duration_ms == transcript.decisions[-1].source_ms
        assert token_delays(transcript)[-1] == transcript.source_duration_ms

    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_single_final_block_is_offline_decoding(self, algo):
        spec, vocab = ladder_spec(symbols=3)
        factory = make_toy_model(spec, vocab)
        blocks = as_blocks((0, 1, 2), 3)
        assert len(blocks) == 1
        transcript = decode_session(factory, blocks, eos_id=vocab.eos_id, algo=algo)
        assert transcript.final_output == reference_for(spec, (0, 1, 2))
        [decision] = transcript.decisions
        assert decision.committed == transcript.final_output
        assert decision.source_ms == transcript.source_duration_ms == 3 * 250.0

    def test_offline_equivalence_across_algorithms(self):
        rng = random.Random(31)
        cfg = SearchConfig(repetition_detection=False)
        for _ in range(10):
            spec, vocab, source = random_toy(rng)
            factory = make_toy_model(spec, vocab)
            blocks = [Block(payload=tuple(source), duration_ms=700.0, is_final=True)]
            outputs = {
                algo: decode_session(factory, blocks, eos_id=vocab.eos_id, algo=algo, cfg=cfg)
                for algo in Algorithm
            }
            assert (
                outputs[Algorithm.BS].final_output
                == outputs[Algorithm.BWBS].final_output
                == outputs[Algorithm.IBWBS].final_output
            )

    def test_retranslation_keeps_beams_and_revises(self):
        # Block one favors the 0-path and trims both beams to one token when
        # the junk 1-path hits EOS; block two makes the carried 1-beam win,
        # so the displayed snapshot revises from (0,) to (1, 2).
        script = {
            1: {(): {0: 0.5, 1: 0.45}, (0,): {2: 0.9}, (0, 2): {3: 0.9},
                (1,): {4: 0.9}, (1, 4): {TWO_PATH_EOS: 0.9}},
            2: {(1,): {2: 0.95}, (1, 2): {TWO_PATH_EOS: 0.95}},
        }

        def factory():
            return ScriptedSession(script, vocab_size=6)

        blocks = [
            Block(payload=(0,), duration_ms=500.0, is_final=False),
            Block(payload=(1,), duration_ms=500.0, is_final=True),
        ]
        transcript = decode_session(
            factory, blocks, eos_id=TWO_PATH_EOS, algo=Algorithm.BWBS,
            retranslation=True, cfg=SearchConfig(beam_size=2),
        )
        assert transcript.decisions == (BlockDecision(500.0, (0,), ()),
                                        BlockDecision(1000.0, (1, 2), ()))
        assert transcript.final_output == (1, 2)

    def test_halt_keeps_one_beam_of_each_copy(self):
        # Block one spends 3 passes and ranks (0, 0) and (1, 1), whose repeats
        # halt it: the trim makes both (), which the final block starts from
        # once. That block spends 1 + 2 passes before (0, 2) finishes and 19
        # more on the lone beam up to the cap of 21 tokens: 25 in all, where a
        # second copy of () would have cost a 26th for nothing.
        script = {
            1: {(): {0: 0.6, 1: 0.4}, (0,): {0: 0.9, 2: 0.1}, (1,): {1: 0.9, 2: 0.1}},
            2: {(): {0: 0.6, 1: 0.4}, (0,): {2: 1.0}},
        }
        blocks = [Block(payload=(), duration_ms=50.0, is_final=False),
                  Block(payload=(), duration_ms=50.0, is_final=True)]
        new, reference = (
            fn(lambda: ScriptedSession(script, vocab_size=3), blocks, eos_id=2,
               algo=Algorithm.BWBS, retranslation=True, cfg=SearchConfig(beam_size=2))
            for fn in (decode_session, reference_search.decode_session)
        )
        assert new.decisions == (BlockDecision(50.0, (), ()), BlockDecision(100.0, (0,), ()))
        assert new.forward_passes == 25
        assert new == reference

    def test_prefix_monotone_commits(self):
        rng = random.Random(41)
        policies = [
            PolicyState(),
            PolicyState(PolicyKind.HOLD, 2),
            PolicyState(PolicyKind.LOCAL_AGREEMENT, 2),
        ]
        for _ in range(15):
            spec, vocab, source = random_toy(rng)
            factory = make_toy_model(spec, vocab)
            blocks = as_blocks(source, rng.randint(1, 3))
            algo = rng.choice(list(Algorithm))
            transcript = decode_session(
                factory, blocks, eos_id=vocab.eos_id, algo=algo,
                policy=rng.choice(policies), cfg=SearchConfig(beam_size=3),
            )
            joined: tuple[int, ...] = ()
            for decision in transcript.decisions:
                joined += decision.committed
                assert decision.best[: len(joined)] == joined
            assert joined == transcript.final_output

    @pytest.mark.parametrize("retranslation", [False, True], ids=["incremental", "retranslation"])
    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_model_without_finite_logprobs_gives_empty_output(self, algo, retranslation):
        # No beam can ever expand: every strategy keeps its seeds through the
        # blocks and ends with nothing to show.
        transcript = decode_session(
            lambda: VectorSession(lambda level, prefix: [-math.inf] * 4),
            [Block(payload=(), duration_ms=100.0, is_final=False),
             Block(payload=(), duration_ms=100.0, is_final=True)],
            eos_id=3,
            algo=algo,
            retranslation=retranslation,
        )
        assert transcript.final_output == ()
        assert all(d.committed == () for d in transcript.decisions)

    @pytest.mark.parametrize("retranslation", [False, True], ids=["incremental", "retranslation"])
    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_forward_pass_count_is_the_last_call_on_the_session(self, algo, retranslation):
        # Session wrappers (the benchmark's among them) take this call as
        # the end of the session.
        spec, vocab = ladder_spec(symbols=4)
        toy = make_toy_model(spec, vocab)
        sessions: list[RecordingSession] = []

        def factory():
            sessions.append(RecordingSession(toy()))
            return sessions[-1]

        transcript = decode_session(
            factory, as_blocks((0, 1, 2, 3), 2), eos_id=vocab.eos_id, algo=algo,
            retranslation=retranslation,
        )
        [session] = sessions
        assert session.calls.count("forward_pass_count") == 1
        assert session.calls[-1] == "forward_pass_count"
        assert transcript.forward_passes == session.calls.count("next_token_logprobs")

    def test_requires_final_block(self):
        spec, vocab = ladder_spec(symbols=2)
        factory = make_toy_model(spec, vocab)
        with pytest.raises(ValueError, match="final"):
            decode_session(
                factory,
                [Block(payload=(0,), duration_ms=100.0, is_final=False)],
                eos_id=vocab.eos_id,
            )

    def test_rejects_overflowing_total_duration_before_opening(self):
        opened = []

        def factory():
            opened.append(True)
            raise AssertionError("the session must not be opened")

        blocks = [
            Block(payload=(0,), duration_ms=1e308, is_final=False),
            Block(payload=(1,), duration_ms=1e308, is_final=True),
        ]
        with pytest.raises(ValueError, match="total duration must be finite"):
            decode_session(factory, blocks, eos_id=0)
        assert not opened

    def test_rejects_an_overflowing_length_cap_before_opening(self):
        # One finite symbol: the sum is finite, but the cap's 10 * 1e308 is not.
        def factory():
            raise AssertionError("the session must not be opened")

        blocks = [Block(payload=(0,), duration_ms=1e308, is_final=True)]
        with pytest.raises(ValueError, match="total duration must be finite, and short enough"):
            decode_session(factory, blocks, eos_id=0)

    def test_cap_check_follows_the_running_sum(self, monkeypatch):
        # Python 3.12's sum() of floats is compensated, so it can round a
        # total below the running sum the loop's clock reaches; math.fsum
        # stands in for it here. The clock starts 2 ulps below the longest
        # total whose cap is finite, and each of four 0.6-ulp steps rounds
        # up to a whole ulp: it ends 2 ulps above, past the cap's range,
        # while the exact total, 0.4 ulp above that longest one, rounds to it.
        monkeypatch.setattr(search, "sum", math.fsum, raising=False)
        top = 1.7976931348623158e307
        step = math.ulp(top)
        durations = [top - 2 * step] + [0.6 * step] * 4
        running = 0.0
        for duration in durations:
            running += duration
        assert search.max_output_tokens(math.fsum(durations)) > 0
        with pytest.raises(OverflowError):
            search.max_output_tokens(running)

        def factory():
            raise AssertionError("the session must not be opened")

        blocks = [Block(payload=(0,), duration_ms=d, is_final=i == len(durations) - 1)
                  for i, d in enumerate(durations)]
        with pytest.raises(ValueError, match="total duration must be finite"):
            decode_session(factory, blocks, eos_id=0)

    @pytest.mark.parametrize(
        "policy",
        [
            # A stale LA-2 history would make the first block commit (0,).
            PolicyState(PolicyKind.LOCAL_AGREEMENT, 2, history=((0, 0, 0),)),
            # A stale commit would fail only after forward passes.
            PolicyState(PolicyKind.HOLD, 1, committed=(2, 2)),
        ],
        ids=["la-history", "hold-committed"],
    )
    def test_rejects_policy_in_progress_before_opening(self, policy):
        opened = []

        def factory():
            opened.append(True)
            raise AssertionError("the session must not be opened")

        with pytest.raises(ValueError, match="^a session starts from a fresh policy: "
                                             "no history, nothing committed$"):
            decode_session(factory, as_blocks((0, 1), 1), eos_id=3, policy=policy)
        assert not opened

    def test_rejects_policy_with_retranslation(self):
        spec, vocab = ladder_spec(symbols=2)
        factory = make_toy_model(spec, vocab)
        with pytest.raises(ValueError, match="incremental"):
            decode_session(
                factory,
                as_blocks((0, 1), 1),
                eos_id=vocab.eos_id,
                policy=PolicyState(PolicyKind.HOLD, 1),
                retranslation=True,
            )

    def test_eos_never_emitted(self):
        rng = random.Random(51)
        for _ in range(10):
            spec, vocab, source = random_toy(rng)
            factory = make_toy_model(spec, vocab)
            transcript = decode_session(
                factory, as_blocks(source, 2), eos_id=vocab.eos_id, algo=Algorithm.IBWBS
            )
            assert vocab.eos_id not in transcript.final_output

    def test_full_context_bs_with_local_agreement(self):
        spec, vocab = ladder_spec(symbols=4)
        factory = make_toy_model(spec, vocab, ContextMode.FULL_CONTEXT)
        transcript = decode_session(
            factory,
            as_blocks((0, 1, 2, 3), 1),
            eos_id=vocab.eos_id,
            algo=Algorithm.BS,
            policy=PolicyState(PolicyKind.LOCAL_AGREEMENT, 2),
            cfg=SearchConfig(repetition_detection=False),
        )
        assert transcript.final_output == reference_for(spec, (0, 1, 2, 3))
        assert sum(1 for d in transcript.decisions if d.committed) >= 2

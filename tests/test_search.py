"""Decoding strategies, commit policies, and full-session behavior."""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

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
from simulbeam.core import BlockDecision, SearchConfig
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

    def test_empty_never_beats_nonempty(self):
        empty = Hypothesis()
        real = Hypothesis((1, 2), (-5.0, -5.0))
        assert select_best([empty, real]) == real

    def test_empty_selectable_when_alone(self):
        empty = Hypothesis()
        assert select_best([empty]) == empty


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
        expand = search._expand
        built = []
        per_step = []

        def counted(self, token, logprob):
            built.append(token)
            return extended(self, token, logprob)

        def counted_step(active, session, width, may_repeat):
            before = len(built)
            pool = expand(active, session, width, may_repeat)
            per_step.append(len(built) - before)
            return pool

        monkeypatch.setattr(Hypothesis, "extended", counted)
        monkeypatch.setattr(search, "_expand", counted_step)
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
        # Each step returns at most ``width`` distinct hypotheses, ranked by
        # ``(-score, tokens)``, and builds only those. On these toys it scores
        # at most ``2 x width`` candidates exactly: the tie cap keeps a row's
        # tied noise tokens (1000 of them on the wide toy) out of the sort.
        extended = Hypothesis.extended
        expand = search._expand
        fsum = math.fsum
        counts = {"built": 0, "scored": 0}
        steps = []

        def counted_extended(self, token, logprob):
            counts["built"] += 1
            return extended(self, token, logprob)

        def counted_fsum(values):
            counts["scored"] += 1
            return fsum(values)

        def checked_step(active, session, width, may_repeat):
            counts.update(built=0, scored=0)
            ranked = expand(active, session, width, may_repeat)
            assert len(ranked) <= width
            assert len({h.tokens for h in ranked}) == len(ranked)
            assert ranked == sorted(ranked, key=lambda h: (-h.score, h.tokens))
            assert counts["built"] == len(ranked)
            assert counts["scored"] <= 2 * width
            steps.append(width)
            return ranked

        monkeypatch.setattr(Hypothesis, "extended", counted_extended)
        # Only the search module's own ``fsum`` calls are counted: parent
        # scores come from ``Hypothesis.score`` in the core module.
        monkeypatch.setattr(search, "math", SimpleNamespace(**{**vars(math), "fsum": counted_fsum}))
        monkeypatch.setattr(search, "_expand", checked_step)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("algo", list(Algorithm))
    def test_nan_and_positive_inf_logprobs_are_rejected(self, algo, bad):
        def logprobs(level, prefix):
            return [bad, -0.1, -3.0] if prefix == (1,) else [-3.0, -0.1, -3.0]

        with pytest.raises(ValueError, match=r"after prefix \(1,\)"):
            decode_session(
                lambda: VectorSession(logprobs),
                [Block(payload=(), duration_ms=100.0, is_final=False),
                 Block(payload=(), duration_ms=100.0, is_final=True)],
                eos_id=2,
                algo=algo,
            )


class TestBeamsOfOneLength:
    """A block starts from one or more beams of one length. No beams, or a
    beam beside a longer one, is one named error before any forward pass."""

    OPS = {
        "bwbs": bwbs_block,
        "ibwbs": ibwbs_block,
        "final": lambda beams, floor, *args: search._final_block(beams, *args),
    }

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize(
        "beams", [(), (Hypothesis((1,), (-0.5,)), Hypothesis((1, 0), (-0.25, -0.25)))]
    )
    def test_rejected_before_any_forward_pass(self, op, beams):
        session = RecordingSession(VectorSession(lambda level, prefix: [-0.7] * 6))
        session.ingest_block(Block(payload=(), duration_ms=100.0, is_final=False))
        message = r"^a block needs one or more beams, all of one length$"
        with pytest.raises(ValueError, match=message):
            self.OPS[op](beams, 0, session, SearchConfig(beam_size=2), 5, 4)
        assert session.calls == ["ingest_block"]


class TestBatchedGuard:
    """A step's answers are checked for NaN and ``+inf`` together, after the
    step's last query, and the error names the first offending prefix."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("offending, named", [({1}, 1), ({1, 2}, 1), ({2}, 2)])
    def test_later_beams_answer(self, bad, offending, named):
        def logprobs(level, prefix):
            return [-0.1, bad, -2.0] if prefix[0] in offending else [-0.5, -0.7, -2.0]

        session = VectorSession(logprobs)
        active = [Hypothesis((token,), (-0.1,)) for token in range(3)]
        with pytest.raises(ValueError,
                           match=rf"NaN or \+inf log-probability after prefix \({named},\)$"):
            search._expand(active, session, 3)
        assert session.forward_pass_count() == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_duplicate_beams_answer(self, bad):
        # The repeated beam's row joins no candidate, but its answer is checked.
        answers = iter([[-0.5, -0.7, -2.0], [-0.5, -0.7, -2.0], [-0.1, bad, -2.0]])
        session = VectorSession(lambda level, prefix: next(answers))
        active = [Hypothesis((0,), (-0.1,)), Hypothesis((1,), (-0.2,)), Hypothesis((0,), (-0.3,))]
        with pytest.raises(ValueError, match=r"after prefix \(0,\)$"):
            search._expand(active, session, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_later_position_of_the_re_scored_prefix(self, bad):
        def logprobs(level, prefix):
            return [-0.1, bad, -2.0] if prefix == (0, 1) else [-0.5, -0.1, -2.0]

        session = VectorSession(logprobs)
        session.ingest_block(Block(payload=(), duration_ms=100.0, is_final=True))
        with pytest.raises(ValueError, match=r"after prefix \(0, 1\)$"):
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
    length = data.draw(st.integers(0, 3), label="length")  # a block's beams share one length
    seeds = []
    for _ in range(data.draw(st.integers(1, 3), label="seeds")):
        tokens = st.lists(st.integers(0, vocab_size - 1), min_size=length, max_size=length)
        lps = st.lists(logprob, min_size=length, max_size=length)
        seeds.append(Hypothesis(tuple(data.draw(tokens)), tuple(data.draw(lps))))
    max_total = length + data.draw(st.integers(0, 6), label="headroom")
    expand = search._expand
    seen: list[Hypothesis] = []

    def recorded(active, session, width, may_repeat):
        ranked = expand(active, session, width, may_repeat)
        seen.extend(ranked)
        return ranked

    ops = (
        lambda session: bwbs_block(seeds, 0, session, cfg, eos_id, max_total),
        lambda session: ibwbs_block(seeds, 0, session, cfg, eos_id, max_total),
        lambda session: (search._final_block(seeds, session, cfg, eos_id, max_total),),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_expand", recorded)
        for op in ops:
            session = factory()
            for block in blocks:
                session.ingest_block(block)
            seen.extend(op(session))
    for hyp in seen:
        assert hyp.score == math.fsum(hyp.token_logprobs)


class TestDecodeSession:
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

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

from __future__ import annotations

import itertools
import random
import time

from simulbeam import (
    Algorithm,
    Block,
    ContextMode,
    CorpusRecord,
    PolicyKind,
    RunConfig,
    make_toy_model,
    run_corpus,
    sweep,
)
from simulbeam.core import SearchConfig
from simulbeam.metrics import LatencyInput, average_lagging, bleu_score, bleu_statistics, laal
from simulbeam.model import InsufficientContextMode, ToyTransducerSpec
from simulbeam.search import (
    PolicyState,
    bwbs_block,
    decode_session,
    ibwbs_block,
    standard_beam_search,
)
from simulbeam.cli import main as cli_main
from simulbeam.search import Hypothesis

from conftest import (
    B,
    C,
    D,
    E,
    TWO_PATH_EOS,
    ScriptedSession,
    as_blocks,
    exhaustive_best,
    ladder_record,
    ladder_spec,
    make_vocab,
    random_toy,
    two_path_script,
)


def _verdict(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_1_oracle_equivalence():
    """Beam search wide enough to be exhaustive must match brute force."""
    rng = random.Random(2024)
    vocab = make_vocab(2)  # three ids including EOS
    started = time.time()
    mismatches = 0
    for _ in range(20):
        n_symbols = rng.randint(1, 2)
        spec = ToyTransducerSpec(
            mapping={
                s: tuple(rng.randrange(2) for _ in range(rng.randint(1, 3)))
                for s in range(n_symbols)
            },
            noise_epsilon=rng.uniform(0.05, 0.5),
            insufficient_context_mode=rng.choice(list(InsufficientContextMode)),
            lookahead=rng.randint(0, 1),
        )
        source = tuple(rng.randrange(n_symbols) for _ in range(rng.randint(1, 3)))
        block = Block(payload=source, duration_ms=400.0, is_final=rng.random() < 0.5)
        factory = make_toy_model(spec, vocab)
        oracle_session, search_session = factory(), factory()
        oracle_session.ingest_block(block)
        search_session.ingest_block(block)
        expected = exhaustive_best(oracle_session, vocab, max_total=4)
        got = standard_beam_search(
            search_session, (), SearchConfig(beam_size=81), vocab.eos_id, max_total=4
        )
        if got.tokens != expected:
            mismatches += 1
    elapsed = time.time() - started
    _verdict(
        "1 oracle-equivalence",
        mismatches == 0 and elapsed < 5.0,
        f"20 seeds, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_2_prefix_monotonicity():
    """Every incremental commit stream must be strictly prefix-monotone."""
    rng = random.Random(77)
    policies = (
        [PolicyState()]
        + [PolicyState(PolicyKind.HOLD, n) for n in (1, 2, 3, 4)]
        + [PolicyState(PolicyKind.LOCAL_AGREEMENT, n) for n in (2, 3)]
    )
    grid = list(itertools.product(list(Algorithm), policies))
    started = time.time()
    violations = 0
    for i in range(1000):
        algo, policy = grid[i % len(grid)]
        spec, vocab, source = random_toy(rng)
        transcript = decode_session(
            make_toy_model(spec, vocab),
            as_blocks(source, rng.randint(1, 3)),
            eos_id=vocab.eos_id,
            algo=algo,
            policy=policy,
            cfg=SearchConfig(beam_size=3),
        )
        joined: tuple[int, ...] = ()
        for decision in transcript.decisions:
            joined += decision.committed
            # Everything committed so far is a prefix of what the block shows.
            if decision.best[: len(joined)] != joined:
                violations += 1
        if joined != transcript.final_output:
            violations += 1
    elapsed = time.time() - started
    _verdict(
        "2 prefix-monotonicity",
        violations == 0 and elapsed < 60.0,
        f"1000 sessions, {violations} violations, {elapsed:.1f}s",
    )


def _two_path_run(algo: Algorithm, corpus):
    def factory():
        return ScriptedSession(two_path_script(), vocab_size=6)

    cfg = RunConfig(algo=algo, beam_size=2, block_symbols=1)
    return run_corpus(corpus, factory, cfg, TWO_PATH_EOS), factory


def test_criterion_3_ibwbs_beats_bwbs_on_two_path_fixture():
    """Per-beam stopping must commit a longer correct prefix and win on BLEU."""
    corpus = [
        CorpusRecord(id=f"trap{i}", source=(0, 1), reference=(B, C, D, E), block_ms=500.0)
        for i in range(3)
    ]
    relaxed, factory = _two_path_run(Algorithm.IBWBS, corpus)
    conservative, _ = _two_path_run(Algorithm.BWBS, corpus)

    # Commit comparison in the affected (first) block of one utterance.
    def first_block_commit(algo):
        transcript = decode_session(
            factory,
            as_blocks((0, 1), 1, symbol_ms=500.0),
            eos_id=TWO_PATH_EOS,
            algo=algo,
            cfg=SearchConfig(beam_size=2),
        )
        return tuple(
            t for d in transcript.decisions if d.source_ms <= 500.0 for t in d.committed
        )

    relaxed_commit = first_block_commit(Algorithm.IBWBS)
    conservative_commit = first_block_commit(Algorithm.BWBS)
    reference = (B, C, D, E)
    ok = (
        len(relaxed_commit) > len(conservative_commit)
        and relaxed_commit == reference[: len(relaxed_commit)]
        and relaxed.bleu > conservative.bleu
    )
    _verdict(
        "3 per-beam-stopping-dominance",
        ok,
        f"block-1 commit {len(relaxed_commit)} vs {len(conservative_commit)} tokens, "
        f"BLEU {relaxed.bleu:.1f} vs {conservative.bleu:.1f}",
    )


def test_criterion_4_metric_hand_checks():
    """Latency and BLEU values must match independently computed numbers."""
    al_ok = (
        abs(average_lagging(LatencyInput((1000.0, 2000.0, 3000.0, 4000.0), 4000.0, 4)) - 1000.0)
        < 1e-9
        and abs(average_lagging(LatencyInput((4000.0, 4000.0), 4000.0, 4)) - 4000.0) < 1e-9
    )
    laal_ok = (
        abs(
            laal(LatencyInput((1000.0, 2000.0, 3000.0, 4000.0, 4000.0, 4000.0), 4000.0, 4))
            - 1500.0
        )
        < 1e-9
    )
    rng = random.Random(5)
    dominance_ok = True
    for _ in range(1000):
        duration = rng.uniform(200.0, 6000.0)
        n = rng.randint(1, 15)
        delays = sorted(rng.uniform(0.0, duration) for _ in range(n))
        if rng.random() < 0.4:
            delays[-1] = duration
        inp = LatencyInput(tuple(delays), duration, rng.randint(1, 12))
        if laal(inp) < average_lagging(inp) - 1e-9:
            dominance_ok = False
    bleu_ok = (
        bleu_score(bleu_statistics((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))) == 100.0
        and bleu_score(bleu_statistics((1, 2, 3, 4), (1, 2, 3, 5))) == 0.0
    )
    _verdict(
        "4 metric-hand-checks",
        al_ok and laal_ok and dominance_ok and bleu_ok,
        "AL/LAAL worked examples at 1e-9, 1000 dominance draws, BLEU exact",
    )


def test_criterion_5_compute_accounting():
    """Incremental blockwise decoding must beat full re-decoding on passes."""
    symbols, tokens_per_symbol = 10, 2
    mapping = {
        s: tuple(range(s * tokens_per_symbol, (s + 1) * tokens_per_symbol))
        for s in range(symbols)
    }
    vocab = make_vocab(symbols * tokens_per_symbol)
    spec = ToyTransducerSpec(
        mapping=mapping,
        noise_epsilon=0.05,
        insufficient_context_mode=InsufficientContextMode.EOS,
    )
    factory = make_toy_model(spec, vocab, ContextMode.FULL_CONTEXT)
    rng = random.Random(99)
    corpus = []
    for i in range(20):
        source = tuple(rng.randrange(symbols) for _ in range(30))
        corpus.append(
            CorpusRecord(
                id=f"u{i:03d}",
                source=source,
                reference=tuple(t for s in source for t in mapping[s]),
                block_ms=280.0,
            )
        )
    passes = {}
    for algo in (Algorithm.BS, Algorithm.IBWBS):
        cfg = RunConfig(
            algo=algo,
            policy=PolicyKind.LOCAL_AGREEMENT,
            policy_param=2,
            block_symbols=3,
            context=ContextMode.FULL_CONTEXT,
        )
        passes[algo] = run_corpus(corpus, factory, cfg, vocab.eos_id).forward_passes
    reduction = 100.0 * (passes[Algorithm.BS] - passes[Algorithm.IBWBS]) / passes[Algorithm.BS]
    _verdict(
        "5 compute-accounting",
        passes[Algorithm.IBWBS] < passes[Algorithm.BS],
        f"BS {passes[Algorithm.BS]} vs IBWBS {passes[Algorithm.IBWBS]} forward passes, "
        f"{reduction:.1f}% reduction",
    )


def test_criterion_6_policy_latency_control():
    """Withholding more tokens or reading bigger blocks cannot cut latency."""
    spec, vocab = ladder_spec(symbols=8)
    factory = make_toy_model(spec, vocab)
    corpus = [ladder_record(f"u{i}", 8) for i in range(3)]
    hold_base = RunConfig(block_symbols=1, policy=PolicyKind.HOLD, policy_param=0)
    hold_points = sweep(corpus, factory, hold_base, "policy_param", (0, 1, 2, 4, 8), vocab.eos_id)
    hold_values = [p.report.laal_ms for p in hold_points]
    block_points = sweep(corpus, factory, RunConfig(), "block_symbols", (1, 2, 4), vocab.eos_id)
    block_values = [p.report.laal_ms for p in block_points]
    ok = hold_values == sorted(hold_values) and block_values == sorted(block_values)
    _verdict(
        "6 policy-latency-control",
        ok,
        f"hold-n LAAL {['%.0f' % v for v in hold_values]}, "
        f"block LAAL {['%.0f' % v for v in block_values]}",
    )


def test_criterion_7_degenerate_offline_equivalence():
    """One final block with the heuristic off: all strategies must agree."""
    rng = random.Random(404)
    cfg = SearchConfig(repetition_detection=False)
    disagreements = 0
    for _ in range(50):
        spec, vocab, source = random_toy(rng)
        factory = make_toy_model(spec, vocab)
        blocks = [Block(payload=tuple(source), duration_ms=600.0, is_final=True)]
        outputs = {
            algo: decode_session(factory, blocks, eos_id=vocab.eos_id, algo=algo, cfg=cfg)
            for algo in Algorithm
        }
        if not (
            outputs[Algorithm.BS].final_output
            == outputs[Algorithm.BWBS].final_output
            == outputs[Algorithm.IBWBS].final_output
        ):
            disagreements += 1
    _verdict(
        "7 degenerate-offline-equivalence",
        disagreements == 0,
        f"50 random specs, {disagreements} disagreements",
    )


def test_criterion_8_determinism(tmp_path):
    """Evaluating twice with one configuration must produce byte-identical CSV."""
    import json as json_module

    from conftest import dump_corpus, spec_to_json

    spec, vocab = ladder_spec(symbols=6)
    model_path = tmp_path / "model.json"
    model_path.write_text(json_module.dumps(spec_to_json(spec, vocab)), encoding="utf-8")
    corpus_path = tmp_path / "corpus.jsonl"
    dump_corpus([ladder_record("u1", 6), ladder_record("u2", 4)], corpus_path)
    outputs = []
    for run_index in range(2):
        out = tmp_path / f"report{run_index}.csv"
        code = cli_main(
            [
                "eval",
                "--corpus",
                str(corpus_path),
                "--model",
                str(model_path),
                "--policy",
                "la:2",
                "--block-symbols",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    _verdict(
        "8 determinism",
        outputs[0] == outputs[1],
        f"{len(outputs[0])} bytes, identical reruns",
    )


def test_criterion_9_repetition_heuristic():
    """The repeat trigger trims exactly two tokens; without it the per-block
    loop runs to the length bound."""
    vocab = make_vocab(2)
    spec = ToyTransducerSpec(
        mapping={7: (0, 1)},
        noise_epsilon=0.0,
        insufficient_context_mode=InsufficientContextMode.REPEAT,
    )
    factory = make_toy_model(spec, vocab)

    def fresh_session():
        session = factory()
        session.ingest_block(Block(payload=(7,), duration_ms=1000.0, is_final=False))
        return session

    seed = (Hypothesis(),)
    with_trigger = ibwbs_block(
        seed, 0, fresh_session(), SearchConfig(), vocab.eos_id, max_total=12
    )
    # Trigger fires at [t0, t1, t1]; the stopped beam keeps 3 - 2 = 1 token.
    trimmed = with_trigger[0]
    trigger_ok = trimmed.tokens == (0,)

    without = ibwbs_block(
        seed,
        0,
        fresh_session(),
        SearchConfig(repetition_detection=False),
        vocab.eos_id,
        max_total=12,
    )
    cap_ok = len(without[0].tokens) == 12

    # Same behavior through the CLI flag: disabling detection makes the
    # per-block loops run to the bound, costing strictly more queries.
    record = ladder_record("u", 6)
    ladder, ladder_vocab = ladder_spec(symbols=6)
    ladder_factory = make_toy_model(ladder, ladder_vocab)
    from simulbeam import run_utterance

    on_transcript, _ = run_utterance(
        record, ladder_factory, RunConfig(block_symbols=2), ladder_vocab.eos_id
    )
    off_transcript, _ = run_utterance(
        record,
        ladder_factory,
        RunConfig(block_symbols=2, repetition_detection=False),
        ladder_vocab.eos_id,
    )
    flag_ok = off_transcript.forward_passes > on_transcript.forward_passes
    _verdict(
        "9 repetition-heuristic",
        trigger_ok and cap_ok and flag_ok,
        f"trimmed to {trimmed.tokens}, cap run {len(without[0].tokens)} tokens, "
        f"passes {on_transcript.forward_passes} -> {off_transcript.forward_passes} without trigger",
    )

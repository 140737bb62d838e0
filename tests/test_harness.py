"""Corpus loading, streaming simulation, sweeps, and report formatting."""

from __future__ import annotations

import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulbeam import (
    Algorithm,
    ConfigError,
    ContextMode,
    CorpusError,
    CorpusRecord,
    PolicyKind,
    RunConfig,
    load_corpus,
    make_toy_model,
    run_corpus,
    run_utterance,
    sweep,
)
from simulbeam import harness
from simulbeam.harness import blocks_for
from simulbeam.harness import (
    CSV_HEADER,
    SweepPoint,
    report_to_csv,
    report_to_json,
    sweep_to_csv,
)
import reference_metrics
from conftest import dump_corpus, ladder_record, ladder_spec, random_toy, reference_for


@pytest.fixture
def ladder_setup():
    spec, vocab = ladder_spec(symbols=6)
    factory = make_toy_model(spec, vocab)
    corpus = [ladder_record("u1", 6), ladder_record("u2", 4)]
    return spec, vocab, factory, corpus


class TestLoadCorpus:
    def _write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_valid_two_lines(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                '{"id": "a", "source": [0, 1], "reference": [0, 1, 2], "block_ms": 250}',
                '{"id": "b", "source": [1], "reference": [2], "block_ms": 250}',
            ],
        )
        records = load_corpus(path)
        assert [r.id for r in records] == ["a", "b"]
        assert records[0].source == (0, 1)

    def test_duplicate_id_reported_with_name(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                '{"id": "a", "source": [0], "reference": [0], "block_ms": 250}',
                '{"id": "a", "source": [1], "reference": [1], "block_ms": 250}',
            ],
        )
        with pytest.raises(CorpusError, match="'a'"):
            load_corpus(path)

    def test_empty_reference_is_schema_error(self, tmp_path):
        path = self._write(
            tmp_path, ['{"id": "a", "source": [0], "reference": [], "block_ms": 250}']
        )
        with pytest.raises(CorpusError, match="reference"):
            load_corpus(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = self._write(
            tmp_path,
            ['{"id": "a", "source": [0], "reference": [0], "block_ms": 250}', "{oops"],
        )
        with pytest.raises(CorpusError, match=":2:"):
            load_corpus(path)

    @pytest.mark.parametrize("value", ["Infinity", "NaN"])
    def test_non_finite_block_ms_reports_line_number(self, tmp_path, value):
        path = self._write(
            tmp_path,
            [
                '{"id": "a", "source": [0], "reference": [0], "block_ms": 250}',
                '{"id": "b", "source": [0], "reference": [0], "block_ms": %s}' % value,
            ],
        )
        with pytest.raises(CorpusError, match=r":2: .*block_ms must be positive and finite"):
            load_corpus(path)

    # The corpus is the one carrier of a symbol's duration: a JSON number in
    # any of its spellings, and nothing that only ``float()`` would read.
    @pytest.mark.parametrize("value", ["10", "2.5", "25e-1", "1.5E+3", "1E-300"])
    def test_block_ms_spellings_read_as_numbers(self, tmp_path, value):
        path = self._write(
            tmp_path,
            ['{"id": "b", "source": [0], "reference": [0], "block_ms": %s}' % value],
        )
        assert load_corpus(path)[0].block_ms == float(value)

    @pytest.mark.parametrize("value", ["1_0", "\u0661\u0662", "+5", "5.", ".5", "INF", "0x10",
                                       "1e", "inf", "nan"])
    def test_block_ms_outside_json_number_syntax_reports_line_number(self, tmp_path, value):
        path = self._write(
            tmp_path,
            [
                '{"id": "a", "source": [0], "reference": [0], "block_ms": 250}',
                '{"id": "b", "source": [0], "reference": [0], "block_ms": %s}' % value,
            ],
        )
        with pytest.raises(CorpusError, match=":2: Expecting"):
            load_corpus(path)

    @pytest.mark.parametrize("value", ["0", "-0", "-5", "-1e-300"])
    def test_non_positive_block_ms_reports_line_number(self, tmp_path, value):
        path = self._write(
            tmp_path,
            [
                '{"id": "a", "source": [0], "reference": [0], "block_ms": 250}',
                '{"id": "b", "source": [0], "reference": [0], "block_ms": %s}' % value,
            ],
        )
        with pytest.raises(CorpusError, match=r":2: .*block_ms must be positive and finite$"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "value, message",
        [
            ("true", "must be a JSON number"),
            ('"250"', "must be a JSON number"),
            ("1" + "0" * 400, "is out of the float range"),
        ],
        ids=["bool", "string", "huge-int"],
    )
    def test_non_number_block_ms_reports_line_number(self, tmp_path, value, message):
        path = self._write(
            tmp_path,
            [
                '{"id": "a", "source": [0], "reference": [0], "block_ms": 250}',
                '{"id": "b", "source": [0], "reference": [0], "block_ms": %s}' % value,
            ],
        )
        with pytest.raises(CorpusError, match=f":2: block_ms {message}"):
            load_corpus(path)

    @pytest.mark.parametrize("field", ["source", "reference"])
    @pytest.mark.parametrize("entry", [0.7, "2", True])
    def test_non_integer_ids_are_rejected(self, tmp_path, field, entry):
        doc = {"id": "b", "source": [0], "reference": [0], "block_ms": 250}
        doc[field] = [0, entry]
        path = self._write(
            tmp_path,
            ['{"id": "a", "source": [0], "reference": [0], "block_ms": 250}', json.dumps(doc)],
        )
        message = f":2: record 'b': {field} must hold integer ids, got {re.escape(repr(entry))}$"
        with pytest.raises(CorpusError, match=message):
            load_corpus(path)

    @pytest.mark.parametrize("value", ["null", "true", "7", "[1, 2]"])
    def test_non_string_id_reports_line_number(self, tmp_path, value):
        path = self._write(
            tmp_path,
            [
                '{"id": "a", "source": [0], "reference": [0], "block_ms": 250}',
                '{"id": %s, "source": [0], "reference": [0], "block_ms": 250}' % value,
            ],
        )
        message = f":2: id must be a string, got {re.escape(repr(json.loads(value)))}$"
        with pytest.raises(CorpusError, match=message):
            load_corpus(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1, 2]", "record must be a JSON object"),
            ('"a"', "record must be a JSON object"),
            ('{"id": "b", "source": [0], "reference": [0]}', "missing required field 'block_ms'"),
            ('{"source": [0], "reference": [0], "block_ms": 250}', "missing required field 'id'"),
            ('{"id": "b", "source": 5, "reference": [0], "block_ms": 250}',
             "source must be a JSON array of integer ids, got 5"),
            ('{"id": "b", "source": [0], "reference": "01", "block_ms": 250}',
             'reference must be a JSON array of integer ids, got "01"'),
            ('{"id": "b", "source": null, "reference": [0], "block_ms": 250}',
             "source must be a JSON array of integer ids, got null"),
        ],
        ids=["array", "string", "no-block_ms", "no-id", "source-int", "reference-string",
             "source-null"],
    )
    def test_record_shape_errors_are_named(self, tmp_path, line, message):
        path = self._write(
            tmp_path, ['{"id": "a", "source": [0], "reference": [0], "block_ms": 250}', line]
        )
        with pytest.raises(CorpusError, match=f":2: {re.escape(message)}$"):
            load_corpus(path)

    @pytest.mark.parametrize("value", ["a,b", "a\\nb", "a\\rb", '\\"a', "corpus"],
                             ids=["comma", "lf", "cr", "quote", "aggregate-row-id"])
    def test_id_the_csv_cannot_carry_reports_line_number(self, tmp_path, value):
        path = self._write(
            tmp_path,
            [
                '{"id": "a", "source": [0], "reference": [0], "block_ms": 250}',
                '{"id": "%s", "source": [0], "reference": [0], "block_ms": 250}' % value,
            ],
        )
        with pytest.raises(CorpusError, match=":2: record id .* must not contain"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"id": "", "source": [0], "reference": [0], "block_ms": 250}',
             "record id must be non-empty"),
            ('{"id": "b", "source": [], "reference": [0], "block_ms": 250}',
             "record 'b': source must be non-empty"),
        ],
        ids=["empty-id", "empty-source"],
    )
    def test_empty_id_or_source_reports_line_number(self, tmp_path, line, message):
        path = self._write(
            tmp_path, ['{"id": "a", "source": [0], "reference": [0], "block_ms": 250}', line]
        )
        with pytest.raises(CorpusError, match=f":2: {re.escape(message)}$"):
            load_corpus(path)

    def test_empty_file_rejected(self, tmp_path):
        path = self._write(tmp_path, [""])
        with pytest.raises(CorpusError, match="empty"):
            load_corpus(path)

    def test_round_trip(self, tmp_path):
        records = [ladder_record("u1", 3), ladder_record("u2", 5, block_ms=125.0)]
        path = tmp_path / "out.jsonl"
        dump_corpus(records, path)
        assert load_corpus(path) == records


class TestCorpusRecord:
    @pytest.mark.parametrize("field", ["source", "reference"])
    @pytest.mark.parametrize("entry", [1.5, "1", True], ids=["float", "string", "bool"])
    def test_entries_that_are_not_ids_are_rejected(self, field, entry):
        # The toy skipped a source entry 1.5 or "1", and decoded the source
        # (0,); a reference True scored as token 1.
        ids = {"source": (0, 1), "reference": (0, 1), field: (0, entry)}
        message = f"^record 'a': {field} must hold integer ids, got {re.escape(repr(entry))}$"
        with pytest.raises(CorpusError, match=message):
            CorpusRecord("a", block_ms=100.0, **ids)

    def test_numpy_integers_are_ids(self):
        spec, vocab = ladder_spec(2, tokens_per_symbol=1)
        record = CorpusRecord("a", (np.int64(0), 1), (0, np.int32(1)), 100.0)
        transcript, _ = run_utterance(record, make_toy_model(spec, vocab), RunConfig(),
                                      vocab.eos_id)
        assert transcript.final_output == (0, 1)


class TestRunUtterance:
    def test_block_split_and_read_count(self, ladder_setup):
        _, vocab, factory, _ = ladder_setup
        record = ladder_record("u", 6)
        cfg = RunConfig(block_symbols=2)
        blocks = blocks_for(record, cfg)
        assert len(blocks) == 3
        assert [b.is_final for b in blocks] == [False, False, True]
        _, events = run_utterance(record, factory, cfg, vocab.eos_id)
        reads = [e for e in events if e.kind == "READ"]
        assert [e.payload for e in reads] == [(0,), (1,), (2,)]

    def test_offline_configuration_single_read(self, ladder_setup):
        _, vocab, factory, _ = ladder_setup
        record = ladder_record("u", 4)
        cfg = RunConfig(block_symbols=10)
        transcript, events = run_utterance(record, factory, cfg, vocab.eos_id)
        reads = [e for e in events if e.kind == "READ"]
        writes = [e for e in events if e.kind == "WRITE"]
        assert len(reads) == 1
        assert all(w.source_consumed_ms == transcript.source_duration_ms for w in writes)

    def test_trace_is_well_formed(self, ladder_setup):
        _, vocab, factory, _ = ladder_setup
        record = ladder_record("u", 6)
        cfg = RunConfig(block_symbols=2, policy=PolicyKind.HOLD, policy_param=1)
        transcript, events = run_utterance(record, factory, cfg, vocab.eos_id)
        assert events[0].kind == "READ"
        read_time = 0.0
        for event in events:
            if event.kind == "READ":
                read_time = event.source_consumed_ms
            else:
                assert event.source_consumed_ms == read_time
        assert read_time == transcript.source_duration_ms == 6 * 500.0

    def test_rerun_is_deterministic(self, ladder_setup):
        _, vocab, factory, _ = ladder_setup
        record = ladder_record("u", 6)
        cfg = RunConfig(
            block_symbols=2, algo=Algorithm.IBWBS,
            policy=PolicyKind.LOCAL_AGREEMENT, policy_param=2,
        )
        first = run_utterance(record, factory, cfg, vocab.eos_id)
        second = run_utterance(record, factory, cfg, vocab.eos_id)
        assert first == second

    @pytest.mark.parametrize("block_ms", [280.0, 0.001])
    def test_record_block_ms_sets_duration(self, ladder_setup, block_ms):
        _, vocab, factory, _ = ladder_setup
        record = ladder_record("u", 4, block_ms=block_ms)
        transcript, _ = run_utterance(record, factory, RunConfig(block_symbols=1), vocab.eos_id)
        assert transcript.source_duration_ms == 4 * block_ms

    def test_short_final_block_is_charged_its_own_symbols(self, ladder_setup):
        # 5 symbols in blocks of 2: the final block holds one symbol.
        _, vocab, factory, _ = ladder_setup
        record = ladder_record("u", 5)
        cfg = RunConfig(block_symbols=2)
        assert [b.duration_ms for b in blocks_for(record, cfg)] == [1000.0, 1000.0, 500.0]
        transcript, _ = run_utterance(record, factory, cfg, vocab.eos_id)
        assert transcript.source_duration_ms == len(record.source) * record.block_ms

    def test_uncovered_symbol_propagates(self, ladder_setup):
        _, vocab, factory, _ = ladder_setup
        record = CorpusRecord(id="bad", source=(99,), reference=(0,), block_ms=250.0)
        with pytest.raises(ValueError, match="not covered"):
            run_utterance(record, factory, RunConfig(), vocab.eos_id)


class TestRunCorpus:
    def test_single_utterance_aggregates_match_row(self, ladder_setup):
        _, vocab, factory, _ = ladder_setup
        report = run_corpus([ladder_record("solo", 6)], factory, RunConfig(block_symbols=2),
                            vocab.eos_id)
        assert len(report.utterances) == 1
        row = report.utterances[0]
        assert report.al_ms == row.al_ms
        assert report.laal_ms == row.laal_ms
        assert report.forward_passes == row.forward_passes

    def test_perfect_decodes_score_100(self, ladder_setup):
        _, vocab, factory, corpus = ladder_setup
        report = run_corpus(corpus, factory, RunConfig(block_symbols=2), vocab.eos_id)
        assert report.bleu == pytest.approx(100.0)
        for row in report.utterances:
            assert row.output_len == row.ref_len

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        algo=st.sampled_from(list(Algorithm)),
        block_symbols=st.integers(1, 2),
    )
    def test_bleu_equals_corpus_bleu_of_the_outputs(self, seed, algo, block_symbols):
        rng = random.Random(seed)
        spec, vocab, _ = random_toy(rng)
        corpus = []
        for index in range(rng.randint(1, 4)):
            source = tuple(rng.randrange(len(spec.mapping)) for _ in range(rng.randint(2, 6)))
            reference = list(reference_for(spec, source))
            reference[rng.randrange(len(reference))] = rng.randrange(vocab.eos_id)
            corpus.append(CorpusRecord(f"u{index}", source, tuple(reference), 250.0))
        factory = make_toy_model(spec, vocab)
        cfg = RunConfig(algo=algo, beam_size=2, block_symbols=block_symbols)
        report = run_corpus(corpus, factory, cfg, vocab.eos_id)
        outputs = [run_utterance(r, factory, cfg, vocab.eos_id)[0].final_output for r in corpus]
        references = [r.reference for r in corpus]
        assert report.bleu == reference_metrics.corpus_bleu(outputs, references)
        for row, output, reference in zip(report.utterances, outputs, references):
            assert row.bleu == reference_metrics.corpus_bleu([output], [reference])

    def test_latency_means_round_once(self, ladder_setup, monkeypatch):
        # The built-in sum of floats rounds every partial sum before Python
        # 3.12 (0.1 + 0.2 + 0.3 gives 0.6000000000000001 there) and not from
        # 3.12 on; the means must not depend on the interpreter.
        _, vocab, factory, _ = ladder_setup
        lags = iter([0.1, 0.2, 0.3])
        measured = harness._utterance_report

        def report(record, transcript):
            row, statistics = measured(record, transcript)
            lag = next(lags)
            return replace(row, al_ms=lag, laal_ms=lag), statistics

        monkeypatch.setattr(harness, "_utterance_report", report)
        corpus = [ladder_record(f"u{index}", 4) for index in range(3)]
        result = run_corpus(corpus, factory, RunConfig(), vocab.eos_id)
        assert result.al_ms == result.laal_ms == 0.19999999999999998

    def test_forward_passes_sum(self, ladder_setup):
        _, vocab, factory, corpus = ladder_setup
        report = run_corpus(corpus, factory, RunConfig(block_symbols=2), vocab.eos_id)
        assert report.forward_passes == sum(r.forward_passes for r in report.utterances)

    def test_rows_sorted_by_id(self, ladder_setup):
        _, vocab, factory, _ = ladder_setup
        corpus = [ladder_record("zz", 4), ladder_record("aa", 4)]
        report = run_corpus(corpus, factory, RunConfig(), vocab.eos_id)
        assert [r.id for r in report.utterances] == ["aa", "zz"]

    def test_empty_corpus_rejected(self, ladder_setup):
        _, vocab, factory, _ = ladder_setup
        with pytest.raises(CorpusError):
            run_corpus([], factory, RunConfig(), vocab.eos_id)

    def test_duplicate_id_rejected_with_name(self, ladder_setup):
        _, vocab, factory, _ = ladder_setup
        corpus = [ladder_record("b", 4), ladder_record("a", 4), ladder_record("b", 6)]
        with pytest.raises(CorpusError, match="duplicate record id 'b'"):
            run_corpus(corpus, factory, RunConfig(), vocab.eos_id)


class TestRunConfig:
    def test_local_agreement_needs_two_contexts(self):
        with pytest.raises(ConfigError):
            RunConfig(policy=PolicyKind.LOCAL_AGREEMENT, policy_param=1)

    def test_retranslation_excludes_policies(self):
        with pytest.raises(ConfigError):
            RunConfig(retranslation=True, policy=PolicyKind.HOLD, policy_param=1)

    def test_repetition_detection_defaults_by_context(self):
        assert RunConfig(context=ContextMode.BLOCKWISE).search_config().repetition_detection
        assert not RunConfig(context=ContextMode.FULL_CONTEXT).search_config().repetition_detection
        forced = RunConfig(context=ContextMode.FULL_CONTEXT, repetition_detection=True)
        assert forced.search_config().repetition_detection

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            RunConfig(beam_size=0)
        with pytest.raises(ConfigError):
            RunConfig(block_symbols=0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(block_symbols=2.0), "block_symbols must be an integer, got 2.0"),
            (dict(beam_size=2.5), "beam_size must be an integer, got 2.5"),
            (dict(policy=PolicyKind.HOLD, policy_param=True),
             "policy_param must be an integer, got True"),
            (dict(policy_param=1.0), "policy_param must be an integer, got 1.0"),
        ],
        ids=["block-symbols-float", "beam-float", "hold-bool", "none-float"],
    )
    def test_non_integer_settings_rejected_with_name(self, fields, message):
        # Not truncated, converted or carried into a report.
        with pytest.raises(ConfigError, match=f"{message}$"):
            RunConfig(**fields)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(retranslation="no"), "retranslation must be a bool, got 'no'"),
            (dict(retranslation=1), "retranslation must be a bool, got 1"),
            (dict(repetition_detection="off"), "repetition_detection must be a bool, got 'off'"),
            (dict(context=ContextMode.FULL_CONTEXT, repetition_detection=0),
             "repetition_detection must be a bool, got 0"),
        ],
        ids=["retranslation-string", "retranslation-int", "detection-string", "detection-int"],
    )
    def test_boolean_settings_must_be_bools(self, fields, message):
        # A truthy "no" or "off" would otherwise turn the setting on.
        with pytest.raises(ConfigError, match=f"{message}$"):
            RunConfig(**fields)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(algo="bwbs"), "algo must be a member of Algorithm, got 'bwbs'"),
            (dict(policy="hold", policy_param=1), "policy must be a member of PolicyKind, got 'hold'"),
            (dict(context="full"), "context must be a member of ContextMode, got 'full'"),
        ],
        ids=["algo", "policy", "context"],
    )
    def test_enum_settings_must_be_members(self, fields, message):
        # Not a KeyError at decode time, nor a string policy run as local agreement.
        with pytest.raises(ConfigError, match=f"{message}$"):
            RunConfig(**fields)


class TestSweep:
    def test_hold_grid_latency_is_monotone(self, ladder_setup):
        _, vocab, factory, corpus = ladder_setup
        base = RunConfig(block_symbols=1, policy=PolicyKind.HOLD, policy_param=0)
        points = sweep(corpus, factory, base, "policy_param", (0, 1, 2, 4), vocab.eos_id)
        values = [p.report.laal_ms for p in points]
        assert values == sorted(values)

    def test_block_grid_ordered_by_value(self, ladder_setup):
        _, vocab, factory, corpus = ladder_setup
        points = sweep(corpus, factory, RunConfig(), "block_symbols", (4, 1, 2), vocab.eos_id)
        assert [p.value for p in points] == [1, 2, 4]

    def test_duplicate_id_rejected_with_name(self, ladder_setup):
        _, vocab, factory, _ = ladder_setup
        corpus = [ladder_record("a", 4), ladder_record("a", 4)]
        with pytest.raises(CorpusError, match="duplicate record id 'a'"):
            sweep(corpus, factory, RunConfig(), "block_symbols", (1,), vocab.eos_id)

    def test_empty_grid_rejected(self, ladder_setup):
        _, vocab, factory, corpus = ladder_setup
        with pytest.raises(ConfigError):
            sweep(corpus, factory, RunConfig(), "block_symbols", (), vocab.eos_id)

    def test_unknown_field_rejected(self, ladder_setup):
        _, vocab, factory, corpus = ladder_setup
        with pytest.raises(ConfigError, match="sweep"):
            sweep(corpus, factory, RunConfig(), "seed", (1,), vocab.eos_id)

    def test_invalid_grid_point_rejected(self, ladder_setup):
        _, vocab, factory, corpus = ladder_setup
        with pytest.raises(ConfigError):
            sweep(corpus, factory, RunConfig(), "beam_size", (0,), vocab.eos_id)

    def test_repeated_value_rejected_before_any_decoding(self, ladder_setup, monkeypatch):
        _, vocab, factory, corpus = ladder_setup
        monkeypatch.setattr(harness, "run_corpus", lambda *args: pytest.fail("decoded"))
        with pytest.raises(ConfigError, match="sweep value 2 for block_symbols is repeated"):
            sweep(corpus, factory, RunConfig(), "block_symbols", (1, 2, 2), vocab.eos_id)

    def test_bad_value_rejected_before_any_decoding(self, ladder_setup, monkeypatch):
        # The bad value comes last, after two good ones.
        _, vocab, factory, corpus = ladder_setup
        monkeypatch.setattr(harness, "run_corpus", lambda *args: pytest.fail("decoded"))
        with pytest.raises(ConfigError, match="beam_size must be an integer, at least 1, got 0"):
            sweep(corpus, factory, RunConfig(), "beam_size", (1, 2, 0), vocab.eos_id)

    @pytest.mark.parametrize("value", [1.7, True, "2"], ids=["float", "bool", "string"])
    def test_non_integer_grid_value_rejected_with_name(self, ladder_setup, value):
        _, vocab, factory, corpus = ladder_setup
        with pytest.raises(ConfigError, match=f"must be an integer, got {value!r}"):
            sweep(corpus, factory, RunConfig(), "policy_param", (value,), vocab.eos_id)

    @pytest.mark.parametrize("field, values", [("policy_param", (0, 1, 2, 4)),
                                               ("block_symbols", (1, 2, 3))])
    def test_warm_factory_matches_a_fresh_factory_per_point(self, field, values):
        """Later grid points reuse the factory, and so the toy's vectors
        that earlier points built; each gives the rows of a fresh run."""
        spec, vocab = ladder_spec(symbols=6)
        spec = replace(spec, noise_epsilon=0.05, lookahead=1)
        corpus = [ladder_record("u1", 6), ladder_record("u2", 4), ladder_record("u3", 5)]
        base = RunConfig(beam_size=3, policy=PolicyKind.HOLD, policy_param=1)
        warm = sweep(corpus, make_toy_model(spec, vocab), base, field, values, vocab.eos_id)
        fresh = [
            SweepPoint(v, run_corpus(corpus, make_toy_model(spec, vocab),
                                     replace(base, **{field: v}), vocab.eos_id))
            for v in values
        ]
        assert sweep_to_csv(warm, base) == sweep_to_csv(fresh, base)
        assert [p.report for p in warm] == [p.report for p in fresh]


class TestReportFormats:
    def test_csv_layout_and_stability(self, ladder_setup):
        _, vocab, factory, corpus = ladder_setup
        cfg = RunConfig(block_symbols=2, policy=PolicyKind.HOLD, policy_param=2)
        report = run_corpus(corpus, factory, cfg, vocab.eos_id)
        text = report_to_csv(report, cfg)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(corpus) + 1
        assert lines[-1].startswith("corpus,ibwbs,hold,2,")
        assert text == report_to_csv(run_corpus(corpus, factory, cfg, vocab.eos_id), cfg)

    def test_sweep_csv_param_column_holds_swept_value(self, ladder_setup):
        _, vocab, factory, corpus = ladder_setup
        base = RunConfig(policy=PolicyKind.HOLD, policy_param=0)
        points = sweep(corpus, factory, base, "policy_param", (0, 2), vocab.eos_id)
        lines = sweep_to_csv(points, base).strip().split("\n")
        assert [line.split(",")[3] for line in lines[1:]] == ["0", "2"]

    def test_json_aggregate_is_stable_and_parseable(self, ladder_setup):
        _, vocab, factory, corpus = ladder_setup
        cfg = RunConfig(block_symbols=2)
        report = run_corpus(corpus, factory, cfg, vocab.eos_id)
        doc = json.loads(report_to_json(report, cfg))
        assert doc["utterances"] == 2
        assert doc["algo"] == "ibwbs"
        assert doc["bleu"] == pytest.approx(100.0)


class TestLatencyBehavior:
    def test_larger_blocks_increase_latency(self, ladder_setup):
        _, vocab, factory, corpus = ladder_setup
        reports = {
            k: run_corpus(corpus, factory, RunConfig(block_symbols=k), vocab.eos_id)
            for k in (1, 2, 4)
        }
        assert reports[1].laal_ms <= reports[2].laal_ms <= reports[4].laal_ms

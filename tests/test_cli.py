"""Command-line interface behavior and exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from simulbeam import make_toy_model
from simulbeam.cli import main

from conftest import dump_corpus, ladder_record, ladder_spec, spec_to_json


@pytest.fixture
def workspace(tmp_path):
    spec, vocab = ladder_spec(symbols=6)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(spec_to_json(spec, vocab)))
    corpus_path = tmp_path / "corpus.jsonl"
    dump_corpus([ladder_record("u1", 6), ladder_record("u2", 4)], corpus_path)
    return tmp_path, str(corpus_path), str(model_path)


def run(args):
    return main(args)


class TestDecode:
    def test_prints_trace_jsonl(self, workspace, capsys):
        _, corpus, model = workspace
        assert run(["decode", "--corpus", corpus, "--model", model, "--block-symbols", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        events = [json.loads(line) for line in lines]
        assert events[0]["kind"] == "READ"
        assert {"kind", "payload", "t_ms"} <= set(events[0])
        assert any(e["kind"] == "WRITE" for e in events)

    def test_select_utterance_by_id(self, workspace, capsys):
        _, corpus, model = workspace
        assert run(["decode", "--corpus", corpus, "--model", model, "--id", "u2"]) == 0
        reads = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().split("\n")
            if json.loads(line)["kind"] == "READ"
        ]
        assert len(reads) == 4  # u2 has four symbols at one per block

    def test_unknown_id_is_input_error(self, workspace):
        _, corpus, model = workspace
        assert run(["decode", "--corpus", corpus, "--model", model, "--id", "nope"]) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_or_positive_inf_from_the_model_is_input_error(
        self, workspace, capsys, monkeypatch, bad
    ):
        _, corpus, model = workspace
        toy_session = type(make_toy_model(*ladder_spec())())
        original = toy_session.next_token_logprobs

        def broken(self, prefix):
            logprobs = original(self, prefix)
            logprobs[-1] = bad
            return logprobs

        monkeypatch.setattr(toy_session, "next_token_logprobs", broken)
        assert run(["decode", "--corpus", corpus, "--model", model]) == 1
        err = capsys.readouterr().err
        assert "input error" in err and "after prefix" in err


class TestEval:
    def test_writes_csv_and_json(self, workspace):
        tmp_path, corpus, model = workspace
        out = tmp_path / "report.csv"
        json_out = tmp_path / "report.json"
        code = run(
            ["eval", "--corpus", corpus, "--model", model, "--block-symbols", "2",
             "--policy", "hold:1", "--out", str(out), "--json", str(json_out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "id,algo,policy,param,bleu,al_ms,laal_ms,fw_passes"
        assert lines[-1].split(",")[0] == "corpus"
        assert json.loads(json_out.read_text())["policy"] == "hold"

    def test_missing_corpus_is_input_error(self, workspace, capsys):
        tmp_path, _, model = workspace
        code = run(["eval", "--corpus", str(tmp_path / "nope.jsonl"), "--model", model])
        assert code == 1
        assert "input error" in capsys.readouterr().err

    def test_bad_policy_parameter_is_config_error(self, workspace, capsys):
        _, corpus, model = workspace
        code = run(["eval", "--corpus", corpus, "--model", model, "--policy", "la:1"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_block_ms_flag_is_config_error(self, workspace, capsys, value):
        _, corpus, model = workspace
        code = run(["eval", "--corpus", corpus, "--model", model, "--block-ms", value])
        assert code == 2
        assert "configuration error: block_ms must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["Infinity", "NaN"])
    def test_non_finite_block_ms_in_corpus_is_input_error(self, workspace, capsys, value):
        tmp_path, _, model = workspace
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text(
            '{"id": "u", "source": [0], "reference": [0, 1], "block_ms": %s}\n' % value
        )
        code = run(["eval", "--corpus", str(corpus), "--model", model])
        assert code == 1
        assert "bad.jsonl:1:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corpus_line, model_patch",
        [
            ('{"id": "u", "source": [0], "reference": [0, 1], "block_ms": true}', {}),
            ('{"id": "u", "source": [0], "reference": [0, 1], "block_ms": 250}', {"epsilon": "0.5"}),
        ],
        ids=["block_ms", "epsilon"],
    )
    def test_non_number_in_input_files_is_input_error(
        self, workspace, capsys, corpus_line, model_patch
    ):
        tmp_path, _, model = workspace
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text(corpus_line + "\n")
        doc = json.loads((tmp_path / "model.json").read_text())
        (tmp_path / "bad_model.json").write_text(json.dumps({**doc, **model_patch}))
        code = run(["eval", "--corpus", str(corpus), "--model", str(tmp_path / "bad_model.json")])
        assert code == 1
        assert "must be a JSON number" in capsys.readouterr().err

    def test_overflowing_total_duration_is_input_error(self, workspace, capsys):
        tmp_path, _, model = workspace
        corpus = tmp_path / "long.jsonl"
        corpus.write_text(
            '{"id": "u", "source": [0, 1], "reference": [0, 1], "block_ms": 1e308}\n'
        )
        code = run(["eval", "--corpus", str(corpus), "--model", model])
        assert code == 1
        assert "input error: the blocks' total duration must be finite" in capsys.readouterr().err

    def test_retranslation_runs_without_policy(self, workspace, capsys):
        _, corpus, model = workspace
        code = run(
            ["eval", "--corpus", corpus, "--model", model, "--algo", "bwbs", "--retranslation"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("id,")

    def test_repetition_flag_changes_behavior(self, workspace):
        tmp_path, corpus, model = workspace
        base = tmp_path / "on.csv"
        off = tmp_path / "off.csv"
        assert run(["eval", "--corpus", corpus, "--model", model, "--out", str(base)]) == 0
        assert (
            run(
                ["eval", "--corpus", corpus, "--model", model, "--no-repetition-detection",
                 "--out", str(off)]
            )
            == 0
        )
        on_fw = int(base.read_text().strip().split("\n")[-1].split(",")[-1])
        off_fw = int(off.read_text().strip().split("\n")[-1].split(",")[-1])
        # Without the trigger the per-block loops run to the length cap.
        assert off_fw > on_fw


class TestSweep:
    def test_hold_sweep_csv(self, workspace):
        tmp_path, corpus, model = workspace
        out = tmp_path / "curve.csv"
        code = run(
            ["sweep", "--corpus", corpus, "--model", model, "--sweep-param", "hold",
             "--sweep-values", "0,1,2", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4
        assert [line.split(",")[3] for line in lines[1:]] == ["0", "1", "2"]
        laal_values = [float(line.split(",")[6]) for line in lines[1:]]
        assert laal_values == sorted(laal_values)

    def test_block_sweep(self, workspace, capsys):
        _, corpus, model = workspace
        code = run(
            ["sweep", "--corpus", corpus, "--model", model, "--sweep-param", "block-symbols",
             "--sweep-values", "1,2,4"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4

    def test_bad_values_are_config_error(self, workspace):
        _, corpus, model = workspace
        code = run(
            ["sweep", "--corpus", corpus, "--model", model, "--sweep-param", "hold",
             "--sweep-values", "a,b"]
        )
        assert code == 2

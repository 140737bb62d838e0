"""Command-line interface behavior and exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from simulbeam import make_toy_model
from simulbeam.cli import main

from conftest import dump_corpus, ladder_record, ladder_spec, spec_to_json


@pytest.fixture
def workspace(tmp_path):
    spec, vocab = ladder_spec(symbols=6)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(spec_to_json(spec, vocab)), encoding="utf-8")
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
            logprobs = original(self, prefix).copy()
            logprobs[-1] = bad
            return logprobs

        monkeypatch.setattr(toy_session, "next_token_logprobs", broken)
        assert run(["decode", "--corpus", corpus, "--model", model]) == 1
        err = capsys.readouterr().err
        assert "input error" in err and "after prefix" in err

    def test_ragged_model_vectors_are_input_error(self, workspace, capsys, monkeypatch):
        _, corpus, model = workspace
        toy_session = type(make_toy_model(*ladder_spec())())
        original = toy_session.next_token_logprobs

        def ragged(self, prefix):
            logprobs = original(self, prefix).copy()
            if prefix == ():
                logprobs[1] = -5.0  # a second beam, (1,), for the next step
            if prefix == (1,):
                logprobs = np.append(logprobs, -np.inf)
            return logprobs

        monkeypatch.setattr(toy_session, "next_token_logprobs", ragged)
        assert run(["decode", "--corpus", corpus, "--model", model]) == 1
        err = capsys.readouterr().err
        assert "input error: model returned 14 log-probabilities after prefix (1,)" in err


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
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "id,algo,policy,param,bleu,al_ms,laal_ms,fw_passes"
        assert lines[-1].split(",")[0] == "corpus"
        assert json.loads(json_out.read_text(encoding="utf-8"))["policy"] == "hold"

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

    @pytest.mark.parametrize("policy", ["hold", "la:", "la:x"])
    def test_policy_without_its_number_is_a_usage_error(self, workspace, capsys, policy):
        _, corpus, model = workspace
        with pytest.raises(SystemExit) as exited:
            run(["eval", "--corpus", corpus, "--model", model, "--policy", policy])
        assert exited.value.code == 2
        assert f"expected none, hold:N, or la:N, got {policy!r}" in capsys.readouterr().err

    # ``int()`` alone reads each of these as a number: an integer flag takes
    # only ASCII digits, after an optional minus.
    @pytest.mark.parametrize("flag, value", [("--beam", "1_0"), ("--beam", "\u0661"),
                                             ("--beam", " 6"), ("--beam", "+6"),
                                             ("--block-symbols", "\u0662")])
    def test_integer_flag_in_another_spelling_is_a_usage_error(self, workspace, capsys, flag,
                                                                 value):
        _, corpus, model = workspace
        with pytest.raises(SystemExit) as exited:
            run(["eval", "--corpus", corpus, "--model", model, flag, value])
        assert exited.value.code == 2
        assert f"argument {flag}: expected an integer, got {value!r}" in capsys.readouterr().err

    # A corpus record's ``block_ms`` is the one carrier of a duration. The
    # flag is gone in every spelling, a negative exponent included (it once
    # failed as a missing value).
    @pytest.mark.parametrize("flags", [["--block-ms", "250"], ["--block-ms=250"],
                                       ["--block-ms", "-1e3"]])
    def test_symbol_duration_has_no_flag(self, workspace, capsys, flags):
        _, corpus, model = workspace
        with pytest.raises(SystemExit) as exited:
            run(["eval", "--corpus", corpus, "--model", model, *flags])
        assert exited.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["hold:--1", "hold:\u00b2", "la:1_0", "hold:\u0662",
                                        "la: 2", "hold:+1"])
    def test_policy_number_in_another_spelling_is_a_usage_error(self, workspace, capsys,
                                                                policy):
        _, corpus, model = workspace
        with pytest.raises(SystemExit) as exited:
            run(["eval", "--corpus", corpus, "--model", model, "--policy", policy])
        assert exited.value.code == 2
        assert f"expected none, hold:N, or la:N, got {policy!r}" in capsys.readouterr().err

    def test_explicit_policy_none_is_the_default(self, workspace, capsys):
        _, corpus, model = workspace
        assert run(["eval", "--corpus", corpus, "--model", model]) == 0
        default = capsys.readouterr().out
        assert run(["eval", "--corpus", corpus, "--model", model, "--policy", "none"]) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("value", ["Infinity", "NaN", "-Infinity"])
    def test_non_finite_block_ms_in_corpus_is_input_error(self, workspace, capsys, value):
        tmp_path, _, model = workspace
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text(
            '{"id": "u", "source": [0], "reference": [0, 1], "block_ms": %s}\n' % value,
            encoding="utf-8",
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
        corpus.write_text(corpus_line + "\n", encoding="utf-8")
        doc = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
        (tmp_path / "bad_model.json").write_text(
            json.dumps({**doc, **model_patch}), encoding="utf-8"
        )
        code = run(["eval", "--corpus", str(corpus), "--model", str(tmp_path / "bad_model.json")])
        assert code == 1
        assert "must be a JSON number" in capsys.readouterr().err

    def test_non_canonical_mapping_key_is_input_error(self, workspace, capsys):
        tmp_path, corpus, _ = workspace
        doc = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
        doc["mapping"]["00"] = doc["mapping"]["0"]
        (tmp_path / "bad_model.json").write_text(json.dumps(doc), encoding="utf-8")
        code = run(["eval", "--corpus", corpus, "--model", str(tmp_path / "bad_model.json")])
        assert code == 1
        assert "mapping key '00' is not a canonical integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value, message",
        [
            ("null", "id must be a string, got None"),
            ("true", "id must be a string, got True"),
            ("[1, 2]", "id must be a string, got [1, 2]"),
            ('"a,b"', "record id 'a,b' must not contain"),
            ('"a\\nb"', "record id 'a\\nb' must not contain"),
            ('"a\\rb"', "record id 'a\\rb' must not contain"),
            ('"\\"a"', "record id '\"a' must not contain"),
        ],
        ids=["null", "bool", "list", "comma", "lf", "cr", "quote"],
    )
    def test_bad_corpus_id_is_input_error(self, workspace, capsys, value, message):
        tmp_path, _, model = workspace
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text(
            '{"id": "u", "source": [0], "reference": [0, 1], "block_ms": 250}\n'
            '{"id": %s, "source": [0], "reference": [0, 1], "block_ms": 250}\n' % value,
            encoding="utf-8",
        )
        code = run(["eval", "--corpus", str(corpus), "--model", model])
        assert code == 1
        assert f"input error: {corpus}:2: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"mapping": []}, "model mapping must be a JSON object"),
            ({"mapping": ["0"]}, "model mapping must be a JSON object"),
            ({"vocab": "tok0"}, "model vocab must be a JSON array of strings"),
            ({"vocab": [None, "<eos>"]}, "model vocab must be a JSON array of strings"),
        ],
        ids=["mapping-empty-list", "mapping-list", "vocab-string", "vocab-null-entry"],
    )
    def test_bad_model_shape_is_input_error(self, workspace, capsys, patch, message):
        tmp_path, corpus, _ = workspace
        doc = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
        (tmp_path / "bad_model.json").write_text(
            json.dumps({**doc, **patch}), encoding="utf-8"
        )
        code = run(["eval", "--corpus", corpus, "--model", str(tmp_path / "bad_model.json")])
        assert code == 1
        assert f"input error: {tmp_path / 'bad_model.json'}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: {**doc, "mode": "REPEAT"},
             "mode must be one of repeat, eos, hallucinate, got 'REPEAT'"),
            (lambda doc: [doc], "model spec must be a JSON object"),
        ],
        ids=["uppercase-mode", "top-level-array"],
    )
    def test_loose_model_spec_is_input_error(self, workspace, capsys, edit, message):
        tmp_path, corpus, _ = workspace
        doc = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
        (tmp_path / "bad_model.json").write_text(json.dumps(edit(doc)), encoding="utf-8")
        code = run(["eval", "--corpus", corpus, "--model", str(tmp_path / "bad_model.json")])
        assert code == 1
        assert f"input error: {tmp_path / 'bad_model.json'}: {message}" in capsys.readouterr().err

    def test_non_utf8_corpus_is_named(self, workspace, capsys):
        tmp_path, _, model = workspace
        corpus = tmp_path / "latin1.jsonl"
        corpus.write_bytes(b"\xff\n")
        code = run(["eval", "--corpus", str(corpus), "--model", model])
        assert code == 1
        err = capsys.readouterr().err
        assert f"input error: {corpus}: not UTF-8 text: 'utf-8' codec can't decode" in err

    def test_non_utf8_model_is_named(self, workspace, capsys):
        tmp_path, corpus, _ = workspace
        model = tmp_path / "latin1.json"
        model.write_bytes(b'{"vocab": ["\xe9", "<eos>"], "mapping": {"0": [0]}}')
        code = run(["eval", "--corpus", corpus, "--model", str(model)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"input error: {model}: not UTF-8 text: 'utf-8' codec can't decode" in err

    def test_overflowing_total_duration_is_input_error(self, workspace, capsys):
        tmp_path, _, model = workspace
        corpus = tmp_path / "long.jsonl"
        corpus.write_text(
            '{"id": "u", "source": [0, 1], "reference": [0, 1], "block_ms": 1e308}\n',
            encoding="utf-8",
        )
        code = run(["eval", "--corpus", str(corpus), "--model", model])
        assert code == 1
        assert "input error: the blocks' total duration must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("block_ms", [1e308, 5e307], ids=["corpus", "corpus-half-range"])
    def test_overflowing_length_cap_is_input_error(self, workspace, capsys, block_ms):
        # One symbol: its duration is finite, and its length cap is not.
        tmp_path, _, model = workspace
        corpus = tmp_path / "long.jsonl"
        corpus.write_text(
            '{"id": "u", "source": [0], "reference": [0], "block_ms": %r}\n' % block_ms,
            encoding="utf-8",
        )
        code = run(["eval", "--corpus", str(corpus), "--model", model])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: the blocks' total duration must be finite, and short "
                              "enough for a finite length cap") and err.count("\n") == 1

    def test_eos_only_vocabulary_is_input_error(self, workspace, capsys):
        tmp_path, corpus, _ = workspace
        model = tmp_path / "eos_only.json"
        model.write_text(json.dumps({"vocab": ["<eos>"], "mapping": {"0": [0]},
                                     "mode": "hallucinate", "lookahead": 1}), encoding="utf-8")
        code = run(["eval", "--corpus", corpus, "--model", str(model)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"input error: {model}: the toy's vocabulary needs a token besides EOS\n"

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
        on_fw = int(base.read_text(encoding="utf-8").strip().split("\n")[-1].split(",")[-1])
        off_fw = int(off.read_text(encoding="utf-8").strip().split("\n")[-1].split(",")[-1])
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
        lines = out.read_text(encoding="utf-8").strip().split("\n")
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

    @pytest.mark.parametrize("values, bad", [("1_0, \u0661", "1_0"), ("1, \u0662", "\u0662"),
                                             ("1,+2", "+2")])
    def test_values_in_another_spelling_are_config_error(self, workspace, capsys, values, bad):
        _, corpus, model = workspace
        code = run(
            ["sweep", "--corpus", corpus, "--model", model, "--sweep-param", "beam",
             "--sweep-values", values]
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"configuration error: bad sweep values {values!r}: "
                       f"expected an integer, got {bad!r}\n")

    def test_values_may_be_spaced(self, workspace, capsys):
        _, corpus, model = workspace
        code = run(
            ["sweep", "--corpus", corpus, "--model", model, "--sweep-param", "beam",
             "--sweep-values", " 1, 2 "]
        )
        assert code == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(rows) == 2

    @pytest.mark.parametrize("values", [",", " , "])
    def test_no_values_is_config_error(self, workspace, capsys, values):
        _, corpus, model = workspace
        code = run(
            ["sweep", "--corpus", corpus, "--model", model, "--sweep-param", "hold",
             "--sweep-values", values]
        )
        assert code == 2
        message = "configuration error: sweep requires at least one value\n"
        assert capsys.readouterr().err == message

    def test_repeated_value_is_config_error(self, workspace, capsys):
        _, corpus, model = workspace
        code = run(
            ["sweep", "--corpus", corpus, "--model", model, "--sweep-param", "hold",
             "--sweep-values", "2,2"]
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "configuration error: sweep value 2 for policy_param is repeated\n"


def test_output_files_are_utf8_whatever_the_locale(workspace):
    # Warnings for a locale-dependent default encoding are errors, and the C
    # locale (not coerced to UTF-8) has no way to write a non-ASCII id. The
    # same goes for stdout, which eval and decode write without --out.
    tmp_path, _, model = workspace
    corpus = tmp_path / "utf8.jsonl"
    record = {"id": "café中", "source": [0, 1, 2], "reference": [0, 1, 2, 3], "block_ms": 250.0}
    corpus.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    flags = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "simulbeam.cli"]
    files = ["--corpus", str(corpus), "--model", model]
    commands = [
        ["eval", *files, "--out", str(tmp_path / "report.csv"),
         "--json", str(tmp_path / "report.json")],
        ["sweep", *files, "--sweep-param", "hold", "--sweep-values", "0,1",
         "--out", str(tmp_path / "curve.csv")],
        ["decode", *files, "--out", str(tmp_path / "trace.jsonl")],
        ["eval", *files],
        ["decode", *files],
    ]
    stdout = []
    for command in commands:
        done = subprocess.run(flags + command, env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
        stdout.append(done.stdout)
    assert stdout[:3] == [b"", b"", b""]
    assert stdout[3] == (tmp_path / "report.csv").read_bytes()
    assert stdout[4] == (tmp_path / "trace.jsonl").read_bytes()
    report = (tmp_path / "report.csv").read_bytes().decode("utf-8")
    assert report.splitlines()[1].startswith("café中,")
    assert json.loads((tmp_path / "report.json").read_bytes().decode("utf-8"))["utterances"] == 1
    assert (tmp_path / "curve.csv").read_bytes().decode("utf-8").count("\n") == 3
    assert (tmp_path / "trace.jsonl").read_bytes().decode("utf-8").startswith('{"kind": "READ"')

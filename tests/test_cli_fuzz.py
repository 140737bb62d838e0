"""The CLI boundary under perturbed input: the demo's model, corpus and flags,
each changed the ways a user's files and flags can be wrong.

Every run returns 0, 1 or 2, no exception escapes ``cli.main``, and a run
that fails prints exactly one ``input error:`` (exit 1) or ``configuration
error:`` (exit 2) line. The draws are derandomized, so every run tests the
same inputs. No drawn duration is both legal and huge: a legal duration's
length cap bounds the decoding, and a HALLUCINATE toy in full context runs
to that cap, so durations are either at most 1,000 ms per symbol or
overflow the cap on their own.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from simulbeam.cli import main

DEMO = Path(__file__).resolve().parent.parent / "demo"
MODEL = json.loads((DEMO / "model.json").read_text(encoding="utf-8"))
RECORDS = [json.loads(line) for line in (DEMO / "corpus.jsonl").read_text(encoding="utf-8")
           .splitlines()]
MISSING = object()  # a field left out of its document

# Wrong and edge values per field, beside the demo's own.
MODEL_VALUES = {
    "vocab": [["<eos>"], ["tok0", "tok1"], ["tok0", "tok0", "<eos>"], ["tok0", None, "<eos>"],
              ["tok0", "tok1", "tok2", "<eos>"], "tok0", MISSING],
    "mapping": [{"0": [0], "00": [1]}, {"0": [99]}, {"0": [0.5]}, {"0": ["0"]}, {"0": [True]},
                {"0": []}, {"0": 5}, [["0", [0]]], {}, MISSING],
    "epsilon": [0.25, 0.999, 1.0, -0.5, "0.5", True, None, float("nan"), float("inf"), 10**400],
    "mode": ["repeat", "eos", "hallucinate", "REPEAT", 1, None],
    "lookahead": [1, 2, 7, -1, 1.5, True, "1"],
}
RECORD_VALUES = {
    "id": ["", "corpus", "a,b", "a\nb", None, 7, ["utt00"], "utt00", MISSING],
    "source": [[], [0], [0, 1], [0, 99], [0.5], ["1"], [True], 5, None,
               [7, 6, 5, 4, 3, 2, 1, 0]],
    "reference": [[], [0.5], [99], "x", [False]],
    # Short and legal, not numbers, not positive or not finite, and long
    # enough to overflow the length cap at one symbol.
    "block_ms": [1, 0.001, 1e-300, 0, -5, float("nan"), float("inf"), "250", True, 10**400,
                 1e308, 5e307, MISSING],
}
# Patches of one field each, and the fields that only go wrong together.
MODEL_PATCHES = [{field: value} for field, values in MODEL_VALUES.items() for value in values] + [
    # One token, EOS, with context to wait for: the toy's fallbacks.
    {"vocab": ["<eos>"], "mapping": {str(symbol): [0] for symbol in range(8)}, "lookahead": 1},
]
RECORD_PATCHES = [{field: value} for field, values in RECORD_VALUES.items() for value in values] + [
    {"source": [0], "block_ms": 1e308},
    {"source": [0, 1], "block_ms": 5e307},
]
# Each flag's legal values first, then its wrong ones: legal values are
# drawn three times in four.
FLAG_VALUES = {
    "--algo": (["bs", "bwbs", "ibwbs"], []),
    "--policy": (["none", "hold:0", "hold:1", "hold:2", "la:2", "la:3"],
                 ["la:1", "la:0", "hold:-1"]),
    "--beam": (["1", "2", "6"], ["0", "-1"]),
    "--block-symbols": (["1", "2", "3"], ["0"]),
    "--mode": (["blockwise", "full"], []),
}
SWITCHES = ["--retranslation", "--no-repetition-detection", "--repetition-detection"]
SWEEPS = [["hold", "0,1"], ["la", "1,2"], ["beam", "1,2"], ["block-symbols", "2,2"],
          ["beam", "x"], ["hold", ""], ["hold", "0,-1"]]


def _perturbed(draw, doc: dict, patches: list) -> dict:
    """``doc`` with one or two patches applied: fields replaced, or left out."""
    doc = dict(doc)
    for patch in draw(st.lists(st.sampled_from(patches), min_size=1, max_size=2)):
        doc.update(patch)
    return {field: value for field, value in doc.items() if value is not MISSING}


@st.composite
def runs(draw):
    """A subcommand's argument list, with the model and corpus documents it
    reads: JSON values, or raw text written as it is."""
    shape = draw(st.integers(0, 19))
    if shape < 10:
        model = MODEL
    elif shape < 19:
        model = _perturbed(draw, MODEL, MODEL_PATCHES)
    else:
        model = draw(st.sampled_from([[MODEL], "{not json", "null"]))
    lines = []
    for record in draw(st.lists(st.sampled_from(RECORDS), min_size=1, max_size=3)):
        shape = draw(st.integers(0, 19))
        if shape < 15:
            lines.append(record)
        elif shape < 19:
            lines.append(_perturbed(draw, record, RECORD_PATCHES))
        else:
            lines.append(draw(st.sampled_from([[1, 2], "{", ""])))
    command = draw(st.sampled_from(["eval", "decode", "sweep"]))
    flags = []
    for flag in draw(st.lists(st.sampled_from(sorted(FLAG_VALUES)), max_size=3, unique=True)):
        legal, wrong = FLAG_VALUES[flag]
        flags += [flag, draw(st.sampled_from(wrong if wrong and draw(st.integers(0, 3)) == 0
                                             else legal))]
    flags += draw(st.lists(st.sampled_from(SWITCHES), max_size=1))
    if command == "sweep":
        param, values = draw(st.sampled_from(SWEEPS))
        flags += ["--sweep-param", param, "--sweep-values", values]
    elif command == "decode":
        flags += draw(st.sampled_from([[], ["--id", "utt01"], ["--id", "missing"]]))
    return command, model, lines, flags


def _write(path: Path, doc) -> None:
    text = doc if isinstance(doc, str) else json.dumps(doc)
    path.write_text(text, encoding="utf-8")


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
# A vocabulary with no token besides EOS divided by zero in the toy's noise.
@example(("eval", {**MODEL, "vocab": ["<eos>"], "mapping": {"0": [0]}, "mode": "hallucinate",
                   "lookahead": 1}, RECORDS[:1], []))
# One symbol whose length cap overflows.
@example(("eval", MODEL, [{**RECORDS[0], "source": [0], "block_ms": 1e308}], []))
@given(runs())
def test_every_run_exits_0_1_or_2_with_one_named_error_line(run):
    command, model, lines, flags = run
    with tempfile.TemporaryDirectory(prefix="simulbeam-fuzz-") as scratch:
        directory = Path(scratch)
        _write(directory / "model.json", model)
        corpus = "".join((line if isinstance(line, str) else json.dumps(line)) + "\n"
                         for line in lines)
        _write(directory / "corpus.jsonl", corpus)
        argv = [command, "--corpus", str(directory / "corpus.jsonl"),
                "--model", str(directory / "model.json"),
                "--out", str(directory / "out.txt"), *flags]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(argv)
    err = stderr.getvalue()
    if code == 0:
        assert err == ""
    else:
        prefix = {1: "input error: ", 2: "configuration error: "}[code]
        assert err.startswith(prefix) and err.count("\n") == 1, err

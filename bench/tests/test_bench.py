"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import run  # noqa: E402
import sessions  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SMALL = dataclasses.replace(WORKLOADS["short-stream"], utterances=30, chunk=7)


@pytest.mark.parametrize(
    "n, pct, beyond",
    [(20, 50.0, 10), (39, 50.0, 19), (40, 75.0, 10), (363, 95.0, 18), (999, 95.0, 49),
     (1000, 99.0, 10), (6000, 99.5, 30), (100000, 99.99, 10)],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, beyond):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted on purpose
    got_pct, value, got_beyond = measure.tail(values)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert sum(v > value for v in values) == beyond


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        measure.tail([1.0] * 19)


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, None)


def test_self_time_subtracts_time_covered_by_children():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 4.0, 8.0, 0),
        _span("b.child", 5.0, 6.0, 2),
        _span("b.overlap", 5.5, 7.0, 2),  # overlaps b.child: covered once
        _span("a", 8.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 2 - 4 - 1, 2, 4 - 2, 1, 1.5, 1])
    totals = spans.totals(tree)
    assert totals["a"] == spans.Totals(2, pytest.approx(3.0), pytest.approx(3.0))
    assert totals["root"].self_s == pytest.approx(3.0)


def _checked(tmp_path, seed, workload=SMALL):
    corpus_path, model_path = write_inputs(workload, seed, tmp_path / f"s{seed}")
    return run.check_corpus(workload, *run.load(workload, corpus_path, model_path))


def test_calibration_scales_by_the_median_loop_around_the_work():
    speed = measure.Calibrated()
    speed.loops = [(0.02, 0.04)] * 3 + [(0.01, 0.01)] * 5 + [(0.03, 0.03)]
    ref = measure.CALIBRATION_REF_S
    # Work ending at loop 4 sees loops 0-7: three slow, five fast.
    assert speed.scales(4) == pytest.approx((ref / 0.01, ref / 0.01))
    # Work ending at loop 1 sees loops 0-4, three of them slow.
    assert speed.scales(1) == pytest.approx((ref / 0.02, ref / 0.04))
    assert speed.mark() == len(speed.loops) - 1 == 9


def test_digest_check_fails_on_a_one_byte_change(tmp_path):
    (checked,) = _checked(tmp_path, 3)
    expected = {checked.config.label: checked.summary()}
    assert measure.mismatches(expected, {checked.config.label: checked.summary()}) == []
    at = len(checked.csv) // 2
    flipped = chr(ord(checked.csv[at]) ^ 1)
    changed = dataclasses.replace(checked, csv=checked.csv[:at] + flipped + checked.csv[at + 1 :])
    assert measure.mismatches(expected, {checked.config.label: changed.summary()}) == [
        checked.config.label
    ]


def test_same_seed_gives_same_inputs_counts_and_digests(tmp_path):
    first = write_inputs(SMALL, 5, tmp_path / "a")
    second = write_inputs(SMALL, 5, tmp_path / "b")
    other = write_inputs(SMALL, 6, tmp_path / "c")
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()
    assert first[0].read_bytes() != other[0].read_bytes()
    runs = [_checked(tmp_path / "x", 5), _checked(tmp_path / "y", 5)]
    summaries = [[c.summary() for c in checked] for checked in runs]
    assert summaries[0] == summaries[1]
    assert all(not c.failed for checked in runs for c in checked)


def test_wrappers_count_passes_and_time_every_block(tmp_path):
    (checked,) = _checked(tmp_path, 1)
    corpus_path, model_path = write_inputs(SMALL, 1, tmp_path / "in")
    corpus, factory, eos = run.load(SMALL, corpus_path, model_path)
    tally = run.Tally()
    units = run.make_units(SMALL, [checked])
    decoder = run.Decoder(corpus, factory, eos, tally)
    decoder.timed_round(units, measure.Calibrated())
    tracer, metrics, _ = decoder.traced_round(units)
    assert tally.failed == 0 and tally.attempted == 2 * SMALL.utterances
    blocks = sum(len(r.source) for r in corpus)  # one symbol per block
    assert sum(len(u.blocks[0]) for u in units) == blocks
    assert metrics["model.fwd_calls"] == checked.report.forward_passes
    assert metrics["core.extended_per_fwd"] >= 1.0
    assert all(s is not None for s in tracer.spans)


def test_tracing_restores_the_program():
    import simulbeam.search as search
    from simulbeam import Hypothesis

    before = (search.detect_stop, search._BLOCK_OPS.copy(), Hypothesis.__dict__["score"])
    with spans.tracing(spans.Tracer()):
        assert search.detect_stop is not before[0]
    assert (search.detect_stop, search._BLOCK_OPS, Hypothesis.__dict__["score"]) == before


def test_ingest_marker_binds_the_inner_forward_pass(tmp_path):
    corpus_path, model_path = write_inputs(SMALL, 1, tmp_path)
    _, factory, _ = run.load(SMALL, corpus_path, model_path)
    inner = factory()
    marker = sessions.IngestMarker(inner)
    assert marker.next_token_logprobs == inner.next_token_logprobs


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

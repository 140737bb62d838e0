#!/usr/bin/env python3
"""simulbeam benchmark: decodes seeded toy corpora through the public API.

Measuring run (prints every metric, then one JSON line on stdout)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. Behaviour gate and its record (exit 1 on any difference)::

    python3 bench/run.py --check [--workload NAME]
    python3 bench/run.py --record --seeds 0-31 [--workload NAME]

Timings are scaled to a reference host speed with calibration loops run
between units of work (``measure.Calibrated``).

Run it from anywhere; it imports simulbeam from the ``src`` directory next
to this one and writes only under ``.bench_work`` at the repository root.
See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected.json"

if not (SRC / "simulbeam" / "__init__.py").is_file():
    sys.exit(f"bench: no simulbeam package under {SRC}")
sys.path.insert(0, str(SRC))
# One caller and no helper threads: BLAS pools (read when numpy loads) get one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import measure  # noqa: E402
import sessions  # noqa: E402
import spans  # noqa: E402
from simulbeam import ContextMode, EvalReport, RunConfig, cli, harness, model  # noqa: E402
from workloads import WORKLOADS, Config, Workload, write_inputs  # noqa: E402

SETUP_REPEATS = 15
MIN_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "utt_per_s": "1/s",
    "us_per_fwd": "us",
    "cpu_us_per_fwd": "us",
    "block_ms_p50": "ms",
    "block_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "fwd_passes": "count",
    "bleu": "BLEU",
    "al_ms": "ms",
    "laal_ms": "ms",
}

PER_LAYER = {
    "model.fwd_calls": "count",
    "model.busy_s": "s",
    "model.us_per_call": "us",
    "model.share": "share",
    "model.ingest_s": "s",
    "model.finite_per_call": "count",
    "search.self_s": "s",
    "search.bs.self_s": "s",
    "search.bwbs.self_s": "s",
    "search.ibwbs.self_s": "s",
    "search.fwd_per_output_token": "ratio",
    "search.select_calls": "count",
    "search.policy.calls": "count",
    "search.policy.busy_s": "s",
    "search.policy.held_tokens": "count",
    "core.extended_calls": "count",
    "core.extended_per_fwd": "ratio",
    "core.score_calls": "count",
    "core.detect_stop_calls": "count",
    "core.detect_stop_s": "s",
    "core.stop_repeat": "count",
    "core.stop_eos": "count",
    "metrics.busy_s": "s",
    "metrics.share": "share",
    "metrics.bleu_calls": "count",
    "metrics.lagging_calls": "count",
    "harness.self_s": "s",
    "harness.trace_events": "count",
    "harness.load_s": "s",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
}

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from simulbeam import ContextMode, load_corpus, load_model_file, make_toy_model
spec, vocab = load_model_file(sys.argv[2])
load_corpus(sys.argv[3])
make_toy_model(spec, vocab, ContextMode(sys.argv[4]))
"""


@dataclass
class Tally:
    """Utterance decodes attempted, and those that raised or did not match."""

    attempted: int = 0
    failed: int = 0


@dataclass
class Checked:
    """One configuration's decode of the whole corpus with counting sessions."""

    config: Config
    run_cfg: RunConfig
    report: EvalReport | None  # None when every utterance raised
    csv: str
    rows: dict  # utterance id -> UtteranceReport
    failed: set  # ids that raised or whose counted passes disagreed

    def summary(self) -> dict:
        return {"fwd_passes": self.report.forward_passes, "sha256": measure.digest(self.csv)}


@dataclass
class Unit:
    """A chunk of the corpus under one configuration: the timed unit of work."""

    checked: Checked
    ids: list
    fwd: int
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    blocks: list = field(default_factory=list)  # per repeat, each block's wall time
    marks: list = field(default_factory=list)  # per repeat, the calibration loop after it

    def scaled(self, speed: measure.Calibrated) -> tuple[list, list, list]:
        """Wall, CPU and block times of every repeat, scaled to the reference host."""
        walls, cpus, blocks = [], [], []
        for wall, cpu, block, mark in zip(self.walls, self.cpus, self.blocks, self.marks):
            wall_scale, cpu_scale = speed.scales(mark)
            walls.append(wall * wall_scale)
            cpus.append(cpu * cpu_scale)
            blocks.append([b * wall_scale for b in block])
        return walls, cpus, blocks


@contextmanager
def inputs(workload: Workload, seed: int):
    """Generate the seed's corpus and model files; remove them afterwards."""
    directory = WORK / f"{workload.name}-s{seed}-p{os.getpid()}"
    try:
        yield write_inputs(workload, seed, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def load(workload: Workload, corpus_path: Path, model_path: Path):
    spec, vocab = model.load_model_file(model_path)
    corpus = harness.load_corpus(corpus_path)
    factory = model.make_toy_model(spec, vocab, ContextMode(workload.context))
    return corpus, factory, vocab.eos_id


def decode_counted(records, factory, run_cfg, eos):
    """``run_corpus`` with counting sessions; also returns the ids whose
    counted forward passes differ from the transcript's."""
    counters = []

    def counting():
        counters.append(sessions.CountingSession(factory()))
        return counters[-1]

    report = harness.run_corpus(records, counting, run_cfg, eos)
    wrong = {
        row.id for row, counter in zip(report.utterances, counters)
        if row.forward_passes != counter.calls
    }
    return report, wrong


def check_config(workload: Workload, config: Config, corpus, factory, eos) -> Checked:
    run_cfg = config.run_config(workload.context)
    failed: set = set()
    records = list(corpus)
    try:
        report, wrong = decode_counted(records, factory, run_cfg, eos)
    except Exception as exc:  # the program raised: find the utterances that do
        print(f"bench: {config.label}: {exc!r}", file=sys.stderr)
        for record in corpus:
            try:
                decode_counted([record], factory, run_cfg, eos)
            except Exception:
                failed.add(record.id)
        records = [r for r in corpus if r.id not in failed]
        if not records:
            return Checked(config, run_cfg, None, "", {}, failed)
        report, wrong = decode_counted(records, factory, run_cfg, eos)
    if wrong:
        print(f"bench: {config.label}: forward-pass count mismatch in {sorted(wrong)}", file=sys.stderr)
    csv = harness.report_to_csv(report, run_cfg)
    rows = {row.id: row for row in report.utterances}
    return Checked(config, run_cfg, report, csv, rows, failed | wrong)


def check_corpus(workload: Workload, corpus, factory, eos) -> list[Checked]:
    return [check_config(workload, c, corpus, factory, eos) for c in workload.configs]


def expected_for(workload: Workload, seed: int) -> dict | None:
    if not EXPECTED.exists():
        return None
    return json.loads(EXPECTED.read_text()).get(workload.name, {}).get(str(seed))


def verify(workload: Workload, seed: int, checked: list[Checked], tally: Tally) -> None:
    """Tally the check pass: its failures, plus every utterance of a
    configuration whose digest or pass count differs from the record."""
    expected = expected_for(workload, seed)
    got = {c.config.label: c.summary() for c in checked if c.report is not None}
    wrong = [] if expected is None else measure.mismatches(expected, got)
    for c in checked:
        tally.attempted += len(c.rows.keys() | c.failed)
        tally.failed += len(c.rows.keys() | c.failed if c.config.label in wrong else c.failed)
    if expected is None:
        print(f"digest: seed {seed} not recorded in {EXPECTED.name}; checked determinism only")
    else:
        print(f"digest: {'MISMATCH ' + ', '.join(wrong) if wrong else 'matches the record'}")


def make_units(workload: Workload, checked: list[Checked]) -> list[Unit]:
    units = []
    for c in checked:
        ids = sorted(c.rows.keys() - c.failed)
        for start in range(0, len(ids), workload.chunk):
            chunk = ids[start : start + workload.chunk]
            units.append(Unit(c, chunk, sum(c.rows[i].forward_passes for i in chunk)))
    return units


class Decoder:
    """Runs units of the corpus through ``run_corpus`` with wrapped sessions."""

    def __init__(self, corpus, factory, eos: int, tally: Tally) -> None:
        self.by_id = {r.id: r for r in corpus}
        self.factory = factory
        self.eos = eos
        self.tally = tally

    def run_unit(self, unit: Unit, wrap) -> tuple[float, float, float, list]:
        """Decode and score one unit; returns wall and CPU time, the end time
        and the wrapped sessions. Rows and counted passes must match the check pass."""
        records = [self.by_id[i] for i in unit.ids]
        wrapped = []

        def make():
            wrapped.append(wrap(self.factory()))
            return wrapped[-1]

        # Every repeat starts with empty collector generations, so the
        # collections inside the unit fall on the same blocks each time.
        gc.collect()
        cpu = process_time()
        start = perf_counter()
        report = harness.run_corpus(records, make, unit.checked.run_cfg, self.eos)
        end = perf_counter()
        cpu = process_time() - cpu
        self.tally.attempted += len(records)
        for row, session in zip(report.utterances, wrapped):
            counted = getattr(session, "calls", row.forward_passes)
            self.tally.failed += row != unit.checked.rows[row.id] or counted != row.forward_passes
        return end - start, cpu, end, wrapped

    def timed_round(
        self, units: list[Unit], speed: measure.Calibrated, stop_at: float = math.inf
    ) -> float:
        """One untraced pass over the units, cut short once ``stop_at`` has
        passed; returns its wall time. Each unit is followed by a calibration
        loop of ``speed``."""
        total = 0.0
        for unit in units:
            if perf_counter() >= stop_at:
                break
            wall, cpu, end, markers = self.run_unit(unit, sessions.IngestMarker)
            unit.walls.append(wall)
            unit.cpus.append(cpu)
            unit.blocks.append(sessions.block_durations(markers, end))
            unit.marks.append(speed.mark())
            total += wall
        return total

    def traced_round(self, units: list[Unit]) -> tuple[spans.Tracer, dict, float]:
        """One traced pass over every unit: its tracer, metrics and wall time."""
        tracer = spans.Tracer()
        traced: list = []

        def wrap(inner):
            traced.append(sessions.TracedSession(inner, tracer))
            return traced[-1]

        with spans.tracing(tracer):
            wall = sum(self.run_unit(unit, wrap)[0] for unit in units)
        return tracer, round_metrics(tracer, traced, wall), wall


def setup_seconds(workload: Workload, corpus_path: Path, model_path: Path) -> float:
    """Median wall time, scaled to the reference host, of a fresh interpreter
    that imports simulbeam, loads both files and builds the model factory.
    The first run fills the bytecode cache and is not counted."""
    cmd = [
        sys.executable, "-I", "-c", SETUP_CODE,
        str(SRC), str(model_path), str(corpus_path), workload.context,
    ]
    subprocess.run(cmd, check=True)  # no timeout: a timed wait polls every 50 ms
    speed = measure.Calibrated()
    times, marks = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(cmd, check=True)
        times.append(perf_counter() - start)
        marks.append(speed.mark())
    return statistics.median(t * speed.scales(m)[0] for t, m in zip(times, marks))


def end_to_end(
    units: list[Unit], speed: measure.Calibrated, checked: list[Checked], setup_s: float, rss_mb: float
) -> dict:
    """End-to-end metrics from the units' scaled timings and the check pass."""
    walls, cpus, blocks = [], [], []
    for unit in units:
        unit_walls, unit_cpus, unit_blocks = unit.scaled(speed)
        walls.append(statistics.median(unit_walls))
        cpus.append(statistics.median(unit_cpus))
        blocks.extend(statistics.median(b) for b in zip(*unit_blocks))
    fwd = sum(u.fwd for u in units)
    pct, tail_s, beyond = measure.tail(blocks)
    print(
        f"block_ms_tail is p{pct:g} of {len(blocks)} block decisions ({beyond} beyond it); "
        f"each block's time is its median over {min(len(u.walls) for u in units)}+ repeats"
    )
    reports = [c.report for c in checked if c.report is not None]
    return {
        "setup_s": setup_s,
        "utt_per_s": sum(len(u.ids) for u in units) / sum(walls),
        "us_per_fwd": 1e6 * sum(walls) / fwd,
        "cpu_us_per_fwd": 1e6 * sum(cpus) / fwd,
        "block_ms_p50": 1e3 * statistics.median(blocks),
        "block_ms_tail": 1e3 * tail_s,
        "peak_rss_mb": rss_mb,
        "fwd_passes": sum(r.forward_passes for r in reports),
        "bleu": statistics.fmean(r.bleu for r in reports),
        "al_ms": statistics.fmean(r.al_ms for r in reports),
        "laal_ms": statistics.fmean(r.laal_ms for r in reports),
    }


def round_metrics(tracer: spans.Tracer, traced: list, wall: float) -> dict:
    """Per-layer metrics of one traced pass over the corpus."""
    t = spans.totals(tracer.spans)
    zero = spans.Totals(0, 0.0, 0.0)
    get = lambda name: t.get(name, zero)  # noqa: E731
    counts = tracer.counts
    fwd = get("model.fwd")
    model_busy = fwd.busy_s + get("model.ingest").busy_s
    metrics_busy = sum(v.busy_s for k, v in t.items() if k.startswith("metrics."))
    return {
        "model.fwd_calls": fwd.calls,
        "model.busy_s": model_busy,
        "model.us_per_call": 1e6 * fwd.busy_s / max(fwd.calls, 1),
        "model.share": model_busy / wall,
        "model.ingest_s": get("model.ingest").busy_s,
        "model.finite_per_call": sum(s.finite for s in traced) / max(fwd.calls, 1),
        "search.self_s": sum(v.self_s for k, v in t.items() if k.startswith("search.")),
        "search.bs.self_s": get("search.bs").self_s,
        "search.bwbs.self_s": get("search.bwbs").self_s,
        "search.ibwbs.self_s": get("search.ibwbs").self_s,
        "search.select_calls": get("search.select").calls,
        "search.policy.calls": get("search.policy").calls,
        "search.policy.busy_s": get("search.policy").busy_s,
        "search.policy.held_tokens": counts["search.policy.held_tokens"],
        "core.extended_calls": counts["core.extended"],
        "core.extended_per_fwd": counts["core.extended"] / max(fwd.calls, 1),
        "core.score_calls": counts["core.score"],
        "core.detect_stop_calls": get("core.detect_stop").calls,
        "core.detect_stop_s": get("core.detect_stop").busy_s,
        "core.stop_repeat": counts["core.stop_repeat"],
        "core.stop_eos": counts["core.stop_eos"],
        "metrics.busy_s": metrics_busy,
        "metrics.share": metrics_busy / wall,
        "metrics.bleu_calls": get("metrics.bleu").calls,
        "metrics.lagging_calls": get("metrics.al").calls + get("metrics.laal").calls,
        "harness.self_s": get("harness.run_corpus").self_s + get("harness.run_utterance").self_s,
        "harness.trace_events": counts["harness.trace_events"],
    }


def cli_self_seconds(workload, checked: Checked, corpus_path, model_path, tally) -> tuple:
    """One in-process ``simulbeam eval`` on the workload files: its time
    outside ``run_corpus``, and its spans. Its CSV must match the check pass."""
    out = corpus_path.with_name("cli.csv")
    argv = ["eval", "--corpus", str(corpus_path), "--model", str(model_path)]
    argv += checked.config.cli_args(workload.context) + ["--out", str(out)]
    tracer = spans.Tracer()
    with spans.tracing(tracer, only={"cli.main", "harness.run_corpus"}):
        code = cli.main(argv)
    tally.attempted += len(checked.rows)
    if code != 0 or out.read_text() != checked.csv:
        print(f"bench: simulbeam eval exited {code} or its CSV differs", file=sys.stderr)
        tally.failed += len(checked.rows)
    top = next(i for i, s in enumerate(tracer.spans) if s.name == "cli.main")
    inner = sum(s.end - s.start for s in tracer.spans if s.parent == top)
    return tracer.spans[top].end - tracer.spans[top].start - inner, tracer.spans


def measure_run(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    tally = Tally()
    with inputs(workload, seed) as (corpus_path, model_path):
        setup_s = None if trace else setup_seconds(workload, corpus_path, model_path)
        load_times = []
        for _ in range(SETUP_REPEATS if trace else 1):
            start = perf_counter()
            corpus, factory, eos = load(workload, corpus_path, model_path)
            load_times.append(perf_counter() - start)
        checked = check_corpus(workload, corpus, factory, eos)
        # Read before the timed rounds, whose stored samples grow with their number.
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verify(workload, seed, checked, tally)
        units = make_units(workload, checked)
        if not units:
            sys.exit("bench: every utterance failed; nothing to measure")
        decoder = Decoder(corpus, factory, eos, tally)
        deadline = perf_counter() + seconds
        if not trace:
            rounds = 0
            speed = measure.Calibrated()
            raw_wall = 0.0
            while rounds < MIN_ROUNDS or perf_counter() < deadline:
                stop_at = deadline if rounds >= MIN_ROUNDS else math.inf
                raw_wall += decoder.timed_round(units, speed, stop_at)
                rounds += 1
            print(
                f"{workload.name} seed {seed}: {rounds} rounds of {len(units)} units, the last "
                f"may be cut short; {raw_wall:.2f} s of decoding; calibration loop median "
                f"{1e3 * speed.median_wall_s():.2f} ms against {1e3 * measure.CALIBRATION_REF_S:g} ms"
            )
            values, units_of = end_to_end(units, speed, checked, setup_s, rss_mb), END_TO_END
        else:
            untraced, traced = [], []
            speed = measure.Calibrated()
            while not traced or perf_counter() < deadline:
                untraced.append(decoder.timed_round(units, speed))
                traced.append(decoder.traced_round(units))
            # The low median is one round's value, so counts stay whole.
            values = {k: statistics.median_low(m[k] for _, m, _ in traced) for k in traced[0][1]}
            output_tokens = sum(row.output_len for c in checked for row in c.rows.values())
            fwd = sum(c.report.forward_passes for c in checked if c.report is not None)
            values["search.fwd_per_output_token"] = fwd / max(output_tokens, 1)
            values["harness.load_s"] = statistics.median(load_times)
            values["cli.self_s"], cli_spans = cli_self_seconds(
                workload, checked[0], corpus_path, model_path, tally
            )
            values["trace.overhead"] = (
                statistics.median(wall for *_, wall in traced) / statistics.median(untraced)
            )
            spans_path = WORK / f"spans-{workload.name}.jsonl.gz"
            spans.write_spans([t.spans for t, *_ in traced] + [cli_spans], spans_path)
            print(
                f"{workload.name} seed {seed}: {len(untraced)} untraced and {len(traced)} "
                f"traced rounds of {len(units)} units; spans in {spans_path.relative_to(ROOT)}"
            )
            units_of = PER_LAYER
    for name, unit in units_of.items():
        print(f"  {name:30s} {values[name]:.6g} {unit}")
    print(f"fail_ratio: {tally.failed}/{tally.attempted}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units_of.items()},
    }
    print(json.dumps(result))
    return 0


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def gate(names: list[str], seeds: list[int] | None) -> int:
    """``--check`` (``seeds`` None: every recorded seed) or ``--record``."""
    data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    bad = 0
    for name in names:
        workload = WORKLOADS[name]
        todo = seeds if seeds is not None else sorted(int(s) for s in data.get(name, {}))
        for seed in todo:
            with inputs(workload, seed) as (corpus_path, model_path):
                checked = check_corpus(workload, *load(workload, corpus_path, model_path))
            failed = [c.config.label for c in checked if c.failed]
            got = {c.config.label: c.summary() for c in checked if c.report is not None}
            if seeds is not None and not failed:
                data.setdefault(name, {})[str(seed)] = got
                continue
            wrong = failed or measure.mismatches(data[name][str(seed)], got)
            bad += bool(wrong)
            print(f"{name} seed {seed}: {'DIFFERS ' + ', '.join(wrong) if wrong else 'ok'}")
    if seeds is not None and not bad:
        EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="compare against bench/expected.json")
    mode.add_argument("--record", action="store_true", help="write bench/expected.json")
    parser.add_argument("--seeds", type=parse_seeds, default=None, help="for --record, e.g. 0-31")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else sorted(WORKLOADS)
    if args.check:
        return gate(names, None)
    if args.record:
        if args.seeds is None:
            parser.error("--record needs --seeds")
        return gate(names, args.seeds)
    if args.workload is None:
        parser.error("--workload is required")
    return measure_run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

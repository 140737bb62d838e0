"""Corpus ingestion, streaming simulation, experiment sweeps, and reports.

A corpus is a JSONL file, one utterance per line:

    {"id": str, "source": [int], "reference": [int], "block_ms": number}

``block_ms`` is the duration of one source symbol, a positive and finite
JSON number; the ids are JSON integers. An utterance is replayed by
splitting its source into fixed-size blocks, advancing the clock by the
block duration per READ, and letting the decoder WRITE commits in between;
the resulting trace is the JSONL stream
``{"kind": "READ"|"WRITE", "payload": [...], "t_ms": number}``.

Reports are CSV with the fixed column order
``id, algo, policy, param, bleu, al_ms, laal_ms, fw_passes`` (the aggregate
row uses id ``corpus``) plus a JSON aggregate; both are byte-stable for a
given configuration, since nothing in the decoding is random.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from .core import SearchConfig, SessionTranscript
from .metrics import (
    EvalReport,
    LatencyInput,
    UtteranceReport,
    average_lagging,
    corpus_bleu,
    laal,
    token_delays,
)
from .model import Block, ContextMode, ModelFactory, json_ids, json_number
from .search import Algorithm, PolicyKind, PolicyState, decode_session


class CorpusError(ValueError):
    """Bad input data: malformed corpus or model files. CLI exit code 1."""


class ConfigError(ValueError):
    """Invalid run configuration. CLI exit code 2."""


@dataclass(frozen=True)
class CorpusRecord:
    """One utterance: source symbol ids, reference token ids, and the
    duration of a single source symbol in milliseconds."""

    id: str
    source: tuple[int, ...]
    reference: tuple[int, ...]
    block_ms: float

    def __post_init__(self) -> None:
        if not self.id:
            raise CorpusError("record id must be non-empty")
        if not self.source:
            raise CorpusError(f"record {self.id!r}: source must be non-empty")
        if not self.reference:
            raise CorpusError(f"record {self.id!r}: reference must be non-empty")
        if not 0 < self.block_ms < math.inf:
            raise CorpusError(f"record {self.id!r}: block_ms must be positive and finite")


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one evaluation run."""

    algo: Algorithm = Algorithm.IBWBS
    policy: PolicyKind = PolicyKind.NONE
    policy_param: int = 0
    beam_size: int = 6
    block_symbols: int = 1
    block_ms: float | None = None  # overrides the per-record symbol duration
    context: ContextMode = ContextMode.BLOCKWISE
    retranslation: bool = False
    repetition_detection: bool | None = None  # None: on for blockwise, off for full

    def __post_init__(self) -> None:
        if self.block_symbols < 1:
            raise ConfigError("block size must be at least 1 symbol")
        if self.block_ms is not None and not 0 < self.block_ms < math.inf:
            raise ConfigError("block_ms must be positive and finite")
        if self.retranslation and self.policy is not PolicyKind.NONE:
            raise ConfigError("commit policies do not apply to re-translation output")
        try:
            self.search_config()
            self.policy_state()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def search_config(self) -> SearchConfig:
        detection = self.repetition_detection
        if detection is None:
            detection = self.context is ContextMode.BLOCKWISE
        return SearchConfig(beam_size=self.beam_size, repetition_detection=detection)

    def policy_state(self) -> PolicyState:
        return PolicyState(self.policy, self.policy_param)


@dataclass(frozen=True)
class TraceEvent:
    """One simulation step: a READ of a source block or a WRITE of output.

    READ payload is the block index; WRITE payload is the committed tokens
    (or, for re-translation sessions, the full current-best snapshot).
    """

    kind: str
    payload: tuple[int, ...]
    source_consumed_ms: float

    def to_json(self) -> str:
        doc = {"kind": self.kind, "payload": list(self.payload), "t_ms": self.source_consumed_ms}
        return json.dumps(doc, sort_keys=True)


def load_corpus(path: str | Path) -> list[CorpusRecord]:
    """Parse a JSONL corpus, reporting schema errors with line numbers."""
    records: list[CorpusRecord] = []
    seen_ids: set[str] = set()
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            record = CorpusRecord(
                id=str(doc["id"]),
                source=json_ids(doc["source"], "source"),
                reference=json_ids(doc["reference"], "reference"),
                block_ms=json_number(doc["block_ms"], "block_ms"),
            )
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from exc
        if record.id in seen_ids:
            raise CorpusError(f"{path}:{lineno}: duplicate record id {record.id!r}")
        seen_ids.add(record.id)
        records.append(record)
    if not records:
        raise CorpusError(f"{path}: corpus is empty")
    return records


def blocks_for(record: CorpusRecord, cfg: RunConfig) -> list[Block]:
    """Split an utterance's source into fixed-size blocks; the last is final."""
    symbol_ms = cfg.block_ms if cfg.block_ms is not None else record.block_ms
    blocks = []
    for start in range(0, len(record.source), cfg.block_symbols):
        chunk = record.source[start : start + cfg.block_symbols]
        blocks.append(
            Block(
                payload=tuple(chunk),
                duration_ms=len(chunk) * symbol_ms,
                is_final=start + cfg.block_symbols >= len(record.source),
            )
        )
    return blocks


def run_utterance(
    record: CorpusRecord,
    model_factory: ModelFactory,
    cfg: RunConfig,
    eos_id: int,
) -> tuple[SessionTranscript, list[TraceEvent]]:
    """Replay one utterance as a streaming session and record its trace."""
    blocks = blocks_for(record, cfg)
    snapshots: list[tuple[float, tuple[int, ...]]] = []
    transcript = decode_session(
        model_factory,
        blocks,
        eos_id=eos_id,
        algo=cfg.algo,
        policy=cfg.policy_state(),
        retranslation=cfg.retranslation,
        cfg=cfg.search_config(),
        snapshots=snapshots,
    )
    events: list[TraceEvent] = []
    elapsed = 0.0
    for index, block in enumerate(blocks):
        elapsed += block.duration_ms
        events.append(TraceEvent("READ", (index,), elapsed))
    if cfg.retranslation:
        writes = [TraceEvent("WRITE", tokens, t_ms) for t_ms, tokens in snapshots]
    else:
        writes = [
            TraceEvent("WRITE", event.tokens, event.source_consumed_ms)
            for event in transcript.commits
        ]
    events.extend(writes)
    events.sort(key=lambda e: (e.source_consumed_ms, 0 if e.kind == "READ" else 1))
    return transcript, events


def _utterance_report(
    record: CorpusRecord, transcript: SessionTranscript
) -> UtteranceReport:
    delays = token_delays(transcript)
    if delays:
        inp = LatencyInput(delays, transcript.source_duration_ms, len(record.reference))
        al_ms, laal_ms = average_lagging(inp), laal(inp)
    else:
        # Session emitted nothing: treat as fully offline silence.
        al_ms = laal_ms = transcript.source_duration_ms
    return UtteranceReport(
        id=record.id,
        bleu=corpus_bleu([transcript.final_output], [record.reference]),
        al_ms=al_ms,
        laal_ms=laal_ms,
        forward_passes=transcript.forward_passes,
        output_len=len(transcript.final_output),
        ref_len=len(record.reference),
    )


def run_corpus(
    corpus: Sequence[CorpusRecord],
    model_factory: ModelFactory,
    cfg: RunConfig,
    eos_id: int,
) -> EvalReport:
    """Evaluate a whole corpus and aggregate quality/latency/compute."""
    if not corpus:
        raise CorpusError("cannot evaluate an empty corpus")
    ordered = sorted(corpus, key=lambda r: r.id)
    rows: list[UtteranceReport] = []
    outputs: list[tuple[int, ...]] = []
    for record in ordered:
        transcript, _ = run_utterance(record, model_factory, cfg, eos_id)
        rows.append(_utterance_report(record, transcript))
        outputs.append(transcript.final_output)
    return EvalReport(
        bleu=corpus_bleu(outputs, [r.reference for r in ordered]),
        al_ms=sum(r.al_ms for r in rows) / len(rows),
        laal_ms=sum(r.laal_ms for r in rows) / len(rows),
        forward_passes=sum(r.forward_passes for r in rows),
        utterances=tuple(rows),
    )


SWEEPABLE_FIELDS = ("policy_param", "block_symbols", "beam_size")


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a parameter sweep."""

    field: str
    value: int
    report: EvalReport


def sweep(
    corpus: Sequence[CorpusRecord],
    model_factory: ModelFactory,
    base_cfg: RunConfig,
    grid: Sequence[tuple[str, int]],
    eos_id: int,
) -> list[SweepPoint]:
    """Evaluate the corpus once per grid point, ordered by the swept value."""
    if not grid:
        raise ConfigError("sweep grid must be non-empty")
    for field, _ in grid:
        if field not in SWEEPABLE_FIELDS:
            raise ConfigError(f"cannot sweep {field!r}; choose from {SWEEPABLE_FIELDS}")
    points = []
    for field, value in sorted(grid, key=lambda item: (item[0], item[1])):
        cfg = replace(base_cfg, **{field: int(value)})
        points.append(SweepPoint(field, int(value), run_corpus(corpus, model_factory, cfg, eos_id)))
    return points


def _csv_row(row_id: str, cfg: RunConfig, param: int, row: EvalReport | UtteranceReport) -> str:
    return ",".join(
        [
            row_id,
            cfg.algo.value,
            cfg.policy.value,
            str(param),
            f"{row.bleu:.4f}",
            f"{row.al_ms:.3f}",
            f"{row.laal_ms:.3f}",
            str(row.forward_passes),
        ]
    )


CSV_HEADER = "id,algo,policy,param,bleu,al_ms,laal_ms,fw_passes"


def report_to_csv(report: EvalReport, cfg: RunConfig) -> str:
    """Per-utterance rows plus an aggregate row with id ``corpus``."""
    lines = [CSV_HEADER]
    lines.extend(_csv_row(row.id, cfg, cfg.policy_param, row) for row in report.utterances)
    lines.append(_csv_row("corpus", cfg, cfg.policy_param, report))
    return "\n".join(lines) + "\n"


def sweep_to_csv(points: Sequence[SweepPoint], base_cfg: RunConfig) -> str:
    """One aggregate row per grid point; ``param`` holds the swept value.
    No sweepable field changes ``algo`` or ``policy``, so every row reads
    them from ``base_cfg``."""
    lines = [CSV_HEADER]
    lines.extend(_csv_row("corpus", base_cfg, p.value, p.report) for p in points)
    return "\n".join(lines) + "\n"


def report_to_json(report: EvalReport, cfg: RunConfig) -> str:
    """Aggregate report as a stable one-line JSON document."""
    doc = {
        "algo": cfg.algo.value,
        "policy": cfg.policy.value,
        "param": cfg.policy_param,
        "beam_size": cfg.beam_size,
        "block_symbols": cfg.block_symbols,
        "context": cfg.context.value,
        "utterances": len(report.utterances),
        "bleu": round(report.bleu, 4),
        "al_ms": round(report.al_ms, 3),
        "laal_ms": round(report.laal_ms, 3),
        "fw_passes": report.forward_passes,
    }
    return json.dumps(doc, sort_keys=True)

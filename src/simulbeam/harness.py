"""Corpus ingestion, streaming simulation, experiment sweeps, and reports.

A corpus is a JSONL file, one utterance per line:

    {"id": str, "source": [int], "reference": [int], "block_ms": number}

``id`` is a non-empty JSON string with no double quote, comma, line feed or
carriage return, since the CSV report carries it unquoted, and it is not
``corpus``, the aggregate row's id. ``block_ms`` is the duration of one source
symbol, a positive and finite JSON number; the source and reference ids are
JSON integers. An utterance is replayed by splitting
its source into fixed-size blocks, advancing the clock by the block duration
per READ. Each block's decision is a READ and then, if it wrote anything, a
WRITE of its commit (in re-translation mode, of its snapshot); the resulting
trace is the JSONL stream
``{"kind": "READ"|"WRITE", "payload": [...], "t_ms": number}``.

Reports are CSV with the fixed column order
``id, algo, policy, param, bleu, al_ms, laal_ms, fw_passes`` (the aggregate
row uses id ``corpus``) plus a JSON aggregate; both are byte-stable for a
given configuration, since nothing in the decoding is random.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from math import fsum
from pathlib import Path
from typing import Sequence

from .core import NUMBER, SearchConfig, SessionTranscript, _set, check_types
from .metrics import (
    EvalReport,
    LatencyInput,
    UtteranceReport,
    average_lagging,
    bleu_score,
    bleu_statistics,
    laal,
    token_delays,
)
from .model import Block, ContextMode, ModelFactory, _is_id, json_ids, json_number
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
        check_types(self, CorpusError, id=str, source=tuple, reference=tuple, block_ms=NUMBER)
        if not self.id:
            raise CorpusError("record id must be non-empty")
        if any(c in self.id for c in '",\n\r') or self.id == "corpus":
            raise CorpusError(f"record id {self.id!r} must not contain '\"', ',', '\\n' or '\\r', "
                              "nor be 'corpus', the aggregate row's id")
        # The toy skips a source entry that is not an id, and BLEU would
        # count a reference ``True`` as token 1.
        for field, ids in (("source", self.source), ("reference", self.reference)):
            if not ids:
                raise CorpusError(f"record {self.id!r}: {field} must be non-empty")
            for value in ids:
                if not _is_id(value):
                    raise CorpusError(f"record {self.id!r}: {field} must hold integer ids, "
                                      f"got {value!r}")
        # An integer past the float range would overflow the clock.
        if not 0 < self.block_ms <= sys.float_info.max:
            raise CorpusError(f"record {self.id!r}: block_ms must be positive and finite")


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one evaluation run.

    The constructor builds the run's :class:`~simulbeam.core.SearchConfig`
    and :class:`~simulbeam.search.PolicyState`, which check their own
    settings, and keeps them: :meth:`search_config` and
    :meth:`policy_state` return those same objects, so a run checks its
    settings once, not once per utterance.
    """

    algo: Algorithm = Algorithm.IBWBS
    policy: PolicyKind = PolicyKind.NONE
    policy_param: int = 0
    beam_size: int = 6
    block_symbols: int = 1
    context: ContextMode = ContextMode.BLOCKWISE
    retranslation: bool = False
    repetition_detection: bool | None = None  # None: on for blockwise, off for full

    # The checked settings objects. Not fields, as ``Hypothesis._score`` is
    # not: eq, hash, repr and ``dataclasses.replace`` ignore them, and every
    # instance builds its own. Both are frozen, so a run can share them.
    _search = None
    _policy = None

    def __post_init__(self) -> None:
        check_types(self, ConfigError, algo=Algorithm, policy=PolicyKind, policy_param=int,
                    beam_size=int, block_symbols=int, context=ContextMode,
                    retranslation=bool, repetition_detection=bool)
        if self.block_symbols < 1:
            raise ConfigError(
                f"block_symbols must be an integer, at least 1, got {self.block_symbols!r}")
        if self.retranslation and self.policy is not PolicyKind.NONE:
            raise ConfigError("commit policies do not apply to re-translation output")
        detection = self.repetition_detection
        if detection is None:
            detection = self.context is ContextMode.BLOCKWISE
        try:
            _set(self, "_search", SearchConfig(beam_size=self.beam_size,
                                                repetition_detection=detection))
            _set(self, "_policy", PolicyState(self.policy, self.policy_param))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def search_config(self) -> SearchConfig:
        return self._search

    def policy_state(self) -> PolicyState:
        return self._policy


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
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            if type(doc) is not dict:
                raise CorpusError("record must be a JSON object")
            record = CorpusRecord(
                id=doc["id"],
                source=json_ids(doc["source"], "source"),
                reference=json_ids(doc["reference"], "reference"),
                block_ms=json_number(doc["block_ms"], "block_ms"),
            )
        except KeyError as exc:
            raise CorpusError(f"{path}:{lineno}: missing required field {exc}") from exc
        except (TypeError, ValueError) as exc:
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
    blocks = []
    for start in range(0, len(record.source), cfg.block_symbols):
        chunk = record.source[start : start + cfg.block_symbols]
        blocks.append(
            Block(
                payload=tuple(chunk),
                duration_ms=len(chunk) * record.block_ms,
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
    """Replay one utterance as a streaming session and record its trace: per
    block decision, a READ and then, if the block wrote anything, a WRITE of
    its commit (or, in re-translation mode, always one of its snapshot)."""
    transcript = decode_session(
        model_factory,
        blocks_for(record, cfg),
        eos_id=eos_id,
        algo=cfg.algo,
        policy=cfg.policy_state(),
        retranslation=cfg.retranslation,
        cfg=cfg.search_config(),
    )
    events: list[TraceEvent] = []
    for index, decision in enumerate(transcript.decisions):
        events.append(TraceEvent("READ", (index,), decision.source_ms))
        if cfg.retranslation:
            events.append(TraceEvent("WRITE", decision.best, decision.source_ms))
        elif decision.committed:
            events.append(TraceEvent("WRITE", decision.committed, decision.source_ms))
    return transcript, events


def _utterance_report(
    record: CorpusRecord, transcript: SessionTranscript
) -> tuple[UtteranceReport, tuple[int, ...]]:
    """The utterance's row and its BLEU statistics, counted once: the row's
    BLEU is their score, and the corpus BLEU is the score of their sum."""
    statistics = bleu_statistics(transcript.final_output, record.reference)
    inp = LatencyInput(
        token_delays(transcript), transcript.source_duration_ms, len(record.reference)
    )
    row = UtteranceReport(
        id=record.id,
        bleu=bleu_score(statistics),
        al_ms=average_lagging(inp),
        laal_ms=laal(inp),
        forward_passes=transcript.forward_passes,
        output_len=len(transcript.final_output),
        ref_len=len(record.reference),
    )
    return row, statistics


def run_corpus(
    corpus: Sequence[CorpusRecord],
    model_factory: ModelFactory,
    cfg: RunConfig,
    eos_id: int,
) -> EvalReport:
    """Evaluate a whole corpus and aggregate quality/latency/compute. Record
    ids must be unique, as :func:`load_corpus` requires of a file. The AL
    and LAAL means sum with ``fsum``, whose rounding is the same on every
    Python, as the built-in ``sum`` of floats is not."""
    if not corpus:
        raise CorpusError("cannot evaluate an empty corpus")
    ordered = sorted(corpus, key=lambda r: r.id)
    for record, following in zip(ordered, ordered[1:]):
        if record.id == following.id:
            raise CorpusError(f"duplicate record id {record.id!r}")
    rows: list[UtteranceReport] = []
    statistics: list[tuple[int, ...]] = []
    for record in ordered:
        transcript, _ = run_utterance(record, model_factory, cfg, eos_id)
        row, counts = _utterance_report(record, transcript)
        rows.append(row)
        statistics.append(counts)
    return EvalReport(
        bleu=bleu_score([sum(column) for column in zip(*statistics)]),
        al_ms=fsum(r.al_ms for r in rows) / len(rows),
        laal_ms=fsum(r.laal_ms for r in rows) / len(rows),
        forward_passes=sum(r.forward_passes for r in rows),
        utterances=tuple(rows),
    )


SWEEPABLE_FIELDS = ("policy_param", "block_symbols", "beam_size")


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a parameter sweep: the swept field's value."""

    value: int
    report: EvalReport


def sweep(
    corpus: Sequence[CorpusRecord],
    model_factory: ModelFactory,
    base_cfg: RunConfig,
    field: str,
    values: Sequence[int],
    eos_id: int,
) -> list[SweepPoint]:
    """Evaluate the corpus once per value of one field, in ascending order.

    Every point's config is built before any point is decoded: a value the
    config rejects (a float, a bool or a string where an ``int`` belongs is
    not truncated or converted) and a repeated value raise ``ConfigError``
    first."""
    if field not in SWEEPABLE_FIELDS:
        raise ConfigError(f"cannot sweep {field!r}; choose from {SWEEPABLE_FIELDS}")
    if not values:
        raise ConfigError("sweep grid must be non-empty")
    configs: dict[int, RunConfig] = {}
    for value in values:
        cfg = replace(base_cfg, **{field: value})
        if configs.setdefault(value, cfg) is not cfg:
            raise ConfigError(f"sweep value {value!r} for {field} is repeated")
    return [SweepPoint(value, run_corpus(corpus, model_factory, configs[value], eos_id))
            for value in sorted(configs)]


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

"""Command-line interface.

Subcommands:

* ``decode`` — replay one utterance and print its READ/WRITE trace as JSONL.
* ``eval``   — evaluate a corpus and write the CSV report (and optionally a
  JSON aggregate).
* ``sweep``  — evaluate a corpus across a parameter grid and write the
  latency-quality curve CSV.

Exit codes: 0 ok, 1 input error (corpus/model files), 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    ConfigError,
    CorpusError,
    CorpusRecord,
    RunConfig,
    load_corpus,
    report_to_csv,
    report_to_json,
    run_corpus,
    run_utterance,
    sweep,
    sweep_to_csv,
)
from .model import ContextMode, ModelFactory, load_model_file, make_toy_model
from .search import Algorithm, PolicyKind

_SWEEP_FIELDS = {
    "hold": "policy_param",
    "la": "policy_param",
    "block-symbols": "block_symbols",
    "beam": "beam_size",
}


def _parse_policy(text: str) -> tuple[PolicyKind, int]:
    if text == "none":
        return PolicyKind.NONE, 0
    kind, sep, param = text.partition(":")
    if kind in ("hold", "la") and sep and param.lstrip("-").isdigit():
        return PolicyKind(kind), int(param)
    raise argparse.ArgumentTypeError(f"expected none, hold:N, or la:N, got {text!r}")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="corpus JSONL file")
    parser.add_argument("--model", required=True, help="toy model spec JSON file")
    parser.add_argument(
        "--algo", choices=[a.value for a in Algorithm], default="ibwbs", help="decoding strategy"
    )
    parser.add_argument(
        "--policy",
        type=_parse_policy,
        default=(PolicyKind.NONE, 0),
        help="commit policy: none, hold:N, or la:N",
    )
    parser.add_argument("--beam", type=int, default=6, help="beam size")
    parser.add_argument("--block-symbols", type=int, default=1, help="source symbols per block")
    parser.add_argument(
        "--block-ms", type=float, default=None, help="override per-symbol duration (ms)"
    )
    parser.add_argument(
        "--mode",
        choices=[m.value for m in ContextMode],
        default="blockwise",
        help="model context mode",
    )
    parser.add_argument(
        "--retranslation", action="store_true", help="emit revisable snapshots instead of commits"
    )
    detection = parser.add_mutually_exclusive_group()
    detection.add_argument(
        "--no-repetition-detection",
        dest="repetition_detection",
        action="store_false",
        help="disable the repetition stop trigger",
    )
    detection.add_argument(
        "--repetition-detection",
        dest="repetition_detection",
        action="store_true",
        help="force the repetition stop trigger on",
    )
    parser.set_defaults(repetition_detection=None)
    parser.add_argument("--out", default=None, help="output file (default: stdout)")


def _run_config(args: argparse.Namespace) -> RunConfig:
    policy, param = args.policy
    return RunConfig(
        algo=Algorithm(args.algo),
        policy=policy,
        policy_param=param,
        beam_size=args.beam,
        block_symbols=args.block_symbols,
        block_ms=args.block_ms,
        context=ContextMode(args.mode),
        retranslation=args.retranslation,
        repetition_detection=args.repetition_detection,
    )


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` as UTF-8, to ``out`` or to stdout, whatever the locale."""
    if out is None:
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
        sys.stdout.buffer.flush()
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load(
    args: argparse.Namespace, cfg: RunConfig
) -> tuple[list[CorpusRecord], ModelFactory, int]:
    """The corpus, a model factory in the run's context mode, and the EOS id."""
    spec, vocab = load_model_file(args.model)
    corpus = load_corpus(args.corpus)
    return corpus, make_toy_model(spec, vocab, cfg.context), vocab.eos_id


def _cmd_decode(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    corpus, factory, eos_id = _load(args, cfg)
    if args.id is None:
        record = corpus[0]
    else:
        matches = [r for r in corpus if r.id == args.id]
        if not matches:
            raise CorpusError(f"no record with id {args.id!r} in {args.corpus}")
        record = matches[0]
    _, events = run_utterance(record, factory, cfg, eos_id)
    _emit("".join(event.to_json() + "\n" for event in events), args.out)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    corpus, factory, eos_id = _load(args, cfg)
    report = run_corpus(corpus, factory, cfg, eos_id)
    _emit(report_to_csv(report, cfg), args.out)
    if args.json is not None:
        Path(args.json).write_text(report_to_json(report, cfg) + "\n", encoding="utf-8")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        values = [int(v) for v in args.sweep_values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values {args.sweep_values!r}: {exc}") from exc
    if not values:
        raise ConfigError("sweep requires at least one value")
    cfg = _run_config(args)
    if args.sweep_param in ("hold", "la"):
        cfg = replace(cfg, policy=PolicyKind(args.sweep_param), policy_param=values[0])
    field = _SWEEP_FIELDS[args.sweep_param]
    corpus, factory, eos_id = _load(args, cfg)
    points = sweep(corpus, factory, cfg, field, values, eos_id)
    _emit(sweep_to_csv(points, cfg), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulbeam",
        description="Streaming beam-search decoding and evaluation over toy sequence models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decode = sub.add_parser("decode", help="replay one utterance and print its trace")
    _add_run_flags(decode)
    decode.add_argument("--id", default=None, help="utterance id (default: first record)")
    decode.set_defaults(func=_cmd_decode)

    evaluate = sub.add_parser("eval", help="evaluate a corpus and write the CSV report")
    _add_run_flags(evaluate)
    evaluate.add_argument("--json", default=None, help="also write the JSON aggregate here")
    evaluate.set_defaults(func=_cmd_eval)

    sweep_cmd = sub.add_parser("sweep", help="evaluate across a parameter grid")
    _add_run_flags(sweep_cmd)
    sweep_cmd.add_argument(
        "--sweep-param", choices=sorted(_SWEEP_FIELDS), required=True, help="parameter to sweep"
    )
    sweep_cmd.add_argument(
        "--sweep-values", required=True, help="comma-separated integer grid, e.g. 0,1,2,4,8"
    )
    sweep_cmd.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (CorpusError, OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Streaming beam-search decoding and evaluation for simultaneous translation.

Decoding strategies (conservative blockwise, incremental blockwise, and the
standard full re-decode baseline) run against pluggable sequence-model
sessions; the harness measures quality (BLEU), latency (AL/LAAL), and compute
(decoder forward passes) over streamed corpora.

The package root exports what a run needs: configuration, corpus and model
loading, the evaluation entry points and their report and error types. Every
other name is importable from its defining module (``simulbeam.core``,
``.harness``, ``.metrics``, ``.model``, ``.search``).
"""

from .core import Hypothesis
from .harness import (
    ConfigError,
    CorpusError,
    CorpusRecord,
    RunConfig,
    load_corpus,
    run_corpus,
    run_utterance,
    sweep,
)
from .metrics import EvalReport
from .model import Block, ContextMode, ModelFactory, ModelSession, load_model_file, make_toy_model
from .search import Algorithm, PolicyKind

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "Block",
    "ConfigError",
    "ContextMode",
    "CorpusError",
    "CorpusRecord",
    "EvalReport",
    "Hypothesis",
    "ModelFactory",
    "ModelSession",
    "PolicyKind",
    "RunConfig",
    "load_corpus",
    "load_model_file",
    "make_toy_model",
    "run_corpus",
    "run_utterance",
    "sweep",
]

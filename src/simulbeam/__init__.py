"""Streaming beam-search decoding and evaluation for simultaneous translation.

Decoding strategies (conservative blockwise, incremental blockwise, and the
standard full re-decode baseline) run against pluggable sequence-model
sessions; the harness measures quality (BLEU), latency (AL/LAAL), and compute
(decoder forward passes) over streamed corpora.
"""

from .core import (
    CommitEvent,
    Hypothesis,
    SearchConfig,
    SessionTranscript,
    StopReason,
    Vocabulary,
    detect_stop,
    longest_common_prefix,
    max_output_tokens,
    normalized_score,
)
from .harness import (
    ConfigError,
    CorpusError,
    CorpusRecord,
    RunConfig,
    SweepPoint,
    TraceEvent,
    blocks_for,
    dump_corpus,
    load_corpus,
    run_corpus,
    run_utterance,
    sweep,
)
from .metrics import (
    EvalReport,
    LatencyInput,
    UtteranceReport,
    average_lagging,
    corpus_bleu,
    laal,
    token_delays,
)
from .model import (
    Block,
    ContextMode,
    InsufficientContextMode,
    ModelFactory,
    ModelSession,
    ToyTransducerSpec,
    load_model_file,
    make_toy_model,
    spec_from_json,
    spec_to_json,
)
from .search import (
    Algorithm,
    PolicyKind,
    PolicyState,
    apply_policy,
    bwbs_block,
    decode_session,
    ibwbs_block,
    select_best,
    standard_beam_search,
)

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "Block",
    "CommitEvent",
    "ConfigError",
    "ContextMode",
    "CorpusError",
    "CorpusRecord",
    "EvalReport",
    "Hypothesis",
    "InsufficientContextMode",
    "LatencyInput",
    "ModelFactory",
    "ModelSession",
    "PolicyKind",
    "PolicyState",
    "RunConfig",
    "SearchConfig",
    "SessionTranscript",
    "StopReason",
    "SweepPoint",
    "ToyTransducerSpec",
    "TraceEvent",
    "UtteranceReport",
    "Vocabulary",
    "apply_policy",
    "average_lagging",
    "blocks_for",
    "bwbs_block",
    "corpus_bleu",
    "decode_session",
    "detect_stop",
    "dump_corpus",
    "ibwbs_block",
    "laal",
    "load_corpus",
    "load_model_file",
    "longest_common_prefix",
    "make_toy_model",
    "max_output_tokens",
    "normalized_score",
    "run_corpus",
    "run_utterance",
    "select_best",
    "spec_from_json",
    "spec_to_json",
    "standard_beam_search",
    "sweep",
    "token_delays",
]

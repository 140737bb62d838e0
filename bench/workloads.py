"""The benchmark's workloads: seeded corpus and toy-model generators plus the
run configurations each workload decodes its corpus with.

The program under test sees only the generated files: a JSONL corpus and a
toy-model JSON document, both in the formats ``simulbeam.harness.load_corpus``
and ``simulbeam.model.load_model_file`` read.

Source lengths are stratified (spread evenly over the workload's range, then
shuffled by the seed) and only the symbols are random, so every seed decodes
the same amount of work and the run-to-run spread measures the program, not
the draw. References are the model's mapping with a fixed number of random
edits, so BLEU and AL depend a little on the seed's content.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from simulbeam import Algorithm, ContextMode, PolicyKind, RunConfig

EOS_SURFACE = "<eos>"
SYMBOL_MS = 280.0
# Substitutions per reference token. Each reference also gains or loses one
# token, so seeds differ in where edits fall, not in how many there are.
SUBSTITUTION_RATE = 0.05

_POLICIES = {"none": PolicyKind.NONE, "hold": PolicyKind.HOLD, "la": PolicyKind.LOCAL_AGREEMENT}


@dataclass(frozen=True)
class Config:
    """One decoding configuration, spelled the way the ``simulbeam`` CLI takes it."""

    label: str
    algo: str
    policy: str = "none"  # none, hold:N or la:N
    beam: int = 6
    block_symbols: int = 1
    retranslation: bool = False

    def run_config(self, context: str) -> RunConfig:
        kind, _, param = self.policy.partition(":")
        return RunConfig(
            algo=Algorithm(self.algo),
            policy=_POLICIES[kind],
            policy_param=int(param or 0),
            beam_size=self.beam,
            block_symbols=self.block_symbols,
            context=ContextMode(context),
            retranslation=self.retranslation,
        )

    def cli_args(self, context: str) -> list[str]:
        args = [
            "--algo", self.algo,
            "--policy", self.policy,
            "--beam", str(self.beam),
            "--block-symbols", str(self.block_symbols),
            "--mode", context,
        ]
        return args + (["--retranslation"] if self.retranslation else [])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    symbols: int
    tokens_per_symbol: int
    epsilon: float
    fallback: str  # the toy model's insufficient-context mode
    context: str
    configs: tuple[Config, ...]
    utterances: int
    min_len: int
    max_len: int
    # Utterances per timed unit. The first blocks of a unit run cold, so few,
    # long units keep those blocks out of the block-time tail.
    chunk: int

    @property
    def vocab_size(self) -> int:
        return self.symbols * self.tokens_per_symbol + 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fullctx-redecode",
            why="the paper's compute comparison: bs re-decodes a full-context model "
            "while bwbs and ibwbs commit blockwise; the model's largest share of wall time",
            symbols=10,
            tokens_per_symbol=2,
            epsilon=0.05,
            fallback="eos",
            context="full",
            configs=tuple(
                Config(algo, algo, policy="la:2", beam=6, block_symbols=3)
                for algo in ("bs", "bwbs", "ibwbs")
            ),
            utterances=8,
            min_len=30,
            max_len=60,
            chunk=1,
        ),
        Workload(
            name="wide-vocab",
            why="V=1001 with every token finite: each forward pass builds 1001 hypotheses, "
            "so search and core dominate and the model is about 2 % of wall time",
            symbols=500,
            tokens_per_symbol=2,
            epsilon=0.05,
            fallback="repeat",
            context="blockwise",
            configs=(
                Config("ibwbs-hold2", "ibwbs", policy="hold:2", beam=6, block_symbols=2),
                Config("bwbs-retranslation", "bwbs", beam=6, block_symbols=2, retranslation=True),
            ),
            utterances=5,
            min_len=8,
            max_len=8,
            chunk=1,
        ),
        Workload(
            name="short-stream",
            why="many 4-symbol utterances at beam 1 with one finite candidate per pass: "
            "search does little, so harness, metrics and policy costs show",
            symbols=10,
            tokens_per_symbol=2,
            epsilon=0.0,
            fallback="repeat",
            context="blockwise",
            configs=(Config("ibwbs-la2", "ibwbs", policy="la:2", beam=1, block_symbols=1),),
            utterances=1500,
            min_len=4,
            max_len=4,
            chunk=300,
        ),
    )
}


def mapping(workload: Workload) -> dict[int, list[int]]:
    """Symbol ``s`` translates to tokens ``s*k .. s*k+k-1``; EOS is the last id."""
    k = workload.tokens_per_symbol
    return {s: list(range(s * k, (s + 1) * k)) for s in range(workload.symbols)}


def model_doc(workload: Workload) -> dict:
    surfaces = [f"tok{i}" for i in range(workload.vocab_size - 1)] + [EOS_SURFACE]
    return {
        "vocab": surfaces,
        "mapping": {str(s): targets for s, targets in mapping(workload).items()},
        "epsilon": workload.epsilon,
        "mode": workload.fallback,
        "lookahead": 0,
    }


def _reference(rng: random.Random, tokens: list[int], n_tokens: int) -> list[int]:
    """The translation with random substitutions and one token dropped or inserted."""
    out = list(tokens)
    for _ in range(round(SUBSTITUTION_RATE * len(out))):
        out[rng.randrange(len(out))] = rng.randrange(n_tokens)
    if rng.random() < 0.5 and len(out) > 1:
        del out[rng.randrange(len(out))]
    else:
        out.insert(rng.randrange(len(out) + 1), rng.randrange(n_tokens))
    return out


def corpus_docs(workload: Workload, seed: int) -> list[dict]:
    """The seed's corpus records, in the JSONL schema of ``load_corpus``."""
    rng = random.Random(f"{workload.name}/{seed}")
    n = workload.utterances
    spread = workload.max_len - workload.min_len
    lengths = [workload.min_len + (spread * i) // max(n - 1, 1) for i in range(n)]
    rng.shuffle(lengths)
    targets = mapping(workload)
    n_tokens = workload.vocab_size - 1
    docs = []
    for i, length in enumerate(lengths):
        source = [rng.randrange(workload.symbols) for _ in range(length)]
        translation = [t for s in source for t in targets[s]]
        docs.append(
            {
                "id": f"u{i:05d}",
                "source": source,
                "reference": _reference(rng, translation, n_tokens),
                "block_ms": SYMBOL_MS,
            }
        )
    return docs


def write_inputs(workload: Workload, seed: int, directory: Path) -> tuple[Path, Path]:
    """Write the seed's corpus and model files; returns ``(corpus, model)`` paths."""
    directory.mkdir(parents=True, exist_ok=True)
    corpus_path = directory / "corpus.jsonl"
    model_path = directory / "model.json"
    corpus_path.write_text(
        "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in corpus_docs(workload, seed))
    )
    model_path.write_text(json.dumps(model_doc(workload), sort_keys=True))
    return corpus_path, model_path

"""Mutation gate for the beam step's hand-proved and differentially checked
paths, the exact terms it sums, the token order the beam loop keeps, the
block ops' trims, the rank order of ``bwbs``'s beams, the selection and the
final block, the commit policies, the stop heuristic, the length cap, its
overflow check and the transcript's checks, the latency and BLEU metrics,
the harness's block durations, record ids and kept policy state, the
settings types' type rule and the toy model's confidence, noise, target ids
and vocabulary.

Each mutant is a named textual edit ``(file, old, new)`` of ``src/``, and
``old`` must occur exactly once in that file. For each mutant the script
copies ``src/``, ``tests/``, ``demo/``, ``README.md`` and ``pyproject.toml``
to a temporary directory, applies the edit, and runs the mutant's test
subset there in one pytest process: the differential subset (``SUBSET``)
for the beam step, the token order and the ``bwbs`` halt, the ``bwbs``
test class for its rank order, with ``tests/test_core.py`` for
the exact terms (``TERMS_SUBSET``), ``POLICY_SUBSET`` for ``apply_policy``
and ``bleu_statistics``, one test class each for the lone-candidate path
and the policy's successor, the block ops' test classes for their trims,
one class of ``tests/test_search.py`` each for the selection, the final
block, and the session's EOS and cap-overflow checks,
``tests/test_causality.py`` for the cap's causality,
``tests/test_core.py`` and ``tests/test_metrics.py`` alone for the rest of
``core`` and ``metrics``, the harness's own tests for ``blocks_for`` and
``CorpusRecord``'s ids and ``RunConfig``'s policy state,
``tests/test_types.py`` for ``core.check_types``, and
``tests/test_model.py`` for the toy model.
A failing run kills the mutant.

A mutant marked equivalent carries the reason no test can kill it. It is
still run, and a kill fails the gate too, since it means the reason is wrong.
A survivor is never dropped from the list: a test or an ``@example`` that
kills it is added instead.

Run from the repository root::

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

It prints one line per mutant and exits 0 when every mutant not marked
equivalent is killed and every equivalent one survives. Stopped by
``SIGTERM``, it kills its running pytest, removes its temporary directory
and exits with status 143. The unmutated copy
must pass each subset the chosen mutants run first. pytest does not collect
this file.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORE = "src/simulbeam/core.py"
SEARCH = "src/simulbeam/search.py"
METRICS = "src/simulbeam/metrics.py"
HARNESS = "src/simulbeam/harness.py"
MODEL = "src/simulbeam/model.py"
SUBSET = (
    "tests/test_kernel_differential.py",
    "tests/test_search.py",
    "tests/test_session_differential.py",
)
TERMS_SUBSET = ("tests/test_core.py",) + SUBSET
POLICY_SUBSET = (
    "tests/test_search.py",
    "tests/test_session_differential.py",
    "tests/test_metrics.py",
)
LONE_SUBSET = ("tests/test_search.py::TestBatchedGuard",)
SUCCESSOR_SUBSET = ("tests/test_search.py::TestPolicySuccessor",)
CORE_SUBSET = ("tests/test_core.py",)
METRICS_SUBSET = ("tests/test_metrics.py",)
TYPES_SUBSET = ("tests/test_types.py",)
MODEL_SUBSET = ("tests/test_model.py",)
# The same draws on every run, so a kill or a survival can be replayed.
PYTEST = ("-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")

# The margin's proof (stage 1 of ``search._step``'s docstring) bounds a
# child's exact score ``t`` by ``a - ulp(a) <= t <= a + ulp(a)``, since every
# log-prob and parent score is at most 0. So the ``width`` candidates at or
# above the cut ``K`` score at least ``K - ulp(K)``, and any candidate with
# ``a`` below the threshold ``K - m`` scores at most ``a + ulp(a)``, which is
# below ``K - ulp(K)`` once ``m >= 3 ulp(K)``. With ``k = |K|`` and
# ``u = ulp(K)``, the rounded threshold is at least ``k + 2u`` from 0, and
# ``a`` is further: ``|a| >= k + 3u`` when ``ulp(a) = u``; ``|a| > k + 3u``
# when ``ulp(a) = 2u``, since the threshold lies on that grid if rounding
# moved it; and ``|a| - ulp(a) > |a| / 2 >= k + u`` when ``ulp(a) >= 4u``.
# Sums below ``2**-1021`` in magnitude round exactly, which covers a
# subnormal ``K``, where ``ulp(4 K)`` can equal ``ulp(K)``. One ulp of ``K``
# is not enough: an ``@example`` of ``test_step_matches_reference`` at the
# binade edge 2 kills that margin.
SMALLER_MARGIN = "at least 3 ulp(|K|), enough by the proof above; 3 ulp(4|K|) is slack"
# While LA-n waits for ``n`` outputs its candidate is the committed prefix,
# and any candidate no longer than that prefix commits nothing.
WAITING_CANDIDATE = "a candidate no longer than the committed prefix commits nothing"
# The ranking loop caps every tie group at ``width`` members whether or not
# NumPy capped it first: the prefilter changes the time a step takes, not
# which candidates reach the ranking.
PREFILTER_ONLY = "the ranking loop caps the same tie groups without the prefilter"
# A child built without its terms fills them on first use from its own
# log-probs: other floats, but the same exact sum, so the same scores.
UNSTORED_TERMS = "a child without terms fills its own, with the same exact sum"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    equivalent: str = ""  # why no test can kill it, if none can
    subset: tuple[str, ...] = SUBSET


MUTANTS = (
    # _answers: the contract check.
    Mutant("contract-reverted-to-finite", SEARCH,
           "    if not stacked.item(top) <= 0:\n"
           "        for prefix, logprobs in zip(prefixes, answers):\n"
           "            if not np.maximum.reduce(logprobs) <= 0:",
           "    if not stacked.item(top) < np.inf:\n"
           "        for prefix, logprobs in zip(prefixes, answers):\n"
           "            if not np.maximum.reduce(logprobs) < np.inf:"),
    Mutant("check-first-answer-only", SEARCH,
           "if not stacked.item(top) <= 0:", "if not np.maximum.reduce(answers[0]) <= 0:"),
    # _step: the lone candidate.
    Mutant("lone-path-ignores-top", SEARCH,
           "[active[top // size].extended(top % size, matrix.item(top))]",
           "[active[0].extended(0, matrix.item(0))]", subset=LONE_SUBSET),
    # _beam_loop and _token_order: the seeds.
    Mutant("seed-score-check-dropped", SEARCH, " or not s.score <= 0", ""),
    Mutant("distinct-seed-check-dropped", SEARCH,
           "if any(before.tokens == after.tokens for before, after in zip(ordered, ordered[1:])):",
           "if False:"),
    # _beam_loop and _step: the token order the active list carries.
    Mutant("seeds-unranked", SEARCH,
           "active = _token_order(seeds) if len(seeds) > 1 else list(seeds)",
           "active = list(seeds) if _token_order(seeds) else []"),
    Mutant("parent-rank-is-row-index", SEARCH,  # a score tie broken by token, then parent
           "    ranked.sort()\n",
           "    ranked.sort(key=lambda entry: (entry[0], entry[2], entry[1]))\n"),
    Mutant("child-ranks-in-ranked-order", SEARCH,
           "sorted(ranked[:width], key=itemgetter(1))", "ranked[:width]"),
    # bwbs_block: the halt keeps one beam of each copy its trim makes, and
    # the beams come back ranked, though the loop keeps them in token order.
    Mutant("halt-copies-kept", SEARCH,
           "kept.setdefault(beam.tokens, beam)", "kept[id(beam)] = beam"),
    Mutant("bwbs-halt-in-token-order", SEARCH,
           "    for beam in ranked:\n", "    for beam in halted:\n",
           subset=("tests/test_search.py::TestBwbsBlock",)),
    Mutant("bwbs-cap-in-token-order", SEARCH,
           "tuple(ranked if active and", "tuple(active if active and",
           subset=("tests/test_search.py::TestBwbsBlock",)),
    # The block ops' trim, and what ibwbs does with the beams at the cap.
    Mutant("trim-by-one", SEARCH,
           "max(len(hyp.tokens) - 2, floor)", "max(len(hyp.tokens) - 1, floor)",
           subset=("tests/test_search.py::TestBwbsBlock", "tests/test_search.py::TestIbwbsBlock")),
    Mutant("ibwbs-cap-survivors-dropped", SEARCH,
           "    stopped.extend(active)  # length cap reached: survivors join unmodified\n", "",
           subset=("tests/test_search.py::TestIbwbsBlock",)),
    # select_best: longer wins ties, and the log-probs break a full tie.
    Mutant("shorter-wins-ties", SEARCH,
           "-normalized_score(hyp), -len(hyp.tokens)", "-normalized_score(hyp), len(hyp.tokens)",
           subset=("tests/test_search.py::TestSelectBest",)),
    Mutant("selection-ignores-log-probs", SEARCH,
           "hyp.tokens,\n            hyp.token_logprobs)", "hyp.tokens)"),
    # _final_block: a finished beam beats one left at the cap.
    Mutant("final-prefers-unfinished", SEARCH,
           "select_best(finished or leftover or seeds)",
           "select_best(leftover or finished or seeds)",
           subset=("tests/test_search.py::TestStandardBeamSearch",)),
    # decode_session: EOS never shown, and a cap from the source read so far.
    Mutant("eos-not-stripped", SEARCH,
           "    if hyp.tokens and hyp.tokens[-1] == eos_id:\n", "    if False:\n",
           subset=("tests/test_search.py::TestDecodeSession",)),
    Mutant("cap-overflow-unchecked", SEARCH,
           "        max_output_tokens(total)\n", "        pass\n",
           subset=("tests/test_search.py::TestDecodeSession",)),
    Mutant("cap-reads-next-block", SEARCH,
           "max_output_tokens(elapsed)\n",
           "max_output_tokens(sum(b.duration_ms for b in blocks[: len(decisions) + 2]))\n",
           subset=("tests/test_causality.py",)),
    # _step: the finite mask skips ``-inf`` entries.
    Mutant("finite-mask-keeps-minus-inf", SEARCH,
           "finite = matrix > _NEG_INF", "finite = matrix >= _NEG_INF"),
    # _step: the cut.
    Mutant("cut-threshold-one-place-off", SEARCH,
           "ordered[-width]", "ordered[1 - width]"),
    Mutant("cut-guarded-by-count", SEARCH, "    if cut > -math.inf:\n", "    if count > width:\n"),
    Mutant("no-margin", SEARCH, "cut - 3 * math.ulp(4 * cut)", "cut"),
    Mutant("fixed-margin-3-ulp-of-1", SEARCH,
           "cut - 3 * math.ulp(4 * cut)", "cut - 3 * math.ulp(1.0)"),
    Mutant("margin-1-ulp-of-K", SEARCH, "3 * math.ulp(4 * cut)", "math.ulp(cut)"),
    Mutant("margin-3-ulp-of-2K", SEARCH, "3 * math.ulp(4 * cut)", "3 * math.ulp(2 * cut)",
           equivalent=SMALLER_MARGIN),
    Mutant("margin-3-ulp-of-K", SEARCH, "3 * math.ulp(4 * cut)", "3 * math.ulp(cut)",
           equivalent=SMALLER_MARGIN),
    Mutant("margin-1-ulp-of-4K", SEARCH, "3 * math.ulp(4 * cut)", "math.ulp(4 * cut)",
           equivalent=SMALLER_MARGIN),
    # _step: the sort that puts each tie group together in id order.
    Mutant("tie-cap-unstable-sort", SEARCH,
           'values.argsort(kind="stable")', "values.argsort()"),
    # _step: the tie cap's NumPy prefilter, above ``_PREFILTER`` survivors.
    Mutant("tie-cap-ignores-row", SEARCH, " & (owner[width:] == owner[:-width])", ""),
    Mutant("no-prefilter", SEARCH, "        if flat.size > _PREFILTER:\n", "        if False:\n",
           equivalent=PREFILTER_ONLY),
    # _step: the exact ranking and the tie cap inside it.
    Mutant("no-tie-cap", SEARCH, "if placed == width:", "if False:"),
    Mutant("tie-cap-count-bound-width-plus-one", SEARCH,
           "if placed == width:", "if placed == width + 1:"),
    Mutant("tie-cap-ignores-row-bound", SEARCH,
           "if lp == last_lp and i // size == row:", "if lp == last_lp:"),
    Mutant("one-fsum-per-row", SEARCH,
           "if lp == last_lp and i // size == row:", "if i // size == row:"),
    Mutant("stored-score-sign", SEARCH, '"_score", -key)', '"_score", key)'),
    Mutant("children-without-terms", SEARCH, '        _set(hyp, "_terms", terms)\n', "",
           equivalent=UNSTORED_TERMS, subset=TERMS_SUBSET),
    # core._exact_terms: the remainders.
    Mutant("terms-without-remainders", CORE, "        if score > -math.inf:\n",
           "        if False:\n", subset=TERMS_SUBSET),
    Mutant("remainder-sign-flipped", CORE,
           "terms += (remainder,)", "terms += (-remainder,)", subset=TERMS_SUBSET),
    # apply_policy: the successor built without the constructor.
    Mutant("successor-drops-history", SEARCH, '    _set(successor, "history", history)\n', "",
           subset=SUCCESSOR_SUBSET),
    # apply_policy: the hold-n cut.
    Mutant("hold-withholds-one-less", SEARCH,
           "tokens[: max(len(tokens) - state.n, 0)]", "tokens[: max(len(tokens) - state.n + 1, 0)]",
           subset=POLICY_SUBSET),
    Mutant("hold-cut-unclamped", SEARCH,
           "tokens[: max(len(tokens) - state.n, 0)]", "tokens[: len(tokens) - state.n]",
           subset=POLICY_SUBSET),
    # apply_policy: the LA-n window and its history.
    Mutant("la-waits-one-output-less", SEARCH,
           "if len(outputs) < state.n:", "if len(outputs) < state.n - 1:", subset=POLICY_SUBSET),
    Mutant("la-waiting-candidate-empty", SEARCH,
           "candidate = committed\n", "candidate = ()\n",
           equivalent=WAITING_CANDIDATE, subset=POLICY_SUBSET),
    Mutant("la-window-one-short", SEARCH,
           "candidate = outputs[-state.n]", "candidate = outputs[-state.n + 1]",
           subset=POLICY_SUBSET),
    Mutant("la-window-skips-one", SEARCH,
           "outputs[-state.n + 1 :]", "outputs[-state.n + 2 :]", subset=POLICY_SUBSET),
    Mutant("la-history-one-long", SEARCH,
           "history = outputs[-(state.n - 1) :]", "history = outputs[-state.n :]",
           subset=POLICY_SUBSET),
    Mutant("la-history-one-short", SEARCH,
           "history = outputs[-(state.n - 1) :]", "history = outputs[-(state.n - 2) :]",
           subset=POLICY_SUBSET),
    # bleu_statistics: the shifted copies, clipping and totals.
    Mutant("bleu-shift-off-by-one", METRICS,
           "hyp_shifts = [hypothesis[i:] for", "hyp_shifts = [hypothesis[i + 1 :] for",
           subset=POLICY_SUBSET),
    Mutant("bleu-unclipped", METRICS, "if left:\n", "if left is not None:\n",
           subset=POLICY_SUBSET),
    Mutant("bleu-reference-copy-kept", METRICS,
           "unmatched[gram] = left - 1", "unmatched[gram] = left", subset=POLICY_SUBSET),
    Mutant("bleu-totals-one-short", METRICS,
           "max(len(hypothesis) - n + 1, 0)", "max(len(hypothesis) - n, 0)", subset=POLICY_SUBSET),
    Mutant("bleu-totals-unclamped", METRICS,
           "max(len(hypothesis) - n + 1, 0)", "len(hypothesis) - n + 1", subset=POLICY_SUBSET),
    # core: the stop heuristic, the length cap, the normalized score and
    # the transcript's order check.
    Mutant("repetition-needs-three", CORE,
           "len(hyp.tokens) >= 2 and hyp.tokens[-1] == hyp.tokens[-2]",
           "len(hyp.tokens) >= 3 and hyp.tokens[-1] == hyp.tokens[-2] == hyp.tokens[-3]",
           subset=CORE_SUBSET),
    Mutant("cap-offset-21", CORE, "MAX_TOKENS_OFFSET = 20", "MAX_TOKENS_OFFSET = 21",
           subset=CORE_SUBSET),
    Mutant("cap-floored", CORE, "return math.ceil(MAX_TOKENS_PER_SECOND",
           "return math.floor(MAX_TOKENS_PER_SECOND", subset=CORE_SUBSET),
    Mutant("normalized-over-len-plus-one", CORE,
           "hyp.score / len(hyp.tokens)", "hyp.score / (len(hyp.tokens) + 1)", subset=CORE_SUBSET),
    Mutant("transcript-order-unchecked", CORE,
           "            if not decision.source_ms >= last:\n", "            if False:\n",
           subset=CORE_SUBSET),
    # metrics: the lagging sums and BLEU's brevity penalty.
    Mutant("tau-strict", METRICS, "bisect.bisect_left", "bisect.bisect_right",
           subset=METRICS_SUBSET),
    Mutant("lag-step-off-by-one", METRICS,
           "delays[i] - i * step", "delays[i] - (i + 1) * step", subset=METRICS_SUBSET),
    Mutant("laal-computed-as-al", METRICS,
           "_lagging(inp, max(len(inp.delays_ms), inp.ref_len))", "_lagging(inp, inp.ref_len)",
           subset=METRICS_SUBSET),
    Mutant("brevity-inverted", METRICS,
           "1.0 - ref_len / hyp_len", "1.0 - hyp_len / ref_len", subset=METRICS_SUBSET),
    # blocks_for: a short final block's duration.
    Mutant("short-block-charged-in-full", HARNESS,
           "duration_ms=len(chunk) * record.block_ms",
           "duration_ms=cfg.block_symbols * record.block_ms",
           subset=("tests/test_harness.py",)),
    # RunConfig: the policy state it keeps carries the configured ``n``.
    Mutant("run-config-policy-default-n", HARNESS,
           "PolicyState(self.policy, self.policy_param)", "PolicyState(self.policy)",
           subset=("tests/test_harness.py",)),
    # CorpusRecord: every source and reference entry is an id, JSON or not.
    Mutant("record-ids-unchecked", HARNESS,
           "                if not _is_id(value):\n", "                if False:\n",
           subset=("tests/test_harness.py",)),
    # check_types: exact types, and None only where it is the default.
    Mutant("exact-type-as-isinstance", CORE,
           "type(value) is kind or kind is NUMBER and type(value) in NUMBER",
           "isinstance(value, kind)", subset=TYPES_SUBSET),
    Mutant("none-passes-any-field", CORE,
           "value is None and getattr(type(obj), name, ...) is None", "value is None",
           subset=TYPES_SUBSET),
    # The toy: which reference tokens are confident, the noise's spread, its
    # target ids, and a token besides EOS to spread over.
    Mutant("toy-confident-one-symbol-early", MODEL,
           "self._symbols[-lookahead:])", "self._symbols[-lookahead:][1:])", subset=MODEL_SUBSET),
    Mutant("toy-final-block-still-waits", MODEL,
           "if lookahead and not block.is_final:", "if lookahead:", subset=MODEL_SUBSET),
    Mutant("toy-noise-unnormalized", MODEL,
           "np.full(vocab_size, epsilon / rest)", "np.full(vocab_size, epsilon)",
           subset=MODEL_SUBSET),
    Mutant("toy-target-ids-unchecked", MODEL,
           "                if not _is_id(token):\n", "                if False:\n",
           subset=MODEL_SUBSET),
    Mutant("toy-lone-eos-vocab-accepted", MODEL,
           "    if vocab.size < 2:\n", "    if False:\n", subset=MODEL_SUBSET),
)


def _copy_tree(destination: Path) -> None:
    shutil.copytree(ROOT / "src", destination / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "tests", destination / "tests",
                    ignore=shutil.ignore_patterns("__pycache__"))
    # The golden and README tests read these.
    shutil.copytree(ROOT / "demo", destination / "demo")
    for name in ("README.md", "pyproject.toml"):
        shutil.copy2(ROOT / name, destination / name)


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"mutant {mutant.name}: its text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _env(tree: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def _passes(tree: Path, subset: tuple[str, ...]) -> bool:
    run = subprocess.run(
        [sys.executable, "-m", "pytest", *PYTEST, *subset],
        cwd=tree, env=_env(tree), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return run.returncode == 0


def _stopped(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(names: list[str]) -> int:
    # A ``SIGTERM`` becomes an exception, so ``subprocess.run`` kills the
    # running pytest and ``TemporaryDirectory`` removes the copies.
    signal.signal(signal.SIGTERM, _stopped)
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in names] or list(MUTANTS)
    with tempfile.TemporaryDirectory(prefix="simulbeam-mutants-") as scratch:
        baseline = Path(scratch) / "baseline"
        _copy_tree(baseline)
        # Each copy must import its own src/, whatever is installed.
        where = subprocess.run(
            [sys.executable, "-c", "import simulbeam; print(simulbeam.__file__)"],
            cwd=baseline, env=_env(baseline), capture_output=True, encoding="utf-8", check=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(baseline.resolve()):
            raise SystemExit(f"simulbeam imports from {where}, not from the copy under test")
        for subset in dict.fromkeys(mutant.subset for mutant in chosen):
            if not _passes(baseline, subset):
                print(f"baseline: the unmutated tree fails {' '.join(subset)}", flush=True)
                return 1
        failures = 0
        for mutant in chosen:
            tree = Path(scratch) / mutant.name
            _copy_tree(tree)
            _apply(tree, mutant)
            killed = not _passes(tree, mutant.subset)
            shutil.rmtree(tree)
            if mutant.equivalent:
                ok = not killed
                verdict = "killed, but marked equivalent" if killed else "survived (equivalent)"
            else:
                ok = killed
                verdict = "killed" if killed else "SURVIVED"
            failures += not ok
            print(f"{mutant.name}: {verdict}", flush=True)
    print(f"{len(chosen) - failures} of {len(chosen)} mutants as expected", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Streaming beam-search decoders and commit policies.

Three decoding strategies drive a :class:`~simulbeam.model.ModelSession`:

* :func:`standard_beam_search` completes a translation of everything read so
  far, re-scoring the forced prefix on every call. This is the full re-decode
  baseline for onlinized full-context models: simple, but it pays for the
  prefix again on each chunk and happily over-generates past reliable input.
* :func:`bwbs_block` is the conservative blockwise search: the moment any
  beam shows a repetition or an end token mid-source, the whole block is
  halted and the last two tokens are trimmed from every beam.
* :func:`ibwbs_block` relaxes that: only the offending beam is trimmed and
  moved to a stopped pool while the rest keep expanding. When no active beams
  remain, the best stopped hypothesis under length-normalized score becomes
  the sole survivor, which typically yields a longer reliable prefix from the
  same amount of source.

All three run one beam loop (:func:`_beam_loop`: rank the extensions, classify
each as continuing or triggered) and differ only in the trigger and in
what a triggered beam does. While source remains the trigger is the stop
heuristic: ``bwbs`` then trims every beam and ends the block, ``ibwbs`` trims
the one beam into the stopped pool and shrinks the width. The block ops handle
mid-source blocks only. On the final block the source is complete, and
:func:`decode_session` runs the same search for every strategy
(:func:`_final_block`): the trigger is a trailing EOS, and the finished beam
moves to the pool and shrinks the width. The full re-decode is a re-scored
prefix plus that search, on every block.

A step queries the model once per active beam, in order, and rejects a
vector that is not 1-D or not as long as the step's first as it arrives. It
then checks all the step's answers for NaN and ``+inf`` at once
(:func:`_answers`), so that error comes after the step's remaining beams were
queried. Each error is a ``ValueError`` naming the prefix. The step then ranks
the extensions of all the beams at once (:func:`_expand`): one approximate cut
across the stacked rows, whose threshold and rounding margin both come from
one full sort (selection by partition stalls on the many tied log-probs of a
row), and a cap on exact ties leave only the candidates that can place, and
one exact sort, by the ``math.fsum`` score and then by token order, ranks
them. A block's beams share one length, which :func:`_beam_loop` requires, so
that token order is the parent's tokens and then the new token's id, and a
candidate that does not place never gets a token tuple. Only the top
``width`` are built, each keeping the exact score it was ranked by, so no
hypothesis is summed twice, and the Python work besides the model grows with
the candidates that can place, not with the vocabulary. Repeated beams are
looked for on a loop's first step only: the seeds may repeat, but the
children of one step never do.

:func:`decode_session` runs one of these per block over a full utterance,
prunes to a single hypothesis in incremental mode, applies a hold-n or
local-agreement policy to decide how much of it to commit, and records each
block's decision (the visible best and the tokens committed) with its source
timestamp.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    BlockDecision,
    Hypothesis,
    SearchConfig,
    SessionTranscript,
    StopReason,
    detect_stop,
    longest_common_prefix,
    max_output_tokens,
    normalized_score,
)
from .model import Block, ModelFactory, ModelSession


class Algorithm(enum.Enum):
    """Per-block decoding strategy."""

    BS = "bs"
    BWBS = "bwbs"
    IBWBS = "ibwbs"


class PolicyKind(enum.Enum):
    NONE = "none"
    HOLD = "hold"
    LOCAL_AGREEMENT = "la"


@dataclass(frozen=True)
class PolicyState:
    """Commit-policy state threaded through a session.

    ``HOLD`` withholds the last ``n`` tokens of each best output;
    ``LOCAL_AGREEMENT`` commits the longest common prefix of the best outputs
    from ``n`` consecutive input contexts; ``NONE`` ignores ``n``.
    ``history`` holds the most recent best outputs (local agreement only);
    ``committed`` is the prefix already shown, which only ever extends;
    :func:`decode_session` keeps no other copy of it.
    """

    kind: PolicyKind = PolicyKind.NONE
    n: int = 0
    history: tuple[tuple[int, ...], ...] = ()
    committed: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind is PolicyKind.HOLD and self.n < 0:
            raise ValueError("hold-n requires n >= 0")
        if self.kind is PolicyKind.LOCAL_AGREEMENT and self.n < 2:
            # LA-1 would commit each whole best output: that is policy none.
            raise ValueError("local agreement requires n >= 2 to compare contexts")


def apply_policy(state: PolicyState, best: Hypothesis) -> tuple[PolicyState, tuple[int, ...]]:
    """Decide which new tokens to commit given the block's best hypothesis.

    Returns the updated state and the newly committed tokens (possibly
    empty). Commitment never retracts: the candidate prefix is compared
    against ``state.committed`` and only a proper extension is emitted.
    """
    tokens = best.tokens
    committed = state.committed
    if tokens[: len(committed)] != committed:
        raise ValueError("best hypothesis does not extend the committed prefix")
    history = state.history
    if state.kind is PolicyKind.NONE:
        candidate = tokens
    elif state.kind is PolicyKind.HOLD:
        candidate = tokens[: max(len(tokens) - state.n, 0)]
    else:
        outputs = history + (tokens,)
        if len(outputs) < state.n:
            candidate = committed
        else:
            candidate = outputs[-state.n]
            for other in outputs[-state.n + 1 :]:
                candidate = longest_common_prefix(candidate, other)
        history = outputs[-(state.n - 1) :]
    new: tuple[int, ...] = ()
    if len(candidate) > len(committed) and candidate[: len(committed)] == committed:
        new = tuple(candidate[len(committed) :])
    return PolicyState(state.kind, state.n, history, committed + new), new


def _answers(session: ModelSession, prefixes: Sequence[tuple[int, ...]]) -> np.ndarray:
    """One forward pass per prefix, in order: the answers end to end.

    Each answer must be a non-empty 1-D vector as long as the first, which
    is checked as it arrives. NaN and ``+inf`` (a NaN would vanish from
    every comparison, and ``+inf`` is no probability) are checked once over
    all the answers, and the error names the first offending prefix in
    query order."""
    answers = []
    for prefix in prefixes:
        logprobs = session.next_token_logprobs(prefix)
        if logprobs.ndim != 1:
            raise ValueError(f"model returned {logprobs.ndim}-D log-probabilities "
                             f"after prefix {prefix}")
        if not logprobs.size or (answers and logprobs.size != answers[0].size):
            raise ValueError(f"model returned {logprobs.size} log-probabilities "
                             f"after prefix {prefix}")
        answers.append(logprobs)
    stacked = answers[0] if len(answers) == 1 else np.concatenate(answers)
    # ndarray.max without its Python-level wrapper: this runs on every step.
    if not np.maximum.reduce(stacked) < np.inf:
        for prefix, logprobs in zip(prefixes, answers):
            if not np.maximum.reduce(logprobs) < np.inf:
                raise ValueError(f"model returned a NaN or +inf log-probability "
                                 f"after prefix {prefix}")
    return stacked


def _expand(
    active: Sequence[Hypothesis], session: ModelSession, width: int, may_repeat: bool = True
) -> list[Hypothesis]:
    """The top ``width`` single-token extensions of the active beams, ranked
    by ``(-score, tokens)``, so replay is deterministic.

    Each active beam costs one forward pass, in order, and the answers are
    checked together (:func:`_answers`). With ``may_repeat``, a beam whose
    tokens repeat an earlier beam's still costs its pass but adds nothing:
    its row is dropped and duplicate candidates merge into the earlier
    beam's copies. :func:`_beam_loop` asks for that check on its first step
    only, since the children of one step are always distinct.
    Zero-probability tokens are skipped: they can never belong to a valid
    hypothesis and would break score finiteness. A step with at most one
    finite candidate returns that one, if any. Otherwise three stages over
    the stacked rows leave only the candidates that can place, and only the
    placed ones are built:

    1. The cut, when the step has more than ``width`` finite entries. A
       candidate's approximate score ``a = parent.score + lp`` lies within
       ``g`` of its exact score ``t``: ``parent.score`` (the stored
       ``math.fsum`` of the parent's log-probs) is off by at most half an
       ulp of itself, ``a`` by half an ulp of ``a`` and ``t`` by half an ulp
       of ``t``, so ``g`` is at most 1.5 ulp of the largest of the three.
       One full sort of the ``a`` gives ``K``, the ``width``-th best, and
       ``T``, the best. A partial selection (numpy's introselect) would be
       linear on untied rows, but it stalls on large groups of tied
       log-probs, and every toy row ties all but one of its tokens. With
       ``S`` the largest finite ``|parent.score|``, let
       ``A = 2 (S + max(|K|, |T|))``. The ``width`` candidates with
       ``a >= K`` have ``|a|, |t| <= A``, so their exact scores are at least
       ``K - 1.5 ulp(A)``. A candidate with ``|a| <= A`` has ``|t|`` within
       ``2 A``, so if ``a < K - 3 ulp(2 A)`` it scores strictly below those
       ``width``. A candidate with ``|a| > A`` lies below
       ``-2 (S + max(|K|, |T|))``, as no ``a`` exceeds ``T``; its parent
       score is under half its size, so ``t`` is within a few ulps of ``a``
       and far below ``-max(|K|, |T|) - 1.5 ulp(A)``, under all those
       ``width`` too. So only ``a >= K - 3 ulp(2 A)`` go on. A ``K`` of ``-inf`` (fewer
       than ``width`` finite ``a``, as when every parent is scored
       ``-inf``, which a forced prefix can be) leaves nothing to cut.
    2. The tie cap. In one row, equal log-probs give equal exact scores, and
       the new token's id breaks the tie; so of each ``(row, lp)`` group only
       the ``width`` lowest ids can place. A stable sort by ``lp`` keeps each
       group together in id order, and a candidate is dropped if the one
       ``width`` places before it is of its group.
    3. The exact ranking: what is left is scored with ``math.fsum``, once
       per run of one ``(row, lp)`` group, and sorted by
       ``(-score, parent tokens, token id)``. The parents share one length
       (:func:`_beam_loop` requires it), so the key orders as the child's
       tokens would, a tie within a row compares one parent tuple (by
       identity) and then one int, and only the placed candidates ever get
       a token tuple. The first ``width`` are built, each storing the exact
       score it was ranked by, which the next step's parent scores and
       :func:`select_best` read.
    """
    matrix = _answers(session, [hyp.tokens for hyp in active])
    size = matrix.size // len(active)
    # The rows end to end: entry ``i`` is token ``i % size`` of beam ``i // size``.
    if may_repeat:
        first: dict[tuple[int, ...], int] = {}
        for row, hyp in enumerate(active):
            if first.setdefault(hyp.tokens, row) != row:
                # A repeat, so there are two or more answers and ``matrix`` is their copy.
                matrix[row * size : (row + 1) * size] = -np.inf
    finite = matrix > -np.inf
    count = np.count_nonzero(finite)
    if count <= 1:
        i = int(finite.argmax())  # the finite entry, if there is one
        return [active[i // size].extended(i % size, matrix.item(i))] if count else []
    cut = -math.inf
    if count > width:
        scores = [beam.score for beam in active]
        approx = (np.array(scores)[:, None] + matrix.reshape(-1, size)).ravel()
        ordered = np.sort(approx)
        cut = float(ordered[-width])
    if cut > -math.inf:
        bound = 2 * (max(abs(s) for s in scores if s > -math.inf)
                     + max(abs(cut), abs(float(ordered[-1]))))
        flat = (approx >= cut - 3 * math.ulp(2 * bound)).nonzero()[0]
    else:
        flat = finite.nonzero()[0]
    values = matrix[flat]
    if flat.size > width:
        order = np.argsort(values, kind="stable")
        flat, values = flat[order], values[order]
        owner = flat // size
        tied = np.zeros(flat.size, bool)
        tied[width:] = (values[width:] == values[:-width]) & (owner[width:] == owner[:-width])
        flat, values = flat[~tied], values[~tied]
    # The key orders as the child's tokens would, since the parents share one
    # length. Keys are distinct (parents' tokens are, and so are the ids in a
    # row), so the sort never compares beams.
    ranked = []
    last_row, last_lp = -1, 0.0
    for i, lp in zip(flat.tolist(), values.tolist()):
        row, token = divmod(i, size)
        beam = active[row]
        if row != last_row or lp != last_lp:
            last_row, last_lp = row, lp
            key = -math.fsum(beam.token_logprobs + (lp,))
        ranked.append((key, beam.tokens, token, beam, lp))
    ranked.sort()
    built = []
    for key, _, token, beam, lp in ranked[:width]:
        hyp = beam.extended(token, lp)
        object.__setattr__(hyp, "_score", -key)  # see Hypothesis.score
        built.append(hyp)
    return built


def _selection_rank(hyp: Hypothesis) -> tuple:
    # Empty candidates rank last (their conventional score of 0 would
    # otherwise beat every real hypothesis) yet stay selectable when alone.
    return (0 if hyp.tokens else 1, -normalized_score(hyp), -len(hyp.tokens), hyp.tokens)


def select_best(candidates: Sequence[Hypothesis]) -> Hypothesis:
    """Best hypothesis by length-normalized score; longer wins ties, then
    token order. Non-empty candidates always outrank empty ones."""
    if not candidates:
        raise ValueError("cannot select from an empty candidate set")
    return min(candidates, key=_selection_rank)


def _trim_stop(hyp: Hypothesis, floor: int) -> Hypothesis:
    """Remove the last two tokens of a triggered beam, never cutting into
    the committed prefix."""
    return hyp.sliced(max(len(hyp.tokens) - 2, floor))


def _beam_loop(
    seeds: Sequence[Hypothesis],
    session: ModelSession,
    width: int,
    max_total: int,
    triggered: Callable[[Hypothesis], bool],
    on_trigger: Callable[[Hypothesis], Hypothesis],
    halt: bool = False,
) -> tuple[list[Hypothesis], list[Hypothesis]]:
    """Rank the top ``width`` extensions and classify each until no
    beam or slot is left or the length cap is reached. A triggered candidate
    goes through ``on_trigger`` into the pool and vacates its slot (no
    refill); with ``halt`` the first trigger instead sends every ranked
    candidate there and ends the loop. Returns ``(pool, still_active)``.

    The seeds must be one or more beams of one length, as every block's are;
    anything else raises ``ValueError`` before the first forward pass."""
    if len({len(seed.tokens) for seed in seeds}) != 1:
        raise ValueError("a block needs one or more beams, all of one length")
    pool: list[Hypothesis] = []
    active = list(seeds)
    may_repeat = True  # the seeds may repeat; the children of one step never do
    while active and len(active[0].tokens) < max_total and width > 0:
        ranked = _expand(active, session, width, may_repeat)
        may_repeat = False
        active = []
        for hyp in ranked:
            if not triggered(hyp):
                active.append(hyp)
            elif halt:
                return [on_trigger(h) for h in ranked], []
            else:
                pool.append(on_trigger(hyp))
                width -= 1
    return pool, active


def _final_block(
    seeds: Sequence[Hypothesis],
    session: ModelSession,
    cfg: SearchConfig,
    eos_id: int,
    max_total: int,
) -> Hypothesis:
    """Decode to completion on the complete source: EOS finishes a beam,
    repetitions are ignored. Returns the best finished beam, else the best
    still active at the length cap, else the best seed."""
    finished, leftover = _beam_loop(
        seeds,
        session,
        cfg.beam_size,
        max_total,
        triggered=lambda h: h.tokens[-1] == eos_id,
        on_trigger=lambda h: h,
    )
    return select_best(finished or leftover or seeds)


def _mid_source_block(
    beams: Sequence[Hypothesis],
    floor: int,
    session: ModelSession,
    cfg: SearchConfig,
    eos_id: int,
    max_total: int,
    halt: bool = False,
) -> tuple[list[Hypothesis], list[Hypothesis]]:
    """One block while source remains: a beam that shows a repetition or EOS
    is trimmed, never below ``floor`` tokens (see :func:`_trim_stop`).
    Returns ``(pool, still_active)``."""
    return _beam_loop(
        beams,
        session,
        cfg.beam_size,
        max_total,
        triggered=lambda h: detect_stop(h, cfg, eos_id) is not StopReason.NONE,
        on_trigger=lambda h: _trim_stop(h, floor),
        halt=halt,
    )


def standard_beam_search(
    session: ModelSession,
    committed: Sequence[int],
    cfg: SearchConfig,
    eos_id: int,
    max_total: int,
) -> Hypothesis:
    """Classic beam search from a forced prefix to end-of-sequence.

    The forced prefix is re-scored against the current context, one query
    per position with the answers checked together (:func:`_answers`), so
    repeated calls over growing input pay the full re-decode cost. The stop
    heuristic is never applied: EOS is always a legitimate end here, and the
    search runs until every beam finishes or the length cap is reached.
    Returns the best finished hypothesis by normalized score, falling back
    to the best unfinished one at the cap.
    """
    prefix = Hypothesis()
    if committed:
        tokens = tuple(int(token) for token in committed)
        stacked = _answers(session, [tokens[:position] for position in range(len(tokens))])
        # Row ``position`` is the answer after ``tokens[:position]``.
        picked = stacked.reshape(len(tokens), -1)[np.arange(len(tokens)), tokens]
        prefix = Hypothesis(tokens, tuple(picked.astype(float).tolist()))
    return _final_block([prefix], session, cfg, eos_id, max_total)


def bwbs_block(
    beams: Sequence[Hypothesis],
    floor: int,
    session: ModelSession,
    cfg: SearchConfig,
    eos_id: int,
    max_total: int,
) -> tuple[Hypothesis, ...]:
    """One block of the conservative blockwise search.

    ``beams``, one or more of one length, all extend the committed prefix,
    which is ``floor`` tokens long. All beams advance one token per step.
    The first step at which *any* beam shows a repetition or EOS ends the
    block: the last two tokens are removed from every beam (never below
    ``floor``) and the beams wait for more source. No pruning to a single
    hypothesis happens here, so snapshots may revise across blocks
    (re-translation semantics). A block in which no beam has a finite
    continuation returns the incoming beams.

    Source remains after the block: :func:`decode_session` runs the final
    block itself (:func:`_final_block`).
    """
    halted, active = _mid_source_block(beams, floor, session, cfg, eos_id, max_total, halt=True)
    return tuple(halted or active or beams)


def ibwbs_block(
    beams: Sequence[Hypothesis],
    floor: int,
    session: ModelSession,
    cfg: SearchConfig,
    eos_id: int,
    max_total: int,
) -> tuple[Hypothesis, ...]:
    """One block of the incremental blockwise search; returns one beam.

    ``beams`` and ``floor`` are as for :func:`bwbs_block`. Beams stop
    individually: a beam showing a repetition or EOS loses its last two
    tokens (never below ``floor``), joins the stopped pool, and leaves the
    search for the rest of the block (the active width shrinks; no refill).
    When no active beams remain, or the length cap is reached (remaining
    beams then join the pool unmodified), the best stopped hypothesis under
    length-normalized score is the one beam returned. If no beam had a
    finite continuation, the best incoming beam takes that place.

    Source remains after the block: :func:`decode_session` runs the final
    block itself (:func:`_final_block`).
    """
    stopped, active = _mid_source_block(beams, floor, session, cfg, eos_id, max_total)
    stopped.extend(active)  # length cap reached: survivors join unmodified
    return (select_best(stopped or beams),)


_BLOCK_OPS: dict[Algorithm, Callable[..., tuple[Hypothesis, ...]]] = {
    Algorithm.BWBS: bwbs_block,
    Algorithm.IBWBS: ibwbs_block,
}


def _strip_eos(hyp: Hypothesis, eos_id: int) -> Hypothesis:
    if hyp.tokens and hyp.tokens[-1] == eos_id:
        return hyp.sliced(len(hyp.tokens) - 1)
    return hyp


def decode_session(
    model_factory: ModelFactory,
    blocks: Sequence[Block],
    eos_id: int,
    algo: Algorithm = Algorithm.IBWBS,
    policy: PolicyState = PolicyState(),
    retranslation: bool = False,
    cfg: SearchConfig = SearchConfig(),
) -> SessionTranscript:
    """Drive one full utterance through per-block decoding.

    Per block: ingest, then decode with the selected strategy from the beams
    the previous block left. In incremental mode (the default) the block's
    best hypothesis goes through the commit policy, and any new tokens are
    committed, stamped with the source time consumed so far. The committed
    prefix lives only in the policy state: it is the floor no trim may cut
    into, and it (with its cached token log-probabilities) is the one beam
    the next block starts from, so tokens the policy held back are re-derived
    and remain revisable. The final block is decided here, the same way for
    every strategy: :func:`_final_block` decodes the complete source to EOS
    from the beams the previous block left, and in incremental mode its best
    hypothesis bypasses the policy and is committed whole. Each block caps
    its hypotheses by the source read so far (``max_output_tokens(elapsed)``),
    so no decision depends on source that has not arrived.

    Each block leaves one :class:`~simulbeam.core.BlockDecision` on the
    transcript's ``decisions``: the source time read, the visible best
    hypothesis and the tokens committed. The decisions and the forward
    passes are the whole transcript: the last decision's best is the final
    output, and its source time the source duration.

    With ``retranslation=True`` nothing is committed and no policy may be
    set: each decision's best is the snapshot shown, and the next block
    starts from every beam this one returned (all of them for ``bwbs``, one
    for ``ibwbs``).

    For ``algo=BS`` every block triggers a full re-decode from the committed
    prefix via :func:`standard_beam_search`.

    The emitted token stream never includes EOS. A block stream that does
    not end in exactly one final block, or whose total duration is not
    finite, raises ``ValueError`` before the session is opened.
    """
    blocks = list(blocks)
    if not blocks or not blocks[-1].is_final or any(b.is_final for b in blocks[:-1]):
        raise ValueError("the block stream must end with exactly one final block")
    if retranslation and policy.kind is not PolicyKind.NONE:
        raise ValueError("commit policies apply to incremental mode only")
    if not sum(b.duration_ms for b in blocks) < math.inf:
        raise ValueError("the blocks' total duration must be finite")
    session = model_factory()
    beams: tuple[Hypothesis, ...] = (Hypothesis(),)
    decisions: list[BlockDecision] = []
    elapsed = 0.0
    for block in blocks:
        session.ingest_block(block)
        elapsed += block.duration_ms
        max_total = max_output_tokens(elapsed)
        floor = len(policy.committed)
        if algo is Algorithm.BS:
            best = standard_beam_search(session, policy.committed, cfg, eos_id, max_total)
        elif block.is_final:
            best = _final_block(beams, session, cfg, eos_id, max_total)
        else:
            beams = _BLOCK_OPS[algo](beams, floor, session, cfg, eos_id, max_total)
            best = select_best(beams)
        visible = _strip_eos(best, eos_id)
        new: tuple[int, ...] = ()
        if not retranslation:
            if block.is_final:
                new = visible.tokens[floor:]
            else:
                policy, new = apply_policy(policy, visible)
                beams = (visible.sliced(len(policy.committed)),)
        decisions.append(BlockDecision(elapsed, visible.tokens, new))
    return SessionTranscript(tuple(decisions), session.forward_pass_count())

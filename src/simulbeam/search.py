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

All three run one beam loop (:func:`_beam_loop`: take the top extensions,
report each as continuing or stopped) and differ only in what stops a beam
and in what their op does with the stopped ones afterwards; the loop itself
trims nothing. While source remains a beam stops by the stop heuristic: the
``bwbs`` loop halts at the first stop, and ``bwbs`` then ranks every beam
the step built, trims them and keeps one of each copy the trim makes; the
``ibwbs`` loop moves each stopped beam to the pool and shrinks the width,
and ``ibwbs`` then trims the pool's beams. The block ops handle mid-source
blocks only. On the final block the source is complete, and
:func:`decode_session` runs the same search for every strategy
(:func:`_final_block`): a trailing EOS stops a beam, which moves to the pool
untrimmed and shrinks the width. The full re-decode is a re-scored prefix
plus that search, on every block.

A block's beams are kept in token order: :func:`_beam_loop` sorts a
block's seeds by their tokens once, each step returns its children in token
order, and a beam that stops leaves the others in the order they were. The
order of the active list is the only carrier of that order, and the ops
that return ranked beams rank them by a stable sort by score alone.

A step queries the model once per active beam, in token order, and rejects
a vector that is not 1-D or not as long as the step's first as it arrives.
It then checks all the step's answers against the contract at once
(:func:`_answers`): every entry at most 0, so NaN, ``+inf`` and positive
entries are rejected, and that error comes after the step's remaining beams
were queried, naming the first offender in token order. One ``argmax``
makes that check: it finds the first NaN, or else the maximum, and a step
with one finite entry takes that entry from it. Each error is a
``ValueError`` naming the prefix. The step otherwise ranks the extensions
of all the beams at once (:func:`_step`): one approximate cut across the
stacked rows, whose threshold comes from one full sort (selection by
partition stalls on the many tied log-probs of a row) and whose rounding
margin from that threshold alone, leaves the candidates that can place or
tie with one that does; one loop then scores them, passing over each group
of exact ties beyond the ``width`` that can place (with a NumPy prefilter
for that cap when many survive), and one exact sort, by the ``math.fsum``
score (summed over a few exact terms the parent carries, not over its
history) and then by token order, ranks them. A block's beams are
distinct, share one length (which :func:`_beam_loop` requires) and are in
token order, so a candidate's index in the stacked rows orders as its
tokens would: a score tie compares two ints, never two token tuples, and a
candidate that does not place never gets a token tuple. Only the top
``width`` are built, in token order, each keeping the exact score it was
ranked by and the terms it was summed from, so no hypothesis is summed
twice, and the Python work besides the model grows with the candidates
that can place (and the cut's survivors, up to the prefilter's bound), not
with the vocabulary or the output. The children of distinct parents are
distinct, so no step looks for repeats.

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
from operator import attrgetter, itemgetter
from typing import Callable, Sequence

import numpy as np

from .core import (
    BlockDecision,
    Hypothesis,
    SearchConfig,
    SessionTranscript,
    StopReason,
    _exact_terms,
    _new,
    _set,
    check_types,
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

    # :func:`apply_policy` runs once per block and builds its successor on a
    # bare instance, as ``Hypothesis.extended`` does, without the check: it
    # copies a ``kind`` and ``n`` that this check passed and that stayed
    # frozen since, and ``history`` and ``committed`` are tuples it builds
    # itself.
    def __post_init__(self) -> None:
        check_types(self, kind=PolicyKind, n=int, history=tuple, committed=tuple)
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
    The updated state skips the constructor's checks, which ``state``
    passed (see :class:`PolicyState`).
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
    # ``committed`` and every candidate are prefixes of ``tokens``: the
    # whole best, its hold-n cut, ``committed`` while LA-n waits, or the
    # common prefix of a window whose last output is ``tokens``. So a longer
    # candidate extends ``committed``, and a shorter one adds nothing.
    new = candidate[len(committed) :]
    successor = _new(PolicyState)  # unchecked: see PolicyState
    _set(successor, "kind", state.kind)
    _set(successor, "n", state.n)
    _set(successor, "history", history)
    _set(successor, "committed", committed + new)
    return successor, new


def _answers(session: ModelSession,
             prefixes: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, int]:
    """One forward pass per prefix, in order: the answers end to end, and
    the index of their first NaN if there is one, else of their first
    maximum.

    Each answer must be a non-empty 1-D vector as long as the first, which
    is checked as it arrives. Every entry must be at most 0, as the log of
    a probability is: NaN, ``+inf`` and positive entries are rejected (a NaN
    would also vanish from every comparison). One ``argmax`` over all the
    answers checks that: it returns the first NaN, else the first maximum,
    so the entry it picks is at most 0 only if every entry is. The error
    names the first offending prefix in query order. :func:`_step`'s cut
    rests on the check, and its lone-candidate path takes its entry from
    the index."""
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
    top = int(stacked.argmax())
    if not stacked.item(top) <= 0:
        for prefix, logprobs in zip(prefixes, answers):
            if not np.maximum.reduce(logprobs) <= 0:
                raise ValueError(f"model returned a NaN or positive log-probability "
                                 f"after prefix {prefix}")
    return stacked, top


def _token_order(beams: Sequence[Hypothesis]) -> list[Hypothesis]:
    """The beams sorted by their tokens. They are of one length, so two that
    repeat a token sequence are adjacent in that order, and that repeat
    raises ``ValueError``."""
    ordered = sorted(beams, key=attrgetter("tokens"))
    if any(before.tokens == after.tokens for before, after in zip(ordered, ordered[1:])):
        raise ValueError("a block's beams must not repeat a token sequence")
    return ordered


def _expand(active: Sequence[Hypothesis], session: ModelSession, width: int) -> list[Hypothesis]:
    """:func:`_step` for beams in any order, its children ranked by
    ``(-score, tokens)``. The beams are put in token order first
    (:func:`_token_order`), and queried in that order. The children come
    back in token order, so a stable sort by score alone ranks them, and no
    token tuple is compared."""
    children = _step(_token_order(active), session, width)
    return sorted(children, key=attrgetter("score"), reverse=True)


# Survivors of the cut above which :func:`_step` caps tie groups in NumPy
# before its ranking loop. The NumPy cap costs about 10 calls a step, the
# loop's cap a few operations per survivor; timed on tied rows at width 6
# they break even at about 95 survivors in one row and 110 across six. The
# toy workloads' capped steps leave 21 to 26 survivors (V = 21) or 1,001 to
# 1,006 (V = 1,001), far from the value on either side.
_PREFILTER = 100

# ``-inf`` as a read-only 0-d array, for :func:`_step`'s finite mask.
_NEG_INF = np.array(-np.inf)
_NEG_INF.flags.writeable = False


def _step(active: Sequence[Hypothesis], session: ModelSession, width: int) -> list[Hypothesis]:
    """The top ``width`` single-token extensions of the active beams, which
    are distinct, of one length and in token order (:func:`_beam_loop`
    keeps them so), chosen by ``(-score, tokens)`` so that replay is
    deterministic, and returned in token order.

    Each active beam costs one forward pass, in order, and the answers are
    checked together (:func:`_answers`): every entry at most 0, so NaN,
    ``+inf`` and positive entries are rejected. Zero-probability tokens are
    skipped: they can never belong to a valid hypothesis and would break
    score finiteness. Their mask compares the stacked rows with
    ``_NEG_INF``, a 0-d array made once: NumPy would convert the Python
    float ``-np.inf`` to an array on every step, about a third of the
    comparison's time on a row of 21, and ``np.isfinite`` is slower on wide
    rows and raises ``TypeError`` on an object-dtype row. A step with at
    most one finite candidate returns that one, if any: it is the maximum
    that :func:`_answers` found. Otherwise two stages over the stacked rows
    leave only the candidates that can place, and only the placed ones are
    built:

    1. The cut, when the step has more than ``width`` finite entries. It
       rests on the checked contract: every ``lp`` is at most 0
       (:func:`_answers`), and so is every seed's score (:func:`_beam_loop`),
       so no child outscores its parent. A finite candidate's approximate
       score is ``a = s + lp``, where its parent's stored score ``s`` (the
       ``math.fsum`` of the parent's log-probs) is off their exact sum by at
       most half an ulp of ``s``, and ``a`` is off ``s + lp`` by at most
       half an ulp of ``a``. As ``|s| <= |a|``, the child's exact sum lies
       within ``ulp(a)`` of ``a``, so its exact score ``t`` (that sum
       rounded) lies between the floats ``a - ulp(a)`` and ``a + ulp(a)``.
       One full sort of the ``a`` gives ``K``, the ``width``-th best. A
       partial selection (numpy's introselect) would be linear on untied
       rows, but it stalls on large groups of tied log-probs, and every toy
       row ties all but one of its tokens. With ``A = 2 |K|``, the
       ``width`` candidates with ``a >= K`` have ``|a| <= |K|``, so
       ``t >= K - ulp(K)``. Any other candidate with ``a < K - 3 ulp(2 A)``
       has ``t <= a + ulp(a) < K - ulp(K)``: if ``|a| <= 2 A``, because
       ``ulp(a) <= ulp(2 A)`` and rounding the threshold costs at most half
       of that; if ``|a| > 2 A``, because ``a + ulp(a) <= a / 2 < -2 |K|``.
       (A ``K`` of 0 is exact: only a sum of 0 rounds to 0, so those
       ``width`` score 0 and the rest below it.) So only
       ``a >= K - 3 ulp(2 A)`` go on, a margin read from ``K`` alone;
       ``3 ulp(K)`` would do, and the rest is slack. A ``K`` of ``-inf``
       (fewer than ``width`` finite ``a``, as when every parent is scored
       ``-inf``, which a forced prefix can be) leaves nothing to cut.
    2. The exact ranking, which caps exact ties as it goes. In one row,
       equal log-probs give equal exact scores, and the new token's id
       breaks the tie; so of each ``(row, lp)`` group only the ``width``
       lowest ids can place. When more than ``width`` candidates are left, a
       stable sort by ``lp`` puts each group together in id order. The loop
       walks the candidates in that order: one whose index lies in the row
       of the group's first and whose ``lp`` is that one's belongs to the
       group, takes its score, and is skipped once the group has ``width``
       in the ranking. Above ``_PREFILTER`` survivors the same cap runs
       first in NumPy, where a candidate is dropped if the one ``width``
       places before it is of its group: that costs about 10 NumPy calls,
       which only many survivors repay (see ``_PREFILTER``). The first of
       each group is scored with ``math.fsum``, and the ranked candidates
       are sorted by ``(-score, i)``, where ``i = row * size + token`` is the
       candidate's index in the stacked rows. The sum is not over the
       parent's history but over its terms (``Hypothesis._terms``): a few
       floats with the same exact sum as its log-probs, its score and the
       rounded remainders, filled once per seed. ``fsum`` rounds the exact
       sum of its inputs once, so ``fsum(terms + (lp,))`` is the child's
       exact score, at a cost that grows with the steps since the seeds,
       not with the output. The parents are distinct, of one length and in
       token order, and every token id is below ``size``, so ``i`` orders
       as the child's tokens would: a score tie compares two ints, never two
       token tuples that share all but their last few tokens. The first
       ``width`` are sorted again by ``i`` alone and built in that order,
       the token order the next step needs; each stores the exact score it
       was ranked by, which the next step's parent scores and
       :func:`select_best` read, and the terms it was summed from, which the
       next step extends.
    """
    matrix, top = _answers(session, [hyp.tokens for hyp in active])
    size = matrix.size // len(active)
    # The rows end to end: entry ``i`` is token ``i % size`` of beam ``i // size``.
    finite = matrix > _NEG_INF
    count = np.count_nonzero(finite)
    if count <= 1:
        # A lone finite entry is the maximum, so it is ``top``.
        return [active[top // size].extended(top % size, matrix.item(top))] if count else []
    cut = -math.inf
    if count > width:
        # Each parent's score against each of its row's entries, end to end.
        approx = matrix + np.array([beam.score for beam in active]).repeat(size)
        ordered = approx.copy()
        ordered.sort()
        cut = float(ordered[-width])
    if cut > -math.inf:
        flat = (approx >= cut - 3 * math.ulp(4 * cut)).nonzero()[0]  # 3 ulp(2 A), A = 2 |K|
    else:
        flat = finite.nonzero()[0]
    values = matrix[flat]
    if flat.size > width:
        order = values.argsort(kind="stable")
        flat, values = flat[order], values[order]
        if flat.size > _PREFILTER:
            owner = flat // size
            tied = np.zeros(flat.size, bool)
            tied[width:] = (values[width:] == values[:-width]) & (owner[width:] == owner[:-width])
            kept = ~tied
            flat, values = flat[kept], values[kept]
    # ``i`` orders as the child's tokens would (see stage 2), and the keys are
    # distinct, so the sort never compares beams.
    ranked = []
    row, last_lp, placed = -1, 0.0, 0
    for i, lp in zip(flat.tolist(), values.tolist()):
        # A member of the group before shares its exact score. ``lp`` is
        # compared first, so untied rows spend no division here.
        if lp == last_lp and i // size == row:
            if placed == width:  # the group's ``width`` lowest ids are ranked
                continue
            placed += 1
            token = divmod(i, size)[1]
        else:
            row, token = divmod(i, size)
            last_lp, placed = lp, 1
            beam = active[row]
            terms = _exact_terms(beam) + (lp,)
            key = -math.fsum(terms)
        ranked.append((key, i, token, beam, lp, terms))
    ranked.sort()
    built = []
    # The placed ones are built by ``i``: the next step needs its parents in token order.
    for key, _, token, beam, lp, terms in sorted(ranked[:width], key=itemgetter(1)):
        hyp = beam.extended(token, lp)
        _set(hyp, "_score", -key)  # see Hypothesis.score
        _set(hyp, "_terms", terms)
        built.append(hyp)
    return built


def _selection_rank(hyp: Hypothesis) -> tuple:
    # Empty candidates rank last (their conventional score of 0 would
    # otherwise beat every real hypothesis) yet stay selectable when alone.
    # The log-probs come last, so candidates that tie on all the rest (one
    # token sequence scored two ways) rank the same in any pool order.
    return (0 if hyp.tokens else 1, -normalized_score(hyp), -len(hyp.tokens), hyp.tokens,
            hyp.token_logprobs)


def select_best(candidates: Sequence[Hypothesis]) -> Hypothesis:
    """Best hypothesis by length-normalized score; longer wins ties, then
    token order, then log-prob order. Non-empty candidates always outrank
    empty ones. A lone candidate is returned without being ranked."""
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        raise ValueError("cannot select from an empty candidate set")
    return min(candidates, key=_selection_rank)


def _trim_stop(hyp: Hypothesis, floor: int) -> Hypothesis:
    """Remove the last two tokens of a beam that stopped mid-source, never
    cutting into the committed prefix."""
    return hyp.sliced(max(len(hyp.tokens) - 2, floor))


def _beam_loop(
    seeds: Sequence[Hypothesis],
    session: ModelSession,
    width: int,
    max_total: int,
    stops: Callable[[Hypothesis], bool],
    halt: bool = False,
) -> tuple[list[Hypothesis], list[Hypothesis]]:
    """Take the top ``width`` extensions and classify each until no
    beam is left or the length cap is reached. A candidate for which
    ``stops`` holds goes into the pool as it is and vacates its slot (no
    refill); with ``halt`` the first stop instead returns all of the step's
    candidates as the pool and ends the loop. A step returns at most
    ``width`` children, so the active beams never outnumber the slots, and
    a beam left means a slot left. Nothing is trimmed here: each block op
    trims its own pool (:func:`_trim_stop`). Returns ``(pool, still_active)``.

    The seeds must be one or more distinct beams of one length, each scored
    at most 0, as every block's are (:func:`_step`'s cut rests on the
    scores, and its ranking key on distinct parents); anything else raises
    ``ValueError`` before the first forward pass. The children of one step
    are distinct, so the beams stay distinct within a block, and each op
    keeps them distinct from block to block.

    The seeds are put in token order once per block (:func:`_token_order`),
    and that one sort is also the check that no seed repeats another. From
    then on the order of the active list is the token order, with no other
    carrier: each step returns its children in token order, and a beam that
    stops leaves the others in the order they were. So a parent's index is
    its place in token order, which is all :func:`_step` needs to break a
    score tie, and the returned lists are in token order too. A lone seed
    is not sorted."""
    length = len(seeds[0].tokens) if seeds else -1
    if length < 0 or any(len(s.tokens) != length or not s.score <= 0 for s in seeds):
        raise ValueError("a block needs one or more beams, all of one length and scored at most 0")
    active = _token_order(seeds) if len(seeds) > 1 else list(seeds)
    pool: list[Hypothesis] = []
    while active and len(active[0].tokens) < max_total:
        children = _step(active, session, width)
        active = []
        for hyp in children:
            if not stops(hyp):
                active.append(hyp)
            elif halt:
                return children, []
            else:
                pool.append(hyp)
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
    repetitions are ignored, and nothing is trimmed. Returns the best
    finished beam, else the best still active at the length cap, else the
    best seed."""
    finished, leftover = _beam_loop(
        seeds, session, cfg.beam_size, max_total, lambda h: h.tokens[-1] == eos_id
    )
    return select_best(finished or leftover or seeds)


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
        stacked, _ = _answers(session, [tokens[:position] for position in range(len(tokens))])
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

    ``beams``, one or more distinct beams of one length, all extend the
    committed prefix, which is ``floor`` tokens long. All beams advance one
    token per step. The first step at which *any* beam shows a repetition or
    EOS ends the block: :func:`_beam_loop` returns that step's beams
    untrimmed, and this op ranks them by ``(-score, tokens)``, removes the
    last two tokens from every one of them (never below ``floor``), keeps
    the first of the beams the trim made equal, and the beams wait for more
    source. A block stopped at the length cap returns its beams ranked, and
    one in which no step ran, or no beam had a finite continuation, returns
    the incoming beams as given. No pruning to a single hypothesis happens
    here, so snapshots may revise across blocks (re-translation semantics).
    The loop returns its beams in token order, so a stable sort by score
    alone ranks them, and no token tuple is compared.

    Source remains after the block: :func:`decode_session` runs the final
    block itself (:func:`_final_block`).
    """
    halted, active = _beam_loop(beams, session, cfg.beam_size, max_total,
                                lambda h: detect_stop(h, cfg, eos_id) is not StopReason.NONE,
                                halt=True)
    ranked = sorted(halted or active, key=attrgetter("score"), reverse=True)
    if not halted:  # the cap stopped the block, or no step ran or built a beam
        return tuple(ranked if active and len(active[0]) > len(beams[0]) else beams)
    # The trim can make siblings equal: keep the first of each.
    kept: dict[tuple[int, ...], Hypothesis] = {}
    for beam in ranked:
        beam = _trim_stop(beam, floor)
        kept.setdefault(beam.tokens, beam)
    return tuple(kept.values())


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
    individually: a beam showing a repetition or EOS joins the stopped pool
    and leaves the search for the rest of the block (the active width
    shrinks; no refill). When no active beams remain, or the length cap is
    reached, this op removes the last two tokens of each stopped beam
    (never below ``floor``), in place, and the beams left at the cap join
    the pool unmodified. The best of the pool under length-normalized score
    is the one beam returned. If no beam had a finite continuation, the
    best incoming beam takes that place.

    Source remains after the block: :func:`decode_session` runs the final
    block itself (:func:`_final_block`).
    """
    stopped, active = _beam_loop(beams, session, cfg.beam_size, max_total,
                                 lambda h: detect_stop(h, cfg, eos_id) is not StopReason.NONE)
    for i, hyp in enumerate(stopped):
        stopped[i] = _trim_stop(hyp, floor)
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
    not end in exactly one final block, or whose total duration or its
    length cap is not finite, and a policy state already in progress (with
    a ``history`` or a ``committed`` prefix) raise ``ValueError`` before the
    session is opened.
    """
    blocks = list(blocks)
    if not blocks or not blocks[-1].is_final or any(b.is_final for b in blocks[:-1]):
        raise ValueError("the block stream must end with exactly one final block")
    if policy.history or policy.committed:
        raise ValueError("a session starts from a fresh policy: no history, nothing committed")
    if retranslation and policy.kind is not PolicyKind.NONE:
        raise ValueError("commit policies apply to incremental mode only")
    total = 0.0
    for block in blocks:
        total += block.duration_ms  # summed as the loop below sums ``elapsed``
    try:
        max_output_tokens(total)
    except OverflowError:
        raise ValueError("the blocks' total duration must be finite, and short enough for a "
                         f"finite length cap, got {total!r} ms") from None
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

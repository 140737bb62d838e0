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

All three run one beam loop (:func:`_beam_loop`: expand, prune, classify each
candidate as continuing or triggered) and differ only in the trigger and in
what a triggered beam does. While source remains the trigger is the stop
heuristic: ``bwbs`` then trims every beam and ends the block, ``ibwbs`` trims
the one beam into the stopped pool and shrinks the width. On the final block
the source is complete, so the trigger is a trailing EOS and, for every
strategy, the finished beam moves to the pool and shrinks the width
(:func:`_final_block`); the full re-decode is a re-scored prefix plus that.

A step queries the model once per active beam, rejects NaN and ``+inf``
log-probabilities with a ``ValueError`` naming the prefix, and builds only
the extensions that can survive pruning to the current width
(:func:`_survivors`), so the work besides the model grows with the width, not
with the vocabulary. The ranking is exact: by the ``math.fsum`` score, then by
token order.

:func:`decode_session` runs one of these per block over a full utterance,
prunes to a single hypothesis in incremental mode, applies a hold-n or
local-agreement policy to decide how much of it to commit, and records the
commit stream with source timestamps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    CommitEvent,
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
    return replace(state, history=history, committed=committed + new), new


def _query(session: ModelSession, prefix: tuple[int, ...]) -> np.ndarray:
    """One forward pass, rejecting NaN and ``+inf`` log-probabilities: a NaN
    would vanish from every comparison and ``+inf`` is no probability."""
    logprobs = session.next_token_logprobs(prefix)
    # ndarray.max without its Python-level wrapper: this runs on every pass.
    if not np.maximum.reduce(logprobs) < np.inf:
        raise ValueError(f"model returned a NaN or +inf log-probability after prefix {prefix}")
    return logprobs


def _survivors(parent: Hypothesis, logprobs: np.ndarray, width: int) -> np.ndarray:
    """Ids of a superset of the tokens whose extensions of
    ``parent`` rank in its top ``width`` by ``(-score, token)``.

    A score is the exactly rounded sum of the parent's log-probabilities and
    the new one, so it never falls as the new log-prob rises, and two new
    log-probs give equal scores only if they lie within one ulp of the
    score. With ``kth`` the ``width``-th best log-prob, tokens below the
    ``margin`` band around it score below at least ``width`` others. If the
    band holds only ``kth`` itself, its tokens tie and the lowest ids fill
    the slots the tokens above the band leave; otherwise rounding may merge
    distinct values, and the whole band goes to the exact sort.
    """
    keep = (logprobs > -np.inf).nonzero()[0]
    if keep.size <= width:
        return keep
    kth = float(np.partition(logprobs, logprobs.size - width)[logprobs.size - width])
    margin = 2 * math.ulp(math.fsum(parent.token_logprobs + (kth,)))
    values = logprobs[keep]
    inside = values >= kth - margin
    keep, values = keep[inside], values[inside]
    near = values <= kth + margin
    if (values[near] == kth).all():
        above = keep[~near]
        keep = np.concatenate((above, keep[near][: width - above.size]))
    return keep


def _expand(active: Sequence[Hypothesis], session: ModelSession, width: int) -> list[Hypothesis]:
    """The single-token extensions of the active beams that can survive
    pruning to ``width`` (see :func:`_survivors`).

    Zero-probability tokens are skipped: they can never belong to a valid
    hypothesis and would break score finiteness. A beam whose tokens repeat
    an earlier beam's still costs its forward pass but adds nothing:
    duplicate candidates merge into the earlier beam's copies.
    """
    pool: list[Hypothesis] = []
    seen: set[tuple[int, ...]] = set()
    for hyp in active:
        logprobs = _query(session, hyp.tokens)
        if hyp.tokens in seen:
            continue
        seen.add(hyp.tokens)
        keep = _survivors(hyp, logprobs, width)
        pool.extend(map(hyp.extended, keep.tolist(), logprobs[keep].tolist()))
    return pool


def _prune(pool: Iterable[Hypothesis], width: int) -> list[Hypothesis]:
    """Top ``width`` candidates by cumulative score; ties break on token
    order, so replay is deterministic. Candidates must be distinct, as
    :func:`_expand` leaves them."""
    return sorted(pool, key=lambda h: (-h.score, h.tokens))[:width]


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
    """Expand, prune to ``width`` and classify each ranked candidate until no
    beam or slot is left or the length cap is reached. A triggered candidate
    goes through ``on_trigger`` into the pool and vacates its slot (no
    refill); with ``halt`` the first trigger instead sends every ranked
    candidate there and ends the loop. Returns ``(pool, still_active)``."""
    pool: list[Hypothesis] = []
    active = list(seeds)
    while active and len(active[0].tokens) < max_total and width > 0:
        ranked = _prune(_expand(active, session, width), width)
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
) -> list[Hypothesis]:
    """Decode to completion on the complete source: EOS finishes a beam,
    repetitions are ignored. Returns the finished beams, else those still
    active at the length cap, else the seeds, best-first."""
    finished, leftover = _beam_loop(
        seeds,
        session,
        cfg.beam_size,
        max_total,
        triggered=lambda h: h.tokens[-1] == eos_id,
        on_trigger=lambda h: h,
    )
    return sorted(finished or leftover or seeds, key=_selection_rank)


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
    per position, so repeated calls over growing input pay the full
    re-decode cost. The stop heuristic is never applied: EOS is always a
    legitimate end here, and the search runs until every beam finishes or
    the length cap is reached. Returns the best finished hypothesis by
    normalized score, falling back to the best unfinished one at the cap.
    """
    prefix = Hypothesis()
    for position, token in enumerate(committed):
        logprobs = _query(session, tuple(committed[:position]))
        prefix = prefix.extended(int(token), float(logprobs[int(token)]))
    return _final_block([prefix], session, cfg, eos_id, max_total)[0]


def bwbs_block(
    beams: Sequence[Hypothesis],
    floor: int,
    session: ModelSession,
    cfg: SearchConfig,
    eos_id: int,
    max_total: int,
    final: bool = False,
) -> tuple[Hypothesis, ...]:
    """One block of the conservative blockwise search.

    ``beams`` all extend the committed prefix, which is ``floor`` tokens
    long. All beams advance one token per step. The first step at which *any*
    beam shows a repetition or EOS ends the block: the last two tokens are
    removed from every beam (never below ``floor``) and the beams wait for
    more source. No pruning to a single hypothesis happens here, so snapshots
    may revise across blocks (re-translation semantics). A block in which no
    beam has a finite continuation returns the incoming beams.

    With ``final=True`` the source is complete: the stop heuristic is off and
    the block runs to completion; beams are returned best-first.
    """
    if not beams:
        raise ValueError("bwbs_block requires at least one active hypothesis")
    if final:
        return tuple(_final_block(beams, session, cfg, eos_id, max_total))
    halted, active = _mid_source_block(beams, floor, session, cfg, eos_id, max_total, halt=True)
    return tuple(halted or active or beams)


def ibwbs_block(
    beams: Sequence[Hypothesis],
    floor: int,
    session: ModelSession,
    cfg: SearchConfig,
    eos_id: int,
    max_total: int,
    final: bool = False,
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

    With ``final=True`` EOS finishes beams instead of trimming them and
    repetitions are ignored.
    """
    if not beams:
        raise ValueError("ibwbs_block requires at least one active hypothesis")
    if final:
        return (_final_block(beams, session, cfg, eos_id, max_total)[0],)
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
    snapshots: list[tuple[float, tuple[int, ...]]] | None = None,
) -> SessionTranscript:
    """Drive one full utterance through per-block decoding.

    Per block: ingest, then decode with the selected strategy from the beams
    the previous block left. In incremental mode (the default) the block's
    best hypothesis goes through the commit policy, and any new tokens are
    committed, stamped with the source time consumed so far. The committed
    prefix lives only in the policy state: it is the floor no trim may cut
    into, and it (with its cached token log-probabilities) is the one beam
    the next block starts from, so tokens the policy held back are re-derived
    and remain revisable. The final block bypasses the policy and commits
    everything, with EOS accepted as a legitimate end.

    With ``retranslation=True`` nothing is committed and no policy may be
    set: each block appends a ``(source_ms, tokens)`` snapshot of its best
    hypothesis to ``snapshots`` (if given), the next block starts from every
    beam this one returned (all of them for ``bwbs``, one for ``ibwbs``), and
    the last snapshot is the final output.

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
    total_ms = sum(b.duration_ms for b in blocks)
    if not total_ms < math.inf:
        raise ValueError("the blocks' total duration must be finite")
    max_total = max_output_tokens(total_ms)
    session = model_factory()
    beams: tuple[Hypothesis, ...] = (Hypothesis(),)
    commits: list[CommitEvent] = []
    elapsed = 0.0
    for block in blocks:
        session.ingest_block(block)
        elapsed += block.duration_ms
        floor = len(policy.committed)
        if algo is Algorithm.BS:
            best = standard_beam_search(session, policy.committed, cfg, eos_id, max_total)
        else:
            beams = _BLOCK_OPS[algo](
                beams, floor, session, cfg, eos_id, max_total, final=block.is_final
            )
            best = select_best(beams)
        visible = _strip_eos(best, eos_id)
        if retranslation:
            if snapshots is not None:
                snapshots.append((elapsed, visible.tokens))
            continue
        if block.is_final:
            new = visible.tokens[floor:]
            policy = replace(policy, committed=visible.tokens)
        else:
            policy, new = apply_policy(policy, visible)
        if new:
            commits.append(CommitEvent(tokens=new, source_consumed_ms=elapsed))
        beams = (visible.sliced(len(policy.committed)),)
    return SessionTranscript(
        commits=tuple(commits),
        final_output=visible.tokens if retranslation else policy.committed,
        source_duration_ms=total_ms,
        forward_passes=session.forward_pass_count(),
    )

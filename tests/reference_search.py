"""Reference strategies: the per-strategy beam loops the search module
replaced with its shared beam step, and the session loop that drove them,
kept as a slow oracle.

Each strategy here runs its own expand → prune → classify loop, with its
own copy of the beam-step helpers, so a change to the shared kernel or its
helpers in ``simulbeam.search`` is checked against code it does not share.
The block ops take the beams and the committed-prefix length (``floor``)
and return beams, as the package's do. :func:`decode_session` is the
session loop that kept the committed prefix in a local of its own.
Only the public value types, the stop heuristic, the output-length cap and
the commit policy come from the package. Scores are summed here with
``math.fsum`` over each hypothesis's log-probs, never read from
``Hypothesis.score``: the beams compared are often the search's own, and
would carry the scores the code under test stored.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from simulbeam import Algorithm, Block, Hypothesis, PolicyKind
from simulbeam.core import (
    BlockDecision,
    SearchConfig,
    SessionTranscript,
    StopReason,
    detect_stop,
    max_output_tokens,
)
from simulbeam.search import PolicyState, apply_policy


def _expand(active: Sequence[Hypothesis], session) -> list[Hypothesis]:
    pool: list[Hypothesis] = []
    for hyp in active:
        logprobs = session.next_token_logprobs(hyp.tokens)
        for token, logprob in enumerate(logprobs):
            lp = float(logprob)
            if lp > -math.inf:
                pool.append(hyp.extended(token, lp))
    return pool


def _score(hyp: Hypothesis) -> float:
    return math.fsum(hyp.token_logprobs)


def _prune(pool: Iterable[Hypothesis], width: int) -> list[Hypothesis]:
    seen: dict[tuple[int, ...], Hypothesis] = {}
    for hyp in pool:
        seen.setdefault(hyp.tokens, hyp)
    ranked = sorted(seen.values(), key=lambda h: (-_score(h), h.tokens))
    return ranked[:width]


def _selection_rank(hyp: Hypothesis) -> tuple:
    normalized = _score(hyp) / len(hyp.tokens) if hyp.tokens else 0.0
    return (0 if hyp.tokens else 1, -normalized, -len(hyp.tokens), hyp.tokens)


def select_best(candidates: Sequence[Hypothesis]) -> Hypothesis:
    if not candidates:
        raise ValueError("cannot select from an empty candidate set")
    return min(candidates, key=_selection_rank)


def _trim_stop(hyp: Hypothesis, floor: int) -> Hypothesis:
    return hyp.sliced(max(len(hyp.tokens) - 2, floor))


def _run_to_completion(
    seeds: Sequence[Hypothesis],
    session,
    cfg: SearchConfig,
    eos_id: int,
    max_total: int,
) -> tuple[list[Hypothesis], list[Hypothesis]]:
    active = [h for h in seeds]
    finished: list[Hypothesis] = []
    width = cfg.beam_size
    while active and len(active[0].tokens) < max_total and width > 0:
        still: list[Hypothesis] = []
        for hyp in _prune(_expand(active, session), width):
            if hyp.tokens[-1] == eos_id:
                finished.append(hyp)
                width -= 1
            else:
                still.append(hyp)
        active = still
    return finished, active


def standard_beam_search(
    session,
    committed: Sequence[int],
    cfg: SearchConfig,
    eos_id: int,
    max_total: int,
) -> Hypothesis:
    prefix = Hypothesis()
    for position, token in enumerate(committed):
        logprobs = session.next_token_logprobs(tuple(committed[:position]))
        prefix = prefix.extended(int(token), float(logprobs[int(token)]))
    if len(prefix.tokens) >= max_total:
        return prefix
    finished, active = _run_to_completion([prefix], session, cfg, eos_id, max_total)
    if finished:
        return select_best(finished)
    if active:
        return select_best(active)
    return prefix


def bwbs_block(
    beams: Sequence[Hypothesis],
    floor: int,
    session,
    cfg: SearchConfig,
    eos_id: int,
    max_total: int,
    final: bool = False,
) -> tuple[Hypothesis, ...]:
    if not beams:
        raise ValueError("bwbs_block requires at least one active hypothesis")
    if final:
        finished, leftover = _run_to_completion(beams, session, cfg, eos_id, max_total)
        pool = finished or leftover or list(beams)
        return tuple(sorted(pool, key=_selection_rank))
    active = list(beams)
    while active and len(active[0].tokens) < max_total:
        active = _prune(_expand(active, session), cfg.beam_size)
        if any(detect_stop(h, cfg, eos_id) is not StopReason.NONE for h in active):
            active = [_trim_stop(h, floor) for h in active]
            break
    # No beam with a finite continuation: keep the incoming beams.
    return tuple(active or beams)


def ibwbs_block(
    beams: Sequence[Hypothesis],
    floor: int,
    session,
    cfg: SearchConfig,
    eos_id: int,
    max_total: int,
    final: bool = False,
) -> tuple[Hypothesis, ...]:
    if not beams:
        raise ValueError("ibwbs_block requires at least one active hypothesis")
    if final:
        finished, leftover = _run_to_completion(beams, session, cfg, eos_id, max_total)
        pool = finished or leftover or list(beams)
        return (select_best(pool),)
    active = list(beams)
    stopped: list[Hypothesis] = []
    width = cfg.beam_size
    while active and len(active[0].tokens) < max_total and width > 0:
        still: list[Hypothesis] = []
        for hyp in _prune(_expand(active, session), width):
            if detect_stop(hyp, cfg, eos_id) is not StopReason.NONE:
                stopped.append(_trim_stop(hyp, floor))
                width -= 1
            else:
                still.append(hyp)
        active = still
    stopped.extend(active)
    # No beam with a finite continuation: fall back to the incoming beams.
    return (select_best(stopped or list(beams)),)


def _strip_eos(hyp: Hypothesis, eos_id: int) -> Hypothesis:
    if hyp.tokens and hyp.tokens[-1] == eos_id:
        return hyp.sliced(len(hyp.tokens) - 1)
    return hyp


def decode_session(
    model_factory,
    blocks: Sequence[Block],
    eos_id: int,
    algo: Algorithm = Algorithm.IBWBS,
    policy: PolicyState | None = None,
    retranslation: bool = False,
    cfg: SearchConfig = SearchConfig(),
) -> SessionTranscript:
    """The session loop as it stood before the committed prefix moved into
    the policy state: it keeps its own ``committed``, runs the final block
    outside the policy, and in re-translation mode carries every beam for
    ``bwbs`` and only the best for the others. Each block records one
    decision: the source time read, the visible best and the tokens it
    committed."""
    blocks = list(blocks)
    if not blocks or not blocks[-1].is_final or any(b.is_final for b in blocks[:-1]):
        raise ValueError("the block stream must end with exactly one final block")
    policy_state = policy if policy is not None else PolicyState()
    if retranslation and policy_state.kind is not PolicyKind.NONE:
        raise ValueError("commit policies apply to incremental mode only")
    session = model_factory()
    block_ops = {Algorithm.BWBS: bwbs_block, Algorithm.IBWBS: ibwbs_block}
    committed: tuple[int, ...] = ()
    carry: tuple[Hypothesis, ...] = (Hypothesis(),)
    decisions: list[BlockDecision] = []
    elapsed = 0.0
    for block in blocks:
        session.ingest_block(block)
        elapsed += block.duration_ms
        max_total = max_output_tokens(elapsed)
        if algo is Algorithm.BS:
            best = standard_beam_search(session, committed, cfg, eos_id, max_total)
            beams: tuple[Hypothesis, ...] = (best,)
        else:
            beams = block_ops[algo](
                carry, len(committed), session, cfg, eos_id, max_total, final=block.is_final
            )
            best = select_best(beams)
        visible = _strip_eos(best, eos_id)
        new: tuple[int, ...] = ()
        if not retranslation:
            if block.is_final:
                new = visible.tokens[len(committed) :]
            else:
                policy_state, new = apply_policy(policy_state, visible)
            if new:
                committed = committed + tuple(new)
            carry = (visible.sliced(len(committed)),)
        else:
            carry = beams if algo is Algorithm.BWBS else (best,)
        decisions.append(BlockDecision(elapsed, visible.tokens, tuple(new)))
    return SessionTranscript(tuple(decisions), session.forward_pass_count())

"""Reference strategies: the per-strategy beam loops the search module
replaced with its shared beam step, kept as a slow oracle.

Each strategy here runs its own expand → prune → classify loop, with its
own copy of the beam-step helpers, so a change to the shared kernel or its
helpers in ``simulbeam.search`` is checked against code it does not share.
Only the public value types and the stop heuristic come from the package.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from simulbeam import BeamState, Hypothesis, SearchConfig, StopReason, detect_stop
from simulbeam.core import normalized_score


def _expand(active: Sequence[Hypothesis], session) -> list[Hypothesis]:
    pool: list[Hypothesis] = []
    for hyp in active:
        logprobs = session.next_token_logprobs(hyp.tokens)
        for token, logprob in enumerate(logprobs):
            lp = float(logprob)
            if lp > -math.inf:
                pool.append(hyp.extended(token, lp))
    return pool


def _prune(pool: Iterable[Hypothesis], width: int) -> list[Hypothesis]:
    seen: dict[tuple[int, ...], Hypothesis] = {}
    for hyp in pool:
        seen.setdefault(hyp.tokens, hyp)
    ranked = sorted(seen.values(), key=lambda h: (-h.score, h.tokens))
    return ranked[:width]


def _selection_rank(hyp: Hypothesis) -> tuple:
    return (0 if hyp.tokens else 1, -normalized_score(hyp), -len(hyp.tokens), hyp.tokens)


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
    state: BeamState,
    session,
    cfg: SearchConfig,
    eos_id: int,
    max_total: int,
    final: bool = False,
) -> BeamState:
    if not state.active:
        raise ValueError("bwbs_block requires at least one active hypothesis")
    floor = len(state.committed)
    if final:
        finished, leftover = _run_to_completion(state.active, session, cfg, eos_id, max_total)
        pool = finished or leftover or list(state.active)
        ranked = sorted(pool, key=_selection_rank)
        return BeamState(active=tuple(ranked), committed=state.committed)
    active = list(state.active)
    while active and len(active[0].tokens) < max_total:
        active = _prune(_expand(active, session), cfg.beam_size)
        if any(detect_stop(h, cfg, eos_id) is not StopReason.NONE for h in active):
            active = [_trim_stop(h, floor) for h in active]
            break
    # No beam with a finite continuation: keep the incoming beams.
    return BeamState(active=tuple(active or state.active), committed=state.committed)


def ibwbs_block(
    state: BeamState,
    session,
    cfg: SearchConfig,
    eos_id: int,
    max_total: int,
    final: bool = False,
) -> BeamState:
    if not state.active:
        raise ValueError("ibwbs_block requires at least one active hypothesis")
    floor = len(state.committed)
    if final:
        finished, leftover = _run_to_completion(state.active, session, cfg, eos_id, max_total)
        pool = finished or leftover or list(state.active)
        return BeamState(active=(select_best(pool),), committed=state.committed)
    active = list(state.active)
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
    best = select_best(stopped or list(state.active))
    return BeamState(active=(best,), committed=state.committed)

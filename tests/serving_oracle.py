"""The two-branch live ranking over copied score maps: the oracle.

The online store once copied each published (player, match) row into its
own template -> score dict, and `rank_live` ordered a warm player's request
and a cold player's request in two branches. `widir.serving` now keeps the
payload views and ranks both on one path; it must give the same contests,
scores and source.
"""

from __future__ import annotations

from typing import Sequence

from widir.inference import RankingPayload


def score_map_of(payload: RankingPayload | None) -> dict[str, float] | None:
    """The template -> score map of a payload row, as the store once copied it."""
    if payload is None:
        return None
    block = payload.block
    return dict(zip(block.template_ids, block.scores[payload.row].tolist()))


def rank_oracle(
    payload: RankingPayload | None,
    fallback_ranked: Sequence[tuple[str, float]],
    contests: Sequence[tuple[str, str]],
) -> tuple[tuple[tuple[str, float], ...], str]:
    """(ordered (contest_id, score) pairs, source) for one request.

    `payload` is the player's row for the match (None for a cold player),
    `fallback_ranked` the match's popularity slate (empty when the match
    has none) and `contests` the request's (contest_id, template_id) pairs.
    """
    score_map = score_map_of(payload)
    fb_rank = {tid: i for i, (tid, _) in enumerate(fallback_ranked)}
    fb_score = {tid: score for tid, score in fallback_ranked}

    if score_map is not None:
        known = [(cid, tid) for cid, tid in contests if tid in score_map]
        unknown = [(cid, tid) for cid, tid in contests if tid not in score_map]
        known.sort(key=lambda ct: (-score_map[ct[1]], ct[1], ct[0]))
        unknown.sort(key=lambda ct: (fb_rank.get(ct[1], len(fb_rank)), ct[1], ct[0]))
        ordered = [(cid, score_map[tid]) for cid, tid in known]
        ordered += [(cid, fb_score.get(tid, 0.0)) for cid, tid in unknown]
        source = "personalized"
    else:
        by_fallback = sorted(
            contests, key=lambda ct: (fb_rank.get(ct[1], len(fb_rank)), ct[1], ct[0])
        )
        ordered = [(cid, fb_score.get(tid, 0.0)) for cid, tid in by_fallback]
        source = "fallback"
    return tuple(ordered), source

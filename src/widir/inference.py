"""Daily batch inference: score active players against upcoming matches.

Payloads carry a full template ordering per (player, match) so the serving
layer never runs the model; `generated_at` is an input, making re-runs
bytewise idempotent. Each upcoming match's active players are ranked in one
`ModelScorer.rank_players` call, the call evaluation makes per test match.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass
from typing import Sequence

from .domain import ContestSpec, JoinRecord, MatchRecord, day_of
from .errors import DataError
from .evaluation import ModelScorer
from .features import FeatureSnapshot
from .model import WidirParams
from .textio import write_replace


@dataclass(frozen=True, slots=True)
class RankingPayload:
    """Full precomputed template ordering for one (player, match)."""

    player_id: str
    match_id: str
    ranking: tuple[tuple[str, float], ...]  # (template_id, score), best first
    generated_at: int
    model_version: str


def active_players(joins: Sequence[JoinRecord], as_of_day: dt.date) -> set[str]:
    """Players with at least one join in the 30 days ending the day before `as_of_day`."""
    lo = as_of_day - dt.timedelta(days=30)
    return {
        r.player_id
        for r in joins
        if lo <= day_of(r.joining_time) < as_of_day
    }


def run_batch(
    params: WidirParams,
    snapshot: FeatureSnapshot,
    matches: Sequence[tuple[MatchRecord, Sequence[ContestSpec]]],
    active: set[str],
    model_version: str,
    generated_at: int,
) -> list[RankingPayload]:
    """One payload per (active player, upcoming match), ordered as model_rank orders.

    Each match's active players are ranked in one `ModelScorer.rank_players`
    call, the path `model_rank` takes for one player; the scoring kernel is
    batch-invariant, so each ordering is bit-identical to that player's
    `model_rank`.
    """
    players = sorted(active)
    scorer = ModelScorer(params)
    return [
        RankingPayload(
            player_id=slate.player_id,
            match_id=slate.match_id,
            ranking=slate.ranked,
            generated_at=generated_at,
            model_version=model_version,
        )
        for match, templates in matches
        for slate in scorer.rank_players(match.match_id, templates, snapshot, players)
    ]


def write_payloads(path, payloads: Sequence[RankingPayload]) -> None:
    """Newline-delimited JSON payload file; written atomically."""
    with write_replace(path) as fh:
        fh.writelines(
            json.dumps(
                {
                    "player_id": p.player_id,
                    "match_id": p.match_id,
                    "ranking": [[tid, float(score)] for tid, score in p.ranking],
                    "generated_at": p.generated_at,
                    "model_version": p.model_version,
                },
                sort_keys=True,
            )
            + "\n"
            for p in payloads
        )


def read_payloads(path) -> list[RankingPayload]:
    """Parse a payload file; a line that is not a payload is a DataError naming `path:line`."""
    out: list[RankingPayload] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                doc = json.loads(line)
                out.append(
                    RankingPayload(
                        player_id=doc["player_id"],
                        match_id=doc["match_id"],
                        ranking=tuple((tid, float(s)) for tid, s in doc["ranking"]),
                        generated_at=int(doc["generated_at"]),
                        model_version=doc["model_version"],
                    )
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: not a ranking payload: {exc!r}") from exc
    return out

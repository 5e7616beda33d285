"""Daily batch inference: score active players against upcoming matches.

The batch job produces one `MatchScores` block per upcoming match: the
match's template ids, its sorted active player ids and a float32
(players x templates) score matrix, so the serving layer never runs the
model. The active players are the as-of day's snapshot players: the day
sweep keeps exactly the players with a join in the 30 days before the
day, so the batch job reads no join log. Each block comes from one
`ModelScorer.score_matrix` call, the chunked `score_players` calls
evaluation ranks through, run on one thread per CPU. The scoring kernel is batch-invariant, so every score is
bit-identical to that player's `model_rank` whatever the chunking or the
thread count. No slate is built here: an ordering is made only where a
(player, match) row's `ranking` is read. `generated_at` is an input,
making re-runs bytewise idempotent.

The payload file holds one JSON line per match (see `write_payloads`), and
`read_payloads` gives back one `RankingPayload` view per (player, match).
"""

from __future__ import annotations

import base64
import datetime as dt
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .domain import ContestSpec, JoinRecord, MatchRecord, day_of
from .errors import DataError
from .evaluation import ModelScorer, _make_slate
from .features import FeatureSnapshot
from .model import WidirParams
from .textio import json_field, load_json, write_replace

_SCORE_DTYPE = np.dtype("<f4")  # payload scores: little-endian float32, row-major


@dataclass(frozen=True, slots=True)
class MatchScores:
    """Scores of one match's templates for its active players.

    Row i of `scores` holds `player_ids[i]`'s score for each template, in
    `template_ids` order; `columns` maps each template id to its column.
    An id that is not a string or repeats, and scores that are not a finite
    float32 (players x templates) matrix, are a ValueError when the block is made.
    """

    match_id: str
    template_ids: tuple[str, ...]
    player_ids: tuple[str, ...]  # sorted
    scores: np.ndarray  # float32, (len(player_ids), len(template_ids))
    generated_at: int
    model_version: str
    columns: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(isinstance(i, str) for i in self.player_ids + self.template_ids):
            raise ValueError("player and template ids must be strings")
        object.__setattr__(self, "columns", {tid: j for j, tid in enumerate(self.template_ids)})
        shape = (len(self.player_ids), len(self.template_ids))
        if self.scores.dtype != _SCORE_DTYPE or self.scores.shape != shape:
            raise ValueError(f"scores must be a float32 {shape} matrix, not {self.scores.dtype} {self.scores.shape}")
        if not np.isfinite(self.scores).all():
            raise ValueError("a score is NaN or infinite")
        if len(self.columns) != shape[1] or len(set(self.player_ids)) != shape[0]:
            raise ValueError("a player or template id repeats")


class RankingPayload:
    """One (player, match) row of a `MatchScores` block.

    `ranking` is the row's full template ordering (score descending, ties by
    template id), made on each access by the one ordering function,
    `evaluation._make_slate`.
    """

    __slots__ = ("block", "row")

    def __init__(self, block: MatchScores, row: int):
        self.block = block
        self.row = row

    @property
    def player_id(self) -> str:
        return self.block.player_ids[self.row]

    @property
    def match_id(self) -> str:
        return self.block.match_id

    @property
    def model_version(self) -> str:
        return self.block.model_version

    @property
    def ranking(self) -> tuple[tuple[str, float], ...]:
        """(template_id, score) pairs, best first."""
        b = self.block
        return _make_slate(self.player_id, b.match_id, b.template_ids, b.scores[self.row].tolist()).ranked

    def __repr__(self) -> str:
        return f"RankingPayload(player_id={self.player_id!r}, match_id={self.match_id!r})"


def active_players(joins: Sequence[JoinRecord], as_of_day: dt.date) -> set[str]:
    """Players with at least one join in the 30 days ending the day before `as_of_day`.

    The batch job scores the as-of snapshot's players instead, the same set
    (`iter_snapshots` keeps a player by the same window); this is the
    benchmark's independent count of that population.
    """
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
    active: Iterable[str],
    model_version: str,
    generated_at: int,
) -> list[MatchScores]:
    """One score block per upcoming match, its rows the sorted active players.

    Each block is one `ModelScorer.score_matrix` call, the scores
    `ModelScorer.rank_players` orders; the scoring kernel is
    batch-invariant, so each row's ordering is bit-identical to that
    player's `model_rank`.
    """
    player_ids = tuple(sorted(active))
    scorer = ModelScorer(params)
    blocks = []
    for match, templates in matches:
        template_ids, scores = scorer.score_matrix(templates, snapshot, player_ids)
        blocks.append(MatchScores(
            match_id=match.match_id,
            template_ids=tuple(template_ids),
            player_ids=player_ids,
            scores=scores,
            generated_at=generated_at,
            model_version=model_version,
        ))
    return blocks


def write_payloads(path, blocks: Sequence[MatchScores]) -> None:
    """One JSON line per match, keys sorted; written atomically.

    `scores` is the base64 of the block's little-endian float32 matrix,
    row-major (a player's row of template scores after another's).
    """
    with write_replace(path) as fh:
        fh.writelines(
            json.dumps(
                {
                    "generated_at": b.generated_at,
                    "match_id": b.match_id,
                    "model_version": b.model_version,
                    "player_ids": list(b.player_ids),
                    "scores": base64.b64encode(b.scores.tobytes()).decode("ascii"),
                    "template_ids": list(b.template_ids),
                },
                sort_keys=True,
            )
            + "\n"
            for b in blocks
        )


def read_payloads(path) -> list[RankingPayload]:
    """One `RankingPayload` per (player, match) row of a payload file, in file order.

    A line that is not a score block is a DataError naming `path:line`: not
    JSON, a missing or mistyped field, scores that are not base64, a score
    byte count that does not match the id counts, a NaN or infinite score,
    a duplicate player or template id, or a match seen on an earlier line.
    A missing, unreadable or non-UTF-8 file is a DataError naming the path.
    """
    out: list[RankingPayload] = []
    seen: set[str] = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                context = f"{path}:{lineno}"
                try:
                    block = _parse_block(line, context)
                    if block.match_id in seen:
                        raise ValueError(f"match {block.match_id!r} has an earlier line")
                except ValueError as exc:
                    raise DataError(f"{context}: not a payload line: {exc!r}") from exc
                seen.add(block.match_id)
                out.extend(RankingPayload(block, i) for i in range(len(block.player_ids)))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read payloads: {exc}") from exc
    return out


def _parse_block(line: str, context: str) -> MatchScores:
    """The score block on one payload line; a JSON or field error is a DataError naming
    `context`, a bad score or id list a ValueError."""
    doc = load_json(line, context, DataError)
    match_id = json_field(doc, "match_id", str, context, DataError)
    model_version = json_field(doc, "model_version", str, context, DataError)
    generated_at = json_field(doc, "generated_at", int, context, DataError)
    template_ids = tuple(json_field(doc, "template_ids", list, context, DataError))
    player_ids = tuple(json_field(doc, "player_ids", list, context, DataError))
    encoded = json_field(doc, "scores", str, context, DataError)
    raw = base64.b64decode(encoded, validate=True)  # binascii.Error is a ValueError
    # a byte count that does not fit the id counts fails here, as a ValueError
    scores = np.frombuffer(raw, dtype=_SCORE_DTYPE).reshape(len(player_ids), len(template_ids))
    return MatchScores(match_id, template_ids, player_ids, scores, generated_at, model_version)

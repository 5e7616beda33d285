"""Offline ranking evaluation: slates, precision@h / recall@h, baselines.

Metrics are computed at template level and macro-averaged over the
(player, match) pairs of the test partition that have at least one join.

Every scorer ranks one match's templates for a list of players in one call,
`rank_players(match_id, templates, snapshot, player_ids)`, which returns the
slates in `player_ids` order. Evaluation and the A/B simulation rank
through it. Batch inference takes `ModelScorer.score_matrix`, the scores
`ModelScorer.rank_players` orders, and builds no slates.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .domain import ContestSpec
from .errors import DataError
from .features import (
    D_I,
    FeatureSnapshot,
    JoinEvent,
    TemplateBlock,
    build_template_block,
)
from .generator import PlayerArchetype, archetype_utilities, template_stats
from .model import Rows, WidirParams, score_rows
from .textio import format_kv, from_kv, parse_kv, parse_value, to_kv

EVAL_H_VALUES = (1, 3, 5, 10)
_SCORE_CHUNK = 512  # players scored per forward batch


@dataclass(frozen=True, slots=True)
class RankedSlate:
    """Descending-score template ordering for one (player, match)."""

    player_id: str
    match_id: str
    ranked: tuple[tuple[str, float], ...]

    def top(self, h: int) -> list[str]:
        return [tid for tid, _ in self.ranked[:h]]


@dataclass
class EvalReport:
    model: str
    n_pairs: int
    precision: dict[int, float] = field(default_factory=dict)
    recall: dict[int, float] = field(default_factory=dict)

    def validate(self) -> None:
        hs = sorted(self.recall)
        for h in hs:
            if not (0.0 <= self.precision[h] <= 1.0 and 0.0 <= self.recall[h] <= 1.0):
                raise DataError(f"metric out of [0,1] at h={h}")
        for a, b in zip(hs, hs[1:]):
            if self.recall[b] < self.recall[a] - 1e-12:
                raise DataError(f"recall not non-decreasing between h={a} and h={b}")

    def to_text(self) -> str:
        items = to_kv(self)
        for h in sorted(self.precision):
            items[f"precision@{h}"] = repr(self.precision[h])
            items[f"recall@{h}"] = repr(self.recall[h])
        return format_kv(items)

    @classmethod
    def from_text(cls, text: str) -> "EvalReport":
        context = "eval report"
        at_h: dict[str, dict[int, float]] = {"precision": {}, "recall": {}}
        scalars: dict[str, str] = {}
        for key, value in parse_kv(text, context).items():
            metric, _, h = key.partition("@")
            if metric in at_h and h:
                at_h[metric][parse_value(int, h, context, key)] = parse_value(float, value, context, key)
            else:
                scalars[key] = value
        return from_kv(cls, scalars, context, **at_h)


def _make_slate(player_id: str, match_id: str, template_ids: Sequence[str], scores: Sequence[float]) -> RankedSlate:
    if len(set(template_ids)) != len(template_ids):
        raise ValueError(f"duplicate template_ids in slate input for match {match_id}")
    order = sorted(range(len(template_ids)), key=lambda i: (-float(scores[i]), template_ids[i]))
    return RankedSlate(
        player_id=player_id,
        match_id=match_id,
        ranked=tuple((template_ids[i], float(scores[i])) for i in order),
    )


def popularity_rank(contests: Sequence[ContestSpec]) -> RankedSlate:
    """Templates ordered by prize pool descending, ties by template_id."""
    if not contests:
        raise ValueError("popularity_rank requires a non-empty contest list")
    return _make_slate(
        "",
        contests[0].match_id,
        [c.template_id for c in contests],
        [c.prize_money for c in contests],
    )


def model_rank(
    params: WidirParams,
    snapshot: FeatureSnapshot,
    player_id: str,
    contests: Sequence[ContestSpec],
) -> RankedSlate:
    """Score a match's templates for one player and sort descending.

    Cold players (absent from the snapshot) use the cold-start player vector
    and zero interaction counts. The snapshot day must precede match start.
    """
    if not contests:
        raise ValueError("model_rank requires a non-empty contest list")
    return ModelScorer(params).rank_players(contests[0].match_id, contests, snapshot, [player_id])[0]


def score_players(
    params: WidirParams, snapshot: FeatureSnapshot, block: TemplateBlock, player_ids: Sequence[str]
) -> np.ndarray:
    """(players, templates) scores of each player against every template of `block`.

    One factored forward: the player branch runs once per player, the
    contest branch once per template, and each (player, template) pair row
    carries its interaction row. The exact scoring path is batch-invariant,
    so a player's scores do not depend on the other players in the call.
    """
    n, m = len(block.template_ids), len(player_ids)
    rows = Rows(
        player=snapshot.player_rows(player_ids),
        contest=block.contest_matrix,
        interaction=block.interaction_matrix(snapshot, player_ids).reshape(-1, D_I),
        player_of=np.repeat(np.arange(m), n),
        contest_of=np.tile(np.arange(n), m),
    )
    return score_rows(params, rows).reshape(m, n)


def precision_at(slate: RankedSlate, actual_joined: set[str], h: int) -> float:
    """|top-h ∩ joined| / h; a slate shorter than h still divides by h."""
    if h < 1:
        raise ValueError("h must be >= 1")
    return len(set(slate.top(h)) & actual_joined) / h


def recall_at(slate: RankedSlate, actual_joined: set[str], h: int) -> float:
    """|top-h ∩ joined| / |joined|; undefined (rejected) for no joins."""
    if h < 1:
        raise ValueError("h must be >= 1")
    if not actual_joined:
        raise ValueError("recall is undefined for an empty actual_joined set")
    return len(set(slate.top(h)) & actual_joined) / len(actual_joined)


# --- scorers ------------------------------------------------------------------


class PopularityScorer:
    name = "popularity"

    def rank_players(self, match_id, templates, snapshot, player_ids) -> list[RankedSlate]:
        ranked = popularity_rank(templates).ranked
        return [RankedSlate(player_id=pid, match_id=match_id, ranked=ranked) for pid in player_ids]


class ModelScorer:
    """Ranks with the model; each slate equals that player's `model_rank` bit for bit.

    The match's template block is built once per call, and the players are
    scored in chunks through `score_players`, whose kernel is batch-invariant.
    """

    name = "widir"

    def __init__(self, params: WidirParams):
        self.params = params

    def score_matrix(self, templates, snapshot, player_ids) -> tuple[list[str], np.ndarray]:
        """The match's template ids and the (players, templates) scores, rows in `player_ids` order."""
        block = build_template_block(templates, snapshot.stats)
        chunks = [
            score_players(self.params, snapshot, block, player_ids[base : base + _SCORE_CHUNK])
            for base in range(0, len(player_ids), _SCORE_CHUNK)
        ]
        if not chunks:
            return block.template_ids, np.zeros((0, len(block.template_ids)), dtype=np.float32)
        return block.template_ids, np.concatenate(chunks)

    def rank_players(self, match_id, templates, snapshot, player_ids) -> list[RankedSlate]:
        template_ids, scores = self.score_matrix(templates, snapshot, player_ids)
        return [_make_slate(pid, match_id, template_ids, row.tolist()) for pid, row in zip(player_ids, scores)]


class GroundTruthScorer:
    """Ranks by the synthetic generator's deterministic utility (the oracle)."""

    name = "ground_truth"

    def __init__(self, archetypes: Mapping[str, PlayerArchetype]):
        self.archetypes = archetypes

    def rank_players(self, match_id, templates, snapshot, player_ids) -> list[RankedSlate]:
        ts = template_stats(templates)
        slates: list[RankedSlate] = []
        for pid in player_ids:
            arch = self.archetypes.get(pid)
            if arch is None:
                raise DataError(f"no archetype known for player {pid}")
            slates.append(_make_slate(pid, match_id, ts.template_ids, archetype_utilities(arch, ts).tolist()))
        return slates


def evaluate(
    scorer,
    test_events: Sequence[JoinEvent],
    templates_by_match: Mapping[str, Sequence[ContestSpec]],
    match_days: Mapping[str, dt.date],
    snapshots,
    h_values: Sequence[int] = EVAL_H_VALUES,
) -> EvalReport:
    """Macro-averaged precision@h / recall@h over test (player, match) pairs.

    For each pair with at least one join, the slate ranks the match's
    available templates using features as of the match's day
    (`snapshots.get(day)` lookup). Each match's test players are ranked in
    one `scorer.rank_players` call, in sorted order; the metrics are summed
    in sorted (player, match) order.
    """
    joined: dict[tuple[str, str], set[str]] = {}
    for e in test_events:
        joined.setdefault((e.player_id, e.match_id), set()).add(e.template_id)
    if not joined:
        raise DataError("no (player, match) pairs with joins in the test partition")
    pairs = sorted(joined)
    players_by_match: dict[str, list[str]] = {}
    for pid, mid in pairs:
        players_by_match.setdefault(mid, []).append(pid)

    metrics: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for mid in sorted(players_by_match):
        templates = templates_by_match.get(mid)
        if not templates:
            raise DataError(f"match {mid} missing from catalog")
        day = match_days.get(mid)
        if day is None:
            raise DataError(f"no match day known for match {mid}")
        pids = players_by_match[mid]
        for pid, slate in zip(pids, scorer.rank_players(mid, templates, snapshots.get(day), pids)):
            actual = joined[(pid, mid)]
            metrics[(pid, mid)] = [(precision_at(slate, actual, h), recall_at(slate, actual, h)) for h in h_values]

    prec_sum = {h: 0.0 for h in h_values}
    rec_sum = {h: 0.0 for h in h_values}
    for pair in pairs:
        for h, (p, r) in zip(h_values, metrics[pair]):
            prec_sum[h] += p
            rec_sum[h] += r
    n = len(pairs)
    report = EvalReport(
        model=getattr(scorer, "name", "scorer"),
        n_pairs=n,
        precision={h: prec_sum[h] / n for h in h_values},
        recall={h: rec_sum[h] / n for h in h_values},
    )
    report.validate()
    return report

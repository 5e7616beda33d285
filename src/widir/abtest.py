"""Simulated online experiment: cohorts, treatments, business metrics, delta.

Treatment works through an exposure model: in the post period a treated
player's choice weights for the policy's top-h recommended templates are
multiplied by a boost b > 1 before the softmax draw, and the player's join
rate scales with the attractiveness lift ((Z_boosted/Z_base)^eta, so a boost
on relevant templates raises join volume while boost 1 is an exact null).
Metrics: CJ (contest joins), CEA (entry amounts), GGR (entry amounts minus
prizes paid), aggregated exactly in integer cents. Prizes here are the
per-entry expected payout (pool/size), which keeps GGR conservation exact
while avoiding the heavy tail of sampled finishing ranks. A treated group's
policy ranks a match's active group members in one `rank_players` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .domain import ContestSpec, MatchRecord
from .errors import ConfigError, DataError
from .evaluation import RankedSlate, popularity_rank
from .generator import (
    MAX_JOINS_PER_MATCH,
    PlayerArchetype,
    archetype_utilities,
    sample_join_templates,
    template_stats,
)
from .inference import RankingPayload
from .textio import format_kv, from_kv, parse_value, read_kv, to_kv

_AB_STREAM = 21
_PERIOD_CODE = {"pre": 0, "post": 1}
RATE_ELASTICITY = 0.5  # join-rate response to the exposure attractiveness lift


def _expected_prize(spec: ContestSpec) -> int:
    return spec.prize_distribution.total_payout() // spec.contest_size


@dataclass(frozen=True)
class CohortAssignment:
    """Disjoint player groups, stratified by activity decile."""

    groups: dict[str, tuple[str, ...]]
    seed: int

    def group_of(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for g, players in self.groups.items():
            for p in players:
                out[p] = g
        return out


def assign_cohorts(
    players: Sequence[str],
    activity: Mapping[str, int],
    sizes: Mapping[str, int],
    seed: int,
) -> CohortAssignment:
    """Stratified random split by activity decile with exact group sizes."""
    n = len(players)
    total = sum(sizes.values())
    if total > n:
        raise ConfigError(f"group sizes sum to {total} but only {n} players exist")
    if any(s < 0 for s in sizes.values()):
        raise ConfigError("group sizes must be non-negative")

    ordered = sorted(players, key=lambda p: (activity.get(p, 0), p))
    strata: list[list[str]] = [[] for _ in range(10)]
    for i, p in enumerate(ordered):
        strata[i * 10 // n].append(p)

    rng = np.random.default_rng(np.random.SeedSequence((seed, _AB_STREAM)))
    group_names = sorted(sizes)
    remaining = {g: sizes[g] for g in group_names}
    remaining["__unassigned__"] = n - total
    players_remaining = n
    result: dict[str, list[str]] = {g: [] for g in group_names}

    for stratum in strata:
        k = len(stratum)
        if k == 0:
            continue
        idx = rng.permutation(k)
        shuffled = [stratum[i] for i in idx]
        names = group_names + ["__unassigned__"]
        exact = {g: remaining[g] * k / players_remaining for g in names}
        quota = {g: min(int(exact[g]), remaining[g]) for g in names}
        spare = k - sum(quota.values())
        by_frac = sorted(names, key=lambda g: (-(exact[g] - int(exact[g])), g))
        while spare > 0:
            for g in by_frac:
                if spare == 0:
                    break
                if quota[g] < remaining[g]:
                    quota[g] += 1
                    spare -= 1
        pos = 0
        for g in names:
            take = quota[g]
            if g != "__unassigned__":
                result[g].extend(shuffled[pos : pos + take])
            remaining[g] -= take
            pos += take
        players_remaining -= k

    return CohortAssignment(
        groups={g: tuple(sorted(result[g])) for g in group_names}, seed=seed
    )


# --- metric aggregates -------------------------------------------------------


@dataclass
class MetricAggregate:
    group: str
    period: str
    cj: int = 0
    cea: int = 0
    prizes_paid: int = 0

    @property
    def ggr(self) -> int:
        return self.cea - self.prizes_paid

    def metric(self, name: str) -> float:
        if name == "CJ":
            return float(self.cj)
        if name == "CEA":
            return float(self.cea)
        if name == "GGR":
            return float(self.ggr)
        raise ValueError(f"unknown metric {name!r}")


class SimJoin(NamedTuple):
    group: str
    player_id: str
    match_id: str
    template_id: str
    entry_fee: int
    prize_won: int


# --- ranking policies ---------------------------------------------------------


class PayloadScorer:
    """Ranks by the batch payloads; a (player, match) without one falls back to popularity."""

    name = "payloads"

    def __init__(self, payloads: Iterable[RankingPayload]):
        self.payloads = {(p.player_id, p.match_id): p for p in payloads}

    def rank_players(self, match_id, templates, snapshot, player_ids) -> list[RankedSlate]:
        popular = popularity_rank(templates).ranked
        slates = []
        for pid in player_ids:
            payload = self.payloads.get((pid, match_id))
            ranked = popular if payload is None else payload.ranking
            slates.append(RankedSlate(player_id=pid, match_id=match_id, ranked=ranked))
        return slates


# --- simulation -----------------------------------------------------------------


def simulate_period(
    assignment: CohortAssignment,
    policies: Mapping[str, object],
    matches: Sequence[tuple[MatchRecord, Sequence[ContestSpec]]],
    archetypes: Mapping[str, PlayerArchetype],
    participation_rate: float,
    period: str,
    seed: int,
    boost: float = 2.0,
    h_exposed: int = 5,
) -> tuple[dict[str, MetricAggregate], list[SimJoin]]:
    """Run one experiment period through the synthetic behavior model.

    Treatment groups (every group with a policy) get the exposure boost in
    the post period only, on the top `h_exposed` templates of their policy,
    a scorer (`rank_players(match, templates, None, players)`); the control
    group and the pre period use the untreated choice model. Returns
    per-group aggregates plus the simulated join log for conservation checks.
    """
    if period not in _PERIOD_CODE:
        raise ValueError(f"period must be 'pre' or 'post', got {period!r}")
    treated_groups = {g for g in assignment.groups if g != "CG"}
    for g in treated_groups:
        if g not in policies:
            raise ConfigError(f"no policy configured for treated group {g}")

    aggregates = {g: MetricAggregate(group=g, period=period) for g in assignment.groups}
    joins: list[SimJoin] = []
    group_of = assignment.group_of()
    assigned = sorted(group_of)

    boosting = period == "post" and boost != 1.0
    log_boost = float(np.log(boost))
    for mi, (match, templates) in enumerate(matches):
        ts = template_stats(templates)
        tid_to_row = {t.template_id: i for i, t in enumerate(templates)}
        rng = np.random.default_rng(
            np.random.SeedSequence((seed, _AB_STREAM, _PERIOD_CODE[period], mi))
        )
        active = [assigned[pi] for pi in np.flatnonzero(rng.random(len(assigned)) < participation_rate)]
        exposed: dict[str, set[str]] = {}  # player -> the policy's top h_exposed templates
        if boosting:
            for g in sorted(treated_groups):
                players = [pid for pid in active if group_of[pid] == g]
                for pid, slate in zip(players, policies[g].rank_players(match.match_id, templates, None, players)):
                    exposed[pid] = set(slate.top(h_exposed))

        for pid in active:
            group = group_of[pid]
            arch = archetypes.get(pid)
            if arch is None:
                raise DataError(f"no archetype known for player {pid}")
            boost_idx = None
            rate = arch.activity_rate
            if pid in exposed:
                rows = [tid_to_row[t] for t in exposed[pid] if t in tid_to_row]
                if rows:
                    boost_idx = np.asarray(rows, dtype=np.int64)
                    # a more attractive boosted slate raises the join rate
                    u = archetype_utilities(arch, ts)
                    ub = u.copy()
                    ub[boost_idx] += log_boost
                    lift = np.exp(RATE_ELASTICITY * (_logsumexp(ub) - _logsumexp(u)))
                    rate = min(rate * lift, 20.0)
            count = min(int(rng.poisson(rate)), MAX_JOINS_PER_MATCH)
            if count == 0:
                continue
            picks = sample_join_templates(
                rng, arch, ts, count,
                boost_idx=boost_idx, boost=boost if boost_idx is not None else 1.0,
            )
            agg = aggregates[group]
            for t in picks:
                spec = templates[t]
                prize = _expected_prize(spec)
                agg.cj += 1
                agg.cea += spec.entry_fee
                agg.prizes_paid += prize
                joins.append(
                    SimJoin(group, pid, match.match_id, spec.template_id, spec.entry_fee, prize)
                )
    return aggregates, joins


def _logsumexp(u: np.ndarray) -> float:
    m = float(u.max())
    return m + float(np.log(np.exp(u - m).sum()))


def delta(m_tg_pre: float, m_cg_pre: float, m_tg_post: float, m_cg_post: float) -> float:
    """Pre/post difference-in-differences of a treated group relative to control."""
    if m_cg_pre <= 0 or m_cg_post <= 0:
        raise ValueError("control-group aggregates must be positive")
    return (m_tg_post - m_cg_post) / m_cg_post - (m_tg_pre - m_cg_pre) / m_cg_pre


# --- config and report -----------------------------------------------------------


@dataclass(frozen=True)
class ABConfig:
    group_sizes: dict[str, int]
    policies: dict[str, str]  # treated group -> policy name
    boost: float = 2.0
    h_exposed: int = 5
    pre_days: int = 42
    post_days: int = 42
    seed: int = 0

    def validate(self) -> None:
        if "CG" not in self.group_sizes:
            raise ConfigError("experiment requires a control group named CG")
        for g in self.group_sizes:
            if g != "CG" and g not in self.policies:
                raise ConfigError(f"no policy configured for treated group {g}")
        if not (math.isfinite(self.boost) and self.boost > 0):
            raise ConfigError(f"boost must be positive and finite, got {self.boost}")
        if self.h_exposed < 1 or self.pre_days < 1 or self.post_days < 1:
            raise ConfigError("h_exposed, pre_days and post_days must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    # -- flat key-value form: `group.<name>` sizes, `policy.<group>` names, then the scalars

    @classmethod
    def from_kv_dict(cls, kv: Mapping[str, str], context: str = "ab config") -> "ABConfig":
        group_sizes: dict[str, int] = {}
        policies: dict[str, str] = {}
        scalars: dict[str, str] = {}
        for key, value in kv.items():
            if key.startswith("group."):
                group_sizes[key.split(".", 1)[1]] = parse_value(int, value, context, key)
            elif key.startswith("policy."):
                policies[key.split(".", 1)[1]] = value
            else:
                scalars[key] = value
        config = from_kv(cls, scalars, context, group_sizes=group_sizes, policies=policies)
        config.validate()
        return config

    def to_kv_dict(self) -> dict[str, str]:
        return {
            **{f"group.{g}": str(size) for g, size in self.group_sizes.items()},
            **{f"policy.{g}": name for g, name in self.policies.items()},
            **to_kv(self),
        }

    @classmethod
    def from_file(cls, path) -> "ABConfig":
        return cls.from_kv_dict(read_kv(path), context=str(path))


def ab_report_text(
    pre: Mapping[str, MetricAggregate], post: Mapping[str, MetricAggregate]
) -> str:
    """Per-group, per-period aggregates plus per-(TG, metric) deltas."""
    items: dict[str, str] = {}
    for period, aggs in (("pre", pre), ("post", post)):
        for g in sorted(aggs):
            a = aggs[g]
            items[f"CJ.{g}.{period}"] = str(a.cj)
            items[f"CEA.{g}.{period}"] = str(a.cea)
            items[f"GGR.{g}.{period}"] = str(a.ggr)
    for g in sorted(post):
        if g == "CG":
            continue
        for metric in ("CJ", "CEA", "GGR"):
            d = delta(
                pre[g].metric(metric),
                pre["CG"].metric(metric),
                post[g].metric(metric),
                post["CG"].metric(metric),
            )
            items[f"delta.{g}.{metric}"] = repr(d)
    return format_kv(items)

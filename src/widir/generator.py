"""Seeded synthetic world: contest catalog, match schedule, join log.

Players are drawn from an archetype mixture; each archetype fixes a
ground-truth utility over contest templates

    u = -fee_sensitivity * |log(entry_fee) - preferred_log_entry_fee|
        + size_preference * size_score
        + risk_appetite * top_prize_fraction
        + popularity_weight * log(contest_size)

with size_score the match-normalized log contest size in [0, 1]. Joins are
i.i.d. draws from softmax(u) (the Gumbel-max mechanism), so the utility
ordering is the exact ground-truth ranking for oracle checks. Join counts
per (active player, match) are Poisson(activity_rate) truncated at 20;
a player is active in a match with probability `participation_rate`.

Contest instances fill at contest_size and are regenerated under the same
template_id, mirroring live-platform dynamics: a match's n-th join of a
template (from 0) enters instance n // contest_size, `<match>-<template>-<k>`,
and the match lists instances 0 .. joins // contest_size of each template.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import math
import os
import sys
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .domain import (
    CENTS,
    ContestSpec,
    ContestType,
    JoinRecord,
    MatchRecord,
    PrizeDistribution,
    day_start,
    prize_stats,
    read_catalog,
    read_join_log,
    read_records,
    read_schedule,
    validate_contest,
    write_catalog,
    write_join_log,
    write_records,
    write_schedule,
)
from .errors import ConfigError
from .textio import from_kv, read_kv, to_kv

MAX_JOINS_PER_MATCH = 20  # truncation point of the per-match join count

# rng stream tags
_STREAM_PLAYERS = 1
_STREAM_MATCH_TEMPLATES = 2
_STREAM_MATCH_SIM = 3


@dataclass(frozen=True, slots=True)
class PlayerArchetype:
    """Ground-truth preferences of one synthetic player; one out of range is a ConfigError when made."""

    preferred_log_entry_fee: float
    fee_sensitivity: float
    size_preference: float
    risk_appetite: float
    popularity_weight: float
    activity_rate: float
    multi_entry_propensity: float

    def __post_init__(self):
        if not all(math.isfinite(getattr(self, f)) for f in _ARCHETYPE_FIELDS):
            raise ConfigError("archetype fields must be finite")
        if self.fee_sensitivity < 0 or self.popularity_weight < 0:
            raise ConfigError("fee_sensitivity and popularity_weight must be >= 0")
        for name in ("size_preference", "risk_appetite", "multi_entry_propensity"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        if not 0.0 <= self.activity_rate <= 20.0:
            raise ConfigError(f"activity_rate must lie in [0, 20], got {self.activity_rate}")


_ARCHETYPE_FIELDS = tuple(f.name for f in dataclasses.fields(PlayerArchetype))


@dataclass(frozen=True, slots=True)
class ArchetypeSpec:
    """One mixture component: base parameters plus weight and per-player jitter."""

    name: str
    weight: float
    jitter: float = 0.0
    base: PlayerArchetype = None  # always given; a default only because jitter's precedes it


DEFAULT_ARCHETYPES: tuple[ArchetypeSpec, ...] = (
    ArchetypeSpec(
        "casual", 0.30, 0.25,
        PlayerArchetype(math.log(2.0), 3.0, 0.85, 0.30, 0.35, 1.3, 0.15),
    ),
    ArchetypeSpec(
        "grinder", 0.25, 0.30,
        PlayerArchetype(math.log(25.0), 2.6, 0.10, 0.10, 0.05, 1.7, 0.55),
    ),
    ArchetypeSpec(
        "highroller", 0.20, 0.30,
        PlayerArchetype(math.log(250.0), 2.2, 0.30, 0.45, 0.10, 1.0, 0.35),
    ),
    ArchetypeSpec(
        "megafan", 0.25, 0.20,
        PlayerArchetype(math.log(12.0), 1.8, 0.95, 0.80, 0.50, 0.9, 0.15),
    ),
)


@dataclass(frozen=True, kw_only=True)  # keyword-only, so fields keep their kv order
class GeneratorConfig:
    """A world's sizes, days and archetype mixture; a broken rule is a ConfigError when it is made."""

    players: int
    matches: int
    templates_per_match: int
    template_pool: int = 72
    start_day: dt.date
    end_day: dt.date
    participation_rate: float = 0.05
    archetypes: tuple[ArchetypeSpec, ...] = DEFAULT_ARCHETYPES

    def __post_init__(self):
        if self.players < 1:
            raise ConfigError("players must be >= 1")
        if self.matches < 1:
            raise ConfigError("matches must be >= 1")
        if self.template_pool < 1 or self.templates_per_match < 1:
            raise ConfigError("template catalog must be non-empty")
        if self.templates_per_match > self.template_pool:
            raise ConfigError("templates_per_match exceeds template_pool")
        n_days = (self.end_day - self.start_day).days + 1
        if n_days < 40:
            raise ConfigError(f"date range must span at least 40 days, got {n_days}")
        if not 0.0 < self.participation_rate <= 1.0:
            raise ConfigError("participation_rate must lie in (0, 1]")
        if not self.archetypes:
            raise ConfigError("archetype mixture must be non-empty")
        for spec in self.archetypes:
            if spec.weight <= 0:
                raise ConfigError(f"archetype {spec.name}: weight must be > 0")
            if spec.jitter < 0:
                raise ConfigError(f"archetype {spec.name}: jitter must be >= 0")

    # -- flat key-value form: the scalars, then `archetype.<name>.<field>` per archetype

    @classmethod
    def from_kv_dict(cls, kv: Mapping[str, str], context: str = "generator config") -> "GeneratorConfig":
        scalars: dict[str, str] = {}
        groups: dict[str, dict[str, str]] = {}
        for key, value in kv.items():
            if key.startswith("archetype."):
                groups.setdefault(key.split(".")[1], {})[key] = value
            else:
                scalars[key] = value
        archetypes = []
        for name in sorted(groups):
            prefix = f"archetype.{name}."
            base_items = {k: v for k, v in groups[name].items() if k[len(prefix):] in _ARCHETYPE_FIELDS}
            spec_items = {k: v for k, v in groups[name].items() if k not in base_items}
            base = from_kv(PlayerArchetype, base_items, context, prefix)
            archetypes.append(from_kv(ArchetypeSpec, spec_items, context, prefix, name=name, base=base))
        given = {"archetypes": tuple(archetypes)} if archetypes else {}
        return from_kv(cls, scalars, context, **given)

    def to_kv_dict(self) -> dict[str, str]:
        out = to_kv(self)
        for spec in self.archetypes:
            prefix = f"archetype.{spec.name}."
            out.update(to_kv(spec, prefix, omit=("name",)))
            out.update(to_kv(spec.base, prefix))
        return out

    @classmethod
    def from_file(cls, path) -> "GeneratorConfig":
        return cls.from_kv_dict(read_kv(path), context=str(path))


# --- template pool -------------------------------------------------------------


def _tiered(total: int, ranges: list[tuple[int, int, float]]) -> PrizeDistribution:
    """Integer-cent tiers from (lo, hi, share-of-total); exact sum, non-increasing."""
    tiers: list[list[int]] = []
    spent = 0
    prev: int | None = None
    for lo, hi, share in ranges:
        count = hi - lo + 1
        per = int(total * share) // count
        if prev is not None:
            per = min(per, prev)
        tiers.append([lo, hi, per])
        spent += per * count
        prev = per
    rem = total - spent
    if rem > 0:
        lo, hi, per = tiers[0]
        if lo == hi:
            tiers[0][2] = per + rem
        else:
            tiers = [[lo, lo, per + rem], [lo + 1, hi, per]] + tiers[1:]
    return PrizeDistribution(tuple(tuple(t) for t in tiers))


def _payout(size: int, fee_cents: int, rake: float) -> int:
    return int(size * fee_cents * (1.0 - rake))


def _make_template(idx: int, fee_units: int, size: int, ctype: ContestType,
                   style: str, guaranteed: bool, multi: bool, rake: float) -> ContestSpec:
    fee = fee_units * CENTS
    total = _payout(size, fee, rake)
    if style == "wta" or size <= 3:
        dist = PrizeDistribution(((1, 1, total),))
    elif style == "flat":
        winners = max(1, size // 2)
        per = total // winners
        rem = total - per * winners
        if winners == 1:
            dist = PrizeDistribution(((1, 1, total),))
        elif rem:
            dist = PrizeDistribution(((1, 1, per + rem), (2, winners, per)))
        else:
            dist = PrizeDistribution(((1, winners, per),))
    else:  # "top": top-heavy
        winners = min(size, max(10, size // 5))
        dist = _tiered(
            total,
            [(1, 1, 0.30), (2, 2, 0.15), (3, 3, 0.08), (4, 10, 0.17), (11, winners, 0.30)],
        )
    template_id = f"tpl{idx:03d}"
    spec = ContestSpec(
        contest_id=template_id,
        template_id=template_id,
        match_id="",
        entry_fee=fee,
        prize_money=dist.total_payout(),
        contest_size=size,
        contest_type=ctype,
        prize_distribution=dist,
        guaranteed=guaranteed,
        multi_entry=multi,
    )
    return spec


def build_template_pool(config: GeneratorConfig) -> list[ContestSpec]:
    """Deterministic template prototypes; index 0 is the match's Mega contest."""
    pool: list[ContestSpec] = [
        _make_template(0, 15, 20000, ContestType.MEGA, "top", True, True, 0.15)
    ]
    # fee x size kept below the Mega's pool so the Mega stays the largest prize
    special_combos = (
        (5, 5000), (12, 5000), (30, 5000), (40, 800), (120, 800), (300, 800),
        (8, 2500), (20, 2500), (60, 1200), (150, 1200), (2, 8000), (1, 10000),
    )
    for fee, size in special_combos:
        if len(pool) >= config.template_pool:
            break
        pool.append(
            _make_template(len(pool), fee, size, ContestType.SPECIAL, "top", True, True, 0.18)
        )
    public_fees = (1, 2, 5, 10, 20, 35, 60, 100, 175, 300, 500, 800, 1200, 2000)
    public_sizes = (2, 3, 4, 10, 25, 100)
    styles = {2: "wta", 3: "wta", 4: "wta", 10: "flat", 25: "flat", 100: "top"}
    i = 0
    while len(pool) < config.template_pool:
        fee = public_fees[i % len(public_fees)]
        size = public_sizes[(i // len(public_fees)) % len(public_sizes)]
        multi = (i % 3 == 0) and size >= 10
        pool.append(
            _make_template(len(pool), fee, size, ContestType.PUBLIC, styles[size], False, multi, 0.13)
        )
        i += 1
    for proto in pool:
        bad = validate_contest(dataclasses.replace(proto, match_id="m"))
        if bad:
            raise ConfigError(f"template pool construction produced invalid {proto.template_id}: {bad}")
    return pool


# --- ground-truth choice model ---------------------------------------------------


@dataclass
class MatchTemplateStats:
    """Per-template arrays the utility formula needs, for one match."""

    template_ids: list[str]
    log_fee: np.ndarray
    size_score: np.ndarray
    top_frac: np.ndarray
    log_size: np.ndarray
    multi_entry: np.ndarray  # uint8


def template_stats(templates: Sequence[ContestSpec]) -> MatchTemplateStats:
    fee_units = np.asarray([max(t.entry_fee / CENTS, 0.01) for t in templates])
    sizes = np.asarray([t.contest_size for t in templates], dtype=np.float64)
    log_size = np.log(sizes)
    lo, hi = log_size.min(), log_size.max()
    size_score = (log_size - lo) / (hi - lo) if hi > lo else np.zeros_like(log_size)
    top_frac = np.asarray(
        [prize_stats(t.prize_distribution, t.contest_size, t.prize_money)[0] if t.prize_money > 0 else 0.0
         for t in templates]
    )
    return MatchTemplateStats(
        template_ids=[t.template_id for t in templates],
        log_fee=np.log(fee_units),
        size_score=size_score,
        top_frac=top_frac,
        log_size=log_size,
        multi_entry=np.asarray([1 if t.multi_entry else 0 for t in templates], dtype=np.uint8),
    )


def archetype_utilities(arch: PlayerArchetype, ts: MatchTemplateStats) -> np.ndarray:
    """Deterministic part of the ground-truth choice utility per template."""
    return (
        -arch.fee_sensitivity * np.abs(ts.log_fee - arch.preferred_log_entry_fee)
        + arch.size_preference * ts.size_score
        + arch.risk_appetite * ts.top_frac
        + arch.popularity_weight * ts.log_size
    )


def _softmax(u: np.ndarray) -> np.ndarray:
    z = np.exp(u - u.max())
    return z / z.sum()


def sample_join_templates(
    rng: np.random.Generator,
    arch: PlayerArchetype,
    ts: MatchTemplateStats,
    count: int,
    boost_idx: np.ndarray | None = None,
    boost: float = 1.0,
) -> list[int]:
    """Template indices for `count` joins of one player in one match.

    Fresh draws follow softmax(utility); after the first join each draw
    repeats the previous template with probability multi_entry_propensity
    when that template allows multi-entry. An exposure boost multiplies the
    pre-softmax weight of `boost_idx` templates by `boost`.
    """
    if count <= 0:
        return []
    u = archetype_utilities(arch, ts)
    if boost_idx is not None and boost != 1.0:
        u = u.copy()
        u[boost_idx] += math.log(boost)
    probs = _softmax(u)
    n = probs.size
    picks: list[int] = []
    for j in range(count):
        if (
            j > 0
            and ts.multi_entry[picks[-1]]
            and arch.multi_entry_propensity > 0.0
            and rng.random() < arch.multi_entry_propensity
        ):
            picks.append(picks[-1])
        else:
            picks.append(int(rng.choice(n, p=probs)))
    return picks


def draw_prize(rng: np.random.Generator, spec: ContestSpec) -> int:
    """Prize for one entry: uniform finishing rank against the payout tiers."""
    rank = int(rng.integers(1, spec.contest_size + 1))
    return spec.prize_distribution.prize_at_rank(rank)


# --- the world -------------------------------------------------------------------


@dataclass
class SyntheticWorld:
    config: GeneratorConfig
    seed: int
    contests: list[ContestSpec]
    matches: list[MatchRecord]
    joins: list[JoinRecord]
    archetypes: dict[str, PlayerArchetype]

    def write_dir(self, path: str | os.PathLike) -> None:
        os.makedirs(path, exist_ok=True)
        write_join_log(os.path.join(path, "joins.csv"), self.joins)
        write_catalog(os.path.join(path, "contests.csv"), self.contests)
        write_schedule(os.path.join(path, "matches.csv"), self.matches)
        write_records(os.path.join(path, "archetypes.csv"), _ARCHETYPES,
                      (_PlayerRow(pid, self.archetypes[pid]) for pid in sorted(self.archetypes)))


class _PlayerRow(NamedTuple):  # one row of archetypes.csv
    player_id: str
    archetype: PlayerArchetype


# archetypes.csv's columns (see `domain.write_records`): the player, then its archetype's fields
_ARCHETYPES = (("player_id", str, str), *((f"archetype.{f}", repr, float) for f in _ARCHETYPE_FIELDS))


def read_archetypes(path) -> dict[str, PlayerArchetype]:
    """Each player's archetype. A bad row, or a player on an earlier row, is a DataError
    naming path:line, an unreadable file one naming the path."""
    table: dict[str, PlayerArchetype] = {}

    def add(player_id: str, *values: float) -> None:
        archetype = PlayerArchetype(*values)
        if table.setdefault(player_id, archetype) is not archetype:
            raise ValueError(f"player {player_id!r} has an earlier row")

    read_records(path, _ARCHETYPES, add)
    return table


def load_world_dir(
    path: str | os.PathLike, archetypes: bool = True
) -> tuple[list[JoinRecord], list[ContestSpec], list[MatchRecord], dict[str, PlayerArchetype]]:
    """The world's joins, contests, matches and archetypes.

    The archetype table is empty when `archetypes` is false (it is then not
    read) or when the directory has no `archetypes.csv`.
    """
    joins = read_join_log(os.path.join(path, "joins.csv"))
    contests = read_catalog(os.path.join(path, "contests.csv"))
    matches = read_schedule(os.path.join(path, "matches.csv"))
    arch_path = os.path.join(path, "archetypes.csv")
    table = read_archetypes(arch_path) if archetypes and os.path.exists(arch_path) else {}
    return joins, contests, matches, table


def _draw_players(config: GeneratorConfig, seed: int) -> dict[str, PlayerArchetype]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_PLAYERS)))
    weights = np.asarray([a.weight for a in config.archetypes])
    weights = weights / weights.sum()
    players: dict[str, PlayerArchetype] = {}
    for i in range(config.players):
        spec = config.archetypes[int(rng.choice(len(weights), p=weights))]
        base = spec.base
        if spec.jitter > 0:
            pref = base.preferred_log_entry_fee + rng.normal(0.0, spec.jitter)
            size_pref = float(np.clip(base.size_preference + rng.normal(0.0, spec.jitter * 0.15), 0.0, 1.0))
            arch = dataclasses.replace(base, preferred_log_entry_fee=pref, size_preference=size_pref)
        else:
            arch = base
        players[f"p{i:05d}"] = arch
    return players


def generate_synthetic(config: GeneratorConfig, seed: int) -> SyntheticWorld:
    """Deterministic synthetic world for a seed: catalog, schedule, joins, archetypes."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    pool = build_template_pool(config)
    players = _draw_players(config, seed)
    player_ids = sorted(players)
    rates = np.asarray([players[p].activity_rate for p in player_ids])

    n_days = (config.end_day - config.start_day).days + 1
    contests: list[ContestSpec] = []
    matches: list[MatchRecord] = []
    joins: list[JoinRecord] = []

    for mi in range(config.matches):
        match_id = f"m{mi:04d}"
        day = config.start_day + dt.timedelta(days=mi * n_days // config.matches)
        start_ts = day_start(day) + (13 + (mi * 7) % 8) * 3600

        t_rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_MATCH_TEMPLATES, mi)))
        if config.templates_per_match >= len(pool):
            chosen = list(range(len(pool)))
        else:
            others = 1 + t_rng.choice(len(pool) - 1, size=config.templates_per_match - 1, replace=False)
            chosen = [0] + sorted(int(x) for x in others)
        templates = [pool[t] for t in chosen]
        ts = template_stats(templates)

        rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_MATCH_SIM, mi)))
        active = rng.random(len(player_ids)) < config.participation_rate
        counts = np.minimum(rng.poisson(rates * active), MAX_JOINS_PER_MATCH)

        join_window = min(6 * 3600, start_ts - day_start(day))
        filled = [0] * len(templates)  # joins per template so far
        for pi in np.flatnonzero(counts):
            pid = player_ids[pi]
            picks = sample_join_templates(rng, players[pid], ts, int(counts[pi]))
            for t in picks:
                proto = templates[t]
                joins.append(
                    JoinRecord(
                        player_id=pid,
                        # interned: the joins of an instance share one id string
                        contest_id=sys.intern(f"{match_id}-{proto.template_id}-{filled[t] // proto.contest_size}"),
                        match_id=match_id,
                        joining_time=start_ts - int(rng.integers(60, join_window)),
                        entry_fee_paid=proto.entry_fee,
                        prize_won=draw_prize(rng, proto),
                    )
                )
                filled[t] += 1

        instances = [
            dataclasses.replace(proto, contest_id=sys.intern(f"{match_id}-{proto.template_id}-{k}"), match_id=match_id)
            for proto, n in zip(templates, filled)
            for k in range(n // proto.contest_size + 1)
        ]
        contests.extend(instances)
        matches.append(
            MatchRecord(match_id=match_id, start_time=start_ts, contest_ids=tuple(c.contest_id for c in instances))
        )

    joins.sort(key=lambda r: (r.joining_time, r.player_id, r.contest_id))
    return SyntheticWorld(
        config=config, seed=seed, contests=contests, matches=matches, joins=joins, archetypes=players
    )

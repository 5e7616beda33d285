"""Reference implementations of the daily features: one player, one target at a time.

The per-(player, day) builder is the one the columnar day sweep in
`widir.features` replaced. It sums money in integer cents, as the sweep
does, so the sweep's rows, snapshots and fitted stats must equal these bit
for bit; `player_features` is a normalized snapshot row. `contest_features`
normalizes one template's contest row, as `TemplateBlock.contest_matrix`
does for a match. `recent_summary` aggregates one player's recent joins into
`RecentJoin` rows, `build_recent_hists` turns them into window histograms,
and `interaction_row` counts those against one target contest; each row of
`TemplateBlock.raw_interaction` must equal it. `snapshot_from` lays
per-player rows and `RecentJoin` lists out as a columnar `FeatureSnapshot`,
and `recent_joins` reads one player's joins back from any snapshot.

The oracles read the join log as `JoinEvent` rows, from the row-wise
`enrich_joins` that `widir.features.enrich_joins` replaced; `join_table`
turns such rows into the `JoinTable` the columnar code reads.
`split_by_time` is the record split that the pipeline's time mask over the
enriched table replaced.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from widir import features
from widir.domain import (
    ContestSpec,
    ContestType,
    JoinRecord,
    PrizeDistribution,
    day_of,
    day_start,
    epoch_day,
    money_units,
    validate_contest,
)
from widir.errors import DataError
from widir.features import (
    CONTEST_Z_MASK,
    DAYS_SINCE_CAP,
    INTERACTION_Z_MASK,
    LIFETIME_BLOCK,
    N_BUCKETS,
    N_TYPES,
    PLAYER_WINDOWS,
    PLAYER_Z_MASK,
    WINDOW_BLOCK,
    INTERACTION_WINDOWS,
    D_P,
    FeatureSnapshot,
    JoinTable,
    NormalizationStats,
    _TYPE_INDEX,
    _identity_stats,
    _normalize,
    contest_features_raw,
    quantile_edges,
)

_TYPES = sorted(_TYPE_INDEX, key=_TYPE_INDEX.get)


class JoinEvent(NamedTuple):
    """A join enriched with its contest's template-level attributes."""

    time: int
    day: dt.date
    player_id: str
    match_id: str
    template_id: str
    contest_type: ContestType
    entry_fee: int
    prize_won: int
    contest_size: int
    prize_money: int
    guaranteed: bool
    multi_entry: bool


def enrich_joins(joins: Sequence[JoinRecord], contests_by_id: Mapping[str, ContestSpec]) -> list[JoinEvent]:
    """Join the log against the catalog one row at a time; missing contests are a data error."""
    out = []
    for r in joins:
        spec = contests_by_id.get(r.contest_id)
        if spec is None:
            raise DataError(f"join references unknown contest {r.contest_id}")
        out.append(
            JoinEvent(
                time=r.joining_time,
                day=day_of(r.joining_time),
                player_id=r.player_id,
                match_id=r.match_id,
                template_id=spec.template_id,
                contest_type=spec.contest_type,
                entry_fee=r.entry_fee_paid,
                prize_won=r.prize_won,
                contest_size=spec.contest_size,
                prize_money=spec.prize_money,
                guaranteed=spec.guaranteed,
                multi_entry=spec.multi_entry,
            )
        )
    return out


def split_by_time(
    joins: Sequence[JoinRecord], train_end: int, valid_end: int
) -> tuple[list[JoinRecord], list[JoinRecord], list[JoinRecord]]:
    """Partition joins by joining_time into (train, valid, test).

    Records at exactly a boundary timestamp belong to the earlier partition:
    train is t <= train_end, valid is train_end < t <= valid_end, test is
    t > valid_end. Boundaries must be strictly increasing.
    """
    if train_end >= valid_end:
        raise ValueError("boundaries not strictly increasing: train_end >= valid_end")
    train, valid, test = [], [], []
    for r in joins:
        if r.joining_time <= train_end:
            train.append(r)
        elif r.joining_time <= valid_end:
            valid.append(r)
        else:
            test.append(r)
    return train, valid, test


def join_table(events: Sequence[JoinEvent]) -> JoinTable:
    """`events` as `widir.features.enrich_joins` returns them: one JoinRecord and one contest per event."""
    contests = {
        f"c{i}": ContestSpec(
            contest_id=f"c{i}", template_id=e.template_id, match_id=e.match_id, entry_fee=e.entry_fee,
            prize_money=e.prize_money, contest_size=e.contest_size, contest_type=e.contest_type,
            prize_distribution=PrizeDistribution(((1, 1, e.prize_money),)),
            guaranteed=e.guaranteed, multi_entry=e.multi_entry,
        )
        for i, e in enumerate(events)
    }
    records = [JoinRecord(e.player_id, f"c{i}", e.match_id, e.time, e.entry_fee, e.prize_won)
               for i, e in enumerate(events)]
    return features.enrich_joins(records, contests)


def bucket_of(value: float, edges: np.ndarray) -> int:
    """Index of the training-quantile bucket holding `value` (0..7)."""
    return int(np.searchsorted(edges[: N_BUCKETS - 1], value, side="left"))


class RecentJoin(NamedTuple):
    """A recent-join summary row: one (player, day, template) with a count."""

    day: dt.date
    template_id: str
    contest_type: ContestType
    fee_bucket: int
    size_bucket: int
    prize_bucket: int
    count: int


@dataclass
class RecentHists:
    """Window histograms of a player's recent joins."""

    type_counts: np.ndarray   # (2, N_TYPES) rows: 1-day, 5-day
    fee_counts: np.ndarray    # (2, N_BUCKETS)
    size_counts: np.ndarray   # (2, N_BUCKETS)
    prize_counts: np.ndarray  # (2, N_BUCKETS)
    template_counts: dict[str, int] = field(default_factory=dict)  # 5-day window

    @classmethod
    def empty(cls) -> "RecentHists":
        return cls(
            type_counts=np.zeros((2, N_TYPES)),
            fee_counts=np.zeros((2, N_BUCKETS)),
            size_counts=np.zeros((2, N_BUCKETS)),
            prize_counts=np.zeros((2, N_BUCKETS)),
        )


def build_recent_hists(rows: Sequence[RecentJoin], as_of_day: dt.date) -> RecentHists:
    h = RecentHists.empty()
    for r in rows:
        age = (as_of_day - r.day).days
        if not 1 <= age <= max(INTERACTION_WINDOWS):
            continue
        windows = [w for w, k in enumerate(INTERACTION_WINDOWS) if age <= k]
        for w in windows:
            h.type_counts[w, _TYPE_INDEX[r.contest_type]] += r.count
            h.fee_counts[w, r.fee_bucket] += r.count
            h.size_counts[w, r.size_bucket] += r.count
            h.prize_counts[w, r.prize_bucket] += r.count
        h.template_counts[r.template_id] = h.template_counts.get(r.template_id, 0) + r.count
    return h


def snapshot_from(
    day: dt.date,
    stats: NormalizationStats,
    players: Mapping[str, np.ndarray],
    recents: Mapping[str, Sequence[RecentJoin]] | None = None,
) -> FeatureSnapshot:
    """A columnar snapshot of per-player rows and RecentJoin lists.

    Each RecentJoin row becomes `count` joins; `recents` may name only
    players in `players`.
    """
    recents = recents or {}
    assert set(recents) <= set(players)
    templates = {t: i for i, t in enumerate(sorted({r.template_id for rs in recents.values() for r in rs}))}
    joins, offsets = [], [0]
    for pid in players:
        for r in recents.get(pid, ()):
            joins += [[(day - r.day).days, templates[r.template_id], _TYPE_INDEX[r.contest_type],
                       r.fee_bucket, r.size_bucket, r.prize_bucket]] * r.count
        offsets.append(len(joins))
    return FeatureSnapshot(
        as_of_day=day, stats=stats,
        players={pid: i for i, pid in enumerate(players)},
        rows=np.asarray(list(players.values()), dtype=np.float32).reshape(-1, D_P),
        join_offsets=np.asarray(offsets, dtype=np.int64),
        recent=np.asarray(joins, dtype=np.int32).reshape(-1, 6),
        templates=templates,
    )


def recent_joins(snapshot: FeatureSnapshot, player_id: str) -> list[tuple]:
    """A player's joins in `snapshot`, sorted, as RecentJoin rows of count 1."""
    i = snapshot.players.get(player_id)
    if i is None:
        return []
    template_ids = list(snapshot.templates)
    return sorted((
        RecentJoin(snapshot.as_of_day - dt.timedelta(days=age), template_ids[t], _TYPES[ty], fb, sb, pb, 1)
        for age, t, ty, fb, sb, pb in snapshot.recent[snapshot.join_offsets[i]:snapshot.join_offsets[i + 1]].tolist()
    ), key=_order)


def expand(rows: Sequence[RecentJoin]) -> list[RecentJoin]:
    """RecentJoin rows as sorted rows of count 1, as `recent_joins` reads them."""
    return sorted((r._replace(count=1) for r in rows for _ in range(r.count)), key=_order)


def _order(r: RecentJoin) -> tuple:
    return (r.day, r.template_id, _TYPE_INDEX[r.contest_type], r.fee_bucket, r.size_bucket, r.prize_bucket)


@dataclass
class _PlayerArrays:
    """A player's joins as sorted parallel arrays (ascending joining_time)."""

    day: np.ndarray        # epoch days, int64
    fee_cents: np.ndarray  # int64
    prize_cents: np.ndarray  # int64
    won: np.ndarray        # uint8
    multi: np.ndarray      # uint8
    guar: np.ndarray       # uint8
    type_idx: np.ndarray   # int8
    size: np.ndarray       # int64 (distinct-size counting)
    fee_b: np.ndarray      # int8 bucket
    size_b: np.ndarray     # int8 bucket
    match_code: np.ndarray  # int64 codes, per-player
    first_of_match: np.ndarray  # uint8: 1 on the first join of each match


def _arrays_from_events(events: Sequence[JoinEvent], stats: NormalizationStats) -> _PlayerArrays:
    ordered = sorted(events, key=lambda e: (e.time, e.template_id))
    n = len(ordered)
    match_codes: dict[str, int] = {}
    first = np.zeros(n, dtype=np.uint8)
    mcode = np.empty(n, dtype=np.int64)
    for i, e in enumerate(ordered):
        if e.match_id not in match_codes:
            match_codes[e.match_id] = len(match_codes)
            first[i] = 1
        mcode[i] = match_codes[e.match_id]
    return _PlayerArrays(
        day=np.fromiter((epoch_day(e.day) for e in ordered), dtype=np.int64, count=n),
        fee_cents=np.fromiter((e.entry_fee for e in ordered), dtype=np.int64, count=n),
        prize_cents=np.fromiter((e.prize_won for e in ordered), dtype=np.int64, count=n),
        won=np.fromiter((1 if e.prize_won > 0 else 0 for e in ordered), dtype=np.uint8, count=n),
        multi=np.fromiter((1 if e.multi_entry else 0 for e in ordered), dtype=np.uint8, count=n),
        guar=np.fromiter((1 if e.guaranteed else 0 for e in ordered), dtype=np.uint8, count=n),
        type_idx=np.fromiter((_TYPE_INDEX[e.contest_type] for e in ordered), dtype=np.int8, count=n),
        size=np.fromiter((e.contest_size for e in ordered), dtype=np.int64, count=n),
        fee_b=np.fromiter((bucket_of(e.entry_fee, stats.fee_edges) for e in ordered), dtype=np.int8, count=n),
        size_b=np.fromiter((bucket_of(e.contest_size, stats.size_edges) for e in ordered), dtype=np.int8, count=n),
        match_code=mcode,
        first_of_match=first,
    )


def recent_summary(
    events: Sequence[JoinEvent], as_of_day: dt.date, stats: NormalizationStats
) -> list[RecentJoin]:
    """Aggregate a player's joins in the 5 days before `as_of_day`."""
    horizon = as_of_day - dt.timedelta(days=max(INTERACTION_WINDOWS))
    counts: dict[tuple, int] = {}
    for e in events:
        if horizon <= e.day < as_of_day:
            key = (
                e.day,
                e.template_id,
                e.contest_type,
                bucket_of(e.entry_fee, stats.fee_edges),
                bucket_of(e.contest_size, stats.size_edges),
                bucket_of(e.prize_money, stats.prize_edges),
            )
            counts[key] = counts.get(key, 0) + 1
    return [RecentJoin(*key, count) for key, count in sorted(counts.items(), key=lambda kv: (kv[0][0], kv[0][1]))]


def interaction_row(h: RecentHists, target: ContestSpec, stats: NormalizationStats) -> np.ndarray:
    """Raw 9-dim interaction counts of recent joins against one target contest."""
    t = _TYPE_INDEX[target.contest_type]
    fb = bucket_of(target.entry_fee, stats.fee_edges)
    pb = bucket_of(target.prize_money, stats.prize_edges)
    sb = bucket_of(target.contest_size, stats.size_edges)
    vec = []
    for w in range(len(INTERACTION_WINDOWS)):
        vec.extend(
            [h.type_counts[w, t], h.fee_counts[w, fb], h.prize_counts[w, pb], h.size_counts[w, sb]]
        )
    vec.append(float(h.template_counts.get(target.template_id, 0)))
    return np.asarray(vec, dtype=np.float64)


def _money(a: _PlayerArrays, sl: slice) -> tuple[float, float, float, float]:
    """Fee sum, fee max, prize sum, prize max in units over a non-empty slice."""
    return (
        money_units(int(a.fee_cents[sl].sum())),
        money_units(int(a.fee_cents[sl].max())),
        money_units(int(a.prize_cents[sl].sum())),
        money_units(int(a.prize_cents[sl].max())),
    )


def _window_block(a: _PlayerArrays, lo: int, hi: int) -> list[float]:
    """The 32 window stats over join slice [lo, hi)."""
    n = hi - lo
    if n == 0:
        return [0.0] * WINDOW_BLOCK
    sl = slice(lo, hi)
    type_counts = np.bincount(a.type_idx[sl], minlength=N_TYPES)
    fee_bucket_counts = np.bincount(a.fee_b[sl], minlength=N_BUCKETS)
    size_bucket_counts = np.bincount(a.size_b[sl], minlength=N_BUCKETS)
    fee_sum, fee_max, prize_sum, prize_max = _money(a, sl)
    block = [
        float(n),
        float(np.count_nonzero(type_counts)),
        float(np.unique(a.size[sl]).size),
        float(np.unique(a.fee_cents[sl]).size),
        fee_sum / n,
        fee_max,
        prize_sum / n,
        prize_max,
        fee_sum,
        float(a.won[sl].sum()) / n,
        float(np.unique(a.match_code[sl]).size),
        float(a.multi[sl].sum()),
        float(a.guar[sl].sum()),
    ]
    block.extend(float(c) for c in type_counts)
    block.extend(float(c) for c in fee_bucket_counts)
    block.extend(float(c) for c in size_bucket_counts)
    return block


def _row_from_arrays(a: _PlayerArrays, as_of_day: dt.date) -> np.ndarray:
    d = epoch_day(as_of_day)
    end = int(np.searchsorted(a.day, d, side="left"))
    row: list[float] = []
    for k in PLAYER_WINDOWS:
        lo = int(np.searchsorted(a.day, d - k, side="left"))
        row.extend(_window_block(a, lo, end))
    if end == 0:
        row.extend([DAYS_SINCE_CAP] + [0.0] * (LIFETIME_BLOCK - 1))
    else:
        sl = slice(0, end)
        n = end
        fee_sum, fee_max, prize_sum, prize_max = _money(a, sl)
        row.extend(
            [
                min(float(d - a.day[end - 1]), DAYS_SINCE_CAP),
                float(n),
                float(np.unique(a.type_idx[sl]).size),
                fee_sum / n,
                fee_max,
                fee_sum,
                prize_sum / n,
                prize_max,
                float(a.won[sl].sum()) / n,
                float(a.first_of_match[sl].sum()),
                float(a.multi[sl].sum()) / n,
            ]
        )
    return np.asarray(row, dtype=np.float64)


def player_row(history: Sequence[JoinEvent], as_of_day: dt.date, stats: NormalizationStats) -> np.ndarray:
    """The raw 107-dim row of one player's history."""
    return _row_from_arrays(_arrays_from_events(history, stats), as_of_day)


def player_features(history: Sequence[JoinEvent], as_of_day: dt.date, stats: NormalizationStats) -> np.ndarray:
    """The normalized 107-dim row of one player's history (a snapshot stores it as float32)."""
    return _normalize(player_row(history, as_of_day, stats), stats.player_mean, stats.player_std, PLAYER_Z_MASK)


def contest_features(spec: ContestSpec, stats: NormalizationStats) -> np.ndarray:
    """One template's normalized 11-dim contest row; invalid specs are rejected."""
    violations = validate_contest(spec)
    if violations:
        raise ValueError(f"invalid contest {spec.contest_id}: " + "; ".join(violations))
    return _normalize(contest_features_raw(spec), stats.contest_mean, stats.contest_std, CONTEST_Z_MASK)


def build_snapshot(events: Sequence[JoinEvent], day: dt.date, stats: NormalizationStats) -> FeatureSnapshot:
    """Compute the day's snapshot from the full join history.

    Only joins strictly before `day` 00:00 UTC are visible; players with no
    join in the 30 days before `day` are omitted.
    """
    cutoff = day_start(day)
    active_floor = day - dt.timedelta(days=30)
    by_player: dict[str, list[JoinEvent]] = {}
    for e in events:
        if e.time < cutoff:
            by_player.setdefault(e.player_id, []).append(e)

    players: dict[str, np.ndarray] = {}
    recents: dict[str, list[RecentJoin]] = {}
    for pid in sorted(by_player):
        evs = by_player[pid]
        if not any(active_floor <= e.day < day for e in evs):
            continue
        players[pid] = player_features(evs, day, stats).astype(np.float32)
        ordered = sorted(evs, key=lambda e: (e.time, e.template_id))
        rows = recent_summary(ordered, day, stats)
        if rows:
            recents[pid] = rows
    return snapshot_from(day, stats, players, recents)


def fit_normalization(
    train_events: Sequence[JoinEvent],
    templates_by_match: Mapping[str, Sequence[ContestSpec]],
    match_days: Mapping[str, dt.date],
) -> NormalizationStats:
    """The per-player fit: rows accumulated one group at a time in sorted order."""
    if not train_events:
        raise DataError("cannot fit normalization on an empty training partition")

    stats = _identity_stats()
    stats.fee_edges = quantile_edges([e.entry_fee for e in train_events])
    stats.size_edges = quantile_edges([e.contest_size for e in train_events])
    stats.prize_edges = quantile_edges([e.prize_money for e in train_events])

    by_player: dict[str, list[JoinEvent]] = {}
    groups: dict[tuple[str, str], list[JoinEvent]] = {}
    for e in train_events:
        by_player.setdefault(e.player_id, []).append(e)
        groups.setdefault((e.player_id, e.match_id), []).append(e)
    arrays = {pid: _arrays_from_events(evs, stats) for pid, evs in by_player.items()}

    def _add(acc: dict, rows: np.ndarray) -> None:
        rows = np.atleast_2d(rows)
        if acc["sum"] is None:
            acc["sum"] = np.zeros(rows.shape[1])
            acc["sumsq"] = np.zeros(rows.shape[1])
        acc["n"] += rows.shape[0]
        acc["sum"] += rows.sum(axis=0)
        acc["sumsq"] += (rows * rows).sum(axis=0)

    p_acc = {"n": 0, "sum": None, "sumsq": None}
    i_acc = {"n": 0, "sum": None, "sumsq": None}
    seen_player_day: set[tuple[str, dt.date]] = set()
    hist_cache: dict[tuple[str, dt.date], RecentHists] = {}
    for (pid, mid) in sorted(groups):
        day = match_days.get(mid)
        if day is None:
            raise DataError(f"no match day known for match {mid}")
        if (pid, day) not in seen_player_day:
            seen_player_day.add((pid, day))
            raw = _row_from_arrays(arrays[pid], day)
            _add(p_acc, np.log1p(np.maximum(raw, 0.0))[None, :][:, PLAYER_Z_MASK])
        tpls = templates_by_match.get(mid)
        if not tpls:
            continue
        key = (pid, day)
        if key not in hist_cache:
            hist_cache[key] = build_recent_hists(recent_summary(by_player[pid], day, stats), day)
        _add(i_acc, np.log1p(np.stack([interaction_row(hist_cache[key], t, stats) for t in tpls])))

    templates_seen: dict[str, ContestSpec] = {}
    for tpls in templates_by_match.values():
        for t in tpls:
            templates_seen.setdefault(t.template_id, t)
    c_rows = np.stack([contest_features_raw(templates_seen[t]) for t in sorted(templates_seen)])
    c_log = np.log1p(np.maximum(c_rows[:, CONTEST_Z_MASK], 0.0))

    for acc, mask, mean, std in (
        (p_acc, PLAYER_Z_MASK, stats.player_mean, stats.player_std),
        (i_acc, INTERACTION_Z_MASK, stats.inter_mean, stats.inter_std),
    ):
        if acc["n"] == 0:
            continue
        m = acc["sum"] / acc["n"]
        var = np.maximum(acc["sumsq"] / acc["n"] - m * m, 0.0)
        mean[mask] = m
        std[mask] = np.maximum(np.sqrt(var), 1e-8)
    stats.contest_mean[CONTEST_Z_MASK] = c_log.mean(axis=0)
    stats.contest_std[CONTEST_Z_MASK] = np.maximum(c_log.std(axis=0), 1e-8)
    return stats

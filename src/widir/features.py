"""Daily feature computation and the file-based offline feature store.

Three feature families are produced per (player, contest, day):

- player vector, 107 dims: three look-back windows of 3/7/30 days (32 stats
  each) plus 11 lifetime stats;
- contest vector, 11 dims: intrinsic template attributes;
- interaction vector, 9 dims: same-type / same-bucket join counts over
  1-day and 5-day windows plus a same-template count.

Windows end at the UTC midnight starting `as_of_day`, so no feature ever
sees a join with joining_time >= as_of_day 00:00 UTC. Count and monetary
dims are log1p-transformed, z-scored against training-partition statistics
and clipped to [-10, 10]; rate-valued dims and flags pass through raw.

One day-sweep kernel (`_JoinColumns`) builds every player row: the joins
are laid out once as columns sorted by (player, time, template_id), and
each day computes all players' windows with array operations. Money is
summed in integer cents and converted to units once per sum, so a row is
exact and does not depend on summation order. Snapshots, normalization
fitting and `player_features_raw` all call this kernel.

One `TemplateBlock` per match builds every contest and interaction row:
`build_template_block` validates the match's templates and normalizes
their contest rows in one call, and `TemplateBlock.raw_interaction` is the
one raw interaction path. Normalization fitting reads its raw rows, and
training, evaluation and inference read the normalized rows, which the
block returns as float32, the model's input type.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .domain import (
    ContestSpec,
    ContestType,
    JoinRecord,
    MatchRecord,
    SECONDS_PER_DAY,
    day_of,
    epoch_day,
    money_units,
    parse_day,
    prize_stats,
    validate_contest,
)
from .errors import DataError, StoreError
from .textio import write_replace

SNAPSHOT_SCHEMA = "widir-snapshot-v1"

PLAYER_WINDOWS = (3, 7, 30)
INTERACTION_WINDOWS = (1, 5)
N_BUCKETS = 8
N_TYPES = 3
WINDOW_BLOCK = 13 + N_TYPES + 2 * N_BUCKETS  # 32
LIFETIME_BLOCK = 11
D_P = len(PLAYER_WINDOWS) * WINDOW_BLOCK + LIFETIME_BLOCK  # 107
D_C = 11
D_I = 2 * 4 + 1  # 9
DAYS_SINCE_CAP = 365.0

_TYPE_INDEX = {ContestType.PUBLIC: 0, ContestType.SPECIAL: 1, ContestType.MEGA: 2}
_TYPES = sorted(_TYPE_INDEX, key=_TYPE_INDEX.get)

# Dims that are log1p + z-scored; the rest pass through raw.
_WIN_RATE_IN_BLOCK = 9
PLAYER_Z_MASK = np.ones(D_P, dtype=bool)
for _i, _k in enumerate(PLAYER_WINDOWS):
    PLAYER_Z_MASK[_i * WINDOW_BLOCK + _WIN_RATE_IN_BLOCK] = False
_LIFETIME_BASE = len(PLAYER_WINDOWS) * WINDOW_BLOCK
PLAYER_Z_MASK[_LIFETIME_BASE + 8] = False  # lifetime_win_rate
PLAYER_Z_MASK[_LIFETIME_BASE + 10] = False  # lifetime_multi_entry_rate

CONTEST_Z_MASK = np.zeros(D_C, dtype=bool)
CONTEST_Z_MASK[[0, 1, 2, 10]] = True  # fee, prize, size, prize/entry ratio

INTERACTION_Z_MASK = np.ones(D_I, dtype=bool)


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
    """Join the log against the catalog; missing contests are a data error."""
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


# --- normalization stats -----------------------------------------------------


def bucket_of(value: float, edges: np.ndarray) -> int:
    """Index of the training-quantile bucket holding `value` (0..7)."""
    return int(np.searchsorted(edges[: N_BUCKETS - 1], value, side="left"))


def quantile_edges(values: Sequence[float]) -> np.ndarray:
    """8 strictly increasing edges at the k/8 quantiles of a training sample.

    Degenerate samples (fewer than 8 distinct quantiles) are padded upward in
    +1 steps; the padded buckets never fire.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise DataError("cannot fit bucket edges on an empty sample")
    qs = np.quantile(arr, [k / N_BUCKETS for k in range(1, N_BUCKETS + 1)])
    edges = [float(qs[0])]
    for q in qs[1:]:
        edges.append(float(q) if q > edges[-1] else edges[-1] + 1.0)
    return np.asarray(edges, dtype=np.float64)


@dataclass
class NormalizationStats:
    """Per-dim mean/std (of log1p values) and training-quantile bucket edges."""

    player_mean: np.ndarray
    player_std: np.ndarray
    contest_mean: np.ndarray
    contest_std: np.ndarray
    inter_mean: np.ndarray
    inter_std: np.ndarray
    fee_edges: np.ndarray
    size_edges: np.ndarray
    prize_edges: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "player_mean": self.player_mean.tolist(),
            "player_std": self.player_std.tolist(),
            "contest_mean": self.contest_mean.tolist(),
            "contest_std": self.contest_std.tolist(),
            "inter_mean": self.inter_mean.tolist(),
            "inter_std": self.inter_std.tolist(),
            "fee_edges": self.fee_edges.tolist(),
            "size_edges": self.size_edges.tolist(),
            "prize_edges": self.prize_edges.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "NormalizationStats":
        return cls(**{k: np.asarray(d[k], dtype=np.float64) for k in (
            "player_mean", "player_std", "contest_mean", "contest_std",
            "inter_mean", "inter_std", "fee_edges", "size_edges", "prize_edges",
        )})


def _identity_stats() -> NormalizationStats:
    """Mean 0 / std 1 stats with unit edges; for raw-scale tests."""
    edges = np.arange(1.0, N_BUCKETS + 1)
    return NormalizationStats(
        player_mean=np.zeros(D_P), player_std=np.ones(D_P),
        contest_mean=np.zeros(D_C), contest_std=np.ones(D_C),
        inter_mean=np.zeros(D_I), inter_std=np.ones(D_I),
        fee_edges=edges.copy(), size_edges=edges.copy(), prize_edges=edges.copy(),
    )


def _normalize(raw: np.ndarray, mean: np.ndarray, std: np.ndarray, zmask: np.ndarray) -> np.ndarray:
    """z-score the masked dims of one row or of a (rows, dims) matrix."""
    out = np.asarray(raw, dtype=np.float64).copy()
    out[..., zmask] = (np.log1p(out[..., zmask]) - mean[zmask]) / std[zmask]
    return np.clip(out, -10.0, 10.0)


# --- player features ---------------------------------------------------------


class _JoinColumns:
    """Every join as columns, sorted by (player, joining_time, template_id).

    Ties keep the input order. Money stays in integer cents; a sum is
    converted to units once, so it is exact and independent of order. For
    each player, `prev_*` holds the index of the same player's previous join
    with the same value (-1 if none), which turns a distinct count over a
    slice [lo, end) into a count of the joins whose `prev_*` lies before lo.
    """

    def __init__(self, events: Sequence[JoinEvent], stats: NormalizationStats):
        n = len(events)
        self.player_ids = sorted({e.player_id for e in events})
        self.template_ids = sorted({e.template_id for e in events})
        self._code = {p: i for i, p in enumerate(self.player_ids)}
        tcodes = {t: i for i, t in enumerate(self.template_ids)}
        pcode = np.fromiter((self._code[e.player_id] for e in events), dtype=np.int32, count=n)
        tcode = np.fromiter((tcodes[e.template_id] for e in events), dtype=np.int32, count=n)
        time = np.fromiter((e.time for e in events), dtype=np.int64, count=n)
        order = np.lexsort((tcode, time, pcode))

        def column(values, dtype) -> np.ndarray:
            return np.fromiter(values, dtype=dtype, count=n)[order]

        pcode, self.tcode = pcode[order], tcode[order]
        self.day = time[order] // SECONDS_PER_DAY
        # (player, day) as one sorted key: one searchsorted finds every
        # player's window edge at once
        self.key = (pcode.astype(np.int64) << 32) + self.day
        self.player_start = np.searchsorted(pcode, np.arange(len(self.player_ids) + 1))
        # the money columns end in one extra 0, so that reduceat may index n
        self.fee = np.append(column((e.entry_fee for e in events), np.int64), 0)
        self.prize = np.append(column((e.prize_won for e in events), np.int64), 0)
        size = column((e.contest_size for e in events), np.int64)
        self.type_idx = column((_TYPE_INDEX[e.contest_type] for e in events), np.int8)
        self.fee_b = _buckets(self.fee[:n], stats.fee_edges)
        self.size_b = _buckets(size, stats.size_edges)
        self.prize_b = _buckets(column((e.prize_money for e in events), np.int64), stats.prize_edges)
        mcodes: dict[str, int] = {}
        match = column((mcodes.setdefault(e.match_id, len(mcodes)) for e in events), np.int32)
        self.prev_size = _previous_same(pcode, size)
        self.prev_fee = _previous_same(pcode, self.fee[:n])
        self.prev_match = _previous_same(pcode, match)
        self.cum_fee = _prefix(self.fee[:n], np.int64)
        self.cum_prize = _prefix(self.prize[:n], np.int64)
        self.cum_won = _prefix(self.prize[:n] > 0, np.int32)
        self.cum_multi = _prefix(column((e.multi_entry for e in events), bool), np.int32)
        self.cum_guar = _prefix(column((e.guaranteed for e in events), bool), np.int32)
        self.cum_new_type = _prefix(_previous_same(pcode, self.type_idx) < 0, np.int32)
        self.cum_new_match = _prefix(self.prev_match < 0, np.int32)

    def codes(self, player_ids: Iterable[str]) -> np.ndarray:
        """Player codes, with -1 for a player without joins."""
        return np.asarray([self._code.get(p, -1) for p in player_ids], dtype=np.int64)

    def edges(self, codes: np.ndarray, day: dt.date, days_back: int) -> np.ndarray:
        """Index of each player's first join on or after `day` - `days_back`."""
        found = np.searchsorted(self.key, (codes << 32) + (epoch_day(day) - days_back))
        return np.where(codes >= 0, found, 0)

    def player_rows(self, codes: np.ndarray, day: dt.date) -> np.ndarray:
        """Raw (len(codes), D_P) rows as of `day`; code -1 gives the cold-start row."""
        rows = np.zeros((codes.size, D_P), dtype=np.float64)
        end = self.edges(codes, day, 0)
        for i, k in enumerate(PLAYER_WINDOWS):
            self._window(self.edges(codes, day, k), end, rows[:, i * WINDOW_BLOCK:(i + 1) * WINDOW_BLOCK])
        start = np.where(codes >= 0, self.player_start[np.maximum(codes, 0)], 0)
        self._lifetime(start, end, epoch_day(day), rows[:, _LIFETIME_BASE:])
        return rows

    def _window(self, lo: np.ndarray, end: np.ndarray, block: np.ndarray) -> None:
        """Write the 32 window stats over each join slice [lo, end) into `block`."""
        m = lo.size
        n, seg, idx = _gather(lo, end)
        type_counts = _counts(seg, self.type_idx[idx], m, N_TYPES)
        fee_sum = money_units(self.cum_fee[end] - self.cum_fee[lo])
        prize_sum = money_units(self.cum_prize[end] - self.cum_prize[lo])
        block[:, 0] = n
        block[:, 1] = np.count_nonzero(type_counts, axis=1)
        block[:, 2] = np.bincount(seg, self.prev_size[idx] < lo[seg], minlength=m)
        block[:, 3] = np.bincount(seg, self.prev_fee[idx] < lo[seg], minlength=m)
        _mean_max(block[:, 4:6], fee_sum, self.fee, lo, end, n)
        _mean_max(block[:, 6:8], prize_sum, self.prize, lo, end, n)
        block[:, 8] = fee_sum
        np.divide(self.cum_won[end] - self.cum_won[lo], n, out=block[:, 9], where=n > 0)
        block[:, 10] = np.bincount(seg, self.prev_match[idx] < lo[seg], minlength=m)
        block[:, 11] = self.cum_multi[end] - self.cum_multi[lo]
        block[:, 12] = self.cum_guar[end] - self.cum_guar[lo]
        block[:, 13:16] = type_counts
        block[:, 16:24] = _counts(seg, self.fee_b[idx], m, N_BUCKETS)
        block[:, 24:32] = _counts(seg, self.size_b[idx], m, N_BUCKETS)

    def _lifetime(self, start: np.ndarray, end: np.ndarray, d: int, block: np.ndarray) -> None:
        """Write the 11 lifetime stats over each join slice [start, end) into `block`."""
        n = end - start
        seen = n > 0
        block[:, 0] = DAYS_SINCE_CAP
        block[seen, 0] = np.minimum(d - self.day[end[seen] - 1], DAYS_SINCE_CAP)
        fee_sum = money_units(self.cum_fee[end] - self.cum_fee[start])
        prize_sum = money_units(self.cum_prize[end] - self.cum_prize[start])
        block[:, 1] = n
        block[:, 2] = self.cum_new_type[end] - self.cum_new_type[start]
        _mean_max(block[:, 3:5], fee_sum, self.fee, start, end, n)
        block[:, 5] = fee_sum
        _mean_max(block[:, 6:8], prize_sum, self.prize, start, end, n)
        np.divide(self.cum_won[end] - self.cum_won[start], n, out=block[:, 8], where=seen)
        block[:, 9] = self.cum_new_match[end] - self.cum_new_match[start]
        np.divide(self.cum_multi[end] - self.cum_multi[start], n, out=block[:, 10], where=seen)

    def recents(self, codes: np.ndarray, day: dt.date) -> list[list[RecentJoin]]:
        """Each player's RecentJoin rows over the 5 days before `day`.

        One row per (day, template, bucket) key, ordered by (day,
        template_id), ties in the order of their first join.
        """
        out: list[list[RecentJoin]] = [[] for _ in range(codes.size)]
        end = self.edges(codes, day, 0)
        _, seg, idx = _gather(self.edges(codes, day, max(INTERACTION_WINDOWS)), end)
        if not idx.size:
            return out
        tcode, days = self.tcode[idx], self.day[idx]
        keys = (self.prize_b[idx], self.size_b[idx], self.fee_b[idx], self.type_idx[idx], tcode, days, seg)
        by_key = np.lexsort(keys)  # stable, so each key's run starts at its first join
        ordered = np.stack([k[by_key] for k in keys])
        starts = np.flatnonzero(np.r_[True, (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)])
        count = np.diff(np.append(starts, by_key.size))
        first = by_key[starts]  # one per RecentJoin row: the position of its first join
        rows = np.lexsort((first, tcode[first], days[first], seg[first]))
        first, count = first[rows], count[rows]
        j = idx[first]
        dates = {d: day_of(d * SECONDS_PER_DAY) for d in np.unique(self.day[j]).tolist()}
        for s, d, t, ty, fb, sb, pb, c in zip(
            seg[first].tolist(), self.day[j].tolist(), self.tcode[j].tolist(),
            self.type_idx[j].tolist(), self.fee_b[j].tolist(), self.size_b[j].tolist(),
            self.prize_b[j].tolist(), count.tolist(),
        ):
            out[s].append(RecentJoin(dates[d], self.template_ids[t], _TYPES[ty], fb, sb, pb, c))
        return out


def _buckets(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """bucket_of over an array."""
    return np.searchsorted(edges[: N_BUCKETS - 1], values, side="left").astype(np.int8)


def _prefix(values: np.ndarray, dtype) -> np.ndarray:
    """Exclusive prefix sums: out[i] is the sum of values[:i]."""
    out = np.zeros(values.size + 1, dtype=dtype)
    np.cumsum(values, out=out[1:])
    return out


def _previous_same(player: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Index of the same player's previous element with the same value, else -1."""
    order = np.lexsort((value, player))  # stable: equal keys stay in index order
    prev = np.full(player.size, -1, dtype=np.int32)
    same = (player[order[1:]] == player[order[:-1]]) & (value[order[1:]] == value[order[:-1]])
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _gather(lo: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slice lengths, and the slot and join index of every join in the slices [lo, end)."""
    n = end - lo
    seg = np.repeat(np.arange(n.size), n)
    idx = np.arange(seg.size) + np.repeat(lo - (np.cumsum(n) - n), n)
    return n, seg, idx


def _counts(seg: np.ndarray, category: np.ndarray, m: int, k: int) -> np.ndarray:
    """(m, k) histogram of `category` per slot."""
    return np.bincount(seg * k + category, minlength=m * k).reshape(m, k)


def _mean_max(out: np.ndarray, total: np.ndarray, cents: np.ndarray,
              lo: np.ndarray, end: np.ndarray, n: np.ndarray) -> None:
    """Write the mean (total / n) and the max in units of non-empty slices into out[:, 0:2]."""
    seen = n > 0
    np.divide(total, n, out=out[:, 0], where=seen)
    bounds = np.stack([lo[seen], end[seen]], axis=1).ravel()
    if bounds.size:
        out[seen, 1] = money_units(np.maximum.reduceat(cents, bounds)[::2])


def player_features_raw(
    history: Sequence[JoinEvent], as_of_day: dt.date, stats: NormalizationStats
) -> np.ndarray:
    """107 window + lifetime stats on the natural scale (pre-normalization).

    `history` is one player's joins, whatever player ids they carry. `stats`
    supplies only the bucket edges here; no z-scoring is applied.
    """
    columns = _JoinColumns([e._replace(player_id="") for e in history], stats)
    return columns.player_rows(columns.codes([""]), as_of_day)[0]


def player_features(
    history: Sequence[JoinEvent], as_of_day: dt.date, stats: NormalizationStats
) -> np.ndarray:
    """Normalized 107-dim player vector as of `as_of_day`."""
    raw = player_features_raw(history, as_of_day, stats)
    return _normalize(raw, stats.player_mean, stats.player_std, PLAYER_Z_MASK)


def cold_start_player_raw() -> np.ndarray:
    """The all-defaults raw vector for a player with no history."""
    raw = np.zeros(D_P, dtype=np.float64)
    raw[_LIFETIME_BASE] = DAYS_SINCE_CAP
    return raw


def cold_start_player_row(stats: NormalizationStats) -> np.ndarray:
    return _normalize(cold_start_player_raw(), stats.player_mean, stats.player_std, PLAYER_Z_MASK)


# --- contest features ---------------------------------------------------------


def contest_features_raw(spec: ContestSpec) -> np.ndarray:
    """11 intrinsic template attributes on the natural scale."""
    top_frac, winner_frac = prize_stats(spec.prize_distribution, spec.contest_size, spec.prize_money) \
        if spec.prize_money > 0 else (0.0, spec.prize_distribution.winners() / spec.contest_size)
    fee_units = money_units(spec.entry_fee)
    prize_units = money_units(spec.prize_money)
    onehot = [0.0, 0.0, 0.0]
    onehot[_TYPE_INDEX[spec.contest_type]] = 1.0
    return np.asarray(
        [
            fee_units,
            prize_units,
            float(spec.contest_size),
            *onehot,
            1.0 if spec.guaranteed else 0.0,
            1.0 if spec.multi_entry else 0.0,
            top_frac,
            winner_frac,
            prize_units / max(fee_units, 0.01),
        ],
        dtype=np.float64,
    )


def _check_contest(spec: ContestSpec) -> None:
    violations = validate_contest(spec)
    if violations:
        raise ValueError(f"invalid contest {spec.contest_id}: " + "; ".join(violations))


def contest_features(spec: ContestSpec, stats: NormalizationStats) -> np.ndarray:
    """Normalized 11-dim contest vector; invalid specs are rejected."""
    _check_contest(spec)
    return _normalize(contest_features_raw(spec), stats.contest_mean, stats.contest_std, CONTEST_Z_MASK)


# --- interaction features -----------------------------------------------------


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
    """Window histograms of a player's recent joins, for fast lookups."""

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


# --- template blocks: a match's contest and interaction rows ----------------------


@dataclass
class TemplateBlock:
    """A match's templates as arrays: the one source of contest and interaction rows.

    Training, evaluation, inference and normalization fitting all take their
    rows from a block. `raw_interaction` is the one raw interaction path;
    `interaction_matrix` normalizes its result.
    """

    template_ids: list[str]
    contest_matrix: np.ndarray  # (n, D_C) normalized float32
    type_idx: np.ndarray
    fee_b: np.ndarray
    size_b: np.ndarray
    prize_b: np.ndarray

    def raw_interaction(self, h: RecentHists) -> np.ndarray:
        """Raw (n, D_I) counts of the recent joins in `h` against every template."""
        raw = np.zeros((len(self.template_ids), D_I), dtype=np.float64)
        for w in range(len(INTERACTION_WINDOWS)):
            base = 4 * w
            raw[:, base + 0] = h.type_counts[w][self.type_idx]
            raw[:, base + 1] = h.fee_counts[w][self.fee_b]
            raw[:, base + 2] = h.prize_counts[w][self.prize_b]
            raw[:, base + 3] = h.size_counts[w][self.size_b]
        if h.template_counts:
            raw[:, 8] = [float(h.template_counts.get(t, 0)) for t in self.template_ids]
        return raw

    def interaction_matrix(self, h: RecentHists, stats: NormalizationStats) -> np.ndarray:
        """Normalized (n, D_I) float32 interaction rows against every template."""
        out = _normalize(self.raw_interaction(h), stats.inter_mean, stats.inter_std, INTERACTION_Z_MASK)
        return out.astype(np.float32)


def build_template_block(templates: Sequence[ContestSpec], stats: NormalizationStats) -> TemplateBlock:
    """Validate a match's templates once and lay them out as a TemplateBlock.

    The contest rows are the raw rows normalized in one call and stored as
    float32; the bucket indices use `stats`' edges.
    """
    ids = [t.template_id for t in templates]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate template_id in template block")
    for t in templates:
        _check_contest(t)
    raw = np.stack([contest_features_raw(t) for t in templates])
    return TemplateBlock(
        template_ids=ids,
        contest_matrix=_normalize(raw, stats.contest_mean, stats.contest_std, CONTEST_Z_MASK).astype(np.float32),
        type_idx=np.asarray([_TYPE_INDEX[t.contest_type] for t in templates], dtype=np.int64),
        fee_b=_buckets(np.asarray([t.entry_fee for t in templates]), stats.fee_edges),
        size_b=_buckets(np.asarray([t.contest_size for t in templates]), stats.size_edges),
        prize_b=_buckets(np.asarray([t.prize_money for t in templates]), stats.prize_edges),
    )


# --- fitting -------------------------------------------------------------------


def fit_normalization(
    train_events: Sequence[JoinEvent],
    templates_by_match: Mapping[str, Sequence[ContestSpec]],
    match_days: Mapping[str, dt.date],
) -> NormalizationStats:
    """Fit bucket edges and per-dim mean/std on the training partition only.

    Edges are the 8-quantile boundaries of training entry fees, contest sizes
    and prize pools (join-weighted). Means/stds are computed over log1p raw
    rows: player rows per (player, match day), contest rows per distinct
    template, interaction rows per (player, match) against each available
    template.
    """
    if not train_events:
        raise DataError("cannot fit normalization on an empty training partition")

    stats = _identity_stats()
    stats.fee_edges = quantile_edges([e.entry_fee for e in train_events])
    stats.size_edges = quantile_edges([e.contest_size for e in train_events])
    stats.prize_edges = quantile_edges([e.prize_money for e in train_events])

    groups = sorted({(e.player_id, e.match_id) for e in train_events})
    row_of: dict[tuple[str, dt.date], int] = {}  # (player, match day) rows, in groups order
    for pid, mid in groups:
        day = match_days.get(mid)
        if day is None:
            raise DataError(f"no match day known for match {mid}")
        row_of.setdefault((pid, day), len(row_of))

    # one sweep per match day over its players, those with no earlier join
    # included; a sum over axis 0 adds the rows one after another, so both
    # sums below run in the order of `groups`
    columns = _JoinColumns(train_events, stats)
    by_day: dict[dt.date, list[str]] = {}
    for pid, day in row_of:
        by_day.setdefault(day, []).append(pid)
    p_log = np.empty((len(row_of), np.count_nonzero(PLAYER_Z_MASK)), dtype=np.float64)
    hists: dict[tuple[str, dt.date], RecentHists] = {}
    for day, pids in sorted(by_day.items()):
        codes = columns.codes(pids)
        raw = columns.player_rows(codes, day)
        p_log[[row_of[(pid, day)] for pid in pids]] = np.log1p(np.maximum(raw[:, PLAYER_Z_MASK], 0.0))
        for pid, rows in zip(pids, columns.recents(codes, day)):
            hists[(pid, day)] = build_recent_hists(rows, day)
    p_acc = {"n": len(p_log), "sum": p_log.sum(axis=0), "sumsq": (p_log * p_log).sum(axis=0)}
    i_acc = {"n": 0, "sum": np.zeros(D_I), "sumsq": np.zeros(D_I)}
    blocks: dict[str, TemplateBlock] = {}
    for pid, mid in groups:
        tpls = templates_by_match.get(mid)
        if not tpls:
            continue
        if mid not in blocks:
            blocks[mid] = build_template_block(tpls, stats)
        raw_i = np.log1p(blocks[mid].raw_interaction(hists[(pid, match_days[mid])]))
        i_acc["n"] += raw_i.shape[0]
        i_acc["sum"] += raw_i.sum(axis=0)
        i_acc["sumsq"] += (raw_i * raw_i).sum(axis=0)

    templates_seen: dict[str, ContestSpec] = {}
    for tpls in templates_by_match.values():
        for t in tpls:
            templates_seen.setdefault(t.template_id, t)
    c_rows = np.stack(
        [contest_features_raw(templates_seen[t]) for t in sorted(templates_seen)]
    )
    c_log = np.log1p(np.maximum(c_rows[:, CONTEST_Z_MASK], 0.0))

    def _finish(acc: dict, mask: np.ndarray, mean: np.ndarray, std: np.ndarray) -> None:
        if acc["n"] == 0:
            return
        m = acc["sum"] / acc["n"]
        var = np.maximum(acc["sumsq"] / acc["n"] - m * m, 0.0)
        mean[mask] = m
        std[mask] = np.maximum(np.sqrt(var), 1e-8)

    _finish(p_acc, PLAYER_Z_MASK, stats.player_mean, stats.player_std)
    _finish(i_acc, INTERACTION_Z_MASK, stats.inter_mean, stats.inter_std)
    stats.contest_mean[CONTEST_Z_MASK] = c_log.mean(axis=0)
    stats.contest_std[CONTEST_Z_MASK] = np.maximum(c_log.std(axis=0), 1e-8)
    return stats


# --- snapshots and the offline store --------------------------------------------


@dataclass
class FeatureSnapshot:
    """Per-day feature state: normalized player rows plus recent-join summaries."""

    as_of_day: dt.date
    stats: NormalizationStats
    players: dict[str, np.ndarray]
    recents: dict[str, list[RecentJoin]]
    schema_version: str = SNAPSHOT_SCHEMA

    def player_row(self, player_id: str) -> np.ndarray:
        """Stored row, or the cold-start vector for unknown players."""
        row = self.players.get(player_id)
        if row is None:
            return cold_start_player_row(self.stats).astype(np.float32)
        return row

    def hists_for(self, player_id: str) -> RecentHists:
        rows = self.recents.get(player_id)
        if not rows:
            return RecentHists.empty()
        return build_recent_hists(rows, self.as_of_day)


def iter_snapshots(
    events: Sequence[JoinEvent], days: Sequence[dt.date], stats: NormalizationStats
):
    """Yield (day, FeatureSnapshot) for each day in sorted order.

    Each snapshot sees only joins strictly before its day 00:00 UTC. Players
    with no join in the 30 days before the day are omitted. The joins are
    laid out as columns once; each day is one vectorized sweep over them.
    """
    columns = _JoinColumns(events, stats)
    everyone = np.arange(len(columns.player_ids))
    for day in sorted(days):
        end = columns.edges(everyone, day, 0)
        active = everyone[end > columns.edges(everyone, day, max(PLAYER_WINDOWS))]
        pids = [columns.player_ids[c] for c in active.tolist()]
        raw = columns.player_rows(active, day)
        rows = _normalize(raw, stats.player_mean, stats.player_std, PLAYER_Z_MASK).astype(np.float32)
        players = dict(zip(pids, rows))
        recents = {pid: r for pid, r in zip(pids, columns.recents(active, day)) if r}
        yield day, FeatureSnapshot(as_of_day=day, stats=stats, players=players, recents=recents)


class SnapshotStore:
    """File-based offline feature store: one directory per as_of_day.

    Layout:
        <root>/manifest.json          dims, schema version, normalization stats
        <root>/days/<ISO-day>/player_features.txt   player_id,<hex float32 LE>
        <root>/days/<ISO-day>/recent_joins.txt      summary rows
        <root>/days/<ISO-day>/day.json              schema version, row count

    day.json is each day's commit marker: `write_day` removes it before it
    touches the day and writes it last, each file through a rename. A day
    without day.json (a write that failed part-way) reads as absent:
    `has_day` is False, `days()` skips it and `read_day` raises StoreError.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = str(root)

    def _manifest_path(self) -> str:
        return os.path.join(self.root, "manifest.json")

    def _day_dir(self, day: dt.date) -> str:
        return os.path.join(self.root, "days", day.isoformat())

    def write_manifest(self, stats: NormalizationStats) -> None:
        os.makedirs(self.root, exist_ok=True)
        doc = {
            "schema_version": SNAPSHOT_SCHEMA,
            "d_p": D_P,
            "d_c": D_C,
            "d_i": D_I,
            "stats": stats.to_json_dict(),
        }
        try:
            write_replace(self._manifest_path(), [json.dumps(doc, sort_keys=True)])
        except OSError as exc:
            raise StoreError(f"store manifest write failed at {self._manifest_path()}: {exc}") from exc

    def read_manifest(self) -> NormalizationStats:
        path = self._manifest_path()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise StoreError(f"cannot read store manifest {path}: {exc}") from exc
        if doc.get("schema_version") != SNAPSHOT_SCHEMA:
            raise StoreError(
                f"{path}: schema version {doc.get('schema_version')!r} != {SNAPSHOT_SCHEMA!r}"
            )
        if (doc.get("d_p"), doc.get("d_c"), doc.get("d_i")) != (D_P, D_C, D_I):
            raise StoreError(f"{path}: dims mismatch")
        return NormalizationStats.from_json_dict(doc["stats"])

    def write_day(self, snapshot: FeatureSnapshot) -> None:
        """Write (or overwrite) one day; day.json is its commit marker.

        The old marker goes first and the new one last, and each file is
        written to `<name>.tmp` and renamed into place, so a write that
        fails part-way leaves a day that reads as absent.
        """
        day = snapshot.as_of_day
        path = self._day_dir(day)
        try:
            os.makedirs(path, exist_ok=True)
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(path, "day.json"))
            write_replace(os.path.join(path, "player_features.txt"), (
                f"{pid},{vec.astype('<f4').tobytes().hex()}\n" for pid, vec in snapshot.players.items()
            ))
            write_replace(os.path.join(path, "recent_joins.txt"), (
                f"{pid},{r.day.isoformat()},{r.template_id},{r.contest_type.value},"
                f"{r.fee_bucket},{r.size_bucket},{r.prize_bucket},{r.count}\n"
                for pid, rows in snapshot.recents.items()
                for r in rows
            ))
            meta = {
                "schema_version": snapshot.schema_version,
                "as_of_day": day.isoformat(),
                "n_players": len(snapshot.players),
            }
            write_replace(os.path.join(path, "day.json"), [json.dumps(meta, sort_keys=True)])
        except OSError as exc:
            raise StoreError(f"snapshot write failed for day {day} at {path}: {exc}") from exc

    def read_day(self, day: dt.date) -> FeatureSnapshot:
        path = self._day_dir(day)
        stats = self.read_manifest()
        try:
            with open(os.path.join(path, "day.json"), "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except OSError as exc:
            raise StoreError(f"no snapshot for day {day} at {path}: {exc}") from exc
        if meta.get("schema_version") != SNAPSHOT_SCHEMA:
            raise StoreError(
                f"{path}: snapshot schema {meta.get('schema_version')!r} != {SNAPSHOT_SCHEMA!r}"
            )
        players: dict[str, np.ndarray] = {}
        with open(os.path.join(path, "player_features.txt"), "r", encoding="utf-8") as fh:
            for line in fh:
                pid, hexed = line.rstrip("\n").split(",", 1)
                vec = np.frombuffer(bytes.fromhex(hexed), dtype="<f4")
                if vec.shape != (D_P,):
                    raise StoreError(f"{path}: row for {pid} has {vec.shape[0]} dims, expected {D_P}")
                players[pid] = vec.copy()
        recents: dict[str, list[RecentJoin]] = {}
        with open(os.path.join(path, "recent_joins.txt"), "r", encoding="utf-8") as fh:
            for line in fh:
                pid, d, tpl, ctype, fee_b, size_b, prize_b, count = line.rstrip("\n").split(",")
                recents.setdefault(pid, []).append(
                    RecentJoin(
                        day=parse_day(d),
                        template_id=tpl,
                        contest_type=ContestType(ctype),
                        fee_bucket=int(fee_b),
                        size_bucket=int(size_b),
                        prize_bucket=int(prize_b),
                        count=int(count),
                    )
                )
        return FeatureSnapshot(as_of_day=day, stats=stats, players=players, recents=recents)

    def has_day(self, day: dt.date) -> bool:
        """True once a write of `day` has committed its day.json."""
        return os.path.isfile(os.path.join(self._day_dir(day), "day.json"))

    def days(self) -> list[dt.date]:
        base = os.path.join(self.root, "days")
        if not os.path.isdir(base):
            return []
        return sorted(d for d in map(parse_day, os.listdir(base)) if self.has_day(d))


class SnapshotCache:
    """Read-through snapshot lookup over a store, keyed by day."""

    def __init__(self, store: SnapshotStore):
        self.store = store
        self._cache: dict[dt.date, FeatureSnapshot] = {}

    def get(self, day: dt.date) -> FeatureSnapshot:
        snap = self._cache.get(day)
        if snap is None:
            if not self.store.has_day(day):
                raise DataError(f"feature snapshot missing for day {day.isoformat()}")
            snap = self.store.read_day(day)
            self._cache[day] = snap
        return snap

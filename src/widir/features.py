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

`enrich_joins` joins the log against the contest catalog into one
`JoinTable`, an array per column, which the day sweep, normalization
fitting, training lists and evaluation all read. A phase enriches the
whole log once and selects its partitions' rows with `JoinTable.take`.

One day-sweep kernel (`_JoinColumns`) builds every player row: the table
is sorted once by (player, time, template_id), and each day computes all
players' windows with array operations. Money is
summed in integer cents and converted to units once per sum, so a row is
exact and does not depend on summation order. Snapshots and normalization
fitting both call this kernel.

A `FeatureSnapshot` is the day as arrays: the player rows, and each
player's joins of the last 5 days as integer columns, one row per join.
The sweep produces it, `SnapshotStore` writes and reads it as `.npy`
files, and `TemplateBlock` counts its joins against a match's templates.

One `TemplateBlock` per match builds every contest and interaction row:
`build_template_block` normalizes the match's templates' contest rows in
one call, and `TemplateBlock.raw_interaction` counts
a batch of players' recent joins against every template. Normalization
fitting reads its raw rows, and training, evaluation and inference read
the normalized rows, which the block returns as float32, the model's input
type.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import json
import os
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from .domain import (
    ContestSpec,
    ContestType,
    JoinRecord,
    SECONDS_PER_DAY,
    epoch_day,
    money_units,
    prize_stats,
)
from .errors import DataError, StoreError
from .textio import read_json, write_replace

SNAPSHOT_SCHEMA = "widir-snapshot-v2"

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


@dataclass(frozen=True, eq=False)
class JoinTable:
    """The join log enriched with its contests' attributes: one array per column, row i is join i."""

    time: np.ndarray          # (n,) int64 epoch seconds
    player_id: np.ndarray     # (n,) str
    match_id: np.ndarray      # (n,) str
    template_id: np.ndarray   # (n,) str
    contest_type: np.ndarray  # (n,) int8, the type's index (_TYPE_INDEX)
    entry_fee: np.ndarray     # (n,) int64 cents, the fee paid
    prize_won: np.ndarray     # (n,) int64 cents
    prize_money: np.ndarray   # (n,) int64 cents, the contest's prize pool
    contest_size: np.ndarray  # (n,) int64
    guaranteed: np.ndarray    # (n,) bool
    multi_entry: np.ndarray   # (n,) bool

    def __len__(self) -> int:
        return self.time.size

    def take(self, rows: np.ndarray) -> "JoinTable":
        """The joins that `rows` (a boolean mask or indices) selects, in table order."""
        return JoinTable(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})

    def player_matches(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct (player, match) pairs, sorted, as player ids and match ids, and each join's pair."""
        players, player_of = np.unique(self.player_id, return_inverse=True)
        matches, match_of = np.unique(self.match_id, return_inverse=True)
        keys, pair_of = np.unique(player_of * len(matches) + match_of, return_inverse=True)
        pair_player, pair_match = np.divmod(keys, max(len(matches), 1))
        return players[pair_player], matches[pair_match], pair_of


def enrich_joins(joins: Sequence[JoinRecord], contests_by_id: Mapping[str, ContestSpec]) -> JoinTable:
    """Join the log against the catalog; a contest that is missing or of another match is a data error.

    So is a money column whose absolute values sum past int64 cents: the
    day sweep keeps int64 prefix sums of `entry_fee` and `prize_won`.
    """
    row_of = {cid: i for i, cid in enumerate(contests_by_id)}
    try:
        contest = np.array([row_of[r.contest_id] for r in joins], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"join references unknown contest {exc.args[0]}") from None

    def per_contest(value, dtype) -> np.ndarray:
        return np.array([value(s) for s in contests_by_id.values()], dtype=dtype)[contest]

    match_id = np.array([r.match_id for r in joins], dtype=str)
    contest_match = per_contest(lambda s: s.match_id, str)
    if (bad := np.flatnonzero(match_id != contest_match)).size:
        i = bad[0]
        raise DataError(f"join of contest {joins[i].contest_id} names match {match_id[i]}, "
                        f"but the contest belongs to match {contest_match[i]}")
    money = {"entry_fee": [r.entry_fee_paid for r in joins], "prize_won": [r.prize_won for r in joins]}
    for name, cents in money.items():
        if (total := sum(map(abs, cents))) >= 2**63:
            raise DataError(f"join {name} amounts sum to {total} cents in absolute value, past int64")
    return JoinTable(
        time=np.array([r.joining_time for r in joins], dtype=np.int64),
        player_id=np.array([r.player_id for r in joins], dtype=str),
        match_id=match_id,
        template_id=per_contest(lambda s: s.template_id, str),
        contest_type=per_contest(lambda s: _TYPE_INDEX[s.contest_type], np.int8),
        entry_fee=np.array(money["entry_fee"], dtype=np.int64),
        prize_won=np.array(money["prize_won"], dtype=np.int64),
        prize_money=per_contest(lambda s: s.prize_money, np.int64),
        contest_size=per_contest(lambda s: s.contest_size, np.int64),
        guaranteed=per_contest(lambda s: s.guaranteed, bool),
        multi_entry=per_contest(lambda s: s.multi_entry, bool),
    )


# --- normalization stats -----------------------------------------------------


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
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "NormalizationStats":
        """The stats `to_json_dict` wrote; a stat of the wrong length, a NaN or
        infinite value, or a std <= 0 is a ValueError."""
        stats = cls(**{f.name: np.asarray(d[f.name], dtype=np.float64) for f in fields(cls)})
        lengths = {"player": D_P, "contest": D_C, "inter": D_I}
        for name, values in vars(stats).items():
            if values.shape != (lengths.get(name.split("_")[0], N_BUCKETS),):
                raise ValueError(f"{name} has shape {values.shape}")
            if not np.isfinite(values).all():
                raise ValueError(f"{name} holds a NaN or infinite value")
            if name.endswith("_std") and np.any(values <= 0):
                raise ValueError(f"{name} holds a std <= 0")
        return stats


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

    def __init__(self, joins: JoinTable, stats: NormalizationStats):
        players, pcode = np.unique(joins.player_id, return_inverse=True)
        templates, tcode = np.unique(joins.template_id, return_inverse=True)
        self.player_ids, self.template_ids = players.tolist(), templates.tolist()
        self._code = {p: i for i, p in enumerate(self.player_ids)}
        order = np.lexsort((tcode, joins.time, pcode))
        pcode, self.tcode = pcode[order], tcode[order]
        self.day = joins.time[order] // SECONDS_PER_DAY
        # (player, day) as one sorted key: one searchsorted finds every
        # player's window edge at once
        self.key = (pcode.astype(np.int64) << 32) + self.day
        self.player_start = np.searchsorted(pcode, np.arange(len(self.player_ids) + 1))
        # the money columns end in one extra 0, so that reduceat may index n
        self.fee = np.append(joins.entry_fee[order], 0)
        self.prize = np.append(joins.prize_won[order], 0)
        fee, prize, size = self.fee[:-1], self.prize[:-1], joins.contest_size[order]
        self.type_idx = joins.contest_type[order]
        self.fee_b = _buckets(fee, stats.fee_edges)
        self.size_b = _buckets(size, stats.size_edges)
        self.prize_b = _buckets(joins.prize_money[order], stats.prize_edges)
        self.prev_size = _previous_same(pcode, size)
        self.prev_fee = _previous_same(pcode, fee)
        self.prev_match = _previous_same(pcode, np.unique(joins.match_id, return_inverse=True)[1][order])
        self.cum_fee = _prefix(fee, np.int64)
        self.cum_prize = _prefix(prize, np.int64)
        self.cum_won = _prefix(prize > 0, np.int32)
        self.cum_multi = _prefix(joins.multi_entry[order], np.int32)
        self.cum_guar = _prefix(joins.guaranteed[order], np.int32)
        self.cum_new_type = _prefix(_previous_same(pcode, self.type_idx) < 0, np.int32)
        self.cum_new_match = _prefix(self.prev_match < 0, np.int32)

    def codes(self, player_ids: Iterable[str]) -> np.ndarray:
        """Player codes, with -1 for a player without joins."""
        return _lookup(self._code, player_ids)

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

    def snapshot(self, codes: np.ndarray, day: dt.date, stats: NormalizationStats,
                 rows: np.ndarray) -> "FeatureSnapshot":
        """The players `codes` (all >= 0) with their `rows` and their joins of the 5 days before `day`."""
        n, _, idx = _gather(self.edges(codes, day, max(INTERACTION_WINDOWS)), self.edges(codes, day, 0))
        recent = np.stack([
            epoch_day(day) - self.day[idx], self.tcode[idx], self.type_idx[idx],
            self.fee_b[idx], self.size_b[idx], self.prize_b[idx],
        ], axis=1)
        return FeatureSnapshot(
            as_of_day=day, stats=stats,
            players={self.player_ids[c]: i for i, c in enumerate(codes.tolist())}, rows=rows,
            join_offsets=_prefix(n, np.int64), recent=recent.astype(np.int32),
            templates={t: i for i, t in enumerate(self.template_ids)},
        )


def _lookup(index: Mapping[str, int], keys: Iterable[str]) -> np.ndarray:
    """index[key] for each key, -1 for a key it lacks."""
    return np.fromiter((index.get(k, -1) for k in keys), dtype=np.int64)


def group_indices(codes: np.ndarray, n: int) -> list[np.ndarray]:
    """For each code 0..n-1, the ascending indices i with codes[i] == code."""
    return np.split(np.argsort(codes, kind="stable"), np.cumsum(np.bincount(codes, minlength=n))[:-1])


def _buckets(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Index of the training-quantile bucket (0..7) holding each value."""
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


# --- template blocks: a match's contest and interaction rows ----------------------

# the first bin of each of a window's histograms: type, then fee, size and
# prize bucket (the order of a recent join's columns)
_BIN_BASE = np.asarray([0, N_TYPES, N_TYPES + N_BUCKETS, N_TYPES + 2 * N_BUCKETS])
_WINDOW_BINS = N_TYPES + 3 * N_BUCKETS


@dataclass
class TemplateBlock:
    """A match's templates as arrays: the one source of contest and interaction rows.

    Training, evaluation, inference and normalization fitting all take their
    rows from a block. `raw_interaction` is the one raw interaction path;
    `interaction_matrix` normalizes its result.
    """

    template_ids: list[str]
    contest_matrix: np.ndarray  # (n, D_C) normalized float32
    own_bins: np.ndarray        # (n, 4) the template's type, fee, prize and size bins in a window

    def raw_interaction(self, snapshot: FeatureSnapshot, player_ids: Sequence[str]) -> np.ndarray:
        """Raw (players, n, D_I) counts of each player's recent joins against every template.

        Per window (1 day, then 5 days), the player's joins of the template's
        type and in its fee, prize and size buckets; then the player's 5-day
        joins of the template itself. One weighted bincount over all the
        players' joins fills every count; each template then reads its bins.
        """
        slot = _lookup(snapshot.players, player_ids)
        known = slot >= 0
        lo = np.where(known, snapshot.join_offsets[slot], 0)
        _, seg, idx = _gather(lo, np.where(known, snapshot.join_offsets[slot + 1], 0))
        joins = snapshot.recent[idx]  # age, template, type, fee, size, prize
        # bins: each window's type, fee, size and prize histograms, one bin
        # per template code, and a last bin that stays 0
        width = 2 * _WINDOW_BINS + len(snapshot.templates) + 1
        in_window = joins[:, 2:] + _BIN_BASE
        keys = np.concatenate([in_window, in_window + _WINDOW_BINS, 2 * _WINDOW_BINS + joins[:, 1:2]], axis=1)
        weights = np.ones(keys.shape)
        for w, days in enumerate(INTERACTION_WINDOWS):
            weights[:, 4 * w:4 * w + 4] = joins[:, :1] <= days
        keys += seg[:, None] * width
        counts = np.bincount(keys.ravel(), weights.ravel(), minlength=slot.size * width)
        code = _lookup(snapshot.templates, self.template_ids)
        bins = np.concatenate([
            self.own_bins, self.own_bins + _WINDOW_BINS,
            np.where(code >= 0, 2 * _WINDOW_BINS + code, width - 1)[:, None],
        ], axis=1)
        return counts.reshape(slot.size, width)[:, bins]

    def interaction_matrix(self, snapshot: FeatureSnapshot, player_ids: Sequence[str]) -> np.ndarray:
        """Normalized (players, n, D_I) float32 interaction rows against every template."""
        stats = snapshot.stats
        out = _normalize(self.raw_interaction(snapshot, player_ids), stats.inter_mean, stats.inter_std,
                         INTERACTION_Z_MASK)
        return out.astype(np.float32)


def build_template_block(templates: Sequence[ContestSpec], stats: NormalizationStats) -> TemplateBlock:
    """Lay out a match's templates, each checked where it was read or generated, as a TemplateBlock.

    The contest rows are the raw rows normalized in one call and stored as
    float32; the buckets use `stats`' edges.
    """
    ids = [t.template_id for t in templates]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate template_id in template block")
    raw = np.stack([contest_features_raw(t) for t in templates])
    return TemplateBlock(
        template_ids=ids,
        contest_matrix=_normalize(raw, stats.contest_mean, stats.contest_std, CONTEST_Z_MASK).astype(np.float32),
        own_bins=(_BIN_BASE + np.stack([
            np.asarray([_TYPE_INDEX[t.contest_type] for t in templates]),
            _buckets(np.asarray([t.entry_fee for t in templates]), stats.fee_edges),
            _buckets(np.asarray([t.contest_size for t in templates]), stats.size_edges),
            _buckets(np.asarray([t.prize_money for t in templates]), stats.prize_edges),
        ], axis=1))[:, [0, 1, 3, 2]],  # the interaction columns' order: type, fee, prize, size
    )


# --- fitting -------------------------------------------------------------------


def fit_normalization(
    train: JoinTable,
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
    if not train:
        raise DataError("cannot fit normalization on an empty training partition")

    stats = _identity_stats()
    stats.fee_edges = quantile_edges(train.entry_fee)
    stats.size_edges = quantile_edges(train.contest_size)
    stats.prize_edges = quantile_edges(train.prize_money)

    player_ids, match_ids, _ = train.player_matches()
    groups = list(zip(player_ids.tolist(), match_ids.tolist()))
    row_of: dict[tuple[str, dt.date], int] = {}  # (player, match day) rows, in groups order
    by_day: dict[dt.date, dict[str, list[int]]] = {}  # match day -> match -> group indices
    for g, (pid, mid) in enumerate(groups):
        day = match_days.get(mid)
        if day is None:
            raise DataError(f"no match day known for match {mid}")
        row_of.setdefault((pid, day), len(row_of))
        by_day.setdefault(day, {}).setdefault(mid, []).append(g)

    # one sweep per match day over its players, those with no earlier join
    # included, and one interaction block per match over its players. Rows
    # are stored in `groups` order and summed over axis 0, which adds them
    # one after another, so the sums run in the order of `groups`
    columns = _JoinColumns(train, stats)
    p_log = np.empty((len(row_of), np.count_nonzero(PLAYER_Z_MASK)), dtype=np.float64)
    i_log = np.zeros((2, len(groups), D_I), dtype=np.float64)  # per group: sum, sum of squares
    i_n = 0
    for day, by_match in sorted(by_day.items()):
        pids = sorted({groups[g][0] for gs in by_match.values() for g in gs})
        codes = columns.codes(pids)
        raw = columns.player_rows(codes, day)
        p_log[[row_of[(pid, day)] for pid in pids]] = np.log1p(np.maximum(raw[:, PLAYER_Z_MASK], 0.0))
        snapshot = columns.snapshot(codes, day, stats, raw)  # only its recent joins are read
        for mid, gs in by_match.items():
            tpls = templates_by_match.get(mid)
            if not tpls:
                continue
            block = build_template_block(tpls, stats)
            logs = np.log1p(block.raw_interaction(snapshot, [groups[g][0] for g in gs]))
            i_log[0, gs] = logs.sum(axis=1)
            i_log[1, gs] = (logs * logs).sum(axis=1)
            i_n += logs.shape[0] * logs.shape[1]
    p_acc = {"n": len(p_log), "sum": p_log.sum(axis=0), "sumsq": (p_log * p_log).sum(axis=0)}
    i_acc = {"n": i_n, "sum": i_log[0].sum(axis=0), "sumsq": i_log[1].sum(axis=0)}

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
    """One day's features as arrays, from the day sweep, the store or a test.

    Player `i` (`players[id] == i`) has the normalized float32 row
    `rows[i]`, and its joins of the 5 days before `as_of_day` are
    `recent[join_offsets[i]:join_offsets[i + 1]]`, one int32 row per join:
    age in days (1-5), template code (`templates[id]`), type, and fee, size
    and prize bucket.
    """

    as_of_day: dt.date
    stats: NormalizationStats
    players: dict[str, int]
    rows: np.ndarray          # (players, D_P) float32
    join_offsets: np.ndarray  # (players + 1,) int64
    recent: np.ndarray        # (joins, 6) int32
    templates: dict[str, int]
    schema_version: str = SNAPSHOT_SCHEMA
    cold_row: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.cold_row = cold_start_player_row(self.stats).astype(np.float32)

    def player_rows(self, player_ids: Sequence[str]) -> np.ndarray:
        """(len(player_ids), D_P) stored rows; an unknown player gets the cold-start row."""
        slot = _lookup(self.players, player_ids)
        out = np.empty((slot.size, D_P), dtype=np.float32)
        out[slot >= 0] = self.rows[slot[slot >= 0]]
        out[slot < 0] = self.cold_row
        return out


def iter_snapshots(joins: JoinTable, days: Sequence[dt.date], stats: NormalizationStats):
    """Yield (day, FeatureSnapshot) for each day in sorted order.

    Each snapshot sees only joins strictly before its day 00:00 UTC. Players
    with no join in the 30 days before the day are omitted. The joins are
    laid out as columns once; each day is one vectorized sweep over them.
    """
    columns = _JoinColumns(joins, stats)
    everyone = np.arange(len(columns.player_ids))
    for day in sorted(days):
        end = columns.edges(everyone, day, 0)
        active = everyone[end > columns.edges(everyone, day, max(PLAYER_WINDOWS))]
        raw = columns.player_rows(active, day)
        rows = _normalize(raw, stats.player_mean, stats.player_std, PLAYER_Z_MASK).astype(np.float32)
        yield day, columns.snapshot(active, day, stats, rows)


# A day's arrays in the store: file name -> (dtype, dims, the FeatureSnapshot
# field it holds; an id map is stored as its ids in slot order)
_DAY_ARRAYS = {
    "player_ids": ("<U", 1, "players"),
    "player_rows": ("<f4", 2, "rows"),
    "join_offsets": ("<i8", 1, "join_offsets"),
    "recent_joins": ("<i4", 2, "recent"),
    "template_ids": ("<U", 1, "templates"),
}


class SnapshotStore:
    """File-based offline feature store: one directory per as_of_day.

    Layout (arrays are `.npy` files, written by `np.save` and read with
    `np.load(..., allow_pickle=False)`):
        <root>/manifest.json                 dims, schema version, normalization stats
        <root>/days/<ISO-day>/player_ids.npy     (players,) unicode
        <root>/days/<ISO-day>/player_rows.npy    (players, 107) little-endian float32
        <root>/days/<ISO-day>/join_offsets.npy   (players + 1,) int64
        <root>/days/<ISO-day>/recent_joins.npy   (joins, 6) int32
        <root>/days/<ISO-day>/template_ids.npy   (templates,) unicode
        <root>/days/<ISO-day>/day.json           schema version, as_of_day, n_players

    The arrays are `FeatureSnapshot`'s fields. day.json is each day's commit
    marker: `write_day` removes it before it touches the day and writes it
    last, each file through a rename. A day without day.json (a write that
    failed part-way) reads as absent: `has_day` is False and `read_day`
    raises StoreError. `read_day` also raises StoreError for
    another schema version, an array of the wrong dtype or shape, lengths
    that disagree, a recent-join value out of its range, or a NaN or
    infinite player row.
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
            with write_replace(self._manifest_path()) as fh:
                json.dump(doc, fh, sort_keys=True)
        except OSError as exc:
            raise StoreError(f"store manifest write failed at {self._manifest_path()}: {exc}") from exc

    def read_manifest(self) -> NormalizationStats:
        path = self._manifest_path()
        doc = read_json(path, f"store manifest {path}", StoreError)
        if doc.get("schema_version") != SNAPSHOT_SCHEMA:
            raise StoreError(
                f"{path}: schema version {doc.get('schema_version')!r} != {SNAPSHOT_SCHEMA!r}"
            )
        if (doc.get("d_p"), doc.get("d_c"), doc.get("d_i")) != (D_P, D_C, D_I):
            raise StoreError(f"{path}: dims mismatch")
        try:
            return NormalizationStats.from_json_dict(doc["stats"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"{path}: bad normalization stats: {exc!r}") from exc

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
            for name, (dtype, _, attr) in _DAY_ARRAYS.items():
                value = getattr(snapshot, attr)
                array = np.asarray(list(value) if isinstance(value, dict) else value, dtype=dtype)
                with write_replace(os.path.join(path, f"{name}.npy"), "wb") as fh:
                    np.save(fh, array, allow_pickle=False)
            meta = {
                "schema_version": snapshot.schema_version,
                "as_of_day": day.isoformat(),
                "n_players": len(snapshot.players),
            }
            with write_replace(os.path.join(path, "day.json")) as fh:
                json.dump(meta, fh, sort_keys=True)
        except OSError as exc:
            raise StoreError(f"snapshot write failed for day {day} at {path}: {exc}") from exc

    def read_day(self, day: dt.date) -> FeatureSnapshot:
        path = self._day_dir(day)
        stats = self.read_manifest()
        day_json = os.path.join(path, "day.json")
        meta = read_json(day_json, f"no snapshot for day {day} at {day_json}", StoreError)
        if meta.get("schema_version") != SNAPSHOT_SCHEMA:
            raise StoreError(
                f"{path}: snapshot schema {meta.get('schema_version')!r} != {SNAPSHOT_SCHEMA!r}"
            )
        arrays = {}
        for name, (dtype, ndim, _) in _DAY_ARRAYS.items():
            try:
                array = np.load(os.path.join(path, f"{name}.npy"), allow_pickle=False)
            except Exception as exc:  # numpy's header parser can raise TokenError, SyntaxError, ...
                raise StoreError(f"{path}: cannot read {name}.npy: {exc}") from exc
            if not array.dtype.str.startswith(dtype) or array.ndim != ndim:
                raise StoreError(
                    f"{path}: {name}.npy is {array.dtype.str} {array.shape}, expected {dtype} in {ndim} dims"
                )
            arrays[name] = array
        ids, rows, offsets, recent, tids = arrays.values()
        templates = {t: i for i, t in enumerate(tids.tolist())}
        players = {p: i for i, p in enumerate(ids.tolist())}
        # the inclusive range of each recent-join column
        low = (1, 0, 0, 0, 0, 0)
        high = (max(INTERACTION_WINDOWS), len(templates) - 1, N_TYPES - 1) + (N_BUCKETS - 1,) * 3
        if (
            meta.get("n_players") != len(ids) or len(players) != len(ids) or rows.shape != (len(ids), D_P)
            or offsets.shape != (len(ids) + 1,) or offsets[0] != 0 or np.any(np.diff(offsets) < 0)
            or offsets[-1] != len(recent) or recent.shape[1] != len(low)
            or len(templates) != len(tids)
        ):
            raise StoreError(f"{path}: snapshot arrays disagree in length or shape")
        if recent.size and (np.any(recent.min(axis=0) < low) or np.any(recent.max(axis=0) > high)):
            raise StoreError(f"{path}: a recent join is out of range")
        if not np.isfinite(rows).all():
            raise StoreError(f"{os.path.join(path, 'player_rows.npy')}: a player row holds a NaN or infinite value")
        return FeatureSnapshot(as_of_day=day, stats=stats, players=players, rows=rows,
                               join_offsets=offsets, recent=recent, templates=templates)

    def has_day(self, day: dt.date) -> bool:
        """True once a write of `day` has committed its day.json."""
        return os.path.isfile(os.path.join(self._day_dir(day), "day.json"))


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

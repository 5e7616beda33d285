"""Ordered lists, preference pairs, and minibatch training of the ranker.

Per (player, match) the joined templates are aggregated into a fixed-length
ordered list (most-joined first, padded with unjoined templates from the
same match). The lists are integer arrays: each entry a row of its match's
catalog and a join count. Strict count preferences become training pairs,
which index those rows straight into the pair features. Pairs are
minimized under the pairwise hinge with Adam, validation-loss early
stopping, and best-epoch parameter selection. All randomness is seeded (the
pad and pair subsample draws per list) and the loop is single-threaded, so
a seed fixes the final parameters.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import logging
import math
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .domain import ContestSpec, read_records, write_records
from .errors import ConfigError, DataError
from .features import (
    D_I,
    D_P,
    JoinTable,
    NormalizationStats,
    build_template_block,
    group_indices,
)
from .model import Rows, WidirDims, WidirParams, hinge_losses, init_params, pair_gradients, score_rows
from .textio import from_kv, read_kv

logger = logging.getLogger(__name__)

_LIST_STREAM = 11
_PAIR_STREAM = 12
_EPOCH_STREAM = 13


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; a value that breaks a rule below is a ConfigError when the config is made."""

    learning_rate: float = 0.001
    epochs: int = 100
    batch_size: int = 4096
    validation_batch_size: int = 16384
    early_stopping_rounds: int = 15
    list_length: int = 100
    max_pairs_per_list: int = 256
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "epochs", "batch_size", "validation_batch_size",
                     "early_stopping_rounds", "list_length", "max_pairs_per_list"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not math.isfinite(self.learning_rate):
            raise ConfigError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.list_length not in (50, 100, 200):
            raise ConfigError(f"list_length must be one of (50, 100, 200), got {self.list_length}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        return from_kv(cls, read_kv(path), str(path))


def _list_rng(seed: int, stream: int, player_id: str, match_id: str) -> np.random.Generator:
    digest = hashlib.blake2b(f"{player_id}|{match_id}".encode(), digest_size=8).digest()
    key = int.from_bytes(digest, "little")
    return np.random.default_rng(np.random.SeedSequence((seed, stream, key)))


@dataclass(frozen=True, eq=False)
class OrderedLists:
    """Fixed-length ordered lists, one per (player, match) with a join, in (player, match) order.

    Row i of `templates` holds list i's templates as rows of its match's
    catalog: the joined ones by count, descending (ties by template id), then
    the padded unjoined ones by template id, then -1 past the end of a list
    whose match has fewer templates than the list length. `counts` holds
    each entry's join count: 0 for a padded template, -1 past the end.
    """

    player_ids: np.ndarray  # (n_lists,) str
    match_ids: np.ndarray   # (n_lists,) str
    templates: np.ndarray   # (n_lists, list_length) int32
    counts: np.ndarray      # (n_lists, list_length) int32

    def __len__(self) -> int:
        return len(self.player_ids)


def build_ordered_lists(
    train: JoinTable,
    templates_by_match: Mapping[str, Sequence[ContestSpec]],
    list_length: int,
    seed: int,
) -> OrderedLists:
    """One fixed-length ordered list per (player, match) with at least one join.

    Join counts are aggregated per template and sorted descending (ties by
    template_id); lists are trimmed to `list_length` or padded with unjoined
    templates sampled uniformly without replacement. Matches with too few
    templates yield short lists (logged, not fatal). A join of a match or a
    template missing from the catalog is a DataError.
    """
    player_ids, match_ids, list_of = train.player_matches()
    matches, list_match = np.unique(match_ids, return_inverse=True)

    # a template's rank: its place in its match's catalog sorted by template id
    rank = np.empty(len(train), dtype=np.int64)
    by_rank = []
    for mid, joins in zip(matches.tolist(), group_indices(list_match[list_of], len(matches))):
        if (tpls := templates_by_match.get(mid)) is None:
            raise DataError(f"match {mid} missing from catalog")
        ids = np.array([t.template_id for t in tpls], dtype=str)
        by_rank.append(np.argsort(ids, kind="stable"))
        ids = ids[by_rank[-1]]
        found = np.searchsorted(ids, train.template_id[joins], side="right") - 1  # the last of equal ids
        known = found >= 0
        known[known] = ids[found[known]] == train.template_id[joins[known]]
        if not known.all():
            raise DataError(f"join of template {train.template_id[joins[~known][0]]} missing from match {mid} catalog")
        rank[joins] = found
    width = max([list_length] + [len(rows) for rows in by_rank])
    row_of = np.full((len(matches), width), -1, dtype=np.int32)  # the catalog row of each (match, rank)
    for m, rows in enumerate(by_rank):
        row_of[m, : len(rows)] = rows

    # one count per (list, rank); ranks past a match's templates count -1 and sort last
    counts = np.bincount(list_of * width + rank, minlength=len(player_ids) * width).reshape(-1, width)
    n_templates = (row_of >= 0).sum(axis=1)[list_match]
    counts[np.arange(width) >= n_templates[:, None]] = -1
    order = np.argsort(-counts, axis=1, kind="stable")  # each list's ranks, most-joined first
    joined = (counts > 0).sum(axis=1)
    for i in np.flatnonzero((joined < list_length) & (n_templates > list_length)):
        j = int(joined[i])
        rng = _list_rng(seed, _LIST_STREAM, player_ids[i], match_ids[i])
        pad = np.sort(rng.choice(int(n_templates[i]) - j, size=list_length - j, replace=False))
        order[i, j:list_length] = order[i, j + pad]
    order = order[:, :list_length]
    short = int((n_templates < list_length).sum())
    if short:
        logger.warning("%d lists are short: match template sets smaller than list_length", short)
    return OrderedLists(
        player_ids=player_ids,
        match_ids=match_ids,
        templates=row_of[list_match[:, None], order],
        counts=np.take_along_axis(counts, order, axis=1).astype(np.int32),
    )


def list_pairs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every strict preference of each list, as (list, preferred position, other position).

    `counts` is (lists x positions), -1 past a list's end. A position is
    preferred to every position of a lower count, padded ones included;
    equal counts give no pair. A list's pairs run by the preferred side's
    count, then the other side's count, both descending, then by the two
    positions: the order the pair subsample draws from.
    """
    counts = counts[:, : (counts >= 0).sum(axis=1).max(initial=0)]  # no list reaches past here
    lst, pref, other = np.nonzero((counts[:, :, None] > counts[:, None, :]) & (counts[:, None, :] >= 0))
    order = np.lexsort((other, pref, -counts[lst, other], -counts[lst, pref], lst))
    return lst[order], pref[order], other[order]


# --- pair feature assembly -------------------------------------------------------


@dataclass
class PairDataset:
    """Training pairs over the model's three row spaces.

    One player row per list, one contest row per distinct template row, and
    one interaction row per (list, template) that some pair uses: a pair row.
    Pair j prefers pair row pos[j] to pair row neg[j], both of one list.
    """

    player_rows: np.ndarray   # (n_lists, D_P) float32
    contest_rows: np.ndarray  # (n_contests, D_C) float32
    inter_rows: np.ndarray    # (n_rows, D_I) float32
    row_list: np.ndarray      # (n_rows,) int32: the list of each pair row
    row_contest: np.ndarray   # (n_rows,) int32: the contest row of each pair row
    pos: np.ndarray           # (n_pairs,) int32: the preferred side's pair row
    neg: np.ndarray           # (n_pairs,) int32

    @property
    def n_pairs(self) -> int:
        return int(self.pos.shape[0])

    # per-pair views: each pair side's list and rows
    @property
    def list_idx(self) -> np.ndarray:
        return self.row_list[self.pos]

    @property
    def pos_contest(self) -> np.ndarray:
        return self.contest_rows[self.row_contest[self.pos]]

    @property
    def neg_contest(self) -> np.ndarray:
        return self.contest_rows[self.row_contest[self.neg]]

    @property
    def pos_inter(self) -> np.ndarray:
        return self.inter_rows[self.pos]

    @property
    def neg_inter(self) -> np.ndarray:
        return self.inter_rows[self.neg]

    def rows(self, pair_rows: np.ndarray) -> Rows:
        """Model inputs of the given pair rows, each of their lists and contest rows once."""
        lists, player_of = np.unique(self.row_list[pair_rows], return_inverse=True)
        contests, contest_of = np.unique(self.row_contest[pair_rows], return_inverse=True)
        return Rows(self.player_rows[lists], self.contest_rows[contests], self.inter_rows[pair_rows],
                    player_of, contest_of)

    def batch(self, idx: np.ndarray) -> tuple[Rows, np.ndarray, np.ndarray]:
        """The rows of pairs `idx`, each distinct pair row once, and each pair's two row indices."""
        sides, inverse = np.unique(np.concatenate([self.pos[idx], self.neg[idx]]), return_inverse=True)
        return self.rows(sides), inverse[: idx.size], inverse[idx.size :]


def assemble_pair_dataset(
    lists: OrderedLists,
    snapshots,
    templates_by_match: Mapping[str, Sequence[ContestSpec]],
    match_days: Mapping[str, dt.date],
    stats: NormalizationStats,
    max_pairs: int | None,
    seed: int,
) -> PairDataset:
    """Materialize pair features from snapshots (`snapshots.get(day)` lookup).

    The player and interaction rows of each match's lists come from one
    snapshot call and one template-block call. A list with more than
    `max_pairs` pairs keeps a seeded uniform subsample. Each match keeps the
    interaction rows its pairs use; contest rows equal in every feature are
    stored once. The pairs stay in list order.
    """
    player_rows = np.empty((len(lists), D_P), dtype=np.float32)
    contests, inters, row_lists, row_contests, pair_lists, pairs = [], [], [], [], [], []
    n_rows = n_contests = 0
    matches, first = np.unique(lists.match_ids, return_index=True)
    for mid in matches[np.argsort(first)]:  # in the order of each match's first list
        day = match_days.get(mid)
        if day is None:
            raise DataError(f"no match day known for match {mid}")
        tpls = templates_by_match.get(mid)
        if not tpls:
            raise DataError(f"match {mid} missing from catalog")
        snap = snapshots.get(day)
        block = build_template_block(tpls, stats)
        lis = np.flatnonzero(lists.match_ids == mid)
        ids = lists.player_ids[lis].tolist()
        player_rows[lis] = snap.player_rows(ids)
        n = len(block.template_ids)
        j, pref, other = list_pairs(lists.counts[lis])
        if max_pairs is not None:
            per_list = np.bincount(j, minlength=lis.size)
            keep = per_list[j] <= max_pairs
            starts = np.cumsum(per_list) - per_list
            for k in np.flatnonzero(per_list > max_pairs):
                rng = _list_rng(seed, _PAIR_STREAM, ids[k], mid)
                keep[starts[k] + rng.choice(int(per_list[k]), size=max_pairs, replace=False)] = True
            j, pref, other = j[keep], pref[keep], other[keep]
        # keys j * n + template row of the match's j-th list
        keys = j[:, None] * n + lists.templates[lis[j, None], np.stack([pref, other], axis=1)]
        used, inverse = np.unique(keys, return_inverse=True)
        pair_lists.append(lis[j])
        pairs.append(n_rows + inverse.reshape(-1, 2))
        inters.append(block.interaction_matrix(snap, ids).reshape(-1, D_I)[used])
        row_lists.append(lis.astype(np.int32)[used // n])
        row_contests.append(n_contests + used % n)
        contests.append(block.contest_matrix)
        n_rows += used.size
        n_contests += n

    pairs = np.concatenate(pairs) if pairs else np.zeros((0, 2), dtype=np.int64)
    if not pairs.size:
        raise DataError("no training pairs could be built (empty pair stream)")
    pairs = pairs[np.argsort(np.concatenate(pair_lists), kind="stable")]  # list order
    contest_rows, contest_of = np.unique(np.concatenate(contests), axis=0, return_inverse=True)
    return PairDataset(
        player_rows=player_rows,
        contest_rows=contest_rows,
        inter_rows=np.concatenate(inters),
        row_list=np.concatenate(row_lists),
        row_contest=contest_of.reshape(-1)[np.concatenate(row_contests)].astype(np.int32),
        pos=pairs[:, 0].astype(np.int32),
        neg=pairs[:, 1].astype(np.int32),
    )


# --- optimizer ---------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    def __init__(self, arrays: list[np.ndarray], lr: float):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]

    def step(self, arrays: list[np.ndarray], grads: list[np.ndarray], scale: float) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for a, g, m, v in zip(arrays, grads, self.m, self.v):
            gs = g * np.float32(scale) if a.dtype == np.float32 else g * scale
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * gs
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (gs * gs)
            a -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


class EarlyStopper:
    """Strict-improvement early stopping that remembers the best epoch."""

    def __init__(self, rounds: int):
        self.rounds = rounds
        self.best = float("inf")
        self.best_epoch: int | None = None
        self.bad = 0

    def update(self, epoch: int, value: float) -> bool:
        """Record an epoch's validation loss; True means stop now."""
        if value < self.best:
            self.best = value
            self.best_epoch = epoch
            self.bad = 0
            return False
        self.bad += 1
        return self.bad >= self.rounds


# --- training loop -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EpochRow:
    epoch: int
    train_loss: float
    valid_loss: float
    seconds: float


@dataclass
class TrainingReport:
    rows: list[EpochRow] = field(default_factory=list)
    best_epoch: int = 0
    best_valid_loss: float = float("inf")
    stopped_early: bool = False
    wall_seconds: float = 0.0


@dataclass
class TrainResult:
    params: WidirParams
    report: TrainingReport


_REPORT = (("epoch", str, int), ("train_loss", repr, float), ("valid_loss", repr, float),
           ("seconds", repr, float))


def write_report(path, report: TrainingReport) -> None:
    write_records(path, _REPORT, report.rows)


def read_report(path) -> list[EpochRow]:
    return read_records(path, _REPORT, EpochRow)


def _mean_valid_loss(params: WidirParams, data: PairDataset, batch: int) -> float:
    """Mean hinge over the pairs; each pair row is scored once, `batch` pair rows at a time."""
    n_rows = data.row_list.shape[0]
    scores = np.concatenate([
        score_rows(params, data.rows(np.arange(a, min(a + batch, n_rows))), fast=True)
        for a in range(0, n_rows, batch)
    ])
    return float(hinge_losses(scores[data.pos], scores[data.neg]).sum(dtype=np.float64)) / data.n_pairs


def train(
    config: TrainConfig,
    dims: WidirDims,
    train_data: PairDataset,
    valid_data: PairDataset,
) -> TrainResult:
    """Minibatch pairwise-hinge training with best-epoch parameter selection."""
    if train_data.n_pairs == 0:
        raise DataError("empty training pair stream")
    if valid_data.n_pairs == 0:
        raise DataError("empty validation pair stream")

    t0 = time.perf_counter()
    params = init_params(dims, config.seed, dtype=np.float32)
    arrays = params.arrays()
    opt = Adam(arrays, config.learning_rate)
    stopper = EarlyStopper(config.early_stopping_rounds)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _EPOCH_STREAM)))
    report = TrainingReport()
    best_params = params.copy()

    # epoch-0 baseline row: losses under the initial parameters
    report.rows.append(
        EpochRow(
            0,
            _mean_valid_loss(params, train_data, config.validation_batch_size),
            _mean_valid_loss(params, valid_data, config.validation_batch_size),
            0.0,
        )
    )

    dead_head_seen = False
    for epoch in range(1, config.epochs + 1):
        e0 = time.perf_counter()
        perm = rng.permutation(train_data.n_pairs)
        loss_sum = 0.0
        for a in range(0, train_data.n_pairs, config.batch_size):
            idx = perm[a : a + config.batch_size]
            rows, pos, neg = train_data.batch(idx)
            grads, losses = pair_gradients(params, rows, pos, neg, fast=True)
            batch_loss = float(losses.sum())
            loss_sum += batch_loss
            grad_arrays = grads.arrays()
            if batch_loss > 0 and not dead_head_seen and not any(g.any() for g in grad_arrays):
                dead_head_seen = True
                logger.warning(
                    "epoch %d: a batch with positive hinge losses has an all-zero gradient; "
                    "every ReLU unit of the ranking head is dead, so the scores are constant", epoch,
                )
            opt.step(arrays, grad_arrays, 1.0 / idx.size)
        train_loss = loss_sum / train_data.n_pairs
        valid_loss = _mean_valid_loss(params, valid_data, config.validation_batch_size)
        report.rows.append(EpochRow(epoch, train_loss, valid_loss, time.perf_counter() - e0))

        improved = valid_loss < stopper.best
        stop = stopper.update(epoch, valid_loss)
        if improved:
            best_params = params.copy()
        if stop:
            report.stopped_early = True
            break

    report.best_epoch = stopper.best_epoch if stopper.best_epoch is not None else 0
    report.best_valid_loss = stopper.best
    report.wall_seconds = time.perf_counter() - t0
    return TrainResult(params=best_params, report=report)

"""The object-based list and pair builders: the oracle.

One `OrderedContestList` per (player, match) and one `PreferencePair` per
pair, with template ids mapped back to rows through a dict. The array
builders in `widir.training` replace them and must give the same
`PairDataset`, all seven arrays byte for byte: the same lists, the same
pairs in the same order, and the same seeded pad and subsample draws.
"""

from __future__ import annotations

import datetime as dt
import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from widir.domain import ContestSpec
from widir.errors import DataError
from widir.features import D_I, D_P, NormalizationStats, build_template_block
from widir.training import _LIST_STREAM, _PAIR_STREAM, PairDataset, _list_rng

from feature_oracle import JoinEvent

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class OrderedContestList:
    """Join-frequency-ordered templates for one (player, match), fixed length."""

    player_id: str
    match_id: str
    entries: tuple[tuple[str, int], ...]  # (template_id, join_count), count desc
    joined_count: int
    short: bool = False  # match had fewer templates than the target length


@dataclass(frozen=True, slots=True)
class PreferencePair:
    player_id: str
    match_id: str
    pos_template_id: str
    neg_template_id: str


def build_ordered_lists(
    train_events: Sequence[JoinEvent],
    templates_by_match: Mapping[str, Sequence[ContestSpec]],
    list_length: int,
    seed: int,
) -> list[OrderedContestList]:
    """One fixed-length ordered list per (player, match) with at least one join.

    Join counts are aggregated per template and sorted descending (ties by
    template_id); lists are trimmed to `list_length` or padded with unjoined
    templates sampled uniformly without replacement. Matches with too few
    templates yield short lists (logged, not fatal).
    """
    groups: dict[tuple[str, str], dict[str, int]] = {}
    for e in train_events:
        counts = groups.setdefault((e.player_id, e.match_id), {})
        counts[e.template_id] = counts.get(e.template_id, 0) + 1

    out: list[OrderedContestList] = []
    short_matches = 0
    for (pid, mid) in sorted(groups):
        counts = groups[(pid, mid)]
        joined = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if len(joined) >= list_length:
            entries = joined[:list_length]
            short = False
        else:
            available = templates_by_match.get(mid)
            if available is None:
                raise DataError(f"match {mid} missing from catalog")
            candidates = sorted(t.template_id for t in available if t.template_id not in counts)
            need = list_length - len(joined)
            if len(candidates) <= need:
                pad = candidates
                short = len(pad) < need
                if short:
                    short_matches += 1
            else:
                rng = _list_rng(seed, _LIST_STREAM, pid, mid)
                idx = rng.choice(len(candidates), size=need, replace=False)
                pad = [candidates[i] for i in sorted(int(i) for i in idx)]
                short = False
            entries = joined + [(tid, 0) for tid in pad]
        out.append(
            OrderedContestList(
                player_id=pid,
                match_id=mid,
                entries=tuple(entries),
                joined_count=sum(1 for _, c in entries if c > 0),
                short=short,
            )
        )
    if short_matches:
        logger.warning("%d lists are short: match template sets smaller than list_length", short_matches)
    return out


def build_pairs(
    lst: OrderedContestList, max_pairs: int | None, seed: int
) -> list[PreferencePair]:
    """The strict-preference pair set of a list; seeded uniform subsample if capped.

    Every (more-joined, less-joined) combination is a pair, including joined
    versus padded; equal counts (including padded vs padded) produce none.
    """
    entries = lst.entries
    # group positions by join count, descending
    by_count: dict[int, list[int]] = {}
    for i, (_, count) in enumerate(entries):
        by_count.setdefault(count, []).append(i)
    counts_desc = sorted(by_count, reverse=True)
    pairs: list[tuple[int, int]] = []
    for a_i, ca in enumerate(counts_desc):
        for cb in counts_desc[a_i + 1 :]:
            for i in by_count[ca]:
                for j in by_count[cb]:
                    pairs.append((i, j))
    if max_pairs is not None and len(pairs) > max_pairs:
        rng = _list_rng(seed, _PAIR_STREAM, lst.player_id, lst.match_id)
        chosen = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[i] for i in sorted(int(i) for i in chosen)]
    return [
        PreferencePair(
            player_id=lst.player_id,
            match_id=lst.match_id,
            pos_template_id=entries[i][0],
            neg_template_id=entries[j][0],
        )
        for i, j in pairs
    ]


def assemble_pair_dataset(
    lists: Sequence[OrderedContestList],
    snapshots,
    templates_by_match: Mapping[str, Sequence[ContestSpec]],
    match_days: Mapping[str, dt.date],
    stats: NormalizationStats,
    max_pairs: int | None,
    seed: int,
) -> PairDataset:
    """Materialize pair features from snapshots (`snapshots.get(day)` lookup).

    The player and interaction rows of each match's lists come from one
    snapshot call and one template-block call. Each match keeps the
    interaction rows its pairs use; contest rows equal in every feature are
    stored once. The pairs stay in list order.
    """
    by_match: dict[str, list[int]] = {}
    for li, lst in enumerate(lists):
        by_match.setdefault(lst.match_id, []).append(li)
    player_rows = np.empty((len(lists), D_P), dtype=np.float32)
    contests, inters, row_lists, row_contests = [], [], [], []
    sides: list = [None] * len(lists)  # per list: its pairs' (pos, neg) pair rows
    n_rows = n_contests = 0
    for mid, lis in by_match.items():
        day = match_days.get(mid)
        if day is None:
            raise DataError(f"no match day known for match {mid}")
        tpls = templates_by_match.get(mid)
        if not tpls:
            raise DataError(f"match {mid} missing from catalog")
        snap = snapshots.get(day)
        block = build_template_block(tpls, stats)
        tid_to_row = {tid: r for r, tid in enumerate(block.template_ids)}
        ids = [lists[li].player_id for li in lis]
        player_rows[lis] = snap.player_rows(ids)
        n = len(block.template_ids)
        # keys j * n + template row of the match's j-th list
        keys = []
        for j, li in enumerate(lis):
            try:
                keys.append(j * n + np.asarray([
                    (tid_to_row[p.pos_template_id], tid_to_row[p.neg_template_id])
                    for p in build_pairs(lists[li], max_pairs, seed)
                ], dtype=np.int64).reshape(-1, 2))
            except KeyError:
                raise DataError(f"pair references template missing from match {mid} catalog") from None
        used, inverse = np.unique(np.concatenate(keys), return_inverse=True)
        inverse = n_rows + inverse.reshape(-1, 2)
        start = 0
        for li, k in zip(lis, keys):
            sides[li] = inverse[start : start + len(k)]
            start += len(k)
        inters.append(block.interaction_matrix(snap, ids).reshape(-1, D_I)[used])
        row_lists.append(np.asarray(lis, dtype=np.int32)[used // n])
        row_contests.append(n_contests + used % n)
        contests.append(block.contest_matrix)
        n_rows += used.size
        n_contests += n

    pairs = np.concatenate(sides) if sides else np.zeros((0, 2), dtype=np.int64)
    if not pairs.size:
        raise DataError("no training pairs could be built (empty pair stream)")
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

import datetime as dt
import os

import numpy as np
import pytest

from widir.domain import CENTS, ContestSpec, ContestType, JoinRecord, PrizeDistribution, day_start, parse_day
from widir.features import SnapshotStore, _identity_stats
from widir.generator import DEFAULT_ARCHETYPES, GeneratorConfig, generate_synthetic
from widir.inference import MatchScores, RankingPayload

DAY0 = dt.date(2025, 1, 1)


def mk_contest(
    contest_id="c1",
    template_id="t1",
    match_id="m1",
    entry_fee=10 * CENTS,
    prize_money=None,
    contest_size=10,
    contest_type=ContestType.PUBLIC,
    tiers=None,
    guaranteed=False,
    multi_entry=False,
) -> ContestSpec:
    if tiers is None:
        total = prize_money if prize_money is not None else 80 * CENTS
        tiers = ((1, 1, total),)
    dist = PrizeDistribution(tuple(tiers))
    if prize_money is None:
        prize_money = dist.total_payout()
    return ContestSpec(
        contest_id=contest_id,
        template_id=template_id,
        match_id=match_id,
        entry_fee=entry_fee,
        prize_money=prize_money,
        contest_size=contest_size,
        contest_type=contest_type,
        prize_distribution=dist,
        guaranteed=guaranteed,
        multi_entry=multi_entry,
    )


def mk_join(player="p1", contest="c1", match="m1", day=DAY0, hour=12, fee=10 * CENTS, prize=0):
    return JoinRecord(
        player_id=player,
        contest_id=contest,
        match_id=match,
        joining_time=day_start(day) + hour * 3600,
        entry_fee_paid=fee,
        prize_won=prize,
    )


def mk_payload(player="p1", match="m1", ranking=(("t2", 2.0), ("t1", 1.0)), generated_at=day_start(DAY0), version="v1"):
    """The payload of a one-player score block whose `ranking` is `ranking`.

    `ranking` lists (template_id, score) best first, with float32 scores;
    an ordering the scores do not give is rejected.
    """
    block = MatchScores(
        match_id=match,
        template_ids=tuple(tid for tid, _ in ranking),
        player_ids=(player,),
        scores=np.array([[score for _, score in ranking]], dtype=np.float32),
        generated_at=generated_at,
        model_version=version,
    )
    payload = RankingPayload(block, 0)
    assert payload.ranking == tuple(ranking), f"{ranking} is not in score order"
    return payload


def stored_days(store: SnapshotStore) -> list[dt.date]:
    """The days `store` holds a committed snapshot of, in order."""
    base = os.path.join(store.root, "days")
    if not os.path.isdir(base):
        return []
    return sorted(d for d in map(parse_day, os.listdir(base)) if store.has_day(d))


@pytest.fixture(scope="session")
def identity_stats():
    return _identity_stats()


@pytest.fixture(scope="session")
def tiny_world():
    """A small but complete synthetic world shared by integration-style tests."""
    config = GeneratorConfig(
        players=250,
        matches=60,
        templates_per_match=25,
        template_pool=32,
        start_day=dt.date(2025, 1, 1),
        end_day=dt.date(2025, 2, 24),
        participation_rate=0.25,
    )
    return generate_synthetic(config, seed=11)

import datetime as dt

import numpy as np
import pytest

from widir.domain import CENTS, MatchRecord, day_start
from widir.evaluation import model_rank
from widir.features import _identity_stats
from widir.inference import (
    RankingPayload,
    active_players,
    read_payloads,
    run_batch,
    write_payloads,
)
from widir.model import WidirDims, init_params

from conftest import DAY0, mk_contest, mk_join
from feature_oracle import snapshot_from


class TestActivePlayers:
    def test_window_boundaries(self):
        as_of = DAY0 + dt.timedelta(days=40)
        joins = [
            mk_join(player="included", day=as_of - dt.timedelta(days=30)),
            mk_join(player="excluded", day=as_of - dt.timedelta(days=31)),
            mk_join(player="same_day", day=as_of),
        ]
        active = active_players(joins, as_of)
        assert active == {"included"}

    def test_empty_log(self):
        assert active_players([], DAY0) == set()


def _setup(n_templates=8, n_players=6):
    dims = WidirDims()
    params = init_params(dims, 0)
    snap = snapshot_from(DAY0, _identity_stats(), {})
    templates = [
        mk_contest(contest_id=f"c{i}", template_id=f"t{i}", match_id="m1",
                   entry_fee=(i + 1) * CENTS, contest_size=10 + i,
                   tiers=((1, 1, (40 + i) * CENTS),))
        for i in range(n_templates)
    ]
    match = MatchRecord("m1", day_start(DAY0) + 15 * 3600, tuple(t.contest_id for t in templates))
    active = {f"p{i}" for i in range(n_players)}
    return params, snap, [(match, templates)], active


class TestRunBatch:
    def test_payload_per_active_player(self):
        params, snap, matches, active = _setup()
        payloads = run_batch(params, snap, matches, active, "v1", day_start(DAY0))
        assert len(payloads) == len(active)
        assert {p.player_id for p in payloads} == active
        assert all(p.match_id == "m1" for p in payloads)
        assert all(len(p.ranking) == 8 for p in payloads)

    def test_no_payload_outside_active_set(self):
        params, snap, matches, _ = _setup()
        payloads = run_batch(params, snap, matches, {"p0"}, "v1", day_start(DAY0))
        assert {p.player_id for p in payloads} == {"p0"}

    def test_ordering_equals_model_rank_exactly(self):
        params, snap, matches, active = _setup()
        payloads = run_batch(params, snap, matches, active, "v1", day_start(DAY0))
        match, templates = matches[0]
        for p in payloads:
            slate = model_rank(params, snap, p.player_id, templates)
            assert p.ranking == slate.ranked

    def test_rerun_bytewise_identical(self, tmp_path):
        params, snap, matches, active = _setup()
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_payloads(a, run_batch(params, snap, matches, active, "v1", day_start(DAY0)))
        write_payloads(b, run_batch(params, snap, matches, active, "v1", day_start(DAY0)))
        assert a.read_bytes() == b.read_bytes()

    def test_payload_file_round_trip(self, tmp_path):
        params, snap, matches, active = _setup(n_players=2)
        payloads = run_batch(params, snap, matches, active, "v2", day_start(DAY0))
        path = tmp_path / "payloads.jsonl"
        write_payloads(path, payloads)
        assert read_payloads(path) == payloads

    def test_failed_payload_write_keeps_previous_file(self, tmp_path):
        params, snap, matches, active = _setup(n_players=2)
        payloads = run_batch(params, snap, matches, active, "v2", day_start(DAY0))
        path = tmp_path / "payloads.jsonl"
        write_payloads(path, payloads)
        before = path.read_bytes()
        unserializable = RankingPayload("p9", "m1", (("t1", 1.0),), object(), "v2")
        with pytest.raises(TypeError):
            write_payloads(path, payloads + [unserializable])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["payloads.jsonl"]

import datetime as dt
import hashlib
import re
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from widir import evaluation
from widir.domain import CENTS, ContestType, day_of, index_contests, match_templates
from widir.errors import DataError
from widir.evaluation import (
    EvalReport,
    GroundTruthScorer,
    ModelScorer,
    PopularityScorer,
    RankedSlate,
    _make_slate,
    evaluate,
    model_rank,
    popularity_rank,
    precision_at,
    recall_at,
    score_players,
)
from widir.features import (
    _identity_stats,
    build_template_block,
    enrich_joins,
    fit_normalization,
    iter_snapshots,
)
from widir.model import WidirDims, forward_batch, init_params

from conftest import DAY0, mk_contest
from feature_oracle import RecentJoin, join_table, snapshot_from


class RandomScorer:
    """A no-skill baseline: seeded random scores, one stream per (player, match)."""

    name = "random"

    def __init__(self, seed: int):
        self.seed = seed

    def rank_players(self, match_id, templates, snapshot, player_ids):
        ids = [t.template_id for t in templates]
        slates = []
        for pid in player_ids:
            digest = hashlib.blake2b(f"{self.seed}|{pid}|{match_id}".encode(), digest_size=8).digest()
            rng = np.random.default_rng(int.from_bytes(digest, "little"))
            slates.append(_make_slate(pid, match_id, ids, rng.random(len(ids)).tolist()))
        return slates


class _BlankSnapshots:
    def __init__(self, stats):
        self.stats = stats

    def get(self, day):
        return snapshot_from(day, self.stats, {})


class TestPopularityRank:
    def test_sorts_by_prize_descending(self):
        contests = [
            mk_contest(contest_id="a", template_id="tA", prize_money=100 * CENTS,
                       tiers=((1, 1, 100 * CENTS),)),
            mk_contest(contest_id="b", template_id="tB", prize_money=10**6 * CENTS,
                       tiers=((1, 1, 10**6 * CENTS),)),
            mk_contest(contest_id="c", template_id="tC", prize_money=5000 * CENTS,
                       tiers=((1, 1, 5000 * CENTS),)),
        ]
        slate = popularity_rank(contests)
        assert [t for t, _ in slate.ranked] == ["tB", "tC", "tA"]

    def test_ties_break_lexically(self):
        contests = [
            mk_contest(contest_id="x", template_id="tZ"),
            mk_contest(contest_id="y", template_id="tA"),
        ]
        slate = popularity_rank(contests)
        assert [t for t, _ in slate.ranked] == ["tA", "tZ"]

    def test_single_contest(self):
        slate = popularity_rank([mk_contest(template_id="only")])
        assert [t for t, _ in slate.ranked] == ["only"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            popularity_rank([])


class TestModelRank:
    dims = WidirDims()

    def _snapshot(self):
        return snapshot_from(DAY0, _identity_stats(), {})

    def test_duplicate_templates_rejected(self):
        params = init_params(self.dims, 0)
        contests = [mk_contest(contest_id="a", template_id="t1"),
                    mk_contest(contest_id="b", template_id="t1")]
        with pytest.raises(DataError, match="duplicate"):
            model_rank(params, self._snapshot(), "p1", contests)

    def test_cold_player_gets_full_slate(self):
        params = init_params(self.dims, 0)
        contests = [mk_contest(contest_id=f"c{i}", template_id=f"t{i}") for i in range(5)]
        slate = model_rank(params, self._snapshot(), "unseen", contests)
        assert len(slate.ranked) == 5
        assert {t for t, _ in slate.ranked} == {f"t{i}" for i in range(5)}

    def test_order_is_argsort_of_forward_scores(self):
        params = init_params(self.dims, 1)
        contests = [
            mk_contest(contest_id=f"c{i}", template_id=f"t{i}", entry_fee=(i + 1) * CENTS,
                       contest_size=10 + i, tiers=((1, 1, (50 + i) * CENTS),))
            for i in range(6)
        ]
        snap = self._snapshot()
        slate = model_rank(params, snap, "p1", contests)
        scores = dict(slate.ranked)
        ordered = [s for _, s in slate.ranked]
        assert ordered == sorted(ordered, reverse=True)
        # recompute one template's score through the public forward path
        block = build_template_block(contests, snap.stats)
        p = np.repeat(snap.player_rows(["p1"]), 6, axis=0)
        inter = block.interaction_matrix(snap, ["p1"])[0]
        expect = forward_batch(params, p, block.contest_matrix, inter)
        for tid, s in zip(block.template_ids, expect):
            assert scores[tid] == float(s)

    def test_score_players_rows_are_each_players_own_forward(self):
        params = init_params(self.dims, 3)
        rng = np.random.default_rng(5)
        contests = [
            mk_contest(contest_id=f"c{i}", template_id=f"t{i}", entry_fee=(i + 1) * CENTS,
                       contest_type=[ContestType.PUBLIC, ContestType.MEGA][i % 2])
            for i in range(4)
        ]
        recents = {
            pid: [RecentJoin(DAY0 - dt.timedelta(days=d), f"t{d}", ContestType.MEGA, d, 0, d, d)]
            for pid, d in (("a", 1), ("b", 3))
        }
        players = {pid: rng.standard_normal(self.dims.d_p).astype(np.float32) for pid in ("a", "b")}
        snap = snapshot_from(DAY0, _identity_stats(), players, recents)
        block = build_template_block(contests, snap.stats)
        ids = ["b", "cold", "a"]
        scores = score_players(params, snap, block, ids)
        assert scores.shape == (3, 4)
        for pid, row in zip(ids, scores):
            alone = forward_batch(
                params,
                np.repeat(snap.player_rows([pid]), 4, axis=0),
                block.contest_matrix,
                block.interaction_matrix(snap, [pid])[0],
            )
            assert row.tobytes() == alone.tobytes()
        assert scores[0].tobytes() != scores[2].tobytes()


class TestRankPlayers:
    """`ModelScorer.rank_players` against one `model_rank` call per player."""

    dims = WidirDims()
    known = [f"p{i:04d}" for i in range(600)]
    pool = known + [f"cold{i}" for i in range(20)]

    @pytest.fixture(scope="class")
    def setting(self):
        rng = np.random.default_rng(9)
        types = [ContestType.PUBLIC, ContestType.SPECIAL, ContestType.MEGA]
        contests = [
            mk_contest(contest_id=f"c{i}", template_id=f"t{i}", entry_fee=(i + 1) * CENTS,
                       contest_size=10 + i, contest_type=types[i % 3], tiers=((1, 1, (40 + i) * CENTS),))
            for i in range(6)
        ]
        players = {pid: rng.standard_normal(self.dims.d_p).astype(np.float32) for pid in self.known}
        recents = {
            pid: [RecentJoin(DAY0 - dt.timedelta(days=1 + k % 5), f"t{k % 8}", types[k % 3],
                             k % 8, (k // 3) % 8, (k // 7) % 8, 1 + k % 3)]
            for k, pid in enumerate(self.known) if k % 4
        }
        return init_params(self.dims, 4), snapshot_from(DAY0, _identity_stats(), players, recents), contests

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 40))
    @example(seed=0, size=600)  # more than two 256-player chunks, scored on the pool
    def test_equals_per_player_model_rank(self, setting, seed, size):
        params, snap, contests = setting
        rng = np.random.default_rng(seed)
        ids = [str(pid) for pid in rng.permutation(self.pool)[:size]]
        ids.insert(int(rng.integers(0, len(ids) + 1)), "never-seen")
        slates = ModelScorer(params).rank_players("m1", contests, snap, ids)
        assert [s.player_id for s in slates] == ids
        for pid, slate in zip(ids, slates):
            alone = model_rank(params, snap, pid, contests)
            assert [(t, v.hex()) for t, v in slate.ranked] == [(t, v.hex()) for t, v in alone.ranked]
            assert slate == alone


class TestScoreMatrixPool:
    """`ModelScorer.score_matrix` over small chunks on a thread pool against one `score_players` call."""

    @pytest.fixture(scope="class")
    def setting(self, tiny_world):
        by_id = index_contests(tiny_world.contests)
        by_match = match_templates(tiny_world.contests)
        match_days = {m.match_id: day_of(m.start_time) for m in tiny_world.matches}
        match_id = tiny_world.matches[-1].match_id
        events = enrich_joins(tiny_world.joins, by_id)
        stats = fit_normalization(events, by_match, match_days)
        ((_, snapshot),) = iter_snapshots(events, [match_days[match_id]], stats)
        players = sorted(set(tiny_world.archetypes))  # the snapshot's players and cold ones
        return init_params(WidirDims(), 5), snapshot, by_match[match_id], players

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("size", [0, 1, 7, 15])
    def test_equals_one_score_players_call(self, setting, monkeypatch, workers, size):
        params, snapshot, templates, players = setting
        monkeypatch.setattr(evaluation, "_SCORE_CHUNK", 7)
        monkeypatch.setattr(evaluation, "_workers", lambda: workers)
        ids = players[:size]
        template_ids, scores = ModelScorer(params).score_matrix(templates, snapshot, ids)
        block = build_template_block(templates, snapshot.stats)
        whole = score_players(params, snapshot, block, ids)
        assert template_ids == block.template_ids
        assert (scores.dtype, scores.shape) == (np.float32, (size, len(templates)))
        assert scores.tobytes() == whole.tobytes()

    def test_error_in_second_chunk_propagates(self, setting, monkeypatch):
        params, snapshot, templates, players = setting
        monkeypatch.setattr(evaluation, "_SCORE_CHUNK", 7)
        monkeypatch.setattr(evaluation, "_workers", lambda: 3)
        ids = players[:21]
        real = evaluation.score_players

        def failing(params, snapshot, block, chunk):
            if chunk[0] == ids[7]:
                raise DataError("second chunk failed")
            return real(params, snapshot, block, chunk)

        monkeypatch.setattr(evaluation, "score_players", failing)
        before = threading.active_count()
        with pytest.raises(DataError, match="second chunk failed"):
            ModelScorer(params).score_matrix(templates, snapshot, ids)
        assert threading.active_count() == before


class TestMetricFormulas:
    def _slate(self, ids):
        return RankedSlate("p", "m", tuple((t, float(-i)) for i, t in enumerate(ids)))

    def test_hand_case(self):
        slate = self._slate(["A", "B", "C"])
        assert precision_at(slate, {"B", "D"}, 3) == pytest.approx(1 / 3)
        assert recall_at(slate, {"B", "D"}, 3) == pytest.approx(1 / 2)

    def test_perfect_case(self):
        slate = self._slate(["A", "B", "C"])
        joined = {"A", "B", "C"}
        assert precision_at(slate, joined, 3) == 1.0
        assert recall_at(slate, joined, 3) == 1.0

    def test_h_beyond_slate_length(self):
        slate = self._slate(["A", "B"])
        # recommended set is the whole slate; precision still divides by h
        assert precision_at(slate, {"A", "B"}, 5) == pytest.approx(2 / 5)
        assert recall_at(slate, {"A", "B"}, 5) == 1.0

    def test_recall_rejects_empty_joined(self):
        with pytest.raises(ValueError):
            recall_at(self._slate(["A"]), set(), 1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 29), st.data())
    def test_recall_monotone_and_bounds(self, n, j, data):
        ids = [f"t{i}" for i in range(n)]
        slate = self._slate(ids)
        joined = set(data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=max(1, j or 1))))
        values = [recall_at(slate, joined, h) for h in (1, 3, 5, 10)]
        assert values == sorted(values)
        for h in (1, 3, 5, 10):
            p = precision_at(slate, joined, h)
            assert 0.0 <= p <= 1.0
            assert p * h <= len(joined) + 1e-9


class TestEvaluate:
    def _two_template_world(self, n_players):
        contests = [
            mk_contest(contest_id="cA", template_id="tA", match_id="m1"),
            mk_contest(contest_id="cB", template_id="tB", match_id="m1",
                       entry_fee=20 * CENTS, tiers=((1, 1, 160 * CENTS),)),
        ]
        by_match = match_templates(contests)
        events = []
        rng = np.random.default_rng(0)
        from test_training import ev

        for i in range(n_players):
            tpl = "tA" if rng.random() < 0.5 else "tB"
            events.append(ev(DAY0, f"p{i:04d}", "m1", tpl))
        return events, by_match

    def test_random_scorer_recall_at_1_is_half(self):
        events, by_match = self._two_template_world(2500)
        report = evaluate(
            RandomScorer(seed=3), join_table(events), by_match, {"m1": DAY0},
            _BlankSnapshots(_identity_stats()), (1,),
        )
        assert report.n_pairs == 2500
        assert report.recall[1] == pytest.approx(0.5, abs=0.05)

    def test_deterministic_and_order_invariant(self):
        events, by_match = self._two_template_world(300)
        snapshots = _BlankSnapshots(_identity_stats())
        a = evaluate(RandomScorer(7), join_table(events), by_match, {"m1": DAY0}, snapshots)
        b = evaluate(RandomScorer(7), join_table(list(reversed(events))), by_match, {"m1": DAY0}, snapshots)
        assert a.to_text() == b.to_text()

    def test_ground_truth_beats_popularity(self, tiny_world):
        by_id = index_contests(tiny_world.contests)
        by_match = match_templates(tiny_world.contests)
        match_days = {m.match_id: day_of(m.start_time) for m in tiny_world.matches}
        cut = tiny_world.matches[int(len(tiny_world.matches) * 0.8)].start_time
        test_events = enrich_joins(
            [r for r in tiny_world.joins if r.joining_time >= cut], by_id
        )
        snapshots = _BlankSnapshots(_identity_stats())
        truth = evaluate(GroundTruthScorer(tiny_world.archetypes), test_events, by_match,
                         match_days, snapshots)
        pop = evaluate(PopularityScorer(), test_events, by_match, match_days, snapshots)
        assert truth.recall[10] > pop.recall[10]
        assert truth.n_pairs == pop.n_pairs

    def test_model_scorer_report_equals_per_player_model_rank(self, tiny_world, monkeypatch):
        by_id = index_contests(tiny_world.contests)
        by_match = match_templates(tiny_world.contests)
        match_days = {m.match_id: day_of(m.start_time) for m in tiny_world.matches}
        cut = tiny_world.matches[int(len(tiny_world.matches) * 0.8)].start_time
        train = enrich_joins([r for r in tiny_world.joins if r.joining_time < cut], by_id)
        test_events = enrich_joins([r for r in tiny_world.joins if r.joining_time >= cut], by_id)
        stats = fit_normalization(train, by_match, match_days)
        days = sorted({match_days[mid] for mid in test_events.match_id.tolist()})
        snapshots = dict(iter_snapshots(enrich_joins(tiny_world.joins, by_id), days, stats))
        params = init_params(WidirDims(), 3)

        class PerPlayerScorer:
            name = "widir"

            def rank_players(self, match_id, templates, snapshot, player_ids):
                return [model_rank(params, snapshot, pid, templates) for pid in player_ids]

        calls = []
        score_players = evaluation.score_players
        monkeypatch.setattr(evaluation, "score_players", lambda *a: calls.append(a) or score_players(*a))
        batched = evaluate(ModelScorer(params), test_events, by_match, match_days, snapshots)
        test_matches = set(test_events.match_id.tolist())
        # one scoring call per test match: each has fewer than 256 test players,
        # so its one chunk is scored inline
        assert len(calls) == len(test_matches) < batched.n_pairs
        per_player = evaluate(PerPlayerScorer(), test_events, by_match, match_days, snapshots)
        assert batched == per_player
        assert batched.to_text() == per_player.to_text()

    def test_report_text_round_trip(self):
        report = EvalReport(model="x", n_pairs=7,
                            precision={1: 0.25, 3: 0.125}, recall={1: 0.5, 3: 0.75})
        again = EvalReport.from_text(report.to_text())
        assert again == report

    @pytest.mark.parametrize("text, named", [
        ("precision@1 = 0.2\nprecision@5 = 0.1\nrecall@1 = 0.9\nrecall@5 = 0.5\n",
         "recall not non-decreasing between h=1 and h=5"),
        ("precision@1 = 0.2\nrecall@1 = 0.3\nrecall@5 = 0.5\n", "precision at h=[1] but recall at h=[1, 5]"),
    ], ids=["falling-recall", "unpaired-recall"])
    def test_report_text_breaking_a_rule_is_data_error(self, text, named):
        with pytest.raises(DataError, match=re.escape(f"eval report: {named}")):
            EvalReport.from_text("model = x\nn_pairs = 7\n" + text)

    def test_missing_match_is_error(self):
        events, _ = self._two_template_world(5)
        with pytest.raises(DataError, match="m1"):
            evaluate(RandomScorer(0), join_table(events), {}, {"m1": DAY0},
                     _BlankSnapshots(_identity_stats()))

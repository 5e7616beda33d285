import datetime as dt
import math

import numpy as np
import pytest

from widir.abtest import (
    ABConfig,
    PayloadScorer,
    assign_cohorts,
    ab_report_text,
    delta,
    simulate_period,
)
from widir.domain import MatchRecord, day_start
from widir.errors import ConfigError
from widir.evaluation import GroundTruthScorer, PopularityScorer
from widir.generator import GeneratorConfig, PlayerArchetype, build_template_pool

from conftest import DAY0, mk_payload


def _players(n):
    return [f"p{i:05d}" for i in range(n)]


def _activity(players, seed=0):
    rng = np.random.default_rng(seed)
    return {p: int(rng.integers(0, 200)) for p in players}


class TestAssignCohorts:
    def test_four_quarter_groups_balanced(self):
        players = _players(10_000)
        activity = _activity(players)
        sizes = {"CG": 2500, "TG1": 2500, "TG2": 2500, "TG3": 2500}
        a = assign_cohorts(players, activity, sizes, seed=5)
        all_assigned = [p for g in a.groups.values() for p in g]
        assert len(all_assigned) == 10_000
        assert len(set(all_assigned)) == 10_000  # disjoint and exhaustive
        for g, size in sizes.items():
            assert len(a.groups[g]) == size
        # decile balance within 1% across groups
        order = sorted(players, key=lambda p: (activity[p], p))
        decile = {p: i * 10 // len(order) for i, p in enumerate(order)}
        shares = {
            g: np.bincount([decile[p] for p in a.groups[g]], minlength=10) / len(a.groups[g])
            for g in sizes
        }
        for d in range(10):
            values = [shares[g][d] for g in sizes]
            assert max(values) - min(values) <= 0.01

    def test_deterministic_per_seed(self):
        players = _players(1000)
        activity = _activity(players)
        sizes = {"CG": 300, "TG1": 300}
        a = assign_cohorts(players, activity, sizes, seed=9)
        b = assign_cohorts(players, activity, sizes, seed=9)
        c = assign_cohorts(players, activity, sizes, seed=10)
        assert a.groups == b.groups
        assert a.groups != c.groups

    def test_oversubscribed_rejected(self):
        players = _players(10)
        with pytest.raises(ConfigError, match="11"):
            assign_cohorts(players, {}, {"CG": 6, "TG1": 5}, seed=0)


class TestDelta:
    def test_hand_cases(self):
        assert delta(100, 100, 110, 100) == pytest.approx(0.10)
        assert delta(100, 100, 100, 100) == 0.0
        assert delta(120, 100, 120, 100) == 0.0  # pre-existing imbalance cancels

    def test_scale_invariance(self):
        base = delta(120, 100, 150, 110)
        assert delta(120 * 7, 100 * 7, 150 * 7, 110 * 7) == pytest.approx(base)

    def test_equal_ratios_yield_zero(self):
        assert delta(150, 100, 300, 200) == pytest.approx(0.0)

    def test_zero_control_rejected(self):
        with pytest.raises(ValueError):
            delta(100, 0, 100, 100)


def _sim_world(n_players=400, n_matches=16):
    config = GeneratorConfig(
        players=n_players, matches=n_matches, templates_per_match=15, template_pool=20,
        start_day=DAY0, end_day=DAY0 + dt.timedelta(days=45),
    )
    pool = build_template_pool(config)
    matches = []
    for i in range(n_matches):
        templates = pool[:15]
        matches.append(
            (
                MatchRecord(f"m{i:03d}", day_start(DAY0 + dt.timedelta(days=i)) + 15 * 3600,
                            tuple(t.template_id for t in templates)),
                templates,
            )
        )
    players = _players(n_players)
    archetypes = {}
    for i, p in enumerate(players):
        if i % 2 == 0:
            archetypes[p] = PlayerArchetype(math.log(2.0), 3.0, 0.8, 0.3, 0.3, 1.5, 0.2)
        else:
            archetypes[p] = PlayerArchetype(math.log(60.0), 2.5, 0.1, 0.1, 0.05, 1.5, 0.4)
    assignment = assign_cohorts(players, {p: i for i, p in enumerate(players)},
                                {"CG": n_players // 2, "TG1": n_players // 2}, seed=3)
    return matches, archetypes, assignment


class TestSimulatePeriod:
    def test_empty_schedule_zero_aggregates(self):
        _, archetypes, assignment = _sim_world()
        aggs, joins = simulate_period(
            assignment, {"TG1": PopularityScorer()}, [], archetypes, 0.3, "pre", seed=0
        )
        assert joins == []
        for agg in aggs.values():
            assert (agg.cj, agg.cea, agg.ggr) == (0, 0, 0)

    def test_missing_policy_rejected(self):
        matches, archetypes, assignment = _sim_world()
        with pytest.raises(ConfigError, match="TG1"):
            simulate_period(assignment, {}, matches, archetypes, 0.3, "post", seed=0)

    def test_ggr_conservation_exact(self):
        matches, archetypes, assignment = _sim_world()
        aggs, joins = simulate_period(
            assignment, {"TG1": GroundTruthScorer(archetypes)}, matches, archetypes,
            0.3, "post", seed=1, boost=2.0, h_exposed=5,
        )
        for g, agg in aggs.items():
            fees = sum(j.entry_fee for j in joins if j.group == g)
            prizes = sum(j.prize_won for j in joins if j.group == g)
            assert agg.cea == fees
            assert agg.cj == sum(1 for j in joins if j.group == g)
            assert agg.ggr == fees - prizes
            assert agg.ggr <= agg.cea

    def test_relevant_boost_raises_joins(self):
        matches, archetypes, assignment = _sim_world()
        aggs, _ = simulate_period(
            assignment, {"TG1": GroundTruthScorer(archetypes)}, matches, archetypes,
            0.3, "post", seed=2, boost=2.0, h_exposed=5,
        )
        assert aggs["TG1"].cj > aggs["CG"].cj * 1.1

    def test_unit_boost_is_null(self):
        matches, archetypes, assignment = _sim_world()
        deltas = []
        for seed in range(6):
            common = dict(
                assignment=assignment, policies={"TG1": PopularityScorer()},
                archetypes=archetypes, participation_rate=0.3, seed=seed,
                boost=1.0, h_exposed=5,
            )
            pre, _ = simulate_period(matches=matches[:8], period="pre", **common)
            post, _ = simulate_period(matches=matches[8:], period="post", **common)
            deltas.append(
                delta(pre["TG1"].cj, pre["CG"].cj, post["TG1"].cj, post["CG"].cj)
            )
        mean = float(np.mean(deltas))
        spread = float(np.std(deltas, ddof=1)) / math.sqrt(len(deltas))
        assert abs(mean) <= max(3 * spread, 0.05)

    def test_pre_period_never_boosts(self):
        matches, archetypes, assignment = _sim_world()
        common = dict(
            assignment=assignment, archetypes=archetypes, participation_rate=0.3,
            seed=4, boost=5.0, h_exposed=5,
        )
        a, _ = simulate_period(matches=matches, period="pre",
                               policies={"TG1": GroundTruthScorer(archetypes)}, **common)
        b, _ = simulate_period(matches=matches, period="pre",
                               policies={"TG1": PopularityScorer()}, **common)
        # pre-period behavior is identical whatever the policy is
        assert (a["TG1"].cj, a["TG1"].cea) == (b["TG1"].cj, b["TG1"].cea)
        assert (a["CG"].cj, a["CG"].cea) == (b["CG"].cj, b["CG"].cea)


class TestPayloadScorer:
    def test_ranks_by_payload_and_falls_back_to_popularity(self):
        matches, _, _ = _sim_world()
        match, templates = matches[0]
        ids = sorted(t.template_id for t in templates)
        ranking = tuple((tid, float(len(ids) - i)) for i, tid in enumerate(reversed(ids)))
        scorer = PayloadScorer([mk_payload("p1", match.match_id, ranking)])
        cold, slate = scorer.rank_players(match.match_id, templates, None, ["p2", "p1"])
        assert slate.player_id == "p1"
        assert slate.ranked == ranking
        assert slate.top(2) == list(reversed(ids))[:2]
        assert [cold] == PopularityScorer().rank_players(match.match_id, templates, None, ["p2"])


class TestABConfig:
    def test_parse_and_validate(self):
        config = ABConfig.from_kv_dict(
            {
                "group.CG": "100", "group.TG1": "100", "policy.TG1": "popularity",
                "boost": "1.5", "h_exposed": "4", "pre_days": "7", "post_days": "7",
                "seed": "3",
            }
        )
        assert config.group_sizes == {"CG": 100, "TG1": 100}
        assert config.boost == 1.5

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="frequency"):
            ABConfig.from_kv_dict({"group.CG": "10", "frequency": "2"})

    def test_missing_policy_rejected(self):
        with pytest.raises(ConfigError, match="TG1"):
            ABConfig.from_kv_dict({"group.CG": "10", "group.TG1": "10"})

    @pytest.mark.parametrize("size", ["abc", "1.5", ""])
    def test_non_integer_group_size_is_config_error(self, size):
        with pytest.raises(ConfigError):
            ABConfig.from_kv_dict({"group.CG": size})

    @pytest.mark.parametrize("boost", ["nan", "inf", "-inf", "0", "-1", "x"])
    def test_bad_boost_is_config_error(self, boost):
        with pytest.raises(ConfigError):
            ABConfig.from_kv_dict({"group.CG": "10", "boost": boost})

    def test_report_contains_deltas(self):
        matches, archetypes, assignment = _sim_world(n_players=200, n_matches=6)
        common = dict(
            assignment=assignment, policies={"TG1": PopularityScorer()},
            archetypes=archetypes, participation_rate=0.3, seed=0,
            boost=2.0, h_exposed=5,
        )
        pre, _ = simulate_period(matches=matches[:3], period="pre", **common)
        post, _ = simulate_period(matches=matches[3:], period="post", **common)
        text = ab_report_text(pre, post)
        assert "delta.TG1.CJ" in text
        assert "CJ.CG.pre" in text
        assert "GGR.TG1.post" in text

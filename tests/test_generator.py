import datetime as dt
import math

import numpy as np
import pytest

from widir.domain import (
    ContestType,
    day_of,
    index_contests,
    validate_catalog,
    validate_contest,
)
from widir.errors import ConfigError
from widir.generator import (
    ArchetypeSpec,
    DEFAULT_ARCHETYPES,
    GeneratorConfig,
    PlayerArchetype,
    archetype_utilities,
    build_template_pool,
    generate_synthetic,
    read_archetypes,
    template_stats,
)

START = dt.date(2025, 1, 1)
END_50 = dt.date(2025, 2, 19)  # 50 days inclusive


def small_config(**overrides):
    base = dict(
        players=120,
        matches=45,
        templates_per_match=20,
        template_pool=28,
        start_day=START,
        end_day=END_50,
        participation_rate=0.3,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


def mixture_mean_rate(config):
    """The archetype mixture's weighted mean activity rate."""
    total = sum(a.weight for a in config.archetypes)
    return sum(a.weight * a.base.activity_rate for a in config.archetypes) / total


def expected_joins(config):
    return config.players * config.matches * config.participation_rate * mixture_mean_rate(config)


class TestConfig:
    def test_short_date_range_rejected(self):
        with pytest.raises(ConfigError, match="40 days"):
            small_config(end_day=START + dt.timedelta(days=38))

    def test_empty_template_catalog_rejected(self):
        with pytest.raises(ConfigError):
            small_config(templates_per_match=0)

    def test_kv_round_trip(self):
        config = small_config()
        again = GeneratorConfig.from_kv_dict(config.to_kv_dict())
        assert again == config

    def test_unknown_key_rejected_by_name(self):
        kv = small_config().to_kv_dict()
        kv["warp_speed"] = "9"
        with pytest.raises(ConfigError, match="warp_speed"):
            GeneratorConfig.from_kv_dict(kv)

    def test_unknown_archetype_field_rejected(self):
        kv = small_config().to_kv_dict()
        kv["archetype.casual.charisma"] = "11"
        with pytest.raises(ConfigError, match="charisma"):
            GeneratorConfig.from_kv_dict(kv)

    def test_archetype_bounds(self):
        with pytest.raises(ConfigError):
            PlayerArchetype(0.0, 1.0, 0.5, 0.5, 0.1, 25.0, 0.1)
        with pytest.raises(ConfigError):
            PlayerArchetype(0.0, -1.0, 0.5, 0.5, 0.1, 1.0, 0.1)


class TestTemplatePool:
    def test_every_template_valid(self):
        pool = build_template_pool(small_config())
        assert len(pool) == 28
        import dataclasses

        for proto in pool:
            assert validate_contest(dataclasses.replace(proto, match_id="m")) == []

    def test_mega_is_first_and_largest(self):
        pool = build_template_pool(small_config(template_pool=72))
        assert pool[0].contest_type is ContestType.MEGA
        assert all(
            t.prize_money < pool[0].prize_money for t in pool[1:]
        )
        assert sum(1 for t in pool if t.contest_type is ContestType.MEGA) == 1


class TestGenerateSynthetic:
    def test_deterministic_bytes(self, tmp_path):
        config = small_config()
        a = generate_synthetic(config, 7)
        b = generate_synthetic(config, 7)
        assert a.joins == b.joins
        assert a.contests == b.contests
        assert a.matches == b.matches
        assert a.archetypes == b.archetypes
        a.write_dir(tmp_path / "a")
        b.write_dir(tmp_path / "b")
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == ["archetypes.csv", "contests.csv", "joins.csv", "matches.csv"]
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_different_seeds_differ(self):
        config = small_config()
        a = generate_synthetic(config, 7)
        b = generate_synthetic(config, 8)
        assert a.joins != b.joins

    def test_referential_integrity_and_mega(self, tiny_world):
        assert validate_catalog(tiny_world.contests, tiny_world.matches) == []
        by_id = index_contests(tiny_world.contests)
        match_ids = {m.match_id for m in tiny_world.matches}
        for r in tiny_world.joins:
            assert r.contest_id in by_id
            assert r.match_id in match_ids
            assert by_id[r.contest_id].entry_fee == r.entry_fee_paid
        for m in tiny_world.matches:
            megas = {
                by_id[c].template_id
                for c in m.contest_ids
                if by_id[c].contest_type is ContestType.MEGA
            }
            assert len(megas) == 1

    def test_joins_precede_match_start(self, tiny_world):
        starts = {m.match_id: m.start_time for m in tiny_world.matches}
        for r in tiny_world.joins:
            assert r.joining_time < starts[r.match_id]
            assert day_of(r.joining_time) == day_of(starts[r.match_id])

    def test_zero_activity_rate_empty_log(self):
        lazy = ArchetypeSpec(
            "lazy", 1.0, 0.0, PlayerArchetype(math.log(10), 1.0, 0.5, 0.5, 0.1, 0.0, 0.1)
        )
        world = generate_synthetic(small_config(archetypes=(lazy,)), 5)
        assert world.joins == []

    def test_fee_obsessed_archetype_joins_nearest_fee(self):
        focused = ArchetypeSpec(
            "focused",
            1.0,
            0.0,
            PlayerArchetype(math.log(10.0), 50.0, 0.0, 0.0, 0.0, 2.0, 0.3),
        )
        config = small_config(players=50, archetypes=(focused,), participation_rate=0.5)
        world = generate_synthetic(config, 3)
        assert len(world.joins) > 300
        # the nearest fee (in log distance, as the utility measures) per match
        from widir.domain import match_templates

        nearest = {}
        for match_id, templates in match_templates(world.contests).items():
            fees = {t.entry_fee for t in templates}
            nearest[match_id] = min(fees, key=lambda f: abs(math.log(max(f, 1) / 100) - math.log(10.0)))
        hits = sum(1 for r in world.joins if r.entry_fee_paid == nearest[r.match_id])
        assert hits / len(world.joins) >= 0.95

    def test_join_volume_matches_configured_rate(self):
        config = small_config(players=1250, matches=80, participation_rate=1.0,
                              end_day=START + dt.timedelta(days=79))
        world = generate_synthetic(config, 13)
        opportunities = config.players * config.matches  # >= 1e5
        assert opportunities >= 100_000
        per_opportunity = len(world.joins) / opportunities
        assert per_opportunity == pytest.approx(mixture_mean_rate(config), rel=0.10)
        assert len(world.joins) == pytest.approx(expected_joins(config), rel=0.05)

    def test_instances_regenerate_on_fill(self, tiny_world):
        by_id = index_contests(tiny_world.contests)
        joins_per_instance: dict[str, int] = {}
        for r in tiny_world.joins:
            joins_per_instance[r.contest_id] = joins_per_instance.get(r.contest_id, 0) + 1
        # instance serials per (match, template)
        serials: dict[tuple[str, str], list[str]] = {}
        for c in tiny_world.contests:
            serials.setdefault((c.match_id, c.template_id), []).append(c.contest_id)
        regenerated = {k: v for k, v in serials.items() if len(v) > 1}
        assert regenerated, "expected at least one filled-and-regenerated contest"
        for (match_id, template_id), ids in regenerated.items():
            size = by_id[ids[0]].contest_size
            for cid in ids[:-1]:  # every instance but the open one filled exactly
                assert joins_per_instance.get(cid, 0) == size

    def test_archetype_table_round_trip(self, tmp_path, tiny_world):
        tiny_world.write_dir(tmp_path / "world")
        loaded = read_archetypes(tmp_path / "world" / "archetypes.csv")
        assert loaded == tiny_world.archetypes


class TestChoiceModel:
    def test_utilities_prefer_matching_fee(self):
        pool = build_template_pool(small_config())
        ts = template_stats(pool)
        arch = PlayerArchetype(math.log(10.0), 5.0, 0.0, 0.0, 0.0, 1.0, 0.0)
        utils = archetype_utilities(arch, ts)
        best = int(np.argmax(utils))
        fees = [t.entry_fee for t in pool]
        assert abs(math.log(fees[best] / 100) - math.log(10.0)) == pytest.approx(
            min(abs(math.log(f / 100) - math.log(10.0)) for f in fees)
        )

    def test_size_score_normalized(self):
        pool = build_template_pool(small_config())
        ts = template_stats(pool)
        assert ts.size_score.min() == 0.0 and ts.size_score.max() == 1.0

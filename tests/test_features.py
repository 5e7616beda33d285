import datetime as dt
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from widir.domain import CENTS, ContestType, day_of, day_start, match_templates, index_contests
from widir.errors import DataError, StoreError
from widir.features import (
    D_C,
    D_I,
    D_P,
    DAYS_SINCE_CAP,
    INTERACTION_Z_MASK,
    JoinTable,
    NormalizationStats,
    PLAYER_WINDOWS,
    SnapshotCache,
    SnapshotStore,
    _JoinColumns,
    _TYPE_INDEX,
    _identity_stats,
    _normalize,
    build_template_block,
    cold_start_player_raw,
    cold_start_player_row,
    contest_features_raw,
    enrich_joins,
    fit_normalization,
    iter_snapshots,
    quantile_edges,
)

from conftest import DAY0, mk_contest, mk_join, stored_days
import feature_oracle
from feature_oracle import (
    JoinEvent,
    bucket_of,
    build_recent_hists,
    build_snapshot,
    expand,
    join_table,
    recent_joins,
    snapshot_from,
)

UTC_TYPES = [ContestType.PUBLIC, ContestType.SPECIAL, ContestType.MEGA]


def player_features_raw(history, as_of_day, stats):
    """One player's raw row through the day-sweep kernel, whatever player ids `history` carries."""
    columns = _JoinColumns(join_table([e._replace(player_id="") for e in history]), stats)
    return columns.player_rows(columns.codes([""]), as_of_day)[0]


def contest_row(spec, stats):
    """One template's normalized contest row, as its match's TemplateBlock holds it."""
    return build_template_block([spec], stats).contest_matrix[0]


def ev(
    day,
    player="p1",
    match="m1",
    template="t1",
    ctype=ContestType.PUBLIC,
    fee=10 * CENTS,
    prize=0,
    size=10,
    pool=90 * CENTS,
    guaranteed=False,
    multi=False,
    hour=12,
):
    return JoinEvent(
        time=day_start(day) + hour * 3600,
        day=day,
        player_id=player,
        match_id=match,
        template_id=template,
        contest_type=ctype,
        entry_fee=fee,
        prize_won=prize,
        contest_size=size,
        prize_money=pool,
        guaranteed=guaranteed,
        multi_entry=multi,
    )


def oracle_player_vector(events, as_of_day, stats):
    """Independent reference: direct loops over the documented layout."""
    past = [e for e in events if e.day < as_of_day]
    vec = []
    for k in PLAYER_WINDOWS:
        window = [e for e in past if (as_of_day - e.day).days <= k]
        n = len(window)
        if n == 0:
            vec.extend([0.0] * 32)
            continue
        fees = [e.entry_fee / CENTS for e in window]
        prizes = [e.prize_won / CENTS for e in window]
        block = [
            float(n),
            float(len({e.contest_type for e in window})),
            float(len({e.contest_size for e in window})),
            float(len({e.entry_fee for e in window})),
            sum(fees) / n,
            max(fees),
            sum(prizes) / n,
            max(prizes),
            sum(fees),
            sum(1 for e in window if e.prize_won > 0) / n,
            float(len({e.match_id for e in window})),
            float(sum(1 for e in window if e.multi_entry)),
            float(sum(1 for e in window if e.guaranteed)),
        ]
        for t in UTC_TYPES:
            block.append(float(sum(1 for e in window if e.contest_type is t)))
        for b in range(8):
            block.append(float(sum(1 for e in window if bucket_of(e.entry_fee, stats.fee_edges) == b)))
        for b in range(8):
            block.append(float(sum(1 for e in window if bucket_of(e.contest_size, stats.size_edges) == b)))
        vec.extend(block)
    if not past:
        vec.extend([DAYS_SINCE_CAP] + [0.0] * 10)
    else:
        n = len(past)
        fees = [e.entry_fee / CENTS for e in past]
        prizes = [e.prize_won / CENTS for e in past]
        vec.extend(
            [
                min(float((as_of_day - max(e.day for e in past)).days), DAYS_SINCE_CAP),
                float(n),
                float(len({e.contest_type for e in past})),
                sum(fees) / n,
                max(fees),
                sum(fees),
                sum(prizes) / n,
                max(prizes),
                sum(1 for e in past if e.prize_won > 0) / n,
                float(len({e.match_id for e in past})),
                sum(1 for e in past if e.multi_entry) / n,
            ]
        )
    return np.asarray(vec)


class TestQuantileEdges:
    def test_uniform_sample_gives_near_equal_mass(self):
        values = np.arange(1, 801)
        edges = quantile_edges(values)
        # derived oracle: exact sample quantiles
        expected = np.quantile(values, [k / 8 for k in range(1, 9)])
        np.testing.assert_allclose(edges, expected)
        buckets = [bucket_of(v, edges) for v in values]
        counts = np.bincount(buckets, minlength=8)
        assert counts.min() >= 90 and counts.max() <= 110

    def test_degenerate_sample_stays_strictly_increasing(self):
        edges = quantile_edges([5.0] * 100)
        assert np.all(np.diff(edges) > 0)

    def test_fit_twice_identical(self):
        events = [ev(DAY0 + dt.timedelta(days=d), fee=(d + 1) * CENTS, match=f"m{d}") for d in range(10)]
        by_match = {f"m{d}": [mk_contest(match_id=f"m{d}")] for d in range(10)}
        days = {f"m{d}": DAY0 + dt.timedelta(days=d) for d in range(10)}
        s1 = fit_normalization(join_table(events), by_match, days)
        s2 = fit_normalization(join_table(events), by_match, days)
        for k, v in s1.to_json_dict().items():
            assert v == s2.to_json_dict()[k]

    def test_constant_feature_floors_stddev(self):
        # identical joins -> zero variance on every active count dim
        events = [ev(DAY0 + dt.timedelta(days=d), match=f"m{d}") for d in range(3)]
        by_match = {f"m{d}": [mk_contest(match_id=f"m{d}")] for d in range(3)}
        days = {f"m{d}": DAY0 + dt.timedelta(days=d) for d in range(3)}
        stats = fit_normalization(join_table(events), by_match, days)
        assert np.all(stats.player_std >= 1e-8)
        # a value equal to the mean normalizes to 0 even with the floored std
        constant_dim = np.flatnonzero(stats.player_std == 1e-8)
        assert constant_dim.size > 0


class TestPlayerFeatures:
    def test_empty_history_cold_start(self, identity_stats):
        raw = player_features_raw([], DAY0, identity_stats)
        assert raw.shape == (D_P,)
        np.testing.assert_array_equal(raw, cold_start_player_raw())
        assert raw[96] == DAYS_SINCE_CAP

    def test_single_join_yesterday(self, identity_stats):
        e = ev(DAY0 - dt.timedelta(days=1), fee=10 * CENTS)
        raw = player_features_raw([e], DAY0, identity_stats)
        # total_joins is dim 0 of each 32-wide window block
        assert raw[0] == 1.0 and raw[32] == 1.0 and raw[64] == 1.0
        for base in (0, 32, 64):
            assert raw[base + 9] == 0.0  # win_rate
            assert raw[base + 4] == 10.0  # avg fee in units
        assert raw[96] == 1.0  # days since last join

    def test_six_join_history_matches_hand_oracle(self):
        stats = _identity_stats()
        stats.fee_edges = np.asarray([600.0, 1100, 1600, 2100, 2600, 3100, 3600, 4100])
        stats.size_edges = np.asarray([3.0, 9, 50, 200, 800, 2000, 5000, 10000])
        as_of = dt.date(2025, 1, 11)
        events = [
            ev(dt.date(2025, 1, 1), match="mA", fee=10 * CENTS, size=10),
            ev(dt.date(2025, 1, 4), match="mB", fee=20 * CENTS, prize=50 * CENTS,
               ctype=ContestType.SPECIAL, size=100, multi=True, guaranteed=True),
            ev(dt.date(2025, 1, 8), match="mC", fee=10 * CENTS, size=10),
            ev(dt.date(2025, 1, 9), match="mC", fee=5 * CENTS, prize=15 * CENTS,
               ctype=ContestType.MEGA, size=1000, guaranteed=True),
            ev(dt.date(2025, 1, 10), match="mD", fee=10 * CENTS, size=10),
            ev(dt.date(2025, 1, 10), match="mD", fee=50 * CENTS, size=2, multi=True),
        ]
        raw = player_features_raw(events, as_of, stats)
        np.testing.assert_allclose(raw, oracle_player_vector(events, as_of, stats), atol=0)
        # hand-computed spot values (3-day window: the last 4 joins)
        assert raw[0] == 4.0  # total joins
        assert raw[1] == 2.0  # distinct types: PUBLIC, MEGA
        assert raw[2] == 3.0  # distinct sizes: {2, 10, 1000}
        assert raw[3] == 3.0  # distinct fees: {5, 10, 50}
        assert raw[4] == pytest.approx(18.75)  # avg fee
        assert raw[5] == 50.0
        assert raw[9] == pytest.approx(0.25)  # win rate
        assert raw[10] == 2.0  # distinct matches: mC, mD
        # 7-day window: 5 joins; 30-day: all 6
        assert raw[32] == 5.0 and raw[64] == 6.0
        # lifetime block
        assert raw[96] == 1.0
        assert raw[97] == 6.0
        assert raw[99] == pytest.approx(105 / 6)
        assert raw[104] == pytest.approx(2 / 6)
        assert raw[105] == 4.0  # distinct matches lifetime
        assert raw[106] == pytest.approx(2 / 6)

    def test_normalized_is_clipped_and_finite(self, identity_stats):
        events = [ev(DAY0 - dt.timedelta(days=1), fee=10**6 * CENTS, prize=10**7 * CENTS)]
        (_, snap), = iter_snapshots(join_table(events), [DAY0], identity_stats)
        out = snap.player_rows(["p1"])[0]
        expect = feature_oracle.player_features(events, DAY0, identity_stats).astype(np.float32)
        assert out.tobytes() == expect.tobytes()
        assert np.all(np.isfinite(out))
        assert out.min() >= -10.0 and out.max() <= 10.0


@st.composite
def event_lists(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    events = []
    for i in range(n):
        d = DAY0 + dt.timedelta(days=draw(st.integers(min_value=-40, max_value=5)))
        events.append(
            ev(
                d,
                match=f"m{draw(st.integers(0, 6))}",
                template=f"t{draw(st.integers(0, 5))}",
                ctype=draw(st.sampled_from(UTC_TYPES)),
                fee=draw(st.integers(1, 500)) * CENTS,
                prize=draw(st.sampled_from([0, 0, 0, 500, 12_00])),
                size=draw(st.sampled_from([2, 10, 100, 1000])),
                multi=draw(st.booleans()),
                guaranteed=draw(st.booleans()),
                hour=draw(st.integers(0, 23)),
            )
        )
    return events


class TestPlayerFeatureProperties:
    @settings(max_examples=60, deadline=None)
    @given(event_lists())
    def test_matches_oracle_on_random_histories(self, events):
        stats = _identity_stats()
        stats.fee_edges = np.asarray([100.0, 2500, 7500, 15000, 25000, 35000, 45000, 50000])
        stats.size_edges = np.asarray([2.0, 10, 100, 1000, 2000, 3000, 4000, 5000])
        raw = player_features_raw(events, DAY0, stats)
        np.testing.assert_allclose(raw, oracle_player_vector(events, DAY0, stats), atol=0)

    @settings(max_examples=40, deadline=None)
    @given(event_lists(), st.randoms())
    def test_permutation_invariance(self, events, rnd):
        stats = _identity_stats()
        shuffled = list(events)
        rnd.shuffle(shuffled)
        np.testing.assert_array_equal(
            player_features_raw(events, DAY0, stats),
            player_features_raw(shuffled, DAY0, stats),
        )

    @settings(max_examples=40, deadline=None)
    @given(event_lists())
    def test_no_leakage(self, events):
        stats = _identity_stats()
        visible = [e for e in events if e.day < DAY0]
        np.testing.assert_array_equal(
            player_features_raw(events, DAY0, stats),
            player_features_raw(visible, DAY0, stats),
        )

    @settings(max_examples=40, deadline=None)
    @given(event_lists())
    def test_window_nesting(self, events):
        raw = player_features_raw(events, DAY0, _identity_stats())
        assert raw[0] <= raw[32] <= raw[64]  # total joins per window


def _sweep_stats():
    stats = _identity_stats()
    stats.fee_edges = np.asarray([300.0, 1000, 2500, 5000, 10000, 20000, 30000, 40000])
    stats.size_edges = np.asarray([2.0, 10, 100, 1000, 2000, 3000, 4000, 5000])
    stats.prize_edges = np.asarray([5000.0, 9000, 20000, 50000, 90000, 200000, 500000, 900000])
    return stats


AS_OF = DAY0 + dt.timedelta(days=40)


@st.composite
def multi_player_events(draw):
    """Joins of a few players around AS_OF, drawn to hit the sweep's edge cases.

    Day offsets sit on every window edge (1, 3, 5, 7, 30 days back), one day
    past the 30-day edge, on the as-of day and after it; each player was
    last seen 1, 2, 30, 31 or 45 days before AS_OF. Hours come from three
    values, so joins tie in time; templates and matches come from small
    sets, so a player joins one template several times a day.
    """
    events = []
    for p in range(draw(st.integers(1, 4))):
        last_seen = draw(st.sampled_from([1, 2, 30, 31, 45]))
        offsets = draw(
            st.lists(st.sampled_from([0, -1, 1, 2, 3, 4, 5, 6, 7, 8, 29, 30, 31, 60]), max_size=14)
        )
        for back in [last_seen] + [b for b in offsets if b >= last_seen or b <= 0]:
            events.append(
                ev(
                    AS_OF - dt.timedelta(days=back),
                    player=f"p{p}",
                    match=f"m{draw(st.integers(0, 3))}",
                    template=f"t{draw(st.integers(0, 2))}",
                    ctype=draw(st.sampled_from(UTC_TYPES)),
                    fee=draw(st.sampled_from([0, 1, 5, 10, 10, 250])) * CENTS + draw(st.sampled_from([0, 1, 99])),
                    prize=draw(st.sampled_from([0, 0, 1, 500, 12_00, 10**9 + 7])),
                    size=draw(st.sampled_from([2, 10, 100, 1000])),
                    pool=draw(st.sampled_from([90 * CENTS, 4000 * CENTS])),
                    multi=draw(st.booleans()),
                    guaranteed=draw(st.booleans()),
                    hour=draw(st.sampled_from([0, 12, 23])),
                )
            )
    return draw(st.permutations(events))


class TestDaySweepMatchesOracle:
    """The columnar sweep equals the per-player oracle bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(multi_player_events())
    def test_raw_rows_snapshots_and_recents(self, events):
        stats = _sweep_stats()
        stats.player_mean = np.linspace(0.0, 2.0, D_P)
        stats.player_std = np.linspace(0.5, 3.0, D_P)
        days = [AS_OF - dt.timedelta(days=1), AS_OF, AS_OF + dt.timedelta(days=1)]
        columns = _JoinColumns(join_table(events), stats)
        pids = sorted({e.player_id for e in events}) + ["never-joined"]
        for day in days:
            raw = columns.player_rows(columns.codes(pids), day)
            for pid, row in zip(pids, raw):
                history = [e for e in events if e.player_id == pid]
                assert row.tobytes() == feature_oracle.player_row(history, day, stats).tobytes(), (pid, day)
        for day, snap in iter_snapshots(join_table(events), days, stats):
            oracle = build_snapshot(events, day, stats)
            assert snap.players == oracle.players
            assert snap.rows.dtype == np.float32
            assert snap.rows.tobytes() == oracle.rows.tobytes(), day
            for pid in pids:
                history = [e for e in events if e.player_id == pid]
                expect = expand(feature_oracle.recent_summary(history, day, stats))
                assert recent_joins(snap, pid) == recent_joins(oracle, pid) == expect, (pid, day)

    def test_cold_start_and_empty_log(self):
        stats = _sweep_stats()
        columns = _JoinColumns(join_table([]), stats)
        raw = columns.player_rows(columns.codes(["a", "b"]), AS_OF)
        np.testing.assert_array_equal(raw, [cold_start_player_raw()] * 2)
        (_, snap), = iter_snapshots(join_table([]), [AS_OF], stats)
        assert snap.players == {} and snap.recent.shape == (0, 6)
        assert snap.join_offsets.tolist() == [0]
        np.testing.assert_array_equal(snap.player_rows(["a"]), [snap.cold_row])

    def test_fit_normalization_equals_oracle_fit(self, tiny_world):
        by_id = index_contests(tiny_world.contests)
        train = [r for r in tiny_world.joins if r.joining_time < day_start(dt.date(2025, 2, 10))]
        by_match = match_templates(tiny_world.contests)
        days = {m.match_id: day_of(m.start_time) for m in tiny_world.matches}
        fitted = fit_normalization(enrich_joins(train, by_id), by_match, days).to_json_dict()
        rows = feature_oracle.enrich_joins(train, by_id)
        oracle = feature_oracle.fit_normalization(rows, by_match, days).to_json_dict()
        assert fitted == oracle


class TestContestFeatures:
    def test_template_level_invariance(self, identity_stats):
        a = mk_contest(contest_id="cA")
        b = mk_contest(contest_id="cB")
        np.testing.assert_array_equal(
            contest_row(a, identity_stats), contest_row(b, identity_stats)
        )

    def test_free_entry_uses_floor(self, identity_stats):
        spec = mk_contest(entry_fee=0, tiers=((1, 1, 100 * CENTS),))
        vec = contest_row(spec, identity_stats)
        assert np.all(np.isfinite(vec))
        raw = contest_features_raw(spec)
        assert raw[10] == pytest.approx(100 / 0.01)

    def test_hand_case(self, identity_stats):
        spec = mk_contest(
            entry_fee=49 * CENTS,
            contest_size=100_000,
            contest_type=ContestType.MEGA,
            tiers=((1, 1, 400_000 * CENTS), (2, 10_001, 60 * CENTS)),
            guaranteed=True,
            multi_entry=True,
        )
        raw = contest_features_raw(spec)
        assert raw[0] == 49.0
        assert raw[1] == 1_000_000.0  # 400k + 10_000 ranks x 60
        assert raw[2] == 100_000.0
        np.testing.assert_array_equal(raw[3:6], [0.0, 0.0, 1.0])
        assert raw[6] == 1.0 and raw[7] == 1.0
        assert raw[8] == pytest.approx(0.4)  # 400k / 1M
        assert raw[9] == pytest.approx(0.10001)  # 10_001 winners / 100k spots
        assert raw[10] == pytest.approx(1_000_000 / 49)
        assert contest_row(spec, identity_stats).shape == (D_C,)

    def test_invalid_spec_rejected(self, identity_stats):
        bad = mk_contest(contest_size=4, tiers=((1, 5, 10 * CENTS),))
        with pytest.raises(ValueError):
            contest_row(bad, identity_stats)


def interaction_raw(events, target, day, stats):
    """Player p1's raw interaction row against `target`, via the day's snapshot and a block."""
    (_, snap), = iter_snapshots(join_table(events), [day], stats)
    return build_template_block([target], stats).raw_interaction(snap, ["p1"])[0, 0]


class TestInteractionFeatures:
    def test_empty_history_zero_counts(self, identity_stats):
        target = mk_contest()
        raw = interaction_raw([], target, DAY0, identity_stats)
        np.testing.assert_array_equal(raw, np.zeros(D_I))

    def test_same_type_counts(self):
        stats = _identity_stats()
        stats.fee_edges = np.asarray([1000.0, 2000, 3000, 4000, 5000, 6000, 7000, 8000])
        stats.prize_edges = np.asarray([1e4, 2e4, 3e4, 4e4, 5e4, 6e4, 7e4, 8e4])
        stats.size_edges = np.asarray([5.0, 20, 100, 500, 1000, 2000, 3000, 4000])
        target = mk_contest(entry_fee=15 * CENTS, contest_size=2, tiers=((1, 1, 9 * CENTS),))
        joins = [
            ev(DAY0 - dt.timedelta(days=1), template=f"x{i}", fee=75 * CENTS,
               size=3000, pool=70_000 * CENTS)
            for i in range(3)
        ]
        raw = interaction_raw(joins, target, DAY0, stats)
        # same type in both windows; every bucket differs from the target's
        np.testing.assert_array_equal(raw, [3, 0, 0, 0, 3, 0, 0, 0, 0])

    def test_window_overlap(self, identity_stats):
        target = mk_contest(template_id="tT")
        joins = [ev(DAY0 - dt.timedelta(days=3), template="tT")]
        raw = interaction_raw(joins, target, DAY0, identity_stats)
        assert raw[0] == 0.0  # not in the 1-day window
        assert raw[4] == 1.0  # in the 5-day window
        assert raw[8] == 1.0  # same template within 5 days

    def test_six_day_old_join_outside_both_windows(self, identity_stats):
        target = mk_contest(template_id="tT")
        joins = [ev(DAY0 - dt.timedelta(days=6), template="tT")]
        raw = interaction_raw(joins, target, DAY0, identity_stats)
        np.testing.assert_array_equal(raw, np.zeros(D_I))

    @settings(max_examples=40, deadline=None)
    @given(event_lists())
    def test_one_day_counts_nested_in_five_day(self, events):
        stats = _identity_stats()
        target = mk_contest()
        raw = interaction_raw(events, target, DAY0, stats)
        assert np.all(raw[:4] <= raw[4:8])


@st.composite
def template_lists(draw):
    """Valid templates with distinct ids, some shared with event_lists' t0..t5."""
    ids = draw(st.lists(st.sampled_from([f"t{i}" for i in range(9)]), min_size=1, max_size=8, unique=True))
    return [
        mk_contest(
            contest_id=f"c{tid}",
            template_id=tid,
            entry_fee=draw(st.integers(0, 500)) * CENTS,
            prize_money=draw(st.integers(1, 5_000)) * CENTS,
            contest_size=draw(st.sampled_from([2, 10, 100, 1000])),
            contest_type=draw(st.sampled_from(UTC_TYPES)),
        )
        for tid in ids
    ]


def bucketed_stats():
    stats = _identity_stats()
    stats.fee_edges = np.asarray([100.0, 2500, 7500, 15000, 25000, 35000, 45000, 50000])
    stats.size_edges = np.asarray([2.0, 10, 100, 1000, 2000, 3000, 4000, 5000])
    stats.prize_edges = np.asarray([50.0, 90, 5e3, 2e4, 1e5, 2e5, 3e5, 5e5])
    return stats


class TestTemplateBlock:
    @settings(max_examples=60, deadline=None)
    @given(multi_player_events(), template_lists(), st.integers(-1, 1))
    def test_raw_interaction_rows_equal_single_target_oracle(self, events, templates, offset):
        """Rows from the sweep's snapshot and from the same day written and read back."""
        stats = _sweep_stats()
        day = AS_OF + dt.timedelta(days=offset)
        block = build_template_block(templates, stats)
        pids = ["never-joined"] + sorted({e.player_id for e in events})
        (_, swept), = iter_snapshots(join_table(events), [day], stats)
        with tempfile.TemporaryDirectory() as root:
            store = SnapshotStore(root)
            store.write_manifest(stats)
            store.write_day(swept)
            stored = store.read_day(day)
        for snap in (swept, stored):
            raw = block.raw_interaction(snap, pids)
            assert raw.shape == (len(pids), len(templates), D_I)
            for pid, rows in zip(pids, raw):
                history = [e for e in events if e.player_id == pid]
                h = build_recent_hists(feature_oracle.recent_summary(history, day, stats), day)
                for row, target in zip(rows, templates):
                    assert row.tobytes() == feature_oracle.interaction_row(h, target, stats).tobytes(), pid
            expect = _normalize(raw, snap.stats.inter_mean, snap.stats.inter_std, INTERACTION_Z_MASK)
            assert block.interaction_matrix(snap, pids).tobytes() == expect.astype(np.float32).tobytes()

    def test_contest_matrix_equals_per_row_contest_features(self, tiny_world):
        by_match = match_templates(tiny_world.contests)
        days = {m.match_id: day_of(m.start_time) for m in tiny_world.matches}
        train = [r for r in tiny_world.joins if r.joining_time < day_start(dt.date(2025, 2, 10))]
        stats = fit_normalization(enrich_joins(train, index_contests(tiny_world.contests)), by_match, days)
        for tpls in by_match.values():
            block = build_template_block(tpls, stats)
            expect = np.stack([feature_oracle.contest_features(t, stats) for t in tpls]).astype(np.float32)
            assert block.contest_matrix.dtype == np.float32
            assert block.contest_matrix.tobytes() == expect.tobytes()

    def test_invalid_spec_and_duplicate_template_rejected(self, identity_stats):
        bad = mk_contest(contest_id="c2", template_id="t2", contest_size=4, tiers=((1, 5, 10 * CENTS),))
        with pytest.raises(ValueError, match="invalid contest c2"):
            build_template_block([mk_contest(), bad], identity_stats)
        with pytest.raises(DataError, match="duplicate template_id"):
            build_template_block([mk_contest(contest_id="a"), mk_contest(contest_id="b")], identity_stats)


def assert_same_snapshot(a, b):
    assert a.as_of_day == b.as_of_day
    assert a.players == b.players and a.templates == b.templates
    for name in ("rows", "join_offsets", "recent"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name


class TestSnapshots:
    def _world_events(self):
        events = []
        for d in range(1, 40):
            day = DAY0 + dt.timedelta(days=d)
            events.append(ev(day, player=f"p{d % 7}", match=f"m{d}", template=f"t{d % 5}",
                             fee=(5 + d) * CENTS))
        return events

    def test_store_round_trip_bitwise(self, tmp_path, identity_stats):
        events = self._world_events()
        day = DAY0 + dt.timedelta(days=30)
        snap = build_snapshot(events, day, identity_stats)
        assert snap.players
        store = SnapshotStore(tmp_path / "store")
        store.write_manifest(identity_stats)
        store.write_day(snap)
        loaded = store.read_day(day)
        assert_same_snapshot(loaded, snap)

    def test_stale_player_absent(self, identity_stats):
        day = DAY0 + dt.timedelta(days=40)
        events = [
            ev(day - dt.timedelta(days=31), player="stale"),
            ev(day - dt.timedelta(days=30), player="fresh"),
        ]
        snap = build_snapshot(events, day, identity_stats)
        assert "fresh" in snap.players
        assert "stale" not in snap.players

    def test_no_leakage_from_same_day_joins(self, identity_stats):
        day = DAY0 + dt.timedelta(days=10)
        past = [ev(day - dt.timedelta(days=2), player="p0")]
        with_leak = past + [ev(day, player="p0"), ev(day + dt.timedelta(days=1), player="p0")]
        a = build_snapshot(past, day, identity_stats)
        b = build_snapshot(with_leak, day, identity_stats)
        np.testing.assert_array_equal(a.player_rows(["p0"]), b.player_rows(["p0"]))

    def test_iter_snapshots_matches_single_day_builds(self, identity_stats):
        events = self._world_events()
        days = [DAY0 + dt.timedelta(days=d) for d in (10, 20, 31)]
        streamed = dict(iter_snapshots(join_table(events), days, identity_stats))
        for day in days:
            single = build_snapshot(events, day, identity_stats)
            assert streamed[day].players == single.players
            assert streamed[day].rows.tobytes() == single.rows.tobytes()
            for pid in single.players:
                assert recent_joins(streamed[day], pid) == recent_joins(single, pid)

    def test_schema_mismatch_is_error(self, tmp_path, identity_stats):
        store = SnapshotStore(tmp_path / "store")
        store.write_manifest(identity_stats)
        snap = build_snapshot(self._world_events(), DAY0 + dt.timedelta(days=30), identity_stats)
        store.write_day(snap)
        day_json = tmp_path / "store" / "days" / snap.as_of_day.isoformat() / "day.json"
        day_json.write_text(day_json.read_text().replace("widir-snapshot-v2", "widir-snapshot-v0"))
        with pytest.raises(StoreError):
            store.read_day(snap.as_of_day)

    def test_missing_day_is_error_with_context(self, tmp_path, identity_stats):
        store = SnapshotStore(tmp_path / "store")
        store.write_manifest(identity_stats)
        with pytest.raises(StoreError, match="2025-05-05"):
            store.read_day(dt.date(2025, 5, 5))

    def _stored_day(self, tmp_path, identity_stats):
        store = SnapshotStore(tmp_path / "store")
        store.write_manifest(identity_stats)
        snap = build_snapshot(self._world_events(), DAY0 + dt.timedelta(days=30), identity_stats)
        assert snap.recent.size
        store.write_day(snap)
        return store, snap

    def test_rewriting_a_day_succeeds_and_leaves_no_temporaries(self, tmp_path, identity_stats):
        store, snap = self._stored_day(tmp_path, identity_stats)
        store.write_day(snap)
        day_dir = tmp_path / "store" / "days" / snap.as_of_day.isoformat()
        assert sorted(p.name for p in day_dir.iterdir()) == [
            "day.json", "join_offsets.npy", "player_ids.npy", "player_rows.npy",
            "recent_joins.npy", "template_ids.npy",
        ]
        assert stored_days(store) == [snap.as_of_day]
        assert_same_snapshot(store.read_day(snap.as_of_day), snap)

    def test_failed_write_reads_as_absent(self, tmp_path, identity_stats):
        store, snap = self._stored_day(tmp_path, identity_stats)
        day_dir = tmp_path / "store" / "days" / snap.as_of_day.isoformat()
        (day_dir / "recent_joins.npy.tmp").mkdir()  # the recents write cannot open its file
        with pytest.raises(StoreError, match="snapshot write failed"):
            store.write_day(snap)
        assert not store.has_day(snap.as_of_day)
        assert stored_days(store) == []
        with pytest.raises(DataError, match="missing"):
            SnapshotCache(store).get(snap.as_of_day)
        with pytest.raises(StoreError):
            store.read_day(snap.as_of_day)

    def test_failed_manifest_write_keeps_previous_manifest(self, tmp_path, identity_stats, monkeypatch):
        store = SnapshotStore(tmp_path / "store")
        store.write_manifest(identity_stats)
        before = (tmp_path / "store" / "manifest.json").read_bytes()
        changed = _identity_stats()
        changed.player_mean[:] = 3.0

        def fail_rename(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail_rename)
        with pytest.raises(StoreError, match="manifest write failed"):
            store.write_manifest(changed)
        monkeypatch.undo()
        assert (tmp_path / "store" / "manifest.json").read_bytes() == before
        assert sorted(p.name for p in (tmp_path / "store").iterdir()) == ["manifest.json"]
        assert store.read_manifest().to_json_dict() == identity_stats.to_json_dict()

    @pytest.mark.parametrize("corrupt", [
        lambda doc, text: text[:-5],
        lambda doc, text: "[]",
        lambda doc, text: json.dumps({k: v for k, v in doc.items() if k != "stats"}),
        lambda doc, text: json.dumps({**doc, "stats": 3}),
        lambda doc, text: json.dumps({**doc, "stats": {k: v for k, v in doc["stats"].items() if k != "inter_std"}}),
        lambda doc, text: json.dumps({**doc, "stats": {**doc["stats"], "fee_edges": ["x"]}}),
        lambda doc, text: json.dumps({**doc, "stats": {**doc["stats"], "player_mean": [float("nan")] * D_P}}),
        lambda doc, text: json.dumps({**doc, "stats": {**doc["stats"], "size_edges": [1.0] * 7 + [float("inf")]}}),
        lambda doc, text: json.dumps({**doc, "stats": {**doc["stats"], "inter_std": [1.0] * 8 + [0.0]}}),
        lambda doc, text: json.dumps({**doc, "stats": {**doc["stats"], "contest_std": [-1.0] * D_C}}),
        lambda doc, text: json.dumps({**doc, "stats": {**doc["stats"], "player_std": [1.0] * (D_P - 1)}}),
    ], ids=["truncated", "not-an-object", "no-stats", "stats-not-an-object", "no-stats-key", "bad-stats-value",
            "nan-mean", "infinite-edge", "zero-std", "negative-std", "short-stat"])
    def test_corrupt_manifest_is_store_error(self, tmp_path, identity_stats, corrupt):
        store = SnapshotStore(tmp_path / "store")
        store.write_manifest(identity_stats)
        path = tmp_path / "store" / "manifest.json"
        text = path.read_text()
        path.write_text(corrupt(json.loads(text), text))
        with pytest.raises(StoreError, match=re.escape(str(path))):
            store.read_manifest()

    def test_cold_start_row_for_unknown_player(self, identity_stats):
        known = np.arange(D_P, dtype=np.float32)
        snap = snapshot_from(DAY0, identity_stats, {"known": known})
        rows = snap.player_rows(["nobody", "known", "nobody"])
        assert rows.dtype == np.float32 and rows.shape == (3, D_P)
        expect = cold_start_player_row(identity_stats).astype(np.float32)
        assert rows[0].tobytes() == rows[2].tobytes() == expect.tobytes()
        assert rows[1].tobytes() == known.tobytes()
        assert np.all(np.isfinite(rows))

    def test_unreadable_day_json_is_error(self, tmp_path, identity_stats):
        store, snap = self._stored_day(tmp_path, identity_stats)
        day_json = tmp_path / "store" / "days" / snap.as_of_day.isoformat() / "day.json"
        day_json.write_text(day_json.read_text()[:-3])
        with pytest.raises(StoreError, match="no snapshot"):
            store.read_day(snap.as_of_day)

    @pytest.mark.parametrize("text", ["[]", '"x"', "7"])
    def test_day_json_not_an_object_is_error_naming_the_file(self, tmp_path, identity_stats, text):
        store, snap = self._stored_day(tmp_path, identity_stats)
        day_json = tmp_path / "store" / "days" / snap.as_of_day.isoformat() / "day.json"
        day_json.write_text(text)
        with pytest.raises(StoreError, match="not a JSON object") as err:
            store.read_day(snap.as_of_day)
        assert str(day_json) in str(err.value)

    def test_v1_store_is_error(self, tmp_path, identity_stats):
        """A store written in the text layout (schema v1) is refused, not misread."""
        store, snap = self._stored_day(tmp_path, identity_stats)
        day_dir = tmp_path / "store" / "days" / snap.as_of_day.isoformat()
        day_json = day_dir / "day.json"
        day_json.write_text(day_json.read_text().replace("widir-snapshot-v2", "widir-snapshot-v1"))
        for name in ("player_features.txt", "recent_joins.txt"):
            (day_dir / name).write_text("")
        with pytest.raises(StoreError, match="widir-snapshot-v1"):
            store.read_day(snap.as_of_day)
        manifest = tmp_path / "store" / "manifest.json"
        manifest.write_text(manifest.read_text().replace("widir-snapshot-v2", "widir-snapshot-v1"))
        with pytest.raises(StoreError, match="widir-snapshot-v1"):
            store.read_manifest()

    def test_damaged_array_header_is_error(self, tmp_path, identity_stats):
        """A quote inside the header's dict makes numpy's parser raise tokenize.TokenError."""
        store, snap = self._stored_day(tmp_path, identity_stats)
        path = tmp_path / "store" / "days" / snap.as_of_day.isoformat() / "template_ids.npy"
        data = bytearray(path.read_bytes())
        data[10] = ord("'")
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="template_ids.npy"):
            store.read_day(snap.as_of_day)

    @pytest.mark.parametrize("name", [
        "player_ids", "player_rows", "join_offsets", "recent_joins", "template_ids",
    ])
    def test_truncated_or_missing_array_is_error(self, tmp_path, identity_stats, name):
        store, snap = self._stored_day(tmp_path, identity_stats)
        path = tmp_path / "store" / "days" / snap.as_of_day.isoformat() / f"{name}.npy"
        data = path.read_bytes()
        for cut in (len(data) - 1, 40, 0):
            path.write_bytes(data[:cut])
            with pytest.raises(StoreError, match=name):
                store.read_day(snap.as_of_day)
        path.unlink()
        with pytest.raises(StoreError, match=name):
            store.read_day(snap.as_of_day)

    @pytest.mark.parametrize("name, change", [
        ("player_rows", lambda a: a[:, :-1]),
        ("player_rows", lambda a: a[:-1]),
        ("player_rows", lambda a: a.astype(np.float64)),
        ("player_rows", lambda a: a.astype(">f4")),
        ("player_rows", lambda a: np.where(np.arange(D_P) == 5, np.nan, a).astype(np.float32)),
        ("player_rows", lambda a: np.where(np.arange(D_P) == 0, np.inf, a).astype(np.float32)),
        ("player_rows", lambda a: np.where(np.arange(D_P) == 106, -np.inf, a).astype(np.float32)),
        ("player_ids", lambda a: a[:-1]),
        ("player_ids", lambda a: np.asarray([a[0]] * len(a))),
        ("player_ids", lambda a: np.arange(len(a))),
        ("join_offsets", lambda a: a[:-1]),
        ("join_offsets", lambda a: a.astype(np.int32)),
        ("join_offsets", lambda a: a + 1),
        ("join_offsets", lambda a: a[::-1].copy()),
        ("recent_joins", lambda a: a[:-1]),
        ("recent_joins", lambda a: a[:, :5]),
        ("recent_joins", lambda a: a.ravel()),
        ("recent_joins", lambda a: a.astype(np.int64)),
        ("recent_joins", lambda a: np.where(np.arange(6) == 0, 6, a).astype(np.int32)),
        ("recent_joins", lambda a: np.where(np.arange(6) == 0, 0, a).astype(np.int32)),
        ("recent_joins", lambda a: np.where(np.arange(6) == 1, -1, a).astype(np.int32)),
        ("recent_joins", lambda a: np.where(np.arange(6) == 2, 3, a).astype(np.int32)),
        ("recent_joins", lambda a: np.where(np.arange(6) == 5, 8, a).astype(np.int32)),
        ("template_ids", lambda a: a[:-1]),
    ])
    def test_misshaped_array_is_error(self, tmp_path, identity_stats, name, change):
        store, snap = self._stored_day(tmp_path, identity_stats)
        path = tmp_path / "store" / "days" / snap.as_of_day.isoformat() / f"{name}.npy"
        np.save(path, change(np.load(path)), allow_pickle=False)
        with pytest.raises(StoreError):
            store.read_day(snap.as_of_day)


class TestFitNormalization:
    def test_empty_training_rejected(self):
        with pytest.raises(Exception):
            fit_normalization(join_table([]), {}, {})

    def test_stats_round_trip_json(self, tiny_world):
        by_id = index_contests(tiny_world.contests)
        events = enrich_joins(tiny_world.joins, by_id)
        by_match = match_templates(tiny_world.contests)
        days = {m.match_id: day_of(m.start_time) for m in tiny_world.matches}
        stats = fit_normalization(events, by_match, days)
        loaded = NormalizationStats.from_json_dict(stats.to_json_dict())
        for key, value in stats.to_json_dict().items():
            assert loaded.to_json_dict()[key] == value
        assert np.all(stats.player_std > 0)
        assert np.all(np.diff(stats.fee_edges) > 0)


class TestEnrichJoins:
    def test_columns_equal_row_oracle(self, tiny_world):
        by_id = index_contests(tiny_world.contests)
        table = enrich_joins(tiny_world.joins, by_id)
        rows = feature_oracle.enrich_joins(tiny_world.joins, by_id)
        assert len(table) == len(rows) == len(tiny_world.joins)
        for name, dtype in (("time", np.int64), ("contest_type", np.int8), ("entry_fee", np.int64),
                            ("prize_won", np.int64), ("prize_money", np.int64), ("contest_size", np.int64),
                            ("guaranteed", bool), ("multi_entry", bool)):
            column = getattr(table, name)
            assert column.dtype == dtype, name
            expect = [getattr(e, name) for e in rows]
            if name == "contest_type":
                expect = [_TYPE_INDEX[t] for t in expect]
            assert column.tolist() == expect, name
        for name in ("player_id", "match_id", "template_id"):
            column = getattr(table, name)
            assert column.dtype.kind == "U" and column.tolist() == [getattr(e, name) for e in rows], name
        assert sorted(JoinTable.__dataclass_fields__) == sorted(
            ["time", "player_id", "match_id", "template_id", "contest_type", "entry_fee", "prize_won",
             "prize_money", "contest_size", "guaranteed", "multi_entry"])

    def test_unknown_or_inconsistent_contest_is_data_error(self):
        contests = {"c1": mk_contest(contest_id="c1", match_id="m1")}
        with pytest.raises(DataError, match="join references unknown contest c9"):
            enrich_joins([mk_join(contest="c1"), mk_join(contest="c9")], contests)
        with pytest.raises(DataError, match="contest c1 names match m2, but the contest belongs to match m1"):
            enrich_joins([mk_join(contest="c1"), mk_join(contest="c1", match="m2")], contests)

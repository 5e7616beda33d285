import dataclasses
import datetime as dt
import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from widir.domain import CENTS, ContestType, day_start
from widir.errors import ConfigError, DataError
from widir.features import _identity_stats, build_template_block
import widir.training as training
from widir.model import WidirDims, forward_batch, init_params, pair_gradients
from widir.textio import from_kv
from widir.training import (
    EarlyStopper,
    PairDataset,
    TrainConfig,
    assemble_pair_dataset,
    build_ordered_lists,
    list_pairs,
    read_report,
    train,
    write_report,
)

from conftest import DAY0, mk_contest
from feature_oracle import JoinEvent, RecentJoin, join_table, snapshot_from
import model_oracle
import training_oracle


def ev(day, player, match, template, fee=10 * CENTS):
    from widir.domain import ContestType

    return JoinEvent(
        time=day_start(day) + 10 * 3600,
        day=day,
        player_id=player,
        match_id=match,
        template_id=template,
        contest_type=ContestType.PUBLIC,
        entry_fee=fee,
        prize_won=0,
        contest_size=10,
        prize_money=90 * CENTS,
        guaranteed=False,
        multi_entry=False,
    )


def match_of(n_templates, match_id="m1"):
    return [mk_contest(contest_id=f"c{i}", template_id=f"t{i:03d}", match_id=match_id)
            for i in range(n_templates)]


def entries(lists, templates, i=0):
    """List i's (template_id, join_count) entries, up to its end."""
    catalog = templates[lists.match_ids[i]]
    return [(catalog[r].template_id, int(c)) for r, c in zip(lists.templates[i], lists.counts[i]) if r >= 0]


class TestBuildOrderedLists:
    def test_joined_then_padded(self):
        templates = {"m1": match_of(200)}
        events = [ev(DAY0, "p1", "m1", "t000")] * 3 + [ev(DAY0, "p1", "m1", "t001")]
        lists = build_ordered_lists(join_table(events), templates, 100, seed=4)
        assert len(lists) == 1
        assert lists.templates.shape == lists.counts.shape == (1, 100)
        assert (lists.player_ids[0], lists.match_ids[0]) == ("p1", "m1")
        lst = entries(lists, templates)
        assert len(lst) == 100
        assert lst[0] == ("t000", 3)
        assert lst[1] == ("t001", 1)
        assert all(count == 0 for _, count in lst[2:])
        assert (lists.counts[0] > 0).sum() == 2
        assert (lists.templates[0] >= 0).all()  # not short
        padded = {tid for tid, count in lst[2:]}
        assert len(padded) == 98 and "t000" not in padded and "t001" not in padded

    def test_trim_to_top_by_count(self):
        templates = {"m1": match_of(150)}
        events = []
        for i in range(120):
            events.extend([ev(DAY0, "p1", "m1", f"t{i:03d}")] * (1 + (i % 3)))
        lists = build_ordered_lists(join_table(events), templates, 100, seed=0)
        lst = entries(lists, templates)
        assert len(lst) == 100
        assert (lists.counts[0] > 0).sum() == 100
        counts = [count for _, count in lst]
        assert counts == sorted(counts, reverse=True)
        # 40 threes + 40 twos fit whole; only 20 of the 40 count-1 templates fit
        assert counts.count(3) == 40 and counts.count(2) == 40 and counts.count(1) == 20

    def test_same_seed_same_padding(self):
        templates = {"m1": match_of(200)}
        events = [ev(DAY0, "p1", "m1", "t000")]
        a = build_ordered_lists(join_table(events), templates, 100, seed=9)
        b = build_ordered_lists(join_table(events), templates, 100, seed=9)
        c = build_ordered_lists(join_table(events), templates, 100, seed=10)
        assert entries(a, templates) == entries(b, templates)
        assert a.templates.tobytes() == b.templates.tobytes() and a.counts.tobytes() == b.counts.tobytes()
        assert entries(a, templates) != entries(c, templates)

    def test_short_match_marks_list(self, caplog):
        templates = {"m1": match_of(40)}
        events = [ev(DAY0, "p1", "m1", "t000")]
        with caplog.at_level(logging.WARNING, logger="widir.training"):
            lists = build_ordered_lists(join_table(events), templates, 100, seed=0)
        lst = entries(lists, templates)
        assert len(lst) == 40
        assert lst[0] == ("t000", 1)
        assert (lists.templates[0, 40:] == -1).all() and (lists.counts[0, 40:] == -1).all()
        assert [r.getMessage() for r in caplog.records] == [
            "1 lists are short: match template sets smaller than list_length"]

    def test_ties_broken_lexically(self):
        # catalog rows run t009..t000, so template-id order is not catalog order
        templates = {"m1": match_of(10)[::-1]}
        events = [ev(DAY0, "p1", "m1", "t003"), ev(DAY0, "p1", "m1", "t001")]
        lists = build_ordered_lists(join_table(events), templates, 50, seed=0)
        lst = entries(lists, templates)
        assert lst[0][0] == "t001" and lst[1][0] == "t003"
        assert [tid for tid, _ in lst[2:]] == [f"t{i:03d}" for i in (0, 2, 4, 5, 6, 7, 8, 9)]
        assert list(lists.templates[0, :2]) == [8, 6]  # catalog rows, not ids

    def test_lists_in_player_then_match_order(self):
        templates = {m: match_of(5, m) for m in ("m1", "m2")}
        events = [ev(DAY0, p, m, "t000") for p, m in (("p2", "m1"), ("p1", "m2"), ("p2", "m2"), ("p1", "m1"))]
        lists = build_ordered_lists(join_table(events), templates, 50, seed=0)
        assert list(zip(lists.player_ids, lists.match_ids)) == [
            ("p1", "m1"), ("p1", "m2"), ("p2", "m1"), ("p2", "m2")]

    def test_join_of_template_missing_from_catalog_is_error(self):
        templates = {"m1": match_of(5)}
        events = [ev(DAY0, "p1", "m1", "t000"), ev(DAY0, "p1", "m1", "t777")]
        with pytest.raises(DataError, match="template t777 missing from match m1 catalog"):
            build_ordered_lists(join_table(events), templates, 50, seed=0)

    def test_list_of_match_missing_from_catalog_is_error(self):
        # m2 has no catalog entry, even though its list would need no padding
        templates = {"m1": match_of(5)}
        events = [ev(DAY0, "p1", "m1", "t000")] + [ev(DAY0, "p1", "m2", f"t{i:03d}") for i in range(60)]
        with pytest.raises(DataError, match="match m2 missing from catalog"):
            build_ordered_lists(join_table(events), templates, 50, seed=0)

    def test_no_events_no_lists(self):
        lists = build_ordered_lists(join_table([]), {"m1": match_of(5)}, 50, seed=0)
        assert len(lists) == 0 and lists.templates.shape == lists.counts.shape == (0, 50)


def brute_force_pairs(entries):
    """O(L^2) oracle straight from the strict-preference definition."""
    out = []
    for i, (_, ci) in enumerate(entries):
        for j, (_, cj) in enumerate(entries):
            if ci > cj:
                out.append((entries[i][0], entries[j][0]))
    return out


def lst_of(counts):
    """A list's entries: template t{i} at position i with the given join counts."""
    return tuple((f"t{i:03d}", c) for i, c in enumerate(counts))


def pairs_of(counts):
    """`list_pairs` of one list, as (preferred, other) template ids in pair order."""
    lst, pref, other = list_pairs(np.array([counts], dtype=np.int32).reshape(1, -1))
    assert not lst.any()
    return [(f"t{i:03d}", f"t{j:03d}") for i, j in zip(pref, other)]


def oracle_pairs_of(counts):
    """The oracle `build_pairs` of one list, as (preferred, other) template ids in pair order."""
    lst = training_oracle.OrderedContestList("p1", "m1", lst_of(counts), sum(1 for c in counts if c > 0))
    return [(p.pos_template_id, p.neg_template_id) for p in training_oracle.build_pairs(lst, None, 0)]


class TestBuildPairs:
    def test_hand_case_counts_3_1_0_0(self):
        pairs = pairs_of([3, 1, 0, 0])
        assert pairs == [
            ("t000", "t001"), ("t000", "t002"), ("t000", "t003"),
            ("t001", "t002"), ("t001", "t003"),
        ]

    def test_all_equal_counts_no_pairs(self):
        assert pairs_of([2, 2, 2]) == []
        assert pairs_of([0, 0, 0, 0]) == []
        assert pairs_of([]) == []

    def test_subsample_is_subset(self):
        # counts 3, 1, 0, 0 over four templates with distinct contest rows
        templates = {"m1": [mk_contest(contest_id=f"c{i}", template_id=f"t{i:03d}", entry_fee=(i + 1) * CENTS)
                            for i in range(4)]}
        events = [ev(DAY0, "p1", "m1", "t000")] * 3 + [ev(DAY0, "p1", "m1", "t001")]
        lists = build_ordered_lists(join_table(events), templates, 50, seed=0)
        stats = _identity_stats()
        snap = snapshot_from(DAY0, stats, {"p1": np.zeros(107, dtype=np.float32)})

        def sides(max_pairs, seed):
            ds = assemble_pair_dataset(lists, {DAY0: snap}, templates, {"m1": DAY0}, stats, max_pairs, seed)
            return [(p.tobytes(), n.tobytes()) for p, n in zip(ds.pos_contest, ds.neg_contest)]

        full = sides(None, 0)
        assert len(full) == 5
        for seed in range(5):
            sub = sides(2, seed)
            assert len(sub) == 2 and len(set(sub)) == 2
            assert set(sub) <= set(full)
            assert sorted(sub, key=full.index) == sub  # kept in list order
        assert sides(5, 0) == full  # no draw at the cap

    def test_ragged_lists_end_at_minus_one(self):
        counts = np.array([[2, 1, 0, -1], [1, 1, 0, 0], [3, -1, -1, -1]], dtype=np.int32)
        lst, pref, other = list_pairs(counts)
        assert list(zip(lst, pref, other)) == [(0, 0, 1), (0, 0, 2), (0, 1, 2), (1, 0, 2), (1, 0, 3),
                                              (1, 1, 2), (1, 1, 3)]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=20))
    def test_matches_brute_force_oracle(self, counts):
        counts = sorted(counts, reverse=True)
        got = pairs_of(counts)
        assert sorted(got) == sorted(brute_force_pairs(lst_of(counts)))
        assert got == oracle_pairs_of(counts)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=20))
    def test_combinatorial_count_formula(self, counts):
        counts = sorted(counts, reverse=True)
        multiplicities = {}
        for c in counts:
            multiplicities[c] = multiplicities.get(c, 0) + 1
        distinct = sorted(multiplicities, reverse=True)
        expected = sum(
            multiplicities[a] * multiplicities[b]
            for a, b in itertools.combinations(distinct, 2)
        )
        assert len(pairs_of(counts)) == expected


class TestEarlyStopper:
    def test_stops_after_exactly_15_flat_epochs(self):
        stopper = EarlyStopper(15)
        assert stopper.update(1, 1.0) is False
        stops = [stopper.update(epoch, 1.0) for epoch in range(2, 17)]
        assert stops == [False] * 14 + [True]
        assert stopper.best_epoch == 1

    def test_improvement_resets_counter(self):
        stopper = EarlyStopper(3)
        seq = [1.0, 0.9, 0.95, 0.95, 0.85, 0.9, 0.9, 0.9]
        stops = [stopper.update(i + 1, v) for i, v in enumerate(seq)]
        assert stops == [False, False, False, False, False, False, False, True]
        assert stopper.best_epoch == 5
        assert stopper.best == 0.85

    def test_equal_value_is_not_improvement(self):
        stopper = EarlyStopper(2)
        assert stopper.update(1, 0.5) is False
        assert stopper.update(2, 0.5) is False
        assert stopper.update(3, 0.5) is True
        assert stopper.best_epoch == 1


class TestTrainConfig:
    def test_defaults_match_contract(self):
        config = TrainConfig()
        assert config.learning_rate == 0.001
        assert config.epochs == 100
        assert config.batch_size == 4096
        assert config.validation_batch_size == 16384
        assert config.early_stopping_rounds == 15
        assert config.list_length == 100

    def test_kv_parsing_and_unknown_key(self):
        config = from_kv(TrainConfig, {"learning_rate": "0.01", "epochs": "5"}, "train config")
        assert config.learning_rate == 0.01 and config.epochs == 5
        with pytest.raises(ConfigError, match="momentum"):
            from_kv(TrainConfig, {"momentum": "0.9"}, "train config")

    def test_optimizer_key_is_unknown(self):
        """Training runs Adam only, so a config that names an optimizer is refused."""
        with pytest.raises(ConfigError, match="optimizer"):
            from_kv(TrainConfig, {"optimizer": "adam"}, "train config")

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf", "0", "-0.1"])
    def test_bad_learning_rate_is_config_error(self, rate):
        with pytest.raises(ConfigError, match="learning_rate"):
            from_kv(TrainConfig, {"learning_rate": rate}, "train config")

    def test_list_length_restricted(self):
        with pytest.raises(ConfigError):
            TrainConfig(list_length=64)


def separable_dataset(rng, dims, n_players):
    """Every player prefers contest A over contest B: pair rows 2i (A) and 2i + 1 (B) of list i."""
    vec_a = np.full(dims.d_c, 0.8, dtype=np.float32)
    vec_b = np.full(dims.d_c, -0.8, dtype=np.float32)
    return PairDataset(
        player_rows=rng.standard_normal((n_players, dims.d_p)).astype(np.float32),
        contest_rows=np.stack([vec_a, vec_b]),
        inter_rows=np.zeros((2 * n_players, dims.d_i), dtype=np.float32),
        row_list=np.repeat(np.arange(n_players, dtype=np.int32), 2),
        row_contest=np.tile(np.arange(2, dtype=np.int32), n_players),
        pos=np.arange(0, 2 * n_players, 2, dtype=np.int32),
        neg=np.arange(1, 2 * n_players, 2, dtype=np.int32),
    ), vec_a, vec_b


class TestTrain:
    dims = WidirDims(6, 4, 3)

    def test_separable_toy_problem_learns(self):
        rng = np.random.default_rng(0)
        train_ds, vec_a, vec_b = separable_dataset(rng, self.dims, 256)
        valid_ds, _, _ = separable_dataset(rng, self.dims, 128)
        config = TrainConfig(
            learning_rate=0.01, epochs=20, batch_size=64, validation_batch_size=256,
            early_stopping_rounds=15, list_length=100, max_pairs_per_list=256, seed=1,
        )
        result = train(config, self.dims, train_ds, valid_ds)
        assert result.report.best_valid_loss < 0.1
        baseline = result.report.rows[0]
        assert baseline.epoch == 0  # losses under the initial parameters
        best_epoch_row = result.report.rows[result.report.best_epoch]
        assert best_epoch_row.epoch == result.report.best_epoch
        assert best_epoch_row.train_loss < baseline.train_loss
        # A outranks B for every player
        params = result.params
        p = valid_ds.player_rows
        s_a = forward_batch(params, p, np.tile(vec_a, (len(p), 1)), valid_ds.pos_inter)
        s_b = forward_batch(params, p, np.tile(vec_b, (len(p), 1)), valid_ds.neg_inter)
        assert np.all(s_a > s_b)

    def test_same_seed_identical_parameters(self):
        rng = np.random.default_rng(3)
        train_ds, _, _ = separable_dataset(rng, self.dims, 64)
        valid_ds, _, _ = separable_dataset(rng, self.dims, 32)
        config = TrainConfig(
            learning_rate=0.01, epochs=4, batch_size=32, validation_batch_size=64, seed=5
        )
        a = train(config, self.dims, train_ds, valid_ds)
        b = train(config, self.dims, train_ds, valid_ds)
        for x, y in zip(a.params.arrays(), b.params.arrays()):
            np.testing.assert_array_equal(x, y)

    def test_empty_pair_stream_rejected(self):
        rng = np.random.default_rng(0)
        ds, _, _ = separable_dataset(rng, self.dims, 4)
        empty = dataclasses.replace(ds, pos=ds.pos[:0], neg=ds.neg[:0])
        with pytest.raises(DataError):
            train(TrainConfig(), self.dims, empty, ds)

    def test_early_stopping_keeps_best_epoch_params(self):
        # high learning rate makes later epochs oscillate; the kept parameters
        # must come from the best-validation epoch, never a later one
        rng = np.random.default_rng(7)
        train_ds, _, _ = separable_dataset(rng, self.dims, 128)
        valid_ds, _, _ = separable_dataset(rng, self.dims, 64)
        config = TrainConfig(
            learning_rate=0.05, epochs=12, batch_size=32, validation_batch_size=128,
            early_stopping_rounds=3, seed=2,
        )
        result = train(config, self.dims, train_ds, valid_ds)
        trained_rows = [r for r in result.report.rows if r.epoch > 0]
        assert result.report.best_epoch <= len(trained_rows)
        losses = {r.epoch: r.valid_loss for r in trained_rows}
        assert result.report.best_valid_loss == min(losses.values())
        assert losses[result.report.best_epoch] == result.report.best_valid_loss

    def test_dead_ranking_head_warns_once_naming_the_epoch(self, monkeypatch, caplog):
        # final[0]'s ReLU units never fire: every score equals final[1]'s bias,
        # every hinge is exactly 1, and every gradient is zero
        rng = np.random.default_rng(0)
        train_ds, _, _ = separable_dataset(rng, self.dims, 64)
        params = init_params(self.dims, 0)
        params.components["final"][0].w[:] = 0.0
        params.components["final"][0].b[:] = -1.0
        monkeypatch.setattr(training, "init_params", lambda *a, **k: params)
        config = TrainConfig(learning_rate=0.01, epochs=2, batch_size=16, validation_batch_size=32, seed=0)
        with caplog.at_level(logging.WARNING, logger="widir.training"):
            result = train(config, self.dims, train_ds, train_ds)
        assert [r.valid_loss for r in result.report.rows] == [1.0, 1.0, 1.0]
        dead = [r.getMessage() for r in caplog.records if "all-zero gradient" in r.getMessage()]
        assert len(dead) == 1 and dead[0].startswith("epoch 1:")

    def test_live_ranking_head_does_not_warn(self, caplog):
        rng = np.random.default_rng(0)
        train_ds, _, _ = separable_dataset(rng, self.dims, 64)
        config = TrainConfig(learning_rate=0.01, epochs=2, batch_size=16, validation_batch_size=32, seed=0)
        with caplog.at_level(logging.WARNING, logger="widir.training"):
            train(config, self.dims, train_ds, train_ds)
        assert not [r for r in caplog.records if "all-zero gradient" in r.getMessage()]

    def test_report_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        train_ds, _, _ = separable_dataset(rng, self.dims, 32)
        config = TrainConfig(learning_rate=0.01, epochs=2, batch_size=16,
                             validation_batch_size=32, seed=0)
        result = train(config, self.dims, train_ds, train_ds)
        path = tmp_path / "report.csv"
        write_report(path, result.report)
        rows = read_report(path)
        assert rows == result.report.rows


class TestAssemblePairDataset:
    def _snapshot_lookup(self, stats, players):
        snap = snapshot_from(DAY0, stats, players)

        class Lookup:
            def get(self, day):
                return snap

        return Lookup()

    def test_assembles_matching_rows(self):
        stats = _identity_stats()
        templates = {"m1": match_of(6)}
        events = [ev(DAY0 - dt.timedelta(days=1), "p1", "m1", "t000")] * 2 + [
            ev(DAY0 - dt.timedelta(days=1), "p1", "m1", "t001")
        ]
        lists = build_ordered_lists(join_table(events), templates, 50, seed=0)
        rng = np.random.default_rng(0)
        players = {"p1": rng.standard_normal(107).astype(np.float32)}
        ds = assemble_pair_dataset(
            lists, self._snapshot_lookup(stats, players), templates,
            {"m1": DAY0}, stats, None, seed=0,
        )
        # strict preferences: t000 (2) > t001 (1) > 4 padded
        assert ds.n_pairs == 1 + 4 + 4
        assert ds.player_rows.shape == (1, 107)
        np.testing.assert_array_equal(ds.player_rows[0], players["p1"])
        assert ds.pos_contest.shape == (9, 11)
        assert ds.pos_inter.shape == (9, 9)

    def _multi_list_dataset(self):
        """Lists of three players in two matches on two days; a template's contest row
        differs from the other templates' and is the same in both matches."""
        stats = _identity_stats()
        day1 = DAY0 + dt.timedelta(days=1)
        templates = {
            mid: [mk_contest(contest_id=f"{mid}c{i}", template_id=f"t{i:03d}", match_id=mid,
                             entry_fee=(i + 1) * CENTS, contest_size=10 + i) for i in range(n)]
            for mid, n in (("m1", 6), ("m2", 5))
        }
        days = {"m1": DAY0, "m2": day1}
        events = []
        for k, pid in enumerate(("p3", "p1", "p2")):
            events += [ev(DAY0, pid, "m1", f"t{k:03d}")] * (k + 1) + [ev(DAY0, pid, "m1", "t005")]
            events += [ev(day1, pid, "m2", f"t{(k + 2) % 5:03d}")] * 2 + [ev(day1, pid, "m2", "t004")]
        lists = build_ordered_lists(join_table(events), templates, 50, seed=0)
        rng = np.random.default_rng(1)
        recents = {pid: [RecentJoin(DAY0 - dt.timedelta(days=d), f"t{d:03d}", ContestType.PUBLIC, 0, 0, 0, d)]
                   for d, pid in enumerate(("p1", "p2"), start=1)}
        snaps = {
            day: snapshot_from(day, stats, {p: rng.standard_normal(107).astype(np.float32)
                                            for p in ("p1", "p2")}, recents)
            for day in (DAY0, day1)
        }

        class Lookup:
            def get(self, day):
                return snaps[day]

        ds = assemble_pair_dataset(lists, Lookup(), templates, days, stats, None, seed=0)
        return ds, lists, snaps, templates, days, stats

    def test_rows_equal_per_list_lookups(self):
        """Every pair side holds its own list's player row and its template's contest and
        interaction rows."""
        ds, lists, snaps, templates, days, stats = self._multi_list_dataset()
        k = 0
        for li in range(len(lists)):
            pid, mid = lists.player_ids[li], lists.match_ids[li]
            snap = snaps[days[mid]]
            block = build_template_block(templates[mid], stats)
            inter = block.interaction_matrix(snap, [pid])[0]
            assert ds.player_rows[li].tobytes() == snap.player_rows([pid])[0].tobytes()
            _, pref, other = list_pairs(lists.counts[li : li + 1])
            for pr, nr in zip(lists.templates[li, pref], lists.templates[li, other]):
                assert ds.list_idx[k] == li
                assert ds.pos_contest[k].tobytes() == block.contest_matrix[pr].tobytes()
                assert ds.neg_contest[k].tobytes() == block.contest_matrix[nr].tobytes()
                assert ds.pos_inter[k].tobytes() == inter[pr].tobytes()
                assert ds.neg_inter[k].tobytes() == inter[nr].tobytes()
                k += 1
        assert k == ds.n_pairs
        assert len({ds.pos_inter[i].tobytes() for i in range(k)}) > 1
        assert len(ds.contest_rows) == 6  # t000-t004 stored once for both matches

    def test_batch_rows_expand_to_per_pair_views(self):
        ds, *_ = self._multi_list_dataset()
        idx = np.random.default_rng(3).permutation(ds.n_pairs)[: ds.n_pairs // 2 + 1]
        rows, pos, neg = ds.batch(idx)
        # each distinct pair row, list and contest row of the batch once
        assert len(rows.interaction) == len(np.unique(np.concatenate([ds.pos[idx], ds.neg[idx]]))) < 2 * idx.size
        assert len(rows.player) == len(np.unique(ds.list_idx[idx]))
        for side, want in ((pos, (ds.pos_contest, ds.pos_inter)), (neg, (ds.neg_contest, ds.neg_inter))):
            assert rows.player[rows.player_of[side]].tobytes() == ds.player_rows[ds.list_idx[idx]].tobytes()
            assert rows.contest[rows.contest_of[side]].tobytes() == want[0][idx].tobytes()
            assert rows.interaction[side].tobytes() == want[1][idx].tobytes()

    def test_batch_gradient_equals_oracle_per_pair_sum(self):
        ds, *_ = self._multi_list_dataset()
        params = init_params(WidirDims(), 4)
        idx = np.random.default_rng(4).permutation(ds.n_pairs)
        grads, losses = pair_gradients(params, *ds.batch(idx), fast=True)
        p = ds.player_rows[ds.list_idx[idx]]
        want, want_losses = model_oracle.backward_batch(
            model_oracle.astype(params, np.float64),
            *([a.astype(np.float64) for a in side] for side in ((p, ds.pos_contest[idx], ds.pos_inter[idx]),
                                                                 (p, ds.neg_contest[idx], ds.neg_inter[idx]))),
        )
        np.testing.assert_allclose(losses, want_losses, rtol=1e-5, atol=1e-5)
        for got, oracle in zip(grads.arrays(), want.arrays()):
            # entries that cancel to zero keep float32 rounding: an absolute floor
            np.testing.assert_allclose(got, oracle, rtol=1e-5, atol=1e-5 * max(np.abs(oracle).max(), 1.0))

    def test_missing_snapshot_day_is_error(self):
        stats = _identity_stats()
        templates = {"m1": match_of(6)}
        events = [ev(DAY0, "p1", "m1", "t000")]
        lists = build_ordered_lists(join_table(events), templates, 50, seed=0)

        class Lookup:
            def get(self, day):
                raise DataError(f"feature snapshot missing for day {day.isoformat()}")

        with pytest.raises(DataError, match="snapshot missing"):
            assemble_pair_dataset(lists, Lookup(), templates, {"m1": DAY0}, stats, None, 0)


FIELDS = ("player_rows", "contest_rows", "inter_rows", "row_list", "row_contest", "pos", "neg")


@st.composite
def small_worlds(draw):
    """1-4 matches of 3-70 templates on their own days, catalog rows not in template-id order,
    and joins of up to 6 players that repeat templates."""
    sizes = draw(st.lists(st.integers(3, 70), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    templates, days, events = {}, {}, []
    for m, n in enumerate(sizes):
        mid = f"m{m}"
        ids = rng.permutation(n)
        templates[mid] = [mk_contest(contest_id=f"{mid}c{i}", template_id=f"t{t:03d}", match_id=mid,
                                     entry_fee=(1 + t % 7) * CENTS, contest_size=10 + t % 5)
                          for i, t in enumerate(ids)]
        days[mid] = DAY0 + dt.timedelta(days=m)
        for pid in rng.choice([f"p{k}" for k in range(6)], size=int(rng.integers(1, 7)), replace=False):
            # a few favourites joined often, and sometimes many templates once each
            picks = rng.choice(ids, size=int(rng.integers(1, 4)))
            joins = list(rng.choice(picks, size=int(rng.integers(1, 12))))
            if rng.random() < 0.3:
                joins += list(rng.choice(ids, size=int(rng.integers(1, n + 1)), replace=False))
            events += [ev(days[mid] - dt.timedelta(days=1), str(pid), mid, f"t{t:03d}") for t in joins]
    rng.shuffle(events)
    stats = _identity_stats()
    players = [f"p{k}" for k in range(6)]
    snaps = {
        day: snapshot_from(day, stats, {p: rng.standard_normal(107).astype(np.float32) for p in players},
                           {p: [RecentJoin(day - dt.timedelta(days=1), f"t{int(rng.integers(0, 70)):03d}",
                                           ContestType.PUBLIC, 0, 0, 0, int(rng.integers(1, 4)))]
                            for p in players[::2]})
        for day in days.values()
    }
    return events, templates, days, stats, snaps


class TestArrayBuildersMatchOracle:
    @settings(max_examples=60, deadline=None)
    @given(small_worlds(), st.sampled_from([50, 100, 200]), st.sampled_from([None, 1, 24]),
           st.integers(0, 2**32 - 1))
    def test_pair_dataset_equals_oracle_bytes(self, world, list_length, max_pairs, seed):
        events, templates, days, stats, snaps = world

        def dataset(builders, joins):
            lists = builders.build_ordered_lists(joins, templates, list_length, seed)
            try:
                return builders.assemble_pair_dataset(lists, snaps, templates, days, stats, max_pairs, seed)
            except DataError as exc:
                return str(exc)

        want, got = dataset(training_oracle, events), dataset(training, join_table(events))
        if isinstance(want, str):
            assert got == want  # every list's counts are equal: no pairs
            return
        for name in FIELDS:
            a, b = getattr(want, name), getattr(got, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name

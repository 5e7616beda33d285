"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The end-to-end criterion builds a full 5,000-player world and trains
the ranker, so the module takes several minutes.
"""

import datetime as dt
import itertools
import json
import math
import time

import numpy as np
import pytest

import widir.training as training_mod
from widir.abtest import assign_cohorts, delta, simulate_period
from widir.domain import MatchRecord, day_start
from widir.evaluation import EvalReport, PopularityScorer, RankedSlate, precision_at, recall_at
from widir.generator import GeneratorConfig, PlayerArchetype, build_template_pool
from widir.model import (
    WidirDims,
    backward_batch,
    forward_batch,
    hinge_losses,
    init_params,
    param_count,
)
from widir.serving import OnlineStore, rank_live, RankRequest
from widir.training import EarlyStopper, TrainConfig, train
from widir import pipeline

from conftest import DAY0, mk_payload
from latency_harness import run_latency_harness
from model_oracle import min_abs_preactivation
from test_training import brute_force_pairs, lst_of, pairs_of, separable_dataset


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: parameter-count oracle -------------------------------------------


def test_criterion_1_parameter_counts():
    t0 = time.perf_counter()
    dims = WidirDims(107, 11, 9)
    per, total = param_count(dims)
    expected = (11072, 4928, 704, 128, 68096, 14796, 29)
    got = tuple(per[name] for name in (
        "player_branch", "contest_branch", "interaction_branch", "wide",
        "deep", "combined", "final",
    ))
    tally = init_params(dims, seed=0).tally()
    runtime_total = sum(tally.values())
    ok = (
        got == expected
        and total == 99_753 == 65 * 107 + 65 * 11 + 17 * 9 + 91_930
        and tally == per
        and runtime_total == total
    )
    report(1, ok, f"component counts {got}, total {runtime_total} (runtime tally), "
                  f"{time.perf_counter() - t0:.2f}s")


# -- criterion 2: gradient correctness ----------------------------------------------


def _kink_free_active_pair(params, dims, rng):
    """Seeded pair with an active hinge, margins and preactivations off kinks."""
    for _ in range(500):
        pos = tuple(rng.standard_normal((1, d)) for d in (dims.d_p, dims.d_c, dims.d_i))
        neg = tuple(rng.standard_normal((1, d)) for d in (dims.d_p, dims.d_c, dims.d_i))
        min_pre = min(min_abs_preactivation(params, *side) for side in (pos, neg))
        s_pos = forward_batch(params, *pos)[0]
        s_neg = forward_batch(params, *neg)[0]
        if 1.0 - (s_pos - s_neg) > 1e-2 and min_pre > 1e-3:
            return pos, neg
    raise AssertionError("exhausted attempts to find a kink-free active pair")


def test_criterion_2_gradients_match_finite_differences():
    t0 = time.perf_counter()
    dims = WidirDims(5, 4, 3)
    params = init_params(dims, seed=101, dtype=np.float64)
    rng = np.random.default_rng(202)
    arrays = params.arrays()
    step = 1e-5
    worst = 0.0
    checked = 0
    for _ in range(100):
        pos, neg = _kink_free_active_pair(params, dims, rng)
        grads, _ = backward_batch(params, pos, neg)
        garrays = grads.arrays()
        # stratified sample: every tensor of every component gets probed
        for ai, a in enumerate(arrays):
            for fi in rng.integers(0, a.size, size=2):
                fi = int(fi)
                orig = a.flat[fi]
                a.flat[fi] = orig + step
                sp = forward_batch(params, *pos)[0]
                sn = forward_batch(params, *neg)[0]
                lp = hinge_losses(sp, sn)
                a.flat[fi] = orig - step
                sp = forward_batch(params, *pos)[0]
                sn = forward_batch(params, *neg)[0]
                lm = hinge_losses(sp, sn)
                a.flat[fi] = orig
                fd = (lp - lm) / (2 * step)
                an = garrays[ai].flat[fi]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-6))
                checked += 1
    elapsed = time.perf_counter() - t0
    report(2, worst < 1e-4 and elapsed < 30,
           f"{checked} parameter probes over 100 pairs, max rel err {worst:.3g}, {elapsed:.1f}s")


# -- criterion 3: hinge-loss contract ------------------------------------------------


def test_criterion_3_hinge_contract():
    t0 = time.perf_counter()
    exact = (
        hinge_losses(2.0, 0.5) == 0.0
        and all(hinge_losses(s, s) == 1.0 for s in (-1e6, -2.5, 0.0, 3.25, 1e9))
        and hinge_losses(0.2, 0.5) == 1.3
    )
    rng = np.random.default_rng(33)
    shift_ok = True
    nonneg_ok = True
    for _ in range(1000):
        # dyadic lattice values make float arithmetic exact
        s, t, k = (int(x) / 1024.0 for x in rng.integers(-8192, 8193, size=3))
        shift_ok &= hinge_losses(s + k, t + k) == hinge_losses(s, t)
        nonneg_ok &= hinge_losses(s, t) >= 0.0
    report(3, exact and shift_ok and nonneg_ok,
           f"hand cases exact, shift-invariance on 1000 pairs, {time.perf_counter() - t0:.2f}s")


# -- criterion 4: pair-construction oracle -------------------------------------------


def test_criterion_4_pair_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    ok = True
    for _ in range(500):
        length = int(rng.integers(1, 21))
        counts = sorted((int(c) for c in rng.integers(0, 5, size=length)), reverse=True)
        got = sorted(pairs_of(counts))
        ok &= got == sorted(brute_force_pairs(lst_of(counts)))
        mult: dict[int, int] = {}
        for c in counts:
            mult[c] = mult.get(c, 0) + 1
        expected_n = sum(
            mult[a] * mult[b] for a, b in itertools.combinations(sorted(mult, reverse=True), 2)
        )
        ok &= len(got) == expected_n
    elapsed = time.perf_counter() - t0
    report(4, ok and elapsed < 10, f"500 lists vs brute force + count formula, {elapsed:.1f}s")


# -- criterion 5: metric formulas -----------------------------------------------------


def test_criterion_5_metric_formulas():
    t0 = time.perf_counter()
    slate = RankedSlate("p", "m", (("A", 3.0), ("B", 2.0), ("C", 1.0)))
    from fractions import Fraction

    hand_ok = (
        Fraction(precision_at(slate, {"B", "D"}, 3)).limit_denominator() == Fraction(1, 3)
        and precision_at(slate, {"B", "D"}, 3) == 1 / 3
        and recall_at(slate, {"B", "D"}, 3) == 1 / 2
    )
    rng = np.random.default_rng(55)
    monotone_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        ids = [f"t{i}" for i in range(n)]
        scores = rng.standard_normal(n)
        order = np.argsort(-scores)
        s = RankedSlate("p", "m", tuple((ids[i], float(scores[i])) for i in order))
        joined = set(rng.choice(ids, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        values = [recall_at(s, joined, h) for h in (1, 3, 5, 10)]
        monotone_ok &= values == sorted(values)
        monotone_ok &= all(0.0 <= v <= 1.0 for v in values)
    elapsed = time.perf_counter() - t0
    report(5, hand_ok and monotone_ok and elapsed < 5,
           f"hand case exact rationals, recall monotone on 1000 slates, {elapsed:.1f}s")


# -- criterion 6: end-to-end learning signal ------------------------------------------

SCALE_GEN_KV = """\
players = 5000
matches = 200
templates_per_match = 60
template_pool = 72
start_day = 2025-01-01
end_day = 2025-03-01
participation_rate = 0.06
"""

SCALE_TRAIN_KV = """\
learning_rate = 0.001
epochs = 30
batch_size = 4096
validation_batch_size = 16384
early_stopping_rounds = 15
list_length = 100
max_pairs_per_list = 24
seed = 17
"""


@pytest.fixture(scope="module")
def scale_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("scale")
    out = root / "run"
    (root / "gen.kv").write_text(SCALE_GEN_KV)
    (root / "train.kv").write_text(SCALE_TRAIN_KV)
    t0 = time.perf_counter()
    pipeline.run_generate(out, root / "gen.kv", seed=17, run_id="gen")
    pipeline.run_features(out, out / "data", dt.date(2025, 2, 8), dt.date(2025, 2, 16),
                          run_id="feat")
    pipeline.run_train(out, out / "data", out / "features", root / "train.kv", run_id="train")
    pipeline.run_eval(out, out / "data", out / "features", out / "models" / "model.bin",
                      run_id="eval")
    return out, time.perf_counter() - t0


def test_criterion_6_end_to_end_learning_signal(scale_run):
    out, elapsed = scale_run
    widir_report = EvalReport.from_text((out / "reports" / "eval_widir.txt").read_text())
    pop_report = EvalReport.from_text((out / "reports" / "eval_popularity.txt").read_text())
    lift = widir_report.recall[5] / pop_report.recall[5] - 1.0
    ordered = widir_report.recall[10] > widir_report.recall[5] > widir_report.recall[1]
    ok = lift >= 0.10 and ordered and elapsed < 1800
    report(6, ok,
           f"recall@5 {widir_report.recall[5]:.4f} vs popularity {pop_report.recall[5]:.4f} "
           f"(+{lift * 100:.1f}% rel), recall@10>5>1 {ordered}, "
           f"n_pairs {widir_report.n_pairs}, pipeline {elapsed / 60:.1f} min")


# -- criterion 7: early stopping -------------------------------------------------------


def test_criterion_7_early_stopping():
    t0 = time.perf_counter()
    # scripted sequence: improvement at epoch 1, flat afterwards
    stopper = EarlyStopper(15)
    stops = [stopper.update(e, 0.5 if e == 1 else 0.6) for e in range(1, 40)]
    stops_at = stops.index(True) + 1
    script_ok = stops_at == 16 and stopper.best_epoch == 1

    # the trained parameters returned are the best-epoch parameters: a run
    # whose validation flatlines after epoch 1 must return exactly the
    # parameters a 1-epoch run produces
    dims = WidirDims(6, 4, 3)
    rng = np.random.default_rng(0)
    train_ds, _, _ = separable_dataset(rng, dims, 128)
    valid_ds, _, _ = separable_dataset(rng, dims, 64)

    scripted = iter([1.0, 1.0] + [0.5 if e == 1 else 0.6 for e in range(1, 100)])
    real = training_mod._mean_valid_loss
    training_mod._mean_valid_loss = lambda *a, **k: next(scripted)
    try:
        config = TrainConfig(learning_rate=0.01, epochs=100, batch_size=64,
                             validation_batch_size=256, early_stopping_rounds=15, seed=9)
        result = train(config, dims, train_ds, valid_ds)
    finally:
        training_mod._mean_valid_loss = real
    trained_epochs = [r.epoch for r in result.report.rows if r.epoch > 0]
    run_ok = (
        result.report.stopped_early
        and trained_epochs[-1] == 16
        and result.report.best_epoch == 1
    )
    one_epoch = train(
        TrainConfig(learning_rate=0.01, epochs=1, batch_size=64,
                    validation_batch_size=256, early_stopping_rounds=15, seed=9),
        dims, train_ds, valid_ds,
    )
    params_ok = all(
        np.array_equal(a, b)
        for a, b in zip(result.params.arrays(), one_epoch.params.arrays())
    )
    elapsed = time.perf_counter() - t0
    report(7, script_ok and run_ok and params_ok,
           f"stops after epoch 16 (15 flat rounds), best epoch 1, "
           f"returned params == 1-epoch params: {params_ok}, {elapsed:.1f}s")


# -- criterion 8: delta formula and null effect ----------------------------------------


def _null_world(n_players=2400, n_matches=24):
    config = GeneratorConfig(
        players=n_players, matches=n_matches, templates_per_match=18, template_pool=24,
        start_day=DAY0, end_day=DAY0 + dt.timedelta(days=45),
    )
    pool = build_template_pool(config)[:18]
    matches = [
        (
            MatchRecord(f"m{i:03d}", day_start(DAY0 + dt.timedelta(days=i)) + 15 * 3600,
                        tuple(t.template_id for t in pool)),
            pool,
        )
        for i in range(n_matches)
    ]
    archetypes = {}
    for i in range(n_players):
        if i % 2 == 0:
            archetypes[f"p{i:05d}"] = PlayerArchetype(math.log(2.0), 3.0, 0.8, 0.3, 0.3, 1.4, 0.2)
        else:
            archetypes[f"p{i:05d}"] = PlayerArchetype(math.log(60.0), 2.5, 0.1, 0.1, 0.05, 1.4, 0.4)
    players = sorted(archetypes)
    assignment = assign_cohorts(players, {p: i for i, p in enumerate(players)},
                                {"CG": n_players // 2, "TG1": n_players // 2}, seed=5)
    return matches, archetypes, assignment


def test_criterion_8_delta_and_null_effect():
    t0 = time.perf_counter()
    hand_ok = (
        delta(100, 100, 110, 100) == pytest.approx(0.10)
        and delta(100, 100, 100, 100) == 0.0
        and delta(120, 100, 120, 100) == 0.0
    )
    matches, archetypes, assignment = _null_world()
    deltas = {"CJ": [], "CEA": [], "GGR": []}
    conservation_ok = True
    for seed in range(20):
        common = dict(
            assignment=assignment, policies={"TG1": PopularityScorer()},
            archetypes=archetypes, participation_rate=0.3, seed=seed,
            boost=1.0, h_exposed=5,
        )
        pre, pre_joins = simulate_period(matches=matches[:12], period="pre", **common)
        post, post_joins = simulate_period(matches=matches[12:], period="post", **common)
        for aggs, joins in ((pre, pre_joins), (post, post_joins)):
            for g, agg in aggs.items():
                fees = sum(j.entry_fee for j in joins if j.group == g)
                prizes = sum(j.prize_won for j in joins if j.group == g)
                conservation_ok &= agg.ggr == fees - prizes and agg.cea == fees
        for metric in deltas:
            deltas[metric].append(
                delta(pre["TG1"].metric(metric), pre["CG"].metric(metric),
                      post["TG1"].metric(metric), post["CG"].metric(metric))
            )
    null_ok = True
    bands = {}
    for metric, values in deltas.items():
        arr = np.asarray(values)
        sd = float(arr.std(ddof=1))
        mean = float(arr.mean())
        # every seeded run inside the Monte Carlo 3-sigma band, and the mean
        # inside 3 standard errors (no systematic treatment effect at b=1)
        bands[metric] = (mean, 3 * sd / math.sqrt(len(values)), float(np.abs(arr).max()), 3 * sd)
        null_ok &= abs(mean) <= bands[metric][1] and bands[metric][2] <= bands[metric][3]
    elapsed = time.perf_counter() - t0
    detail = ", ".join(
        f"{m} mean {v[0]:+.4f} (3SE {v[1]:.4f}), max|d| {v[2]:.4f} (3sd {v[3]:.4f})"
        for m, v in bands.items()
    )
    report(8, hand_ok and null_ok and conservation_ok and elapsed < 600,
           f"hand cases exact; null effect over 20 seeds: {detail}; "
           f"GGR conservation exact; {elapsed:.1f}s")


# -- criterion 9: serving latency and correctness ---------------------------------------


def test_criterion_9_serving_latency():
    t0 = time.perf_counter()
    n_contests = 500
    ranking = tuple((f"t{i:04d}", float(10_000 - i)) for i in range(n_contests))
    store = OnlineStore()
    store.put(mk_payload("p1", "m1", ranking))
    contests = [(f"c{i:04d}", f"t{i:04d}") for i in range(n_contests)]
    stats = run_latency_harness(store, "p1", "m1", contests, n_requests=10_000, seed=1)

    # correctness: permutation property on random requests
    rng = np.random.default_rng(2)
    perm_ok = True
    for _ in range(200):
        size = int(rng.integers(1, n_contests + 1))
        rows = rng.choice(n_contests, size=size, replace=False)
        request = RankRequest("p1", "m1", tuple(contests[i] for i in rows))
        response = rank_live(store, request)
        perm_ok &= sorted(c for c, _ in response.contests) == sorted(
            contests[i][0] for i in rows
        )
    # a replacement instance of a filled template ranks at the template's position
    before = rank_live(store, RankRequest("p1", "m1", tuple(contests)))
    replaced = list(contests)
    replaced[7] = ("c_new", contests[7][1])
    after = rank_live(store, RankRequest("p1", "m1", tuple(replaced)))
    pos_ok = [c for c, _ in before.contests].index(contests[7][0]) == [
        c for c, _ in after.contests
    ].index("c_new")

    elapsed = time.perf_counter() - t0
    ok = stats["p99_ms"] < 10.0 and perm_ok and pos_ok and elapsed < 300
    report(9, ok,
           f"p99 {stats['p99_ms']:.3f} ms over {stats['n_requests']} requests x "
           f"{stats['n_contests']} contests ({stats['note']}); permutation and "
           f"replacement checks pass; {elapsed:.1f}s")


# -- criterion 10: reproducibility --------------------------------------------------------

REPRO_GEN_KV = """\
players = 400
matches = 60
templates_per_match = 20
template_pool = 26
start_day = 2025-01-01
end_day = 2025-03-01
participation_rate = 0.15
"""

REPRO_TRAIN_KV = """\
learning_rate = 0.001
epochs = 4
batch_size = 1024
validation_batch_size = 8192
early_stopping_rounds = 15
list_length = 100
max_pairs_per_list = 24
seed = 23
"""


def test_criterion_10_reproducibility(tmp_path):
    t0 = time.perf_counter()
    (tmp_path / "gen.kv").write_text(REPRO_GEN_KV)
    (tmp_path / "train.kv").write_text(REPRO_TRAIN_KV)

    def full_run(out):
        pipeline.run_generate(out, tmp_path / "gen.kv", seed=23, run_id="gen")
        pipeline.run_features(out, out / "data", dt.date(2025, 2, 8), dt.date(2025, 2, 16),
                              run_id="feat")
        pipeline.run_train(out, out / "data", out / "features", tmp_path / "train.kv",
                           run_id="train")
        pipeline.run_eval(out, out / "data", out / "features", out / "models" / "model.bin",
                          run_id="eval")

    a, b = tmp_path / "a", tmp_path / "b"
    full_run(a)
    full_run(b)
    model_ok = (a / "models" / "model.bin").read_bytes() == (b / "models" / "model.bin").read_bytes()
    eval_ok = all(
        (a / "reports" / name).read_bytes() == (b / "reports" / name).read_bytes()
        for name in ("eval_widir.txt", "eval_popularity.txt")
    )
    repro_ok = True
    for run_id in ("gen", "train", "eval"):
        result = pipeline.run_reproduce(a, run_id)
        repro_ok &= result["ok"]
    elapsed = time.perf_counter() - t0
    report(10, model_ok and eval_ok and repro_ok,
           f"two full runs bitwise-identical (model: {model_ok}, eval reports: {eval_ok}); "
           f"reproduce verified digests for gen/train/eval; {elapsed:.1f}s")

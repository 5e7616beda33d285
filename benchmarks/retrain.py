"""`retrain`: the data scientist's loop, features -> train -> eval, on a mid-size world.

Exercises features (all-day snapshots, store writes), training, the model's
fast path and backward pass, and evaluation's exact forward. It runs no
inference and no serving.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import shutil

import numpy as np

from harness import median, peak_rss_mb, tree_bytes
from workload import Context, Outcome, overhead_ratio, run_ops, run_setups

WORLD = dict(
    players=1000,
    matches=80,
    templates_per_match=40,
    template_pool=48,
    start_day=dt.date(2025, 1, 1),
    end_day=dt.date(2025, 3, 1),
    participation_rate=0.1,
)
TRAIN_END = dt.date(2025, 2, 8)
VALID_END = dt.date(2025, 2, 16)
EPOCHS = 2
SETUP_REPEATS = 7
PHASES = ("features", "train", "eval")
# The quality guard: the lowest recall@5 lift (widir over popularity, minus 1)
# of the ten steadiness runs, seeds 101-110, less a margin of a quarter (NOTES.md).
LIFT_FLOOR = 0.93


def train_kv(seed: int) -> dict:
    # early_stopping_rounds > epochs: every run trains exactly EPOCHS epochs
    return dict(
        learning_rate="0.001", epochs=str(EPOCHS), batch_size="4096",
        validation_batch_size="16384", early_stopping_rounds=str(EPOCHS + 10),
        list_length="100", max_pairs_per_list="24", seed=str(seed),
    )


def _pair_row_reuse(ds) -> float:
    """Distinct (list, template) rows over pair-side rows of a PairDataset."""
    lists = ds.list_idx.astype(np.float32)[:, None]
    sides = np.concatenate([
        np.hstack([lists, ds.pos_contest, ds.pos_inter]),
        np.hstack([lists, ds.neg_contest, ds.neg_inter]),
    ])
    distinct = np.unique(np.ascontiguousarray(sides).view(np.dtype((np.void, sides.dtype.itemsize * sides.shape[1]))))
    return distinct.size / sides.shape[0]


def run(ctx: Context) -> Outcome:
    from widir import generator, pipeline, training
    from widir.evaluation import EvalReport
    from widir.generator import GeneratorConfig
    from widir.textio import write_kv
    from widir.training import read_report

    config = GeneratorConfig(**WORLD)
    out = Outcome(shape={
        "world": {k: str(v) for k, v in WORLD.items()},
        "train_end": TRAIN_END.isoformat(), "valid_end": VALID_END.isoformat(),
        "train": train_kv(ctx.seed),
    })
    tracer = ctx.tracer

    def setup(path):
        world = generator.generate_synthetic(config, ctx.seed)
        world.write_dir(os.path.join(path, "data"))
        write_kv(os.path.join(path, "train.kv"), train_kv(ctx.seed))
        return path, len(world.joins)

    (fixture, n_joins), setup_times = run_setups(ctx, SETUP_REPEATS, setup)
    setup_peak_mb = peak_rss_mb()  # set-up's peak; the gated peak_rss_mb is read after the operations
    data = os.path.join(fixture, "data")
    walls = {"plain": [], "traced": []}
    phase_s = {p: [] for p in PHASES}
    lifts, store_bytes, pair_epochs_per_s, layer_runs = [], [], [], []

    def op(i: int, traced: bool) -> None:
        root = ctx.fresh_dir(f"op{i}")
        features = os.path.join(root, "features")
        mark = len(tracer.spans)
        assembled = []  # (pairs, dataset if traced) per assemble call: train set, then validation

        def count_pairs(assemble):
            def counted(*args, **kwargs):
                ds = assemble(*args, **kwargs)
                assembled.append((ds.n_pairs, ds if traced else None))
                return ds
            return counted

        tracer.replace(training, "assemble_pair_dataset", count_pairs)
        with tracer.span("op"):
            with tracer.span("pipeline.run_features"):
                pipeline.run_features(root, data, TRAIN_END, VALID_END)
            with tracer.span("pipeline.run_train"):
                pipeline.run_train(root, data, features, os.path.join(fixture, "train.kv"))
            with tracer.span("pipeline.run_eval"):
                pipeline.run_eval(root, data, features, os.path.join(root, "models", "model.bin"))
        tracer.restore()
        out.attempted += 1
        walls["traced" if traced else "plain"].append(tracer.durations("op", mark)[-1])
        phases = {p: tracer.durations(f"pipeline.run_{p}", mark)[-1] for p in PHASES}

        try:
            reports = {
                name: EvalReport.from_text(open(os.path.join(root, "reports", f"eval_{name}.txt")).read())
                for name in ("widir", "popularity")
            }
            epochs = [r for r in read_report(os.path.join(root, "models", "training_report.csv")) if r.epoch > 0]
        except (OSError, ValueError, KeyError) as exc:
            out.check(False, f"op {i}: reports do not parse: {exc}")
            out.failed += 1
            return
        recall = reports["widir"].recall
        lift = recall[5] / reports["popularity"].recall[5] - 1.0
        ok = out.check(recall[10] > recall[5] > recall[1],
                       f"op {i}: recall@10 > recall@5 > recall@1 does not hold: {recall}")
        ok &= out.check(lift >= LIFT_FLOOR, f"op {i}: recall@5 lift {lift:.4f} is below the floor {LIFT_FLOOR}")
        ok &= out.check(len(epochs) == EPOCHS, f"op {i}: trained {len(epochs)} epochs, configured {EPOCHS}")
        out.failed += 0 if ok else 1

        n_pairs, train_ds = assembled[0]
        if not traced:
            for p in PHASES:
                phase_s[p].append(phases[p])
            lifts.append(lift)
            store_bytes.append(tree_bytes(features))
            pair_epochs_per_s.append(n_pairs * len(epochs) / walls["plain"][-1])
        else:
            epoch_s = sum(r.seconds for r in epochs)
            evals = tracer.durations("evaluation.evaluate", mark)  # widir scorer first, then popularity
            layer_runs.append({
                "domain.load_world_s": tracer.total("domain.load_world", mark),
                "features.fit_normalization_s": tracer.total("features.fit_normalization", mark),
                "features.snapshot_day_s": median(tracer.durations("features.snapshot_day", mark)),
                "features.snapshot_rows_per_s": _snapshot_rows(features) / tracer.total("features.snapshot_day", mark),
                "features.write_day_s": median(tracer.durations("features.write_day", mark)),
                "features.read_day_s": median(tracer.durations("features.read_day", mark)),
                "features.store_bytes": tree_bytes(features),
                "features.template_block_ms": 1e3 * median(tracer.durations("features.build_template_block", mark)),
                "features.interaction_matrix_us": 1e6 * median(tracer.durations("features.interaction_matrix", mark)),
                "training.ordered_lists_s": tracer.total("training.build_ordered_lists", mark),
                "training.assemble_s": tracer.total("training.assemble_pair_dataset", mark),
                "training.pairs": n_pairs,
                "training.pair_row_reuse": _pair_row_reuse(train_ds),
                "training.epoch_s": median([r.seconds for r in epochs]),
                "training.pairs_per_s": n_pairs * len(epochs) / epoch_s,
                "training.best_valid_loss": min(r.valid_loss for r in epochs),
                "evaluation.evaluate_widir_s": evals[0],
                "evaluation.evaluate_popularity_s": evals[1],
                "evaluation.test_pairs": reports["widir"].n_pairs,
                "evaluation.recall5_lift": lift,
                "manifest.digest_s": tracer.total("manifest.digest_path", mark),
                "trace.coverage": tracer.coverage({f"pipeline.run_{p}" for p in PHASES}, mark),
                **{f"pipeline.{p}_s": phases[p] for p in PHASES},
            })
        shutil.rmtree(root, ignore_errors=True)

    run_ops(ctx, op)
    plain_ms = [1e3 * w for w in walls["plain"]]
    out.e2e = {
        "setup_s": median(setup_times),
        "op_p50_ms": median(plain_ms),
        "items_per_s": median(pair_epochs_per_s),
    }
    out.named = {
        "features_s": (median(phase_s["features"]), "s"),
        "train_s": (median(phase_s["train"]), "s"),
        "eval_s": (median(phase_s["eval"]), "s"),
        "recall5_lift": (median(lifts), "ratio"),
        "store_mb": (median(store_bytes) / 2**20, "MB"),
    }
    out.shape["joins"] = n_joins
    out.shape["setup_peak_rss_mb"] = setup_peak_mb
    out.shape["ops"] = len(walls["plain"]) + len(walls["traced"])
    if ctx.trace:
        out.layer = {k: median([r[k] for r in layer_runs]) for k in layer_runs[0]}
        out.layer["trace.overhead_ratio"] = overhead_ratio(walls["plain"], walls["traced"])
        out.layer["generator.generate_s"] = median(tracer.durations("generator.generate_synthetic"))
        out.layer["generator.join_rows"] = n_joins
    return out


def _snapshot_rows(features_dir: str) -> int:
    days = os.path.join(features_dir, "days")
    total = 0
    for day in os.listdir(days):
        with open(os.path.join(days, day, "day.json"), encoding="utf-8") as fh:
            total += json.load(fh)["n_players"]
    return total

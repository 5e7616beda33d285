"""`daily_refresh`: the operator's daily job on the 5,000-player acceptance population.

One operation refreshes one as-of day, timed from reading the world until
the payloads are live in an OnlineStore: the day's snapshot (features),
`pipeline.run_infer` (inference, exact model path), then publish (serving
writes). It runs no training: the model is a seeded `init_params`.
"""

from __future__ import annotations

import datetime as dt
import os

import numpy as np

from harness import median, peak_rss_mb, tree_bytes
from workload import Context, Outcome, handle_path, overhead_ratio, rank_requests, run_ops, run_setups, scoring_fixture

WORLD = dict(
    players=5000,
    matches=200,
    templates_per_match=60,
    template_pool=72,
    start_day=dt.date(2025, 1, 1),
    end_day=dt.date(2025, 3, 1),
    participation_rate=0.06,
)
# Normalization is fitted on the first weeks only: set-up cost, not the daily job.
TRAIN_END = dt.date(2025, 1, 14)
HORIZON = 1  # one match-day of payloads
CHECKED_PLAYERS = 12  # payloads compared with model_rank per operation
SETUP_REPEATS = 2


def run(ctx: Context) -> Outcome:
    # layer calls go through module attributes, which the traced run wraps
    from widir import features as feat, generator, inference, pipeline, serving
    from widir.domain import day_of, index_contests, match_templates, read_catalog
    from widir.evaluation import model_rank
    from widir.features import SnapshotStore
    from widir.generator import GeneratorConfig
    from widir.model import load_model

    config = GeneratorConfig(**WORLD)
    tracer = ctx.tracer

    def setup(path):
        world = generator.generate_synthetic(config, ctx.seed)
        return scoring_fixture(path, world, TRAIN_END, ctx.seed), world

    ((data, features, model_path), world), setup_times = run_setups(ctx, SETUP_REPEATS, setup)
    setup_peak_mb = peak_rss_mb()  # set-up's peak; the gated peak_rss_mb is read after the operations
    # the last match day: a day with matches whose snapshot sees the whole log
    as_of = max(day_of(m.start_time) for m in world.matches)
    by_match = match_templates(world.contests)
    upcoming = sorted(m.match_id for m in world.matches if day_of(m.start_time) == as_of)
    expected_active = inference.active_players(world.joins, as_of)
    params = load_model(model_path)
    rng = np.random.default_rng(ctx.seed)
    out = Outcome(shape={
        "world": {k: str(v) for k, v in WORLD.items()}, "joins": len(world.joins),
        "train_end": TRAIN_END.isoformat(), "as_of": as_of.isoformat(), "horizon": HORIZON,
        "upcoming_matches": len(upcoming), "active_players": len(expected_active),
        "setup_peak_rss_mb": setup_peak_mb,
    })
    # the serving read path is timed on this day's traffic (traced run only)
    bodies = rank_requests(rng, world.joins, world.contests, upcoming) if ctx.trace else []
    del world
    walls = {"plain": [], "traced": []}
    named = {"infer_s": [], "refresh_s": [], "payloads_per_s": []}
    layer_runs = []
    published = []  # the traced operation's online store

    def op(i: int, traced: bool) -> None:
        root = ctx.fresh_dir(f"op{i}")
        payload_path = os.path.join(root, "payloads", "payloads.jsonl")
        mark = len(tracer.spans)
        store = SnapshotStore(features)
        with tracer.span("op"):
            with tracer.span("refresh.snapshot"):
                joins, contests, _, _ = generator.load_world_dir(data)
                events = feat.enrich_joins(joins, index_contests(contests))
                del joins, contests  # run_infer loads its own copy
                (_, snapshot), = feat.iter_snapshots(events, [as_of], store.read_manifest())
                del events
                store.write_day(snapshot)
                snapshot_rows = len(snapshot.players)
                del snapshot
            with tracer.span("pipeline.run_infer"):
                pipeline.run_infer(root, data, features, model_path, as_of, HORIZON)
            with tracer.span("refresh.publish"):
                payloads = inference.read_payloads(payload_path)
                online = serving.OnlineStore()
                for p in payloads:
                    online.put(p)
                serving.load_fallbacks(online, read_catalog(os.path.join(data, "contests.csv")))
        out.attempted += 1
        wall = tracer.durations("op", mark)[-1]
        walls["traced" if traced else "plain"].append(wall)
        infer_s = tracer.durations("pipeline.run_infer", mark)[-1]

        if not traced:
            named["infer_s"].append(infer_s)
            named["refresh_s"].append(wall)
            named["payloads_per_s"].append(len(payloads) / wall)
        else:
            published[:] = [online]
            layer_runs.append({
                "domain.load_world_s": tracer.total("domain.load_world", mark),
                "features.snapshot_day_s": tracer.total("features.snapshot_day", mark),
                "features.snapshot_rows_per_s": snapshot_rows / tracer.total("features.snapshot_day", mark),
                "features.write_day_s": tracer.total("features.write_day", mark),
                "features.read_day_s": median(tracer.durations("features.read_day", mark)),
                "features.template_block_ms": 1e3 * median(tracer.durations("features.build_template_block", mark)),
                "features.interaction_matrix_us": 1e6 * median(tracer.durations("features.interaction_matrix", mark)),
                "inference.active_players_s": tracer.total("inference.active_players", mark),
                "inference.run_batch_s": tracer.total("inference.run_batch", mark),
                "inference.payloads": len(payloads),
                "inference.payloads_per_s": len(payloads) / tracer.total("inference.run_batch", mark),
                "inference.write_payloads_s": tracer.total("inference.write_payloads", mark),
                "inference.payload_bytes": tree_bytes(payload_path),
                "inference.read_payloads_s": tracer.total("inference.read_payloads", mark),
                "serving.publish_s": tracer.total("serving.put", mark) + tracer.total("serving.load_fallbacks", mark),
                "manifest.digest_s": tracer.total("manifest.digest_path", mark),
                "pipeline.infer_s": infer_s,
                "pipeline.refresh_s": wall,
                "trace.coverage": tracer.coverage({"refresh.snapshot", "pipeline.run_infer", "refresh.publish"}, mark),
            })

        ok = out.check(len(payloads) == len(expected_active) * len(upcoming),
                       f"op {i}: {len(payloads)} payloads, expected {len(expected_active)} active "
                       f"players x {len(upcoming)} matches")
        ok &= out.check(online.payload_count == len(payloads), f"op {i}: online store holds "
                        f"{online.payload_count} of {len(payloads)} payloads")
        templates = {mid: sorted(t.template_id for t in by_match[mid]) for mid in upcoming}
        bad = [p for p in payloads if sorted(t for t, _ in p.ranking) != templates.get(p.match_id)]
        ok &= out.check(not bad, f"op {i}: {len(bad)} rankings are not permutations of their match's templates")
        snap = store.read_day(as_of)
        for k in rng.choice(len(payloads), size=min(CHECKED_PLAYERS, len(payloads)), replace=False):
            p = payloads[int(k)]
            slate = model_rank(params, snap, p.player_id, by_match[p.match_id])
            ok &= out.check(slate.ranked == p.ranking,
                            f"op {i}: payload for ({p.player_id}, {p.match_id}) differs from model_rank")
        out.failed += 0 if ok else 1

    run_ops(ctx, op)
    plain_ms = [1e3 * w for w in walls["plain"]]
    out.e2e = {
        "setup_s": median(setup_times),
        "op_p50_ms": median(plain_ms),
        "items_per_s": median(named["payloads_per_s"]),
    }
    out.named = {
        "infer_s": (median(named["infer_s"]), "s"),
        "refresh_s": (median(named["refresh_s"]), "s"),
    }
    out.shape["ops"] = len(walls["plain"]) + len(walls["traced"])
    if ctx.trace:
        out.layer = {k: median([r[k] for r in layer_runs]) for k in layer_runs[0]}
        out.layer["trace.overhead_ratio"] = overhead_ratio(walls["plain"], walls["traced"])
        out.layer["generator.generate_s"] = median(tracer.durations("generator.generate_synthetic"))
        out.layer["generator.join_rows"] = out.shape["joins"]
        out.layer["features.fit_normalization_s"] = median(tracer.durations("features.fit_normalization"))
        # the read side of the store this job publishes
        handle = handle_path(tracer, published[0], bodies)
        out.layer["serving.handle_p50_us"] = handle["p50_us"]
        out.layer["serving.handle_p99_us"] = handle["p99_us"]
    return out

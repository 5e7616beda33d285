"""What the workloads share: the run context, its outcome, the op loop, fixtures."""

from __future__ import annotations

import datetime as dt
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable

from harness import Tracer, median, patch_public_calls, percentile

HANDLE_CALLS = 1500  # in-process handle_rank_body calls per pass of handle_path


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    workdir: str
    tracer: Tracer = field(default_factory=Tracer)

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)      # end-to-end metric -> value
    layer: dict = field(default_factory=dict)    # per-layer metric -> value
    named: dict = field(default_factory=dict)    # workload figure -> (value, unit)
    shape: dict = field(default_factory=dict)    # world shape and fixed inputs
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok


def run_setups(ctx: Context, repeats: int, setup: Callable[[str], object]) -> tuple[object, list[float]]:
    """Set up `repeats` times in fresh directories; keep the last fixture.

    setup_s is the median of these, so one slow set-up does not move it.
    """
    if ctx.trace:
        patch_public_calls(ctx.tracer)
    times = []
    fixture = None
    for k in range(repeats):
        if fixture is not None and hasattr(fixture, "close"):
            fixture.close()
        path = ctx.fresh_dir(f"setup{k}")
        if k:
            shutil.rmtree(os.path.join(ctx.workdir, f"setup{k - 1}"), ignore_errors=True)
        t0 = time.perf_counter()
        with ctx.tracer.span("setup"):
            fixture = setup(path)
        times.append(time.perf_counter() - t0)
    ctx.tracer.restore()
    return fixture, times


def run_ops(ctx: Context, op: Callable[[int, bool], None]) -> None:
    """Call `op(i, traced)` until `ctx.seconds` have passed.

    A traced run alternates untraced and traced operations (at least one of
    each), so the difference between the two is the cost of tracing.
    """
    start = time.perf_counter()
    i = 0
    while True:
        traced = ctx.trace and i % 2 == 1
        if traced:
            patch_public_calls(ctx.tracer)
        try:
            op(i, traced)
        finally:
            ctx.tracer.restore()
        i += 1
        if (not ctx.trace or i >= 2) and time.perf_counter() - start >= ctx.seconds:
            return


def overhead_ratio(plain: list[float], traced: list[float]) -> float:
    return median(traced) / median(plain) - 1.0


def scoring_fixture(path: str, world, train_end: dt.date, seed: int) -> tuple[str, str, str]:
    """What scoring needs besides a day's snapshot, written under `path`.

    The world's files, a feature store whose normalization is fitted on the
    joins up to `train_end`, and a seeded `init_params` model: the weight
    values do not change the FLOPs or the sort work. Returns the data
    directory, the feature store and the model path.
    """
    # layer calls go through module attributes, which the traced run wraps
    from widir import features as feat, model
    from widir.domain import day_of, day_start, index_contests, match_templates

    data = os.path.join(path, "data")
    world.write_dir(data)
    cutoff = day_start(train_end + dt.timedelta(days=1))
    stats = feat.fit_normalization(
        feat.enrich_joins([r for r in world.joins if r.joining_time < cutoff], index_contests(world.contests)),
        match_templates(world.contests),
        {m.match_id: day_of(m.start_time) for m in world.matches},
    )
    store = feat.SnapshotStore(os.path.join(path, "features"))
    store.write_manifest(stats)
    model_path = os.path.join(path, "model.bin")
    model.save_model(model_path, model.init_params(model.WidirDims(), seed))
    return data, store.root, model_path


def rank_requests(rng, joins, contests, upcoming) -> list[bytes]:
    """One `POST /rank` body per join into an upcoming match, in joining-time order.

    A join is a player who opened the match's contest list and picked from
    it, so the upcoming matches' joins are the traffic: the joining player (a
    payload hit, or cold when they joined nothing in the 30 days before the
    as-of day and so have no payload) and the match's live contests at that
    moment, in a fresh order. The generator keeps one open instance per
    template and opens the next when it fills at contest_size, so the live
    instance of a template is the (its joins so far // contest_size)-th of
    its instances in the catalog.
    """
    upcoming = set(upcoming)
    instances: dict[str, dict[str, list]] = {}  # match -> template -> instances, in fill order
    template_of = {}
    for c in contests:
        if c.match_id in upcoming:
            instances.setdefault(c.match_id, {}).setdefault(c.template_id, []).append(c)
            template_of[c.contest_id] = c.template_id
    joined: dict[tuple[str, str], int] = {}
    bodies = []
    for r in joins:  # the join log is in joining-time order
        if r.match_id not in upcoming:
            continue
        live = [
            {"contest_id": inst[joined.get((r.match_id, tid), 0) // inst[0].contest_size].contest_id,
             "template_id": tid}
            for tid, inst in instances[r.match_id].items()
        ]
        live = [live[k] for k in rng.permutation(len(live))]
        bodies.append(json.dumps({"player_id": r.player_id, "match_id": r.match_id, "contests": live}).encode())
        key = (r.match_id, template_of[r.contest_id])
        joined[key] = joined.get(key, 0) + 1
    return bodies


def handle_path(tracer, store, bodies) -> dict:
    """In-process `handle_rank_body` latency over a request mix, untraced then traced.

    `serving.run_latency_harness` times one player and one contest list; the
    mix needs many players, cold ones among them. The traced pass puts spans
    around parse_rank_request and rank_live; the rest of handle_rank_body is
    building and serializing the reply.
    """
    from widir import serving

    samples = []
    t0 = time.perf_counter()
    for k in range(HANDLE_CALLS):
        t1 = time.perf_counter_ns()
        serving.handle_rank_body(store, bodies[k % len(bodies)])
        samples.append((time.perf_counter_ns() - t1) / 1e3)
    plain = time.perf_counter() - t0

    tracer.patch_function(serving, "parse_rank_request", "serving.parse_rank_request")
    tracer.patch_function(serving, "rank_live", "serving.rank_live")
    mark = len(tracer.spans)
    t0 = time.perf_counter()
    try:
        for k in range(HANDLE_CALLS):
            with tracer.span("serving.handle_rank_body"):
                serving.handle_rank_body(store, bodies[k % len(bodies)])
    finally:
        tracer.restore()
    return {
        "p50_us": median(samples),
        "p99_us": percentile(samples, 99),
        "overhead_ratio": (time.perf_counter() - t0) / plain - 1.0,
        "coverage": tracer.coverage({"serving.handle_rank_body"}, mark),
    }

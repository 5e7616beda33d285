"""End-to-end phase runners behind the CLI, mirroring the four system phases:
data preparation, training, inference, serving, plus evaluation and the
simulated experiment. Each `run_<phase>` does the phase's work and records a
run manifest; `reproduce` calls the runner that recorded a manifest again,
into `<out>/reproduce/<run_id>/`, and compares the output digests.
"""

from __future__ import annotations

import datetime as dt
import json
import os
import shutil

import numpy as np

from . import abtest as ab
from .domain import (
    day_of,
    day_start,
    match_templates,
    index_contests,
    parse_day,
    read_catalog,
    read_schedule,
    validate_catalog,
)
from .errors import ConfigError, DataError
from .evaluation import EVAL_H_VALUES, GroundTruthScorer, ModelScorer, PopularityScorer, evaluate
from .features import (
    JoinTable,
    SnapshotCache,
    SnapshotStore,
    enrich_joins,
    fit_normalization,
    iter_snapshots,
)
from .generator import GeneratorConfig, generate_synthetic, load_world_dir
from .inference import read_payloads, run_batch, write_payloads
from .manifest import RunManifest, digest_path
from .model import WidirDims, load_model, save_model
from .textio import json_field, read_json, write_kv, write_replace
from .training import (
    TrainConfig,
    assemble_pair_dataset,
    build_ordered_lists,
    train,
    write_report,
)


def _new_run_id(phase: str, seed: int) -> str:
    stamp = dt.datetime.now(dt.timezone.utc).strftime("%Y%m%d%H%M%S")
    return f"{phase}-s{seed}-{stamp}-{os.getpid()}"


def _catalog(data_dir, contests, matches):
    """Each contest by id and each match's templates, from a checked catalog."""
    violations = validate_catalog(contests, matches)
    if violations:
        raise DataError(f"{data_dir}: invalid catalog: {violations[0]}")
    return index_contests(contests), match_templates(contests)


def _load_world(data_dir, archetypes: bool = False):
    """The join log enriched once, the matches, the archetypes (read only when
    `archetypes` is set), each match's templates and each match's day."""
    records, contests, matches, table = load_world_dir(data_dir, archetypes)
    by_id, by_match = _catalog(data_dir, contests, matches)
    match_days = {m.match_id: day_of(m.start_time) for m in matches}
    return enrich_joins(records, by_id), matches, table, by_match, match_days


def _split(joins: JoinTable, train_end: dt.date, valid_end: dt.date) -> tuple[JoinTable, JoinTable, JoinTable]:
    """The (train, valid, test) joins, cut at day boundaries: a boundary day
    belongs to the earlier side."""
    if not joins:
        raise DataError("join log is empty")
    first, last = day_of(int(joins.time.min())), day_of(int(joins.time.max()))
    if not (first <= train_end < valid_end <= last):
        raise ConfigError(
            f"split boundaries ({train_end}, {valid_end}) outside the log's "
            f"day range [{first}, {last}]"
        )
    cuts = [day_start(d + dt.timedelta(days=1)) for d in (train_end, valid_end)]
    side = np.searchsorted(cuts, joins.time, side="right")
    return joins.take(side == 0), joins.take(side == 1), joins.take(side == 2)


# --- generate -------------------------------------------------------------------


def run_generate(out_root, config_path, seed: int, run_id: str | None = None) -> RunManifest:
    config = GeneratorConfig.from_file(config_path)
    data_dir = os.path.join(str(out_root), "data")
    generate_synthetic(config, seed).write_dir(data_dir)
    write_kv(os.path.join(data_dir, "generator.kv"), config.to_kv_dict())
    m = RunManifest(run_id=run_id or _new_run_id("generate", seed), phase="generate", seed=seed)
    m.config = config.to_kv_dict()
    for name in ("joins.csv", "contests.csv", "matches.csv", "archetypes.csv", "generator.kv"):
        m.add_output(name, os.path.join(data_dir, name))
    m.save(out_root)
    return m


# --- features -------------------------------------------------------------------


def _read_splits(features_dir) -> tuple[dt.date, dt.date]:
    path = os.path.join(str(features_dir), "splits.json")
    context = f"split boundaries {path}"
    doc = read_json(path, context, DataError)
    train_end, valid_end = (json_field(doc, key, str, context, DataError) for key in ("train_end", "valid_end"))
    try:
        return parse_day(train_end), parse_day(valid_end)
    except ValueError as exc:
        raise DataError(f"{context}: {exc}") from exc


def run_features(
    out_root, data_dir, train_end: dt.date, valid_end: dt.date, run_id: str | None = None
) -> RunManifest:
    features_dir = os.path.join(str(out_root), "features")
    joins, matches, _, by_match, match_days = _load_world(data_dir)
    train_joins, _, _ = _split(joins, train_end, valid_end)
    if not train_joins:
        raise DataError("training partition is empty; move train_end later")
    stats = fit_normalization(train_joins, by_match, match_days)

    days = sorted({day_of(m.start_time) for m in matches})
    days.append(days[-1] + dt.timedelta(days=1))  # batch-inference day after the last match

    store = SnapshotStore(features_dir)
    store.write_manifest(stats)
    for _, snapshot in iter_snapshots(joins, days, stats):
        store.write_day(snapshot)
    splits = {"train_end": train_end.isoformat(), "valid_end": valid_end.isoformat()}
    with write_replace(os.path.join(features_dir, "splits.json")) as fh:
        json.dump(splits, fh, sort_keys=True)

    m = RunManifest(run_id=run_id or _new_run_id("features", 0), phase="features", seed=0)
    m.config = splits
    m.add_input("data", data_dir)
    m.add_output("features", features_dir)
    m.save(out_root)
    return m


# --- train ----------------------------------------------------------------------


def run_train(out_root, data_dir, features_dir, config_path, run_id: str | None = None) -> RunManifest:
    config = TrainConfig.from_file(config_path)
    models_dir = os.path.join(str(out_root), "models")
    os.makedirs(models_dir, exist_ok=True)
    model_path = os.path.join(models_dir, "model.bin")
    report_path = os.path.join(models_dir, "training_report.csv")

    joins, _, _, by_match, match_days = _load_world(data_dir)
    train_end, valid_end = _read_splits(features_dir)
    train_joins, valid_joins, _ = _split(joins, train_end, valid_end)
    store = SnapshotStore(features_dir)
    stats = store.read_manifest()
    snapshots = SnapshotCache(store)
    train_lists = build_ordered_lists(train_joins, by_match, config.list_length, config.seed)
    valid_lists = build_ordered_lists(valid_joins, by_match, config.list_length, config.seed)
    max_pairs = config.max_pairs_per_list
    train_ds = assemble_pair_dataset(
        train_lists, snapshots, by_match, match_days, stats, max_pairs, config.seed
    )
    valid_ds = assemble_pair_dataset(
        valid_lists, snapshots, by_match, match_days, stats, max_pairs, config.seed
    )
    result = train(config, WidirDims(), train_ds, valid_ds)
    save_model(model_path, result.params)
    write_report(report_path, result.report)

    m = RunManifest(run_id=run_id or _new_run_id("train", config.seed), phase="train", seed=config.seed)
    m.config = config.to_kv_dict()
    m.add_input("data", data_dir)
    m.add_input("features", features_dir)
    m.add_output("model.bin", model_path)
    m.add_output("training_report.csv", report_path, verify=False)  # wall-clock timing
    m.save(out_root)
    return m


# --- eval -----------------------------------------------------------------------


def run_eval(out_root, data_dir, features_dir, model_path, run_id: str | None = None) -> RunManifest:
    report_dir = os.path.join(str(out_root), "reports")
    joins, _, _, by_match, match_days = _load_world(data_dir)
    train_end, valid_end = _read_splits(features_dir)
    _, _, test_joins = _split(joins, train_end, valid_end)
    if not test_joins:
        raise DataError("test partition is empty; move valid_end earlier")
    snapshots = SnapshotCache(SnapshotStore(features_dir))
    params = load_model(model_path)

    os.makedirs(report_dir, exist_ok=True)
    m = RunManifest(run_id=run_id or _new_run_id("eval", 0), phase="eval", seed=0)
    for scorer in (ModelScorer(params), PopularityScorer()):
        report = evaluate(scorer, test_joins, by_match, match_days, snapshots, EVAL_H_VALUES)
        path = os.path.join(report_dir, f"eval_{scorer.name}.txt")
        with write_replace(path) as fh:
            fh.write(report.to_text())
        m.add_output(f"eval_{scorer.name}.txt", path)
    m.add_input("data", data_dir)
    m.add_input("features", features_dir)
    m.add_input("model.bin", model_path)
    m.save(out_root)
    return m


# --- infer ----------------------------------------------------------------------


def run_infer(
    out_root, data_dir, features_dir, model_path, as_of_day: dt.date,
    horizon: int = 3, run_id: str | None = None,
) -> RunManifest:
    if horizon < 1:
        raise ConfigError(f"horizon must be at least 1 day, got {horizon}")
    payload_dir = os.path.join(str(out_root), "payloads")
    os.makedirs(payload_dir, exist_ok=True)
    payloads_path = os.path.join(payload_dir, "payloads.jsonl")

    matches = read_schedule(os.path.join(str(data_dir), "matches.csv"))
    _, by_match = _catalog(data_dir, read_catalog(os.path.join(str(data_dir), "contests.csv")), matches)
    snapshot = SnapshotCache(SnapshotStore(features_dir)).get(as_of_day)
    params = load_model(model_path)
    model_version = digest_path(model_path)[:12]

    upcoming = [
        (m, by_match[m.match_id])
        for m in matches
        if as_of_day <= day_of(m.start_time) < as_of_day + dt.timedelta(days=horizon)
    ]
    if not upcoming:
        raise DataError(
            f"no matches start within {horizon} day(s) of {as_of_day.isoformat()}"
        )
    payloads = run_batch(
        params, snapshot, upcoming, snapshot.players.keys(),
        model_version=model_version, generated_at=day_start(as_of_day),
    )
    write_payloads(payloads_path, payloads)

    m = RunManifest(run_id=run_id or _new_run_id("infer", 0), phase="infer", seed=0)
    m.config = {"as_of_day": as_of_day.isoformat(), "horizon": str(horizon)}
    m.add_input("data", data_dir)
    m.add_input("features", features_dir)
    m.add_input("model.bin", model_path)
    m.add_output("payloads.jsonl", payloads_path)
    m.save(out_root)
    return m


# --- abtest ---------------------------------------------------------------------


def run_abtest(out_root, data_dir, config_path, payloads_path=None, run_id: str | None = None) -> RunManifest:
    config = ab.ABConfig.from_file(config_path)
    report_dir = os.path.join(str(out_root), "reports")
    os.makedirs(report_dir, exist_ok=True)
    report_path = os.path.join(report_dir, "ab_report.txt")

    joins, matches, archetypes, by_match, _ = _load_world(data_dir, archetypes=True)
    if not archetypes:
        raise DataError("abtest needs the generator's archetype table (archetypes.csv)")
    gen_path = os.path.join(str(data_dir), "generator.kv")
    if not os.path.exists(gen_path):
        raise DataError(f"abtest needs the generator's config ({gen_path})")
    gen_config = GeneratorConfig.from_file(gen_path)

    last_day = max(day_of(m.start_time) for m in matches)
    post_start = last_day - dt.timedelta(days=config.post_days - 1)
    pre_start = post_start - dt.timedelta(days=config.pre_days)
    pre_matches = [
        (m, by_match[m.match_id]) for m in matches if pre_start <= day_of(m.start_time) < post_start
    ]
    post_matches = [
        (m, by_match[m.match_id]) for m in matches if post_start <= day_of(m.start_time) <= last_day
    ]
    if not pre_matches or not post_matches:
        raise DataError("experiment windows contain no matches; shrink pre_days/post_days")

    active, counts = np.unique(joins.player_id[joins.time < day_start(pre_start)], return_counts=True)
    activity = dict(zip(active.tolist(), counts.tolist()))

    players = sorted(archetypes)
    assignment = ab.assign_cohorts(players, activity, config.group_sizes, config.seed)

    policies: dict[str, object] = {}
    for group, name in config.policies.items():
        if name == "popularity":
            policies[group] = PopularityScorer()
        elif name == "ground_truth":
            policies[group] = GroundTruthScorer(archetypes)
        elif name == "payloads":
            if payloads_path is None:
                raise ConfigError(f"policy.{group} = payloads requires --payloads")
            policies[group] = ab.PayloadScorer(read_payloads(payloads_path))
        else:
            raise ConfigError(f"unknown policy {name!r} for group {group}")

    common = dict(
        assignment=assignment,
        policies=policies,
        archetypes=archetypes,
        participation_rate=gen_config.participation_rate,
        seed=config.seed,
        boost=config.boost,
        h_exposed=config.h_exposed,
    )
    pre_aggs, pre_joins = ab.simulate_period(matches=pre_matches, period="pre", **common)
    post_aggs, post_joins = ab.simulate_period(matches=post_matches, period="post", **common)

    for aggs, sim_joins in ((pre_aggs, pre_joins), (post_aggs, post_joins)):
        for g, agg in aggs.items():
            fees = sum(j.entry_fee for j in sim_joins if j.group == g)
            prizes = sum(j.prize_won for j in sim_joins if j.group == g)
            if agg.cea != fees or agg.ggr != fees - prizes:
                raise DataError("GGR conservation violated in simulation aggregates")

    with write_replace(report_path) as fh:
        fh.write(ab.ab_report_text(pre_aggs, post_aggs))

    m = RunManifest(run_id=run_id or _new_run_id("abtest", config.seed), phase="abtest", seed=config.seed)
    m.config = config.to_kv_dict()
    m.add_input("data", data_dir)
    if payloads_path is not None:
        m.add_input("payloads.jsonl", payloads_path)
    m.add_output("ab_report.txt", report_path)
    m.save(out_root)
    return m


# --- reproduce ------------------------------------------------------------------


def _replay(m: RunManifest, root: str) -> RunManifest:
    """Call the runner that recorded `m` into `root`, with its recorded inputs, seed and config."""

    def path(name: str) -> str:
        if name not in m.inputs:
            raise DataError(f"run {m.run_id}: the {m.phase} manifest has no input {name!r}")
        return m.inputs[name]["path"]

    def config(key: str, parse):
        try:
            return parse(m.config[key])
        except (KeyError, ValueError) as exc:
            raise DataError(f"run {m.run_id}: missing or bad config {key!r}: {exc!r}") from exc

    def config_file() -> str:
        config_path = os.path.join(root, f"{m.phase}.kv")
        write_kv(config_path, m.config)
        return config_path

    payloads = m.inputs.get("payloads.jsonl", {}).get("path")
    runners = {
        "generate": lambda: run_generate(root, config_file(), m.seed, m.run_id),
        "features": lambda: run_features(
            root, path("data"), config("train_end", parse_day), config("valid_end", parse_day), m.run_id
        ),
        "train": lambda: run_train(root, path("data"), path("features"), config_file(), m.run_id),
        "eval": lambda: run_eval(root, path("data"), path("features"), path("model.bin"), m.run_id),
        "infer": lambda: run_infer(
            root, path("data"), path("features"), path("model.bin"),
            config("as_of_day", parse_day), config("horizon", int), m.run_id,
        ),
        "abtest": lambda: run_abtest(root, path("data"), config_file(), payloads, m.run_id),
    }
    if m.phase not in runners:
        raise DataError(f"phase {m.phase!r} cannot be reproduced")
    return runners[m.phase]()


def run_reproduce(out_root, run_id: str) -> dict:
    """Re-run a recorded phase through its own runner into `<out>/reproduce/<run_id>/`
    (emptied first) and compare each digest-verified output with the recorded one."""
    m = RunManifest.load(out_root, run_id)
    for name, entry in m.inputs.items():
        actual = digest_path(entry["path"]) if os.path.exists(entry["path"]) else "missing"
        if actual != entry["sha256"]:
            raise DataError(
                f"input {name!r} at {entry['path']} changed since run {run_id} "
                f"(digest {actual[:12]} != {entry['sha256'][:12]})"
            )

    redo_root = os.path.join(str(out_root), "reproduce", run_id)
    if os.path.exists(redo_root):
        shutil.rmtree(redo_root)
    os.makedirs(redo_root)
    fresh = _replay(m, redo_root)

    artifacts = {}
    for name, entry in m.outputs.items():
        if not entry["verify"]:
            artifacts[name] = {"verified": False}
            continue
        actual = fresh.outputs.get(name, {"sha256": "missing"})["sha256"]
        artifacts[name] = {
            "verified": True,
            "expected": entry["sha256"],
            "actual": actual,
            "match": actual == entry["sha256"],
        }
    ok = all(a.get("match", True) for a in artifacts.values())
    return {"run_id": run_id, "phase": m.phase, "ok": ok, "artifacts": artifacts}

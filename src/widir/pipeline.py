"""End-to-end phase runners behind the CLI, mirroring the four system phases:
data preparation, training, inference, serving, plus evaluation and the
simulated experiment. Every phase records a run manifest; `reproduce`
re-executes a phase from its manifest and digest-checks the outputs.
"""

from __future__ import annotations

import datetime as dt
import json
import os

from . import abtest as ab
from .domain import (
    day_of,
    day_start,
    match_templates,
    index_contests,
    parse_day,
    split_by_time,
    validate_catalog,
)
from .errors import ConfigError, DataError
from .evaluation import EVAL_H_VALUES, GroundTruthScorer, ModelScorer, PopularityScorer, evaluate
from .features import (
    SnapshotCache,
    SnapshotStore,
    enrich_joins,
    fit_normalization,
    iter_snapshots,
)
from .generator import GeneratorConfig, SyntheticWorld, generate_synthetic, load_world_dir
from .inference import active_players, read_payloads, run_batch, write_payloads
from .manifest import RunManifest, digest_path
from .model import WidirDims, load_model, save_model
from .textio import write_kv, write_replace
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


def _load_world(data_dir):
    joins, contests, matches, archetypes = load_world_dir(data_dir)
    violations = validate_catalog(contests, matches)
    if violations:
        raise DataError(f"{data_dir}: invalid catalog: {violations[0]}")
    by_id = index_contests(contests)
    by_match = match_templates(contests)
    match_days = {m.match_id: day_of(m.start_time) for m in matches}
    return joins, contests, matches, archetypes, by_id, by_match, match_days


def _split_events(joins, by_id, train_end: dt.date, valid_end: dt.date):
    """Partition at day boundaries: a boundary day belongs to the earlier side."""
    days = sorted({day_of(r.joining_time) for r in joins})
    if not days:
        raise DataError("join log is empty")
    if not (days[0] <= train_end < valid_end <= days[-1]):
        raise ConfigError(
            f"split boundaries ({train_end}, {valid_end}) outside the log's "
            f"day range [{days[0]}, {days[-1]}]"
        )
    train_ts = day_start(train_end + dt.timedelta(days=1)) - 1
    valid_ts = day_start(valid_end + dt.timedelta(days=1)) - 1
    train_j, valid_j, test_j = split_by_time(joins, train_ts, valid_ts)
    return (
        enrich_joins(train_j, by_id),
        enrich_joins(valid_j, by_id),
        enrich_joins(test_j, by_id),
    )


# --- generate -------------------------------------------------------------------


def _generate_impl(data_dir, config: GeneratorConfig, seed: int) -> SyntheticWorld:
    world = generate_synthetic(config, seed)
    world.write_dir(data_dir)
    write_kv(os.path.join(data_dir, "generator.kv"), config.to_kv_dict())
    return world


def run_generate(out_root, config_path, seed: int, run_id: str | None = None) -> RunManifest:
    config = GeneratorConfig.from_file(config_path)
    data_dir = os.path.join(str(out_root), "data")
    _generate_impl(data_dir, config, seed)
    m = RunManifest(run_id=run_id or _new_run_id("generate", seed), phase="generate", seed=seed)
    m.config = dict(config.to_kv_dict())
    for name in ("joins.csv", "contests.csv", "matches.csv", "archetypes.csv", "generator.kv"):
        m.add_output(name, os.path.join(data_dir, name))
    m.save(out_root)
    return m


# --- features -------------------------------------------------------------------


def _features_impl(data_dir, features_dir, train_end: dt.date, valid_end: dt.date) -> None:
    joins, contests, matches, _, by_id, by_match, match_days = _load_world(data_dir)
    train_ev, _, _ = _split_events(joins, by_id, train_end, valid_end)
    if not train_ev:
        raise DataError("training partition is empty; move train_end later")
    stats = fit_normalization(train_ev, by_match, match_days)

    all_events = enrich_joins(joins, by_id)
    days = sorted({day_of(m.start_time) for m in matches})
    days.append(days[-1] + dt.timedelta(days=1))  # batch-inference day after the last match

    store = SnapshotStore(features_dir)
    store.write_manifest(stats)
    for _, snapshot in iter_snapshots(all_events, days, stats):
        store.write_day(snapshot)
    splits = {"train_end": train_end.isoformat(), "valid_end": valid_end.isoformat()}
    with write_replace(os.path.join(features_dir, "splits.json")) as fh:
        json.dump(splits, fh, sort_keys=True)


def _read_splits(features_dir) -> tuple[dt.date, dt.date]:
    path = os.path.join(str(features_dir), "splits.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"missing split boundaries at {path}") from exc
    except ValueError as exc:
        raise DataError(f"{path}: split boundaries are not JSON: {exc}") from exc
    try:
        return parse_day(doc["train_end"]), parse_day(doc["valid_end"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad split boundaries: {exc!r}") from exc


def run_features(
    out_root, data_dir, train_end: dt.date, valid_end: dt.date, run_id: str | None = None
) -> RunManifest:
    features_dir = os.path.join(str(out_root), "features")
    _features_impl(data_dir, features_dir, train_end, valid_end)
    m = RunManifest(run_id=run_id or _new_run_id("features", 0), phase="features", seed=0)
    m.config = {"train_end": train_end.isoformat(), "valid_end": valid_end.isoformat()}
    m.add_input("data", data_dir)
    m.add_output("features", features_dir)
    m.save(out_root)
    return m


# --- train ----------------------------------------------------------------------


def _train_impl(data_dir, features_dir, model_path, report_path, config: TrainConfig) -> None:
    joins, _, _, _, by_id, by_match, match_days = _load_world(data_dir)
    train_end, valid_end = _read_splits(features_dir)
    train_ev, valid_ev, _ = _split_events(joins, by_id, train_end, valid_end)

    store = SnapshotStore(features_dir)
    stats = store.read_manifest()
    snapshots = SnapshotCache(store)

    train_lists = build_ordered_lists(train_ev, by_match, config.list_length, config.seed)
    valid_lists = build_ordered_lists(valid_ev, by_match, config.list_length, config.seed)
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


def run_train(out_root, data_dir, features_dir, config_path, run_id: str | None = None) -> RunManifest:
    config = TrainConfig.from_file(config_path)
    models_dir = os.path.join(str(out_root), "models")
    os.makedirs(models_dir, exist_ok=True)
    model_path = os.path.join(models_dir, "model.bin")
    report_path = os.path.join(models_dir, "training_report.csv")
    _train_impl(data_dir, features_dir, model_path, report_path, config)
    m = RunManifest(run_id=run_id or _new_run_id("train", config.seed), phase="train", seed=config.seed)
    m.config = {k: str(v) for k, v in config.__dict__.items()}
    m.add_input("data", data_dir)
    m.add_input("features", features_dir)
    m.add_output("model.bin", model_path)
    m.add_output("training_report.csv", report_path, verify=False)  # wall-clock timing
    m.save(out_root)
    return m


# --- eval -----------------------------------------------------------------------


def _eval_impl(data_dir, features_dir, model_path, report_dir) -> dict[str, str]:
    joins, _, _, _, by_id, by_match, match_days = _load_world(data_dir)
    train_end, valid_end = _read_splits(features_dir)
    _, _, test_ev = _split_events(joins, by_id, train_end, valid_end)
    if not test_ev:
        raise DataError("test partition is empty; move valid_end earlier")
    snapshots = SnapshotCache(SnapshotStore(features_dir))
    params = load_model(model_path)

    os.makedirs(report_dir, exist_ok=True)
    outputs: dict[str, str] = {}
    for scorer in (ModelScorer(params), PopularityScorer()):
        report = evaluate(scorer, test_ev, by_match, match_days, snapshots, EVAL_H_VALUES)
        path = os.path.join(report_dir, f"eval_{scorer.name}.txt")
        with write_replace(path) as fh:
            fh.write(report.to_text())
        outputs[f"eval_{scorer.name}.txt"] = path
    return outputs


def run_eval(out_root, data_dir, features_dir, model_path, run_id: str | None = None) -> RunManifest:
    report_dir = os.path.join(str(out_root), "reports")
    outputs = _eval_impl(data_dir, features_dir, model_path, report_dir)
    m = RunManifest(run_id=run_id or _new_run_id("eval", 0), phase="eval", seed=0)
    m.add_input("data", data_dir)
    m.add_input("features", features_dir)
    m.add_input("model.bin", model_path)
    for name, path in outputs.items():
        m.add_output(name, path)
    m.save(out_root)
    return m


# --- infer ----------------------------------------------------------------------


def _infer_impl(data_dir, features_dir, model_path, payloads_path, as_of_day: dt.date, horizon: int) -> None:
    joins, _, matches, _, _, by_match, _ = _load_world(data_dir)
    store = SnapshotStore(features_dir)
    if not store.has_day(as_of_day):
        raise DataError(f"feature snapshot missing for day {as_of_day.isoformat()}")
    snapshot = store.read_day(as_of_day)
    params = load_model(model_path)
    model_version = digest_path(model_path)[:12]

    active = active_players(joins, as_of_day)
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
        params, snapshot, upcoming, active,
        model_version=model_version, generated_at=day_start(as_of_day),
    )
    write_payloads(payloads_path, payloads)


def run_infer(
    out_root, data_dir, features_dir, model_path, as_of_day: dt.date,
    horizon: int = 3, run_id: str | None = None,
) -> RunManifest:
    payload_dir = os.path.join(str(out_root), "payloads")
    os.makedirs(payload_dir, exist_ok=True)
    payloads_path = os.path.join(payload_dir, "payloads.jsonl")
    _infer_impl(data_dir, features_dir, model_path, payloads_path, as_of_day, horizon)
    m = RunManifest(run_id=run_id or _new_run_id("infer", 0), phase="infer", seed=0)
    m.config = {"as_of_day": as_of_day.isoformat(), "horizon": str(horizon)}
    m.add_input("data", data_dir)
    m.add_input("features", features_dir)
    m.add_input("model.bin", model_path)
    m.add_output("payloads.jsonl", payloads_path)
    m.save(out_root)
    return m


# --- abtest ---------------------------------------------------------------------


def _abtest_impl(data_dir, report_path, config: ab.ABConfig, payloads_path=None) -> None:
    joins, _, matches, archetypes, _, by_match, _ = _load_world(data_dir)
    if not archetypes:
        raise DataError("abtest needs the generator's archetype table (archetypes.csv)")
    gen_path = os.path.join(str(data_dir), "generator.kv")
    if not os.path.exists(gen_path):
        raise DataError(f"abtest needs the generator's config ({gen_path})")
    gen_config = GeneratorConfig.from_file(gen_path)

    last_day = max(day_of(m.start_time) for m in matches)
    post_start = last_day - dt.timedelta(days=config.post_days - 1)
    pre_start = post_start - dt.timedelta(days=config.pre_days)

    def in_window(m, lo, hi):
        return lo <= day_of(m.start_time) < hi

    pre_matches = [(m, by_match[m.match_id]) for m in matches if in_window(m, pre_start, post_start)]
    post_matches = [
        (m, by_match[m.match_id])
        for m in matches
        if post_start <= day_of(m.start_time) <= last_day
    ]
    if not pre_matches or not post_matches:
        raise DataError("experiment windows contain no matches; shrink pre_days/post_days")

    activity: dict[str, int] = {}
    pre_start_ts = day_start(pre_start)
    for r in joins:
        if r.joining_time < pre_start_ts:
            activity[r.player_id] = activity.get(r.player_id, 0) + 1

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


def run_abtest(out_root, data_dir, config_path, payloads_path=None, run_id: str | None = None) -> RunManifest:
    config = ab.ABConfig.from_file(config_path)
    report_dir = os.path.join(str(out_root), "reports")
    os.makedirs(report_dir, exist_ok=True)
    report_path = os.path.join(report_dir, "ab_report.txt")
    _abtest_impl(data_dir, report_path, config, payloads_path)
    m = RunManifest(run_id=run_id or _new_run_id("abtest", config.seed), phase="abtest", seed=config.seed)
    m.config = {
        **{f"group.{g}": str(s) for g, s in config.group_sizes.items()},
        **{f"policy.{g}": p for g, p in config.policies.items()},
        "boost": repr(config.boost),
        "h_exposed": str(config.h_exposed),
        "pre_days": str(config.pre_days),
        "post_days": str(config.post_days),
        "seed": str(config.seed),
    }
    m.add_input("data", data_dir)
    if payloads_path is not None:
        m.add_input("payloads.jsonl", payloads_path)
    m.add_output("ab_report.txt", report_path)
    m.save(out_root)
    return m


# --- reproduce ------------------------------------------------------------------


def run_reproduce(out_root, run_id: str) -> dict:
    """Re-execute a recorded phase and digest-check its verifiable outputs."""
    m = RunManifest.load(out_root, run_id)
    for name, entry in m.inputs.items():
        actual = digest_path(entry["path"])
        if actual != entry["sha256"]:
            raise DataError(
                f"input {name!r} at {entry['path']} changed since run {run_id} "
                f"(digest {actual[:12]} != {entry['sha256'][:12]})"
            )

    redo_root = os.path.join(str(out_root), "reproduce", run_id)
    os.makedirs(redo_root, exist_ok=True)

    def out(name: str) -> str:
        return os.path.join(redo_root, name)

    if m.phase == "generate":
        config = GeneratorConfig.from_kv_dict(m.config)
        _generate_impl(redo_root, config, m.seed)
        fresh = {name: out(name) for name in m.outputs}
    elif m.phase == "features":
        _features_impl(
            m.inputs["data"]["path"], out("features"),
            parse_day(m.config["train_end"]), parse_day(m.config["valid_end"]),
        )
        fresh = {"features": out("features")}
    elif m.phase == "train":
        config = TrainConfig.from_kv_dict({k: v for k, v in m.config.items()})
        _train_impl(
            m.inputs["data"]["path"], m.inputs["features"]["path"],
            out("model.bin"), out("training_report.csv"), config,
        )
        fresh = {"model.bin": out("model.bin"), "training_report.csv": out("training_report.csv")}
    elif m.phase == "eval":
        outputs = _eval_impl(
            m.inputs["data"]["path"], m.inputs["features"]["path"],
            m.inputs["model.bin"]["path"], redo_root,
        )
        fresh = {name: path for name, path in outputs.items()}
    elif m.phase == "infer":
        _infer_impl(
            m.inputs["data"]["path"], m.inputs["features"]["path"],
            m.inputs["model.bin"]["path"], out("payloads.jsonl"),
            parse_day(m.config["as_of_day"]), int(m.config["horizon"]),
        )
        fresh = {"payloads.jsonl": out("payloads.jsonl")}
    elif m.phase == "abtest":
        config = ab.ABConfig.from_kv_dict(m.config)
        payloads = m.inputs.get("payloads.jsonl", {}).get("path")
        _abtest_impl(m.inputs["data"]["path"], out("ab_report.txt"), config, payloads)
        fresh = {"ab_report.txt": out("ab_report.txt")}
    else:
        raise DataError(f"phase {m.phase!r} cannot be reproduced")

    artifacts = {}
    ok = True
    for name, entry in m.outputs.items():
        if not entry.get("verify", True):
            artifacts[name] = {"verified": False}
            continue
        actual = digest_path(fresh[name])
        match = actual == entry["sha256"]
        ok = ok and match
        artifacts[name] = {
            "verified": True,
            "expected": entry["sha256"],
            "actual": actual,
            "match": match,
        }
    return {"run_id": run_id, "phase": m.phase, "ok": ok, "artifacts": artifacts}

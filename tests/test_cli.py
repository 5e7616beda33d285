import dataclasses
import datetime as dt
import json
import os
import shutil

import numpy as np
import pytest

from widir.cli import main
from widir.domain import day_start, index_contests, read_join_log
from widir.errors import ConfigError, DataError
from widir.evaluation import EvalReport
from widir.features import JoinTable, SnapshotStore, enrich_joins
from widir.inference import active_players
from widir.manifest import RunManifest
from widir.model import load_model, save_model
from widir.pipeline import _read_splits, _split

from conftest import DAY0, mk_contest, mk_join
from feature_oracle import split_by_time
from test_inference import CORRUPTIONS, _corrupt

GEN_KV = """\
players = 120
matches = 48
templates_per_match = 15
template_pool = 20
start_day = 2025-01-01
end_day = 2025-02-17
participation_rate = 0.3
"""

TRAIN_KV = """\
learning_rate = 0.005
epochs = 3
batch_size = 512
validation_batch_size = 4096
early_stopping_rounds = 15
list_length = 50
max_pairs_per_list = 20
seed = 3
"""

AB_KV = """\
group.CG = 50
group.TG1 = 50
policy.TG1 = ground_truth
boost = 2.0
h_exposed = 5
pre_days = 10
post_days = 10
seed = 1
"""

AB_PAYLOADS_KV = AB_KV.replace("policy.TG1 = ground_truth", "policy.TG1 = payloads")


@pytest.fixture(scope="module")
def pipeline_root(tmp_path_factory):
    """Run the documented quick-start sequence once, start to finish."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "run"
    (root / "gen.kv").write_text(GEN_KV)
    (root / "train.kv").write_text(TRAIN_KV)
    (root / "ab.kv").write_text(AB_KV)
    (root / "ab-payloads.kv").write_text(AB_PAYLOADS_KV)

    steps = [
        ["generate", "--out", str(out), "--config", str(root / "gen.kv"), "--seed", "42",
         "--run-id", "gen-1"],
        ["features", "--out", str(out), "--train-end", "2025-01-30", "--valid-end", "2025-02-07",
         "--run-id", "feat-1"],
        ["train", "--out", str(out), "--config", str(root / "train.kv"), "--run-id", "train-1"],
        ["eval", "--out", str(out), "--run-id", "eval-1"],
        ["infer", "--out", str(out), "--as-of", "2025-02-17", "--horizon", "2",
         "--run-id", "infer-1"],
        ["abtest", "--out", str(out), "--config", str(root / "ab.kv"), "--run-id", "ab-1"],
        ["abtest", "--out", str(out), "--config", str(root / "ab-payloads.kv"),
         "--payloads", str(out / "payloads" / "payloads.jsonl"), "--run-id", "ab-payloads-1"],
    ]
    for argv in steps:
        assert main(argv) == 0, f"step failed: {argv[0]}"
    return out


class TestPipeline:
    def test_manifests_and_artifacts_exist(self, pipeline_root):
        for run_id in ("gen-1", "feat-1", "train-1", "eval-1", "infer-1", "ab-1", "ab-payloads-1"):
            manifest = RunManifest.load(pipeline_root, run_id)
            for name, entry in manifest.outputs.items():
                assert os.path.exists(entry["path"]), f"{run_id}: missing {name}"

    def test_eval_reports_parse(self, pipeline_root):
        report = EvalReport.from_text(
            (pipeline_root / "reports" / "eval_widir.txt").read_text()
        )
        assert report.n_pairs > 0
        assert set(report.recall) == {1, 3, 5, 10}
        report.validate()

    def test_reproduce_generate_digests_match(self, pipeline_root, capsys):
        _reproduce_twice(pipeline_root, "gen-1", capsys)

    def test_reproduce_infer_digests_match(self, pipeline_root, capsys):
        _reproduce_twice(pipeline_root, "infer-1", capsys)

    @pytest.mark.parametrize("run_id", ["feat-1", "train-1", "eval-1", "ab-1", "ab-payloads-1"])
    def test_reproduce_phase_digests_match(self, pipeline_root, capsys, run_id):
        out = _reproduce_twice(pipeline_root, run_id, capsys)
        if run_id == "train-1":
            assert "training_report.csv: skipped (not digest-verified)" in out
            assert "model.bin: match" in out

    def test_reproduce_edited_output_digest_mismatch_exit_2(self, pipeline_root, capsys):
        doc = json.loads((pipeline_root / "manifests" / "infer-1.json").read_text())
        doc["run_id"] = "infer-edited"
        doc["outputs"]["payloads.jsonl"]["sha256"] = "0" * 64
        (pipeline_root / "manifests" / "infer-edited.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["reproduce", "infer-edited", "--out", str(pipeline_root)]) == 2
        out = capsys.readouterr().out
        assert "payloads.jsonl: MISMATCH" in out and "reproduce FAILED: run_id=infer-edited" in out

    def test_reproduce_relative_out_from_another_directory(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "gen.kv").write_text(GEN_KV)
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        assert main(["generate", "--out", "run", "--config", str(tmp_path / "gen.kv"), "--seed", "5",
                     "--run-id", "gen-rel"]) == 0
        assert main(["features", "--out", "run", "--train-end", "2025-01-30", "--valid-end", "2025-02-07",
                     "--run-id", "feat-rel"]) == 0
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["reproduce", "feat-rel", "--out", os.path.join("work", "run")]) == 0
        assert "reproduce ok: run_id=feat-rel" in capsys.readouterr().out

    def test_every_stored_day_holds_the_active_players(self, pipeline_root):
        """The batch job scores a snapshot's players; they are the players `active_players` counts."""
        joins = read_join_log(pipeline_root / "data" / "joins.csv")
        store = SnapshotStore(pipeline_root / "features")
        assert store.days()
        for day in store.days():
            assert sorted(store.read_day(day).players) == sorted(active_players(joins, day)), day

    def test_payloads_exist_and_are_json(self, pipeline_root):
        lines = (pipeline_root / "payloads" / "payloads.jsonl").read_text().splitlines()
        assert lines
        doc = json.loads(lines[0])
        assert {"match_id", "template_ids", "player_ids", "scores", "generated_at", "model_version"} <= set(doc)


def _reproduce_twice(root, run_id, capsys) -> str:
    """Reproduce `run_id` twice; the second run finds and empties the first one's directory.

    Each run leaves a run's layout under `reproduce/<run_id>/`: its manifest, and every
    output at the path the recorded run used relative to its own root.
    """
    recorded = RunManifest.load(root, run_id)
    redo = root / "reproduce" / run_id
    for attempt in range(2):
        if attempt:
            (redo / "stray.txt").write_text("left by an earlier run")
        capsys.readouterr()
        assert main(["reproduce", run_id, "--out", str(root)]) == 0
        out = capsys.readouterr().out
        assert f"reproduce ok: run_id={run_id}" in out and "MISMATCH" not in out
        assert not (redo / "stray.txt").exists()
        fresh = RunManifest.load(redo, run_id)
        assert fresh.phase == recorded.phase and set(fresh.outputs) == set(recorded.outputs)
        for name, entry in recorded.outputs.items():
            assert os.path.relpath(fresh.outputs[name]["path"], redo) == os.path.relpath(entry["path"], root)
    return out


def _table(joins) -> JoinTable:
    return enrich_joins(joins, {"c1": mk_contest()})


def _columns(table: JoinTable) -> dict:
    return {f.name: getattr(table, f.name).tolist() for f in dataclasses.fields(table)}


class TestSplit:
    def test_partition_by_day(self):
        joins = [mk_join(player=f"p{i}", day=DAY0 + dt.timedelta(days=i)) for i in range(10)]
        train, valid, test = _split(_table(joins), DAY0 + dt.timedelta(days=5), DAY0 + dt.timedelta(days=7))
        assert [t.player_id.tolist() for t in (train, valid, test)] == [
            [f"p{i}" for i in range(6)], ["p6", "p7"], ["p8", "p9"]]

    def test_boundary_day_goes_to_earlier_partition(self):
        end = day_start(DAY0 + dt.timedelta(days=1))
        joins = [mk_join(player="first", day=DAY0, hour=0),
                 dataclasses.replace(mk_join(player="last-second"), joining_time=end - 1),
                 dataclasses.replace(mk_join(player="next-day"), joining_time=end),
                 mk_join(player="end", day=DAY0 + dt.timedelta(days=2))]
        train, valid, test = _split(_table(joins), DAY0, DAY0 + dt.timedelta(days=1))
        assert [t.player_id.tolist() for t in (train, valid, test)] == [
            ["first", "last-second"], ["next-day"], ["end"]]

    @pytest.mark.parametrize("train_end, valid_end", [(0, 0), (1, 0), (-1, 1), (0, 3)])
    def test_boundaries_outside_the_log_or_not_increasing_are_config_errors(self, train_end, valid_end):
        joins = _table([mk_join(day=DAY0 + dt.timedelta(days=i)) for i in range(3)])
        with pytest.raises(ConfigError, match="split boundaries"):
            _split(joins, DAY0 + dt.timedelta(days=train_end), DAY0 + dt.timedelta(days=valid_end))

    def test_empty_log_is_data_error(self):
        with pytest.raises(DataError, match="join log is empty"):
            _split(_table([]), DAY0, DAY0 + dt.timedelta(days=1))

    @pytest.mark.parametrize("train_days, valid_days", [(10, 20), (0, 1), (30, 53)])
    def test_equals_the_record_split(self, tiny_world, train_days, valid_days):
        """Each partition is the enriched record partition of `split_by_time`, column for column."""
        by_id = index_contests(tiny_world.contests)
        train_end, valid_end = (DAY0 + dt.timedelta(days=d) for d in (train_days, valid_days))  # log: DAY0 + 0..54
        records = split_by_time(tiny_world.joins, day_start(train_end + dt.timedelta(days=1)) - 1,
                                day_start(valid_end + dt.timedelta(days=1)) - 1)
        tables = _split(enrich_joins(tiny_world.joins, by_id), train_end, valid_end)
        assert [len(t) for t in tables] == [len(r) for r in records]
        for table, part in zip(tables, records):
            assert _columns(table) == _columns(enrich_joins(part, by_id))


class TestErrorPaths:
    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "gen.kv"
        bad.write_text(GEN_KV + "flux_capacitor = 1\n")
        code = main(["generate", "--out", str(tmp_path / "o"), "--config", str(bad), "--seed", "1"])
        assert code == 1
        assert "flux_capacitor" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, named", [("group.CG", "abc", "abc"), ("boost", "nan", "boost"),
                                                    ("boost", "inf", "boost")])
    def test_bad_ab_value_exit_1(self, pipeline_root, tmp_path, capsys, key, value, named):
        bad = tmp_path / "ab.kv"
        kept = [l for l in AB_KV.splitlines() if not l.startswith(f"{key} ")]
        bad.write_text("\n".join(kept + [f"{key} = {value}"]) + "\n")
        code = main(["abtest", "--out", str(pipeline_root), "--config", str(bad), "--run-id", "ab-bad"])
        assert code == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_learning_rate_exit_1(self, pipeline_root, tmp_path, capsys, rate):
        bad = tmp_path / "train.kv"
        bad.write_text(TRAIN_KV.replace("learning_rate = 0.005", f"learning_rate = {rate}"))
        code = main(["train", "--out", str(pipeline_root), "--config", str(bad), "--run-id", "train-bad"])
        assert code == 1
        assert "learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("weight", "inf"), ("jitter", "nan")])
    def test_non_finite_archetype_value_exit_1(self, tmp_path, capsys, key, value):
        group = {"weight": "1.0", "jitter": "0.1", "preferred_log_entry_fee": "2.0", "fee_sensitivity": "1.0",
                 "size_preference": "0.5", "risk_appetite": "0.5", "popularity_weight": "0.1",
                 "activity_rate": "1.0", "multi_entry_propensity": "0.1", key: value}
        cfg = tmp_path / "gen.kv"
        cfg.write_text(GEN_KV + "".join(f"archetype.a.{k} = {v}\n" for k, v in group.items()))
        code = main(["generate", "--out", str(tmp_path / "o"), "--config", str(cfg), "--seed", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{cfg}: bad value for 'archetype.a.{key}'" in err and "internal error" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["features", "--train-end", "2025-13-01", "--valid-end", "2025-02-07"], "--train-end"),
        (["features", "--train-end", "2025-01-30", "--valid-end", "2025-02-30"], "--valid-end"),
        (["infer", "--as-of", "2025-02-30"], "--as-of"),
    ], ids=["train-end", "valid-end", "as-of"])
    def test_impossible_date_exit_1(self, pipeline_root, capsys, argv, flag):
        capsys.readouterr()
        assert main([*argv, "--out", str(pipeline_root), "--run-id", "bad-date"]) == 1
        err = capsys.readouterr().err
        assert f"bad value for {flag!r}" in err and "internal error" not in err

    @pytest.mark.parametrize("horizon", ["0", "-2"])
    def test_horizon_below_one_exit_1(self, tmp_path, capsys, horizon):
        capsys.readouterr()
        # checked before the world, the store and the model are read: none exist under tmp_path
        assert main(["infer", "--out", str(tmp_path), "--as-of", "2025-02-17", "--horizon", horizon]) == 1
        err = capsys.readouterr().err
        assert f"horizon must be at least 1 day, got {horizon}" in err and "internal error" not in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("line, named", [
        ("bind_port = -1", "bind_port"), ("bind_port = 70000", "bind_port"),
        ("max_request_bytes = 0", "max_request_bytes"), ("max_request_bytes = -5", "max_request_bytes"),
    ])
    def test_serve_config_out_of_range_exit_1(self, tmp_path, capsys, line, named):
        cfg = tmp_path / "serve.kv"
        cfg.write_text(line + "\n")
        capsys.readouterr()
        # the config is checked before the payloads are read, so none are needed
        code = main(["serve", "--payloads", str(tmp_path / "none.jsonl"), "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert named in err and "internal error" not in err

    def test_missing_model_exit_2(self, pipeline_root, tmp_path, capsys):
        code = main(
            ["eval", "--out", str(pipeline_root), "--model", str(tmp_path / "nope.bin"),
             "--run-id", "eval-missing"]
        )
        assert code == 2
        assert "nope.bin" in capsys.readouterr().err

    def test_split_outside_range_exit_1(self, pipeline_root, capsys):
        code = main(
            ["features", "--out", str(pipeline_root), "--train-end", "2031-01-01",
             "--valid-end", "2031-02-01", "--run-id", "feat-bad"]
        )
        assert code == 1
        assert "outside" in capsys.readouterr().err

    def test_bad_join_row_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "gen.kv"
        cfg.write_text(GEN_KV)
        out = tmp_path / "o"
        assert main(["generate", "--out", str(out), "--config", str(cfg), "--seed", "5"]) == 0
        joins = out / "data" / "joins.csv"
        rows = [line.split(",") for line in joins.read_text().splitlines(keepends=True)]
        rows[2][3] = rows[2][3].replace("T", " ").rstrip("Z")  # a space separator, no Z
        joins.write_text("".join(",".join(row) for row in rows))
        capsys.readouterr()
        code = main(["features", "--out", str(out), "--train-end", "2025-01-30",
                     "--valid-end", "2025-02-07"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{joins}:3:" in err and "timestamp" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, field, amount", [("joins.csv", 4, "1.-1"), ("contests.csv", 3, "1.234")])
    def test_bad_amount_exit_2(self, tmp_path, capsys, name, field, amount):
        cfg = tmp_path / "gen.kv"
        cfg.write_text(GEN_KV)
        out = tmp_path / "o"
        assert main(["generate", "--out", str(out), "--config", str(cfg), "--seed", "5"]) == 0
        path = out / "data" / name
        rows = [line.split(",") for line in path.read_text().splitlines(keepends=True)]
        rows[2][field] = amount
        path.write_text("".join(",".join(row) for row in rows))
        capsys.readouterr()
        code = main(["features", "--out", str(out), "--train-end", "2025-01-30",
                     "--valid-end", "2025-02-07"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}:3:" in err and "currency" in err
        assert "Traceback" not in err

    def test_match_with_two_mega_templates_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "gen.kv"
        cfg.write_text(GEN_KV)
        out = tmp_path / "o"
        assert main(["generate", "--out", str(out), "--config", str(cfg), "--seed", "5"]) == 0
        contests = out / "data" / "contests.csv"
        rows = [line.split(",") for line in contests.read_text().splitlines(keepends=True)]
        match_id = rows[0][2]
        # a second template of the first match becomes Mega
        row = next(r for r in rows if r[2] == match_id and r[6] != "Mega")
        row[6] = "Mega"
        contests.write_text("".join(",".join(r) for r in rows))
        capsys.readouterr()
        code = main(["features", "--out", str(out), "--train-end", "2025-01-30",
                     "--valid-end", "2025-02-07"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"match {match_id} has 2 Mega contests" in err and "invalid catalog" in err
        assert "Traceback" not in err

    def test_duplicate_run_id_rejected(self, pipeline_root, capsys):
        code = main(
            ["generate", "--out", str(pipeline_root), "--config",
             str(pipeline_root.parent / "gen.kv"), "--seed", "42", "--run-id", "gen-1"]
        )
        assert code == 2
        assert "gen-1" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["generate", "train", "abtest"])
    def test_negative_seed_exit_1(self, pipeline_root, tmp_path, capsys, command):
        cfg = tmp_path / "c.kv"
        if command == "generate":
            cfg.write_text(GEN_KV)
            argv = ["generate", "--out", str(tmp_path / "o"), "--config", str(cfg), "--seed", "-1"]
        else:
            cfg.write_text((TRAIN_KV if command == "train" else AB_KV).replace("seed = ", "seed = -"))
            argv = [command, "--out", str(pipeline_root), "--config", str(cfg), "--run-id", f"{command}-neg"]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "seed must be non-negative, got -" in err and "internal error" not in err

    @pytest.mark.parametrize("content", [None, b"\xffseed = 3\n"], ids=["missing", "not-utf8"])
    def test_unreadable_config_exit_1(self, pipeline_root, tmp_path, capsys, content):
        cfg = tmp_path / "nope.kv"
        if content is not None:
            cfg.write_bytes(content)
        capsys.readouterr()
        code = main(["train", "--out", str(pipeline_root), "--config", str(cfg), "--run-id", "train-nope"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{cfg}: cannot read config" in err and "internal error" not in err

    @pytest.mark.parametrize("name", ["joins.csv", "contests.csv", "matches.csv"])
    @pytest.mark.parametrize("content", [None, b"\xff\xfe,"], ids=["missing", "not-utf8"])
    def test_unreadable_data_file_exit_2(self, pipeline_root, tmp_path, capsys, name, content):
        data = tmp_path / "data"
        shutil.copytree(pipeline_root / "data", data)
        if content is None:
            (data / name).unlink()
        else:
            (data / name).write_bytes(content)
        capsys.readouterr()
        code = main(["features", "--out", str(tmp_path), "--data", str(data),
                     "--train-end", "2025-01-30", "--valid-end", "2025-02-07"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{data / name}: cannot read" in err and "internal error" not in err

    def test_features_without_data_exit_2(self, tmp_path, capsys):
        code = main(["features", "--out", str(tmp_path), "--train-end", "2025-01-30", "--valid-end", "2025-02-07"])
        assert code == 2
        err = capsys.readouterr().err
        assert "joins.csv: cannot read" in err and "internal error" not in err

    def test_abtest_without_generator_config_exit_2(self, pipeline_root, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(pipeline_root / "data", data)
        (data / "generator.kv").unlink()
        capsys.readouterr()
        code = main(["abtest", "--out", str(tmp_path), "--data", str(data),
                     "--config", str(pipeline_root.parent / "ab.kv"), "--run-id", "ab-nogen"])
        assert code == 2
        err = capsys.readouterr().err
        assert "generator.kv" in err and "internal error" not in err


class TestCorruptRunManifest:
    def _write(self, root, run_id, text):
        path = root / "manifests" / f"{run_id}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path

    def _edited(self, pipeline_root, run_id, edit):
        doc = json.loads((pipeline_root / "manifests" / f"{run_id}.json").read_text())
        edit(doc)
        return json.dumps(doc)

    @pytest.mark.parametrize("case", ["not-json", "no-phase", "train-without-data", "input-file-gone"])
    def test_reproduce_exit_2(self, pipeline_root, tmp_path, capsys, case):
        if case == "not-json":
            text = "{not json"
        elif case == "no-phase":
            text = self._edited(pipeline_root, "gen-1", lambda d: d.pop("phase"))
        elif case == "train-without-data":
            text = self._edited(pipeline_root, "train-1", lambda d: d["inputs"].pop("data"))
        else:
            text = self._edited(pipeline_root, "train-1",
                                lambda d: d["inputs"]["data"].update(path=str(tmp_path / "gone")))
        path = self._write(tmp_path, "r", text)
        capsys.readouterr()
        assert main(["reproduce", "r", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err
        if case == "train-without-data":
            assert "the train manifest has no input 'data'" in err
        elif case == "input-file-gone":
            assert f"input 'data' at {tmp_path / 'gone'} changed since run r (digest missing" in err
        else:
            assert str(path) in err

    @pytest.mark.parametrize("edit", [
        lambda d: [],
        lambda d: {**d, "seed": "3"},
        lambda d: {**d, "seed": True},
        lambda d: {k: v for k, v in d.items() if k != "created_utc"},
        lambda d: {**d, "config": ["players"]},
        lambda d: {**d, "config": {**d["config"], "players": 120}},
        lambda d: {**d, "outputs": {"joins.csv": {"path": "joins.csv", "sha256": "0" * 64}}},
        lambda d: {**d, "outputs": {"joins.csv": "joins.csv"}},
        lambda d: {**d, "inputs": {"data": {"path": 7, "sha256": "0" * 64}}},
    ], ids=["not-an-object", "seed-a-string", "seed-a-bool", "no-created-utc", "config-a-list",
            "config-value-not-a-string", "output-without-verify", "output-not-an-object",
            "input-path-not-a-string"])
    def test_load_is_data_error_naming_the_file(self, pipeline_root, tmp_path, edit):
        doc = json.loads((pipeline_root / "manifests" / "gen-1.json").read_text())
        path = self._write(tmp_path, "r", json.dumps(edit(doc)))
        with pytest.raises(DataError, match=str(path)):
            RunManifest.load(tmp_path, "r")

    def test_load_of_non_utf8_file_is_data_error(self, tmp_path):
        path = self._write(tmp_path, "r", "")
        path.write_bytes(b"\xff{}")
        with pytest.raises(DataError, match=str(path)):
            RunManifest.load(tmp_path, "r")


class TestCorruptInputs:
    @pytest.mark.parametrize("text", [
        '{"train_end": "2025-01-30", "valid_end": "2025-02',
        '["2025-01-30", "2025-02-07"]',
        '{"train_end": "2025-01-30"}',
        '{"valid_end": "2025-02-07"}',
        '{"train_end": "2025-13-30", "valid_end": "2025-02-07"}',
        '{"train_end": 20250130, "valid_end": "2025-02-07"}',
    ], ids=["truncated", "not-an-object", "no-valid-end", "no-train-end", "bad-day", "day-not-a-string"])
    def test_bad_splits_file_is_data_error(self, tmp_path, text):
        (tmp_path / "splits.json").write_text(text)
        with pytest.raises(DataError, match="splits.json"):
            _read_splits(tmp_path)

    def test_eval_on_truncated_manifest_exit_2(self, pipeline_root, tmp_path, capsys):
        features = tmp_path / "features"
        shutil.copytree(pipeline_root / "features", features)
        manifest = features / "manifest.json"
        manifest.write_text(manifest.read_text()[:-5])
        capsys.readouterr()
        code = main(["eval", "--out", str(tmp_path / "o"), "--data", str(pipeline_root / "data"),
                     "--features", str(features), "--model", str(pipeline_root / "models" / "model.bin")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "Traceback" not in err

    @pytest.mark.parametrize("cut", [
        lambda line: line[: len(line) // 2],
        lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "scores"}),
    ], ids=["truncated-line", "no-ranking"])
    def test_serve_on_bad_payload_line_exit_2(self, pipeline_root, tmp_path, capsys, cut):
        self._serve_exits_2_naming_line_2(pipeline_root, tmp_path, capsys, cut)

    @pytest.mark.parametrize("content", [None, b"\xff\n"], ids=["missing", "not-utf8"])
    @pytest.mark.parametrize("command", ["serve", "abtest"])
    def test_unreadable_payload_file_exit_2(self, pipeline_root, tmp_path, capsys, command, content):
        bad = tmp_path / "payloads.jsonl"
        if content is not None:
            bad.write_bytes(content)
        argv = ["serve", "--payloads", str(bad)] if command == "serve" else [
            "abtest", "--out", str(tmp_path), "--data", str(pipeline_root / "data"),
            "--config", str(pipeline_root.parent / "ab-payloads.kv"), "--payloads", str(bad)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{bad}: cannot read payloads" in err and "internal error" not in err

    @pytest.mark.parametrize("bad_line, named", [
        ("p00000,1.0,2.0\n", "expected 8 fields, got 3"),
        ("p00000,1.0,0.5,0.5,0.5,0.5,1.0,x\n", "could not convert"),
        ("p00000,1.0,0.5,2.0,0.5,0.5,1.0,0.1\n", "size_preference must lie in [0, 1]"),
        ("p00000,nan,0.5,0.5,0.5,0.5,1.0,0.1\n", "archetype fields must be finite"),
    ], ids=["short-row", "not-a-number", "size-preference-out-of-range", "not-finite"])
    def test_abtest_on_bad_archetype_row_exit_2(self, pipeline_root, tmp_path, capsys, bad_line, named):
        data = tmp_path / "data"
        shutil.copytree(pipeline_root / "data", data)
        path = data / "archetypes.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join([lines[0], bad_line, *lines[2:]]))
        err = self._abtest_exits_2(pipeline_root, tmp_path, data, capsys)
        assert f"{path}:2: {named}" in err

    @pytest.mark.parametrize("name, content", [
        ("archetypes.csv", b"\xff"), ("joins.csv", None), ("joins.csv", b"\xff"),
    ], ids=["archetypes-not-utf8", "joins-missing", "joins-not-utf8"])
    def test_infer_reads_neither_archetypes_nor_the_join_log(self, pipeline_root, tmp_path, name, content):
        data = tmp_path / "data"
        shutil.copytree(pipeline_root / "data", data)
        if content is None:
            (data / name).unlink()
        else:
            (data / name).write_bytes(content)
        code = main(["infer", "--out", str(tmp_path), "--data", str(data),
                     "--features", str(pipeline_root / "features"),
                     "--model", str(pipeline_root / "models" / "model.bin"),
                     "--as-of", "2025-02-17", "--horizon", "2"])
        assert code == 0
        assert (tmp_path / "payloads" / "payloads.jsonl").read_bytes() == (
            pipeline_root / "payloads" / "payloads.jsonl").read_bytes()

    @pytest.mark.parametrize("case", ["model-weight", "manifest-std", "player-row"])
    def test_infer_on_a_non_finite_input_exit_2(self, pipeline_root, tmp_path, capsys, case):
        features, model = tmp_path / "features", tmp_path / "model.bin"
        shutil.copytree(pipeline_root / "features", features)
        shutil.copy(pipeline_root / "models" / "model.bin", model)
        if case == "model-weight":
            params = load_model(model)
            params.components["deep"][1].w[3, 2] = np.inf
            save_model(model, params)
            bad = model
        elif case == "manifest-std":
            bad = features / "manifest.json"
            doc = json.loads(bad.read_text())
            doc["stats"]["player_std"][4] = float("nan")
            bad.write_text(json.dumps(doc))
        else:
            bad = features / "days" / "2025-02-17" / "player_rows.npy"
            rows = np.load(bad)
            rows[0, 5] = np.nan
            np.save(bad, rows)
        capsys.readouterr()
        code = main(["infer", "--out", str(tmp_path), "--data", str(pipeline_root / "data"),
                     "--features", str(features), "--model", str(model),
                     "--as-of", "2025-02-17", "--horizon", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}:" in err and "NaN or infinite" in err and "internal error" not in err
        assert not (tmp_path / "payloads" / "payloads.jsonl").exists()

    def test_abtest_on_non_utf8_archetypes_exit_2(self, pipeline_root, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(pipeline_root / "data", data)
        path = data / "archetypes.csv"
        path.write_bytes(b"\xff" + path.read_bytes())
        err = self._abtest_exits_2(pipeline_root, tmp_path, data, capsys)
        assert f"{path}: cannot read" in err

    @staticmethod
    def _abtest_exits_2(pipeline_root, tmp_path, data, capsys) -> str:
        capsys.readouterr()
        assert main(["abtest", "--out", str(tmp_path), "--data", str(data),
                     "--config", str(pipeline_root.parent / "ab.kv")]) == 2
        err = capsys.readouterr().err
        assert "internal error" not in err
        return err

    @pytest.mark.parametrize("case", CORRUPTIONS)
    def test_serve_on_corrupt_payload_block_exit_2(self, pipeline_root, tmp_path, capsys, case):
        self._serve_exits_2_naming_line_2(
            pipeline_root, tmp_path, capsys, lambda line: json.dumps(_corrupt(json.loads(line), case))
        )

    @staticmethod
    def _serve_exits_2_naming_line_2(pipeline_root, tmp_path, capsys, cut):
        lines = (pipeline_root / "payloads" / "payloads.jsonl").read_text().splitlines()
        # a second match's line, made from the first, is the one cut
        second = json.dumps(dict(json.loads(lines[0]), match_id="second-match"), sort_keys=True)
        bad = tmp_path / "payloads.jsonl"
        bad.write_text("\n".join([lines[0], cut(second), *lines[1:]]) + "\n")
        capsys.readouterr()
        assert main(["serve", "--payloads", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err and "internal error" not in err


class TestDeterminism:
    def test_same_seed_same_world_bytes(self, tmp_path):
        cfg = tmp_path / "gen.kv"
        cfg.write_text(GEN_KV)
        for name in ("a", "b"):
            assert main(["generate", "--out", str(tmp_path / name), "--config", str(cfg),
                         "--seed", "7", "--run-id", f"g-{name}"]) == 0
        a = (tmp_path / "a" / "data" / "joins.csv").read_bytes()
        b = (tmp_path / "b" / "data" / "joins.csv").read_bytes()
        assert a == b

import datetime as dt
import math
import os
import re

import pytest

from widir import domain
from widir.abtest import ABConfig
from widir.errors import ConfigError
from widir.generator import GeneratorConfig
from widir.inference import write_payloads
from widir.manifest import RunManifest
from widir.model import WidirDims, init_params, save_model
from widir.serving import ServeConfig
from widir.textio import json_field, load_json, parse_kv, read_json, read_kv, to_kv, write_kv, write_replace
from widir.training import EpochRow, TrainConfig, TrainingReport, write_report

from conftest import mk_payload


class TestWriteReplace:
    @pytest.mark.parametrize("mode, data", [("w", "a\nb\n"), ("wb", b"\x00\x01\n")])
    def test_writes_text_and_bytes(self, tmp_path, mode, data):
        path = tmp_path / "f"
        with write_replace(path, mode) as fh:
            fh.write(data)
        assert path.read_bytes() == (data if isinstance(data, bytes) else data.encode())
        assert os.listdir(tmp_path) == ["f"]

    def test_error_in_block_keeps_previous_file(self, tmp_path):
        path = tmp_path / "f"
        path.write_text("previous")
        with pytest.raises(ZeroDivisionError):
            with write_replace(path) as fh:
                fh.write("partial")
                1 / 0
        assert path.read_text() == "previous"
        assert os.listdir(tmp_path) == ["f"]


def _manifest_save(root):
    RunManifest(run_id="r1", phase="generate", seed=0).save(root)


# (writer, the file it writes under the directory it is given)
WRITERS = {
    "join_log": (lambda d, w: domain.write_join_log(d / "joins.csv", w.joins), "joins.csv"),
    "catalog": (lambda d, w: domain.write_catalog(d / "contests.csv", w.contests), "contests.csv"),
    "schedule": (lambda d, w: domain.write_schedule(d / "matches.csv", w.matches), "matches.csv"),
    "archetypes": (lambda d, w: w.write_dir(d), "archetypes.csv"),
    "kv": (lambda d, w: write_kv(d / "generator.kv", {"players": "3"}), "generator.kv"),
    "run_manifest": (lambda d, w: _manifest_save(d), os.path.join("manifests", "r1.json")),
    "training_report": (
        lambda d, w: write_report(d / "report.csv", TrainingReport(rows=[EpochRow(0, 1.0, 2.0, 0.5)])),
        "report.csv",
    ),
    "model": (lambda d, w: save_model(d / "model.bin", init_params(WidirDims(), 0)), "model.bin"),
    "payloads": (
        lambda d, w: write_payloads(d / "payloads.jsonl", [mk_payload("p", "m", (("t", 1.0),), 0, "v").block]),
        "payloads.jsonl",
    ),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_previous_file(tmp_path, tiny_world, monkeypatch, name):
    """Every artifact writer renames a temporary into place; a failed rename
    leaves the directory as it was: the previous file (or none) and no `.tmp`."""
    write, target = WRITERS[name]
    write(tmp_path, tiny_world)
    if name == "run_manifest":  # save refuses to overwrite a run, so the target is absent
        os.remove(tmp_path / target)
        expect = None
    else:
        expect = b"previous\n"
        (tmp_path / target).write_bytes(expect)
    before = sorted(os.listdir(os.path.dirname(tmp_path / target)))
    real_replace = os.replace

    def failing_replace(src, dst):
        if str(dst).endswith(target):
            raise OSError("rename refused")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename refused"):
        write(tmp_path, tiny_world)
    monkeypatch.undo()
    assert sorted(os.listdir(os.path.dirname(tmp_path / target))) == before
    if expect is not None:
        assert (tmp_path / target).read_bytes() == expect


def test_write_kv_round_trip(tmp_path):
    items = {"a": "1", "b": "x y"}
    write_kv(tmp_path / "c.kv", items)
    assert (tmp_path / "c.kv").read_text() == "a = 1\nb = x y\n"
    assert read_kv(tmp_path / "c.kv") == items


@pytest.mark.parametrize("content", [None, b"\xffa = 1\n", b"a = \xe9\n"], ids=["missing", "bad-first-byte", "latin-1"])
def test_unreadable_kv_is_config_error(tmp_path, content):
    path = tmp_path / "c.kv"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: cannot read config")):
        read_kv(path)


def _valid_items() -> dict[str, tuple]:
    """Per config: its loader, and the items of a valid file that sets every key."""
    generator = GeneratorConfig(players=10, matches=5, templates_per_match=3,
                                start_day=dt.date(2025, 1, 1), end_day=dt.date(2025, 3, 1))
    ab = ABConfig(group_sizes={"CG": 10, "TG1": 10}, policies={"TG1": "popularity"})
    return {
        "train": (TrainConfig.from_file, TrainConfig().to_kv_dict()),
        "generator": (GeneratorConfig.from_file, generator.to_kv_dict()),
        "ab": (ABConfig.from_file, ab.to_kv_dict()),
        "serve": (lambda path: ServeConfig.load(path, env={}), to_kv(ServeConfig())),
    }


def _bad_value_cases():
    """(config, key, value): a non-finite value for each float key, a non-integer for each int key."""
    for name, (_, items) in _valid_items().items():
        for key, text in items.items():
            if re.fullmatch(r"-?\d+", text):
                yield from ((name, key, bad) for bad in ("1.5", "x", ""))
            elif re.fullmatch(r"-?\d*\.\d+(e-?\d+)?", text):
                yield from ((name, key, bad) for bad in ("nan", "inf", "-inf"))


@pytest.mark.parametrize("config, key, value", list(_bad_value_cases()))
def test_bad_value_is_config_error_naming_file_and_key(tmp_path, config, key, value):
    load, items = _valid_items()[config]
    path = tmp_path / f"{config}.kv"
    write_kv(path, items)
    load(path)  # the file is valid as written
    write_kv(path, {**items, key: value})
    with pytest.raises(ConfigError, match=re.escape(f"{path}: bad value for {key!r}")):
        load(path)


def test_codec_round_trip_keeps_kv_text(tmp_path):
    """Floats by repr, dates in ISO form, archetype groups in declared field order."""
    items = _valid_items()["generator"][1]
    path = tmp_path / "generator.kv"
    write_kv(path, items)
    assert GeneratorConfig.from_file(path).to_kv_dict() == items
    assert list(items)[:7] == ["players", "matches", "templates_per_match", "template_pool",
                               "start_day", "end_day", "participation_rate"]
    assert items["archetype.casual.preferred_log_entry_fee"] == repr(math.log(2.0))


@pytest.mark.parametrize("text, message", [
    ("a = 1\nb\n", "x:2: expected 'key = value'"),
    ("a = 1\n# note\na = 2\n", "x:3: duplicate key 'a'"),
])
def test_parse_kv_names_context_and_line(text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_kv(text, "x")


@pytest.mark.parametrize("key, value, message", [
    ("archetype.casual.weight", None, "missing required key 'archetype.casual.weight'"),
    ("archetype.casual", "1.0", "unknown config key 'archetype.casual'"),
    ("archetype.casual.name", "x", "unknown config key 'archetype.casual.name'"),
    ("archetype.casual.base.activity_rate", "1.0", "unknown config key 'archetype.casual.base.activity_rate'"),
], ids=["missing-field", "no-field", "name-is-the-group", "nested"])
def test_generator_archetype_group_keys(key, value, message):
    items = _valid_items()["generator"][1]
    if value is None:
        del items[key]
    else:
        items[key] = value
    with pytest.raises(ConfigError, match=re.escape(message)):
        GeneratorConfig.from_kv_dict(items)


@pytest.mark.parametrize("text", [b"\xff{}", "[" * 100_000, "{", '{"a": 1} {}', "[]", '"x"', "7", "null"],
                         ids=["bad-utf8", "deep", "truncated", "extra-data", "list", "string", "number", "null"])
def test_bad_json_document_is_the_callers_error(text):
    with pytest.raises(ConfigError, match="^ctx: "):
        load_json(text, "ctx", ConfigError)


def test_missing_json_file_is_the_callers_error(tmp_path):
    with pytest.raises(ConfigError, match="^ctx: cannot read"):
        read_json(tmp_path / "absent.json", "ctx", ConfigError)


def test_json_field_is_present_and_exactly_typed():
    doc = load_json(b'{"n": 1, "b": true, "s": "x"}', "ctx", ConfigError)
    assert json_field(doc, "n", int, "ctx", ConfigError) == 1
    for key, kind in (("b", int), ("s", int), ("n", float), ("absent", str)):
        with pytest.raises(ConfigError, match=f"^ctx: .*'{key}'"):
            json_field(doc, key, kind, "ctx", ConfigError)

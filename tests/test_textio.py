import os
import re

import pytest

from widir import domain
from widir.errors import ConfigError
from widir.inference import write_payloads
from widir.manifest import RunManifest
from widir.model import WidirDims, init_params, save_model
from widir.textio import read_kv, write_kv, write_replace
from widir.training import EpochRow, TrainingReport, write_report

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

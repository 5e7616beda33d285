"""Every input boundary under one mutation fuzz.

Each reader gets a valid file from one run over `tiny_world`, mutated by
byte flips, cuts, inserted tokens and repeated lines. The reader must
either return or raise a `WidirError` (the CLI's exit 1 or 2), never any
other exception (exit 3). A `/rank` body must be answered 200 or 400.
Explicit cases then give every JSON file a document nested too deep to
parse, through the CLI phase that reads it.
"""

import datetime as dt
import json

import pytest
from hypothesis import given, settings, strategies as st

from widir import pipeline
from widir.abtest import ABConfig
from widir.cli import main
from widir.domain import day_of, read_catalog, read_join_log, read_schedule
from widir.errors import WidirError
from widir.features import SnapshotStore
from widir.generator import GeneratorConfig, read_archetypes
from widir.inference import read_payloads
from widir.manifest import RunManifest
from widir.model import WidirDims, init_params, load_model, save_model
from widir.serving import OnlineStore, handle_rank_body, load_fallbacks
from widir.textio import write_kv
from widir.training import TrainConfig

from test_cli import AB_KV, TRAIN_KV

FUZZ = settings(max_examples=100, derandomize=True, deadline=None)
DEEP = "[" * 100_000
TOKENS = (b"[", b"]", b"{", b"}", b'"', b"'", b",", b":", b"\\", b"-", b"0", b"9", b"1e999", b"NaN",
          b"null", b"true", b"\n", b"\xff", b"\x00", b"=", b"#", b" ")


def edits(size: int):
    """One to three edits of a `size`-byte file. Half the positions fall in
    its first 128 bytes, where a header or the first keys are."""
    pos = st.integers(0, min(size, 128)) | st.integers(0, size)
    return st.lists(st.one_of(
        st.tuples(st.just("flip"), pos, st.integers(1, 255)),
        st.tuples(st.just("cut"), pos, st.just(None)),
        st.tuples(st.just("insert"), pos, st.sampled_from(TOKENS)),
        st.tuples(st.just("repeat"), pos, st.just(None)),
    ), min_size=1, max_size=3)


def mutate(data: bytes, steps) -> bytes:
    for kind, pos, arg in steps:
        pos = min(pos, len(data))
        if kind == "flip" and pos < len(data):
            data = data[:pos] + bytes([data[pos] ^ arg]) + data[pos + 1:]
        elif kind == "cut":
            data = data[:pos]
        elif kind == "insert":
            data = data[:pos] + arg + data[pos:]
        elif kind == "repeat":  # the line that holds byte `pos`, twice
            start = data.rfind(b"\n", 0, pos) + 1
            end = data.find(b"\n", pos)
            end = len(data) if end < 0 else end + 1
            data = data[:end] + data[start:end] + data[end:]
    return data


@pytest.fixture(scope="module")
def run(tiny_world, tmp_path_factory):
    """A run directory from the features and infer phases over `tiny_world`
    (world files, feature store, model, payloads), with a train and an A/B
    config, and the as-of day of its payloads."""
    out = tmp_path_factory.mktemp("fuzz") / "run"
    tiny_world.write_dir(out / "data")
    write_kv(out / "data" / "generator.kv", tiny_world.config.to_kv_dict())
    (out / "train.kv").write_text(TRAIN_KV)
    (out / "ab.kv").write_text(AB_KV)
    pipeline.run_features(out, out / "data", dt.date(2025, 1, 31), dt.date(2025, 2, 10), run_id="feat-1")
    model = out / "models" / "model.bin"
    model.parent.mkdir()
    save_model(model, init_params(WidirDims(), 0))
    as_of = max(day_of(m.start_time) for m in tiny_world.matches)
    pipeline.run_infer(out, out / "data", out / "features", model, as_of, 1, run_id="infer-1")
    return out, as_of


def _read_day(path, day):
    return SnapshotStore(path.parents[2]).read_day(day)


# reader -> (its file in the run directory; the read, given that file's path and the as-of day)
READERS = {
    "run_manifest": ("manifests/feat-1.json", lambda path, day: RunManifest.load(path.parents[1], "feat-1")),
    "splits": ("features/splits.json", lambda path, day: pipeline._read_splits(path.parent)),
    "store_manifest": ("features/manifest.json", lambda path, day: SnapshotStore(path.parent).read_manifest()),
    "day.json": ("features/days/{day}/day.json", _read_day),
    **{f"{name}.npy": (f"features/days/{{day}}/{name}.npy", _read_day)
       for name in ("player_ids", "player_rows", "join_offsets", "recent_joins", "template_ids")},
    "payloads": ("payloads/payloads.jsonl", lambda path, day: read_payloads(path)),
    "model.bin": ("models/model.bin", lambda path, day: load_model(path)),
    "joins.csv": ("data/joins.csv", lambda path, day: read_join_log(path)),
    "contests.csv": ("data/contests.csv", lambda path, day: read_catalog(path)),
    "matches.csv": ("data/matches.csv", lambda path, day: read_schedule(path)),
    "archetypes.csv": ("data/archetypes.csv", lambda path, day: read_archetypes(path)),
    "generator.kv": ("data/generator.kv", lambda path, day: GeneratorConfig.from_file(path)),
    "train.kv": ("train.kv", lambda path, day: TrainConfig.from_file(path)),
    "ab.kv": ("ab.kv", lambda path, day: ABConfig.from_file(path)),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.filterwarnings("ignore:Reading `.npy`")  # numpy's note on a header it takes for Python 2's
@FUZZ
@given(data=st.data())
def test_mutated_file_is_read_or_refused(run, reader, data):
    out, as_of = run
    name, read = READERS[reader]
    path = out / name.format(day=as_of.isoformat())
    original = path.read_bytes()
    path.write_bytes(mutate(original, data.draw(edits(len(original)))))
    try:
        read(path, as_of)
    except WidirError:
        pass
    finally:
        path.write_bytes(original)


@pytest.fixture(scope="module")
def rank_store(run):
    """The run's payloads and fallbacks published, and a valid body for its first payload row."""
    out, _ = run
    store, payloads = OnlineStore(), read_payloads(out / "payloads" / "payloads.jsonl")
    for payload in payloads:
        store.put(payload)
    catalog = read_catalog(out / "data" / "contests.csv")
    load_fallbacks(store, catalog)
    first = payloads[0]
    body = json.dumps({
        "player_id": first.player_id,
        "match_id": first.match_id,
        "contests": [{"contest_id": c.contest_id, "template_id": c.template_id}
                     for c in catalog if c.match_id == first.match_id][:20],
    }).encode()
    assert handle_rank_body(store, body)[0] == 200
    return store, body


@settings(FUZZ, max_examples=300)
@given(data=st.data())
def test_mutated_rank_body_is_answered_200_or_400(rank_store, data):
    store, body = rank_store
    status, reply = handle_rank_body(store, mutate(body, data.draw(edits(len(body)))))
    assert status in (200, 400)
    json.loads(reply)


class TestDeepNestExit2:
    """A JSON file nested too deep to parse is a data error (exit 2) in the phase that reads it."""

    @staticmethod
    def _main_with_deep(path, argv):
        """main(argv) with `path` holding the deep document; the file is restored after."""
        original = path.read_bytes()
        path.write_text(DEEP)
        try:
            return main(argv)
        finally:
            path.write_bytes(original)

    def test_serve_payloads(self, tmp_path, capsys):
        path = tmp_path / "payloads.jsonl"
        path.write_text(DEEP + "\n")
        assert main(["serve", "--payloads", str(path)]) == 2
        assert f"{path}:1:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["manifest.json", "days/{day}/day.json"])
    def test_infer_store(self, run, tmp_path, capsys, name):
        out, as_of = run
        path = out / "features" / name.format(day=as_of.isoformat())
        code = self._main_with_deep(path, [
            "infer", "--out", str(tmp_path), "--data", str(out / "data"), "--features", str(out / "features"),
            "--model", str(out / "models" / "model.bin"), "--as-of", as_of.isoformat(), "--horizon", "1",
        ])
        assert code == 2
        assert str(path) in capsys.readouterr().err

    def test_train_splits(self, run, tmp_path, capsys):
        out, _ = run
        path = out / "features" / "splits.json"
        code = self._main_with_deep(path, [
            "train", "--out", str(tmp_path), "--data", str(out / "data"), "--features", str(out / "features"),
            "--config", str(out / "train.kv"),
        ])
        assert code == 2
        assert str(path) in capsys.readouterr().err

    def test_reproduce_manifest(self, run, capsys):
        out, _ = run
        path = out / "manifests" / "feat-1.json"
        assert self._main_with_deep(path, ["reproduce", "feat-1", "--out", str(out)]) == 2
        assert str(path) in capsys.readouterr().err

import base64
import dataclasses
import datetime as dt
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import widir
from widir import pipeline
from widir.domain import CENTS, ContestType, MatchRecord, day_of, day_start
from widir.errors import DataError
from widir.evaluation import _SCORE_CHUNK, model_rank
from widir.features import SnapshotStore, _identity_stats
from widir.generator import GeneratorConfig, generate_synthetic
from widir.inference import (
    RankingPayload,
    active_players,
    read_payloads,
    run_batch,
    write_payloads,
)
from widir.model import WidirDims, init_params, save_model

from conftest import DAY0, mk_contest, mk_join
from feature_oracle import RecentJoin, snapshot_from
import model_oracle


class TestActivePlayers:
    def test_window_boundaries(self):
        as_of = DAY0 + dt.timedelta(days=40)
        joins = [
            mk_join(player="included", day=as_of - dt.timedelta(days=30)),
            mk_join(player="excluded", day=as_of - dt.timedelta(days=31)),
            mk_join(player="same_day", day=as_of),
        ]
        active = active_players(joins, as_of)
        assert active == {"included"}

    def test_empty_log(self):
        assert active_players([], DAY0) == set()

    def test_every_stored_day_holds_the_active_players(self, tiny_world, tmp_path):
        """The batch job scores a snapshot's players; they are the players `active_players` counts."""
        tiny_world.write_dir(tmp_path / "data")
        pipeline.run_features(tmp_path, tmp_path / "data", dt.date(2025, 1, 25), dt.date(2025, 2, 1), run_id="f")
        store = SnapshotStore(tmp_path / "features")
        assert len(store.days()) > 40
        for day in store.days():
            assert sorted(store.read_day(day).players) == sorted(active_players(tiny_world.joins, day)), day


def _setup(n_templates=8, n_players=6):
    dims = WidirDims()
    params = init_params(dims, 0)
    snap = snapshot_from(DAY0, _identity_stats(), {})
    templates = [
        mk_contest(contest_id=f"c{i}", template_id=f"t{i}", match_id="m1",
                   entry_fee=(i + 1) * CENTS, contest_size=10 + i,
                   tiers=((1, 1, (40 + i) * CENTS),))
        for i in range(n_templates)
    ]
    match = MatchRecord("m1", day_start(DAY0) + 15 * 3600, tuple(t.contest_id for t in templates))
    active = {f"p{i}" for i in range(n_players)}
    return params, snap, [(match, templates)], active


def _rows(blocks):
    """The (player, match) payloads of score blocks, as `read_payloads` returns them."""
    return [RankingPayload(b, i) for b in blocks for i in range(len(b.player_ids))]


def _fields(payloads):
    return [(p.player_id, p.match_id, p.ranking, p.generated_at, p.model_version) for p in payloads]


class TestRunBatch:
    def test_payload_per_active_player(self):
        params, snap, matches, active = _setup()
        payloads = _rows(run_batch(params, snap, matches, active, "v1", day_start(DAY0)))
        assert len(payloads) == len(active)
        assert {p.player_id for p in payloads} == active
        assert all(p.match_id == "m1" for p in payloads)
        assert all(len(p.ranking) == 8 for p in payloads)

    def test_one_block_per_match(self):
        params, snap, matches, active = _setup()
        blocks = run_batch(params, snap, matches, active, "v1", day_start(DAY0))
        assert [b.match_id for b in blocks] == ["m1"]
        assert blocks[0].player_ids == tuple(sorted(active))
        assert blocks[0].scores.shape == (6, 8) and blocks[0].scores.dtype == np.float32

    def test_float64_model_rejected(self):
        params, snap, matches, active = _setup()
        with pytest.raises(ValueError, match="float32"):
            run_batch(model_oracle.astype(params, np.float64), snap, matches, active, "v1", day_start(DAY0))

    def test_no_payload_outside_active_set(self):
        params, snap, matches, _ = _setup()
        payloads = _rows(run_batch(params, snap, matches, {"p0"}, "v1", day_start(DAY0)))
        assert {p.player_id for p in payloads} == {"p0"}

    def test_ordering_equals_model_rank_exactly(self):
        params, snap, matches, active = _setup()
        payloads = _rows(run_batch(params, snap, matches, active, "v1", day_start(DAY0)))
        match, templates = matches[0]
        for p in payloads:
            slate = model_rank(params, snap, p.player_id, templates)
            assert p.ranking == slate.ranked

    def test_rerun_bytewise_identical(self, tmp_path):
        params, snap, matches, active = _setup()
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_payloads(a, run_batch(params, snap, matches, active, "v1", day_start(DAY0)))
        write_payloads(b, run_batch(params, snap, matches, active, "v1", day_start(DAY0)))
        assert a.read_bytes() == b.read_bytes()

    def test_payload_file_round_trip(self, tmp_path):
        params, snap, matches, active = _setup(n_players=2)
        payloads = run_batch(params, snap, matches, active, "v2", day_start(DAY0))
        path = tmp_path / "payloads.jsonl"
        write_payloads(path, payloads)
        assert _fields(read_payloads(path)) == _fields(_rows(payloads))

    def test_failed_payload_write_keeps_previous_file(self, tmp_path):
        params, snap, matches, active = _setup(n_players=2)
        payloads = run_batch(params, snap, matches, active, "v2", day_start(DAY0))
        path = tmp_path / "payloads.jsonl"
        write_payloads(path, payloads)
        before = path.read_bytes()
        unserializable = dataclasses.replace(payloads[0], match_id="m9", generated_at=object())
        with pytest.raises(TypeError):
            write_payloads(path, payloads + [unserializable])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["payloads.jsonl"]


class TestPayloadFile:
    """run_batch -> write_payloads -> read_payloads against one `model_rank` per (player, match)."""

    dims = WidirDims()
    known = [f"p{i:04d}" for i in range(600)]
    pool = known + [f"cold{i}" for i in range(20)]

    @pytest.fixture(scope="class")
    def setting(self):
        rng = np.random.default_rng(5)
        types = [ContestType.PUBLIC, ContestType.SPECIAL, ContestType.MEGA]
        matches = []
        for m, n in (("m1", 6), ("m2", 3)):
            contests = [
                mk_contest(contest_id=f"{m}c{i}", template_id=f"t{i}", match_id=m, entry_fee=(i + 1) * CENTS,
                           contest_size=10 + i, contest_type=types[i % 3], tiers=((1, 1, (40 + i) * CENTS),))
                for i in range(n)
            ]
            start = day_start(DAY0) + 15 * 3600
            matches.append((MatchRecord(m, start, tuple(c.contest_id for c in contests)), contests))
        players = {pid: rng.standard_normal(self.dims.d_p).astype(np.float32) for pid in self.known}
        recents = {
            pid: [RecentJoin(DAY0 - dt.timedelta(days=1 + k % 5), f"t{k % 8}", types[k % 3],
                             k % 8, (k // 3) % 8, (k // 7) % 8, 1 + k % 3)]
            for k, pid in enumerate(self.known) if k % 4
        }
        return init_params(self.dims, 2), snapshot_from(DAY0, _identity_stats(), players, recents), matches

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 30))
    @example(seed=0, size=600)  # more than one 512-player scoring chunk
    def test_rankings_equal_model_rank(self, tmp_path_factory, setting, seed, size):
        params, snap, matches = setting
        rng = np.random.default_rng(seed)
        active = {str(pid) for pid in rng.permutation(self.pool)[:size]} | {"never-seen"}
        path = tmp_path_factory.mktemp("payloads") / "payloads.jsonl"
        write_payloads(path, run_batch(params, snap, matches, active, "v3", 7))
        payloads = read_payloads(path)
        assert [(p.match_id, p.player_id) for p in payloads] == [(m.match_id, pid) for m, _ in matches
                                                                 for pid in sorted(active)]
        templates = {m.match_id: contests for m, contests in matches}
        for p in payloads:
            alone = model_rank(params, snap, p.player_id, templates[p.match_id]).ranked
            assert [(t, v.hex()) for t, v in p.ranking] == [(t, v.hex()) for t, v in alone]
            assert (p.generated_at, p.model_version) == (7, "v3")


def _corrupt(doc: dict, case: str) -> dict:
    """`doc`, a payload line's fields, broken the way `case` names."""
    doc = dict(doc)
    scores = base64.b64decode(doc["scores"])
    if case == "bad-base64":
        doc["scores"] = doc["scores"][:-4] + "!!!!"
    elif case == "short-scores":
        doc["scores"] = base64.b64encode(scores[:-4]).decode()
    elif case == "extra-player":
        doc["player_ids"] = doc["player_ids"] + ["zzz-extra"]
    elif case in ("nan", "inf"):
        values = np.frombuffer(scores, dtype="<f4").copy()
        values[1] = np.nan if case == "nan" else -np.inf
        doc["scores"] = base64.b64encode(values.tobytes()).decode()
    elif case == "duplicate-player":
        doc["player_ids"] = [doc["player_ids"][0]] * len(doc["player_ids"])
    elif case == "duplicate-template":
        doc["template_ids"] = [doc["template_ids"][0]] * len(doc["template_ids"])
    elif case.startswith("no-"):
        del doc[case[3:].replace("-", "_")]
    else:
        raise AssertionError(case)
    return doc


CORRUPTIONS = [
    "bad-base64", "short-scores", "extra-player", "nan", "inf", "duplicate-player", "duplicate-template",
    "no-scores", "no-player-ids", "no-template-ids", "no-match-id", "no-generated-at", "no-model-version",
]


class TestReadPayloads:
    def _file(self, tmp_path):
        params, snap, matches, active = _setup(n_players=3)
        second = (dataclasses.replace(matches[0][0], match_id="m2"), matches[0][1])
        path = tmp_path / "payloads.jsonl"
        write_payloads(path, run_batch(params, snap, [matches[0], second], active, "v1", day_start(DAY0)))
        return path, path.read_text().splitlines()

    def test_one_line_per_match(self, tmp_path):
        path, lines = self._file(tmp_path)
        docs = [json.loads(line) for line in lines]
        assert [d["match_id"] for d in docs] == ["m1", "m2"]
        assert all(list(d) == sorted(d) for d in docs)
        assert len(base64.b64decode(docs[0]["scores"])) == 4 * 3 * 8
        assert len(read_payloads(path)) == 6

    @pytest.mark.parametrize("case", CORRUPTIONS)
    def test_corrupt_line_is_data_error_naming_the_line(self, tmp_path, case):
        path, lines = self._file(tmp_path)
        path.write_text(lines[0] + "\n" + json.dumps(_corrupt(json.loads(lines[1]), case)) + "\n")
        with pytest.raises(DataError, match=f"{path}:2:"):
            read_payloads(path)

    def test_repeated_match_is_data_error(self, tmp_path):
        path, lines = self._file(tmp_path)
        path.write_text(lines[0] + "\n" + lines[0] + "\n")
        with pytest.raises(DataError, match=f"{path}:2:.*earlier line"):
            read_payloads(path)


# Runs `pipeline.run_infer` for argv: out, data, features, model, as-of day,
# and a CPU to pin the process to first ("-" for none); prints the CPU count.
_INFER_CHILD = """
import datetime as dt, os, sys
out, data, features, model, day, cpu = sys.argv[1:]
if cpu != "-":
    os.sched_setaffinity(0, {int(cpu)})
from widir import pipeline
pipeline.run_infer(out, data, features, model, dt.date.fromisoformat(day), horizon=1, run_id="infer")
print(len(os.sched_getaffinity(0)))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs to compare thread counts")
def test_payloads_do_not_depend_on_the_thread_count(tmp_path):
    """`run_infer` pinned to one CPU (one scoring thread) and unpinned write the same payload bytes."""
    config = GeneratorConfig(
        players=700, matches=20, templates_per_match=8, template_pool=12,
        start_day=dt.date(2025, 1, 1), end_day=dt.date(2025, 2, 9), participation_rate=0.25,
    )
    world = generate_synthetic(config, seed=3)
    data = tmp_path / "data"
    world.write_dir(data)
    pipeline.run_features(tmp_path, data, dt.date(2025, 1, 25), dt.date(2025, 2, 1), run_id="features")
    model = tmp_path / "model.bin"
    save_model(model, init_params(WidirDims(), 8))
    as_of = max(day_of(m.start_time) for m in world.matches)
    src = os.path.dirname(os.path.dirname(widir.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cpus, payloads = [], []
    for name, cpu in (("pinned", str(min(os.sched_getaffinity(0)))), ("unpinned", "-")):
        out = tmp_path / name
        argv = [str(out), str(data), str(tmp_path / "features"), str(model), as_of.isoformat(), cpu]
        child = subprocess.run([sys.executable, "-c", _INFER_CHILD, *argv], env=env,
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        cpus.append(int(child.stdout))
        payloads.append((out / "payloads" / "payloads.jsonl").read_bytes())
    assert cpus[0] == 1 < cpus[1]
    blocks = [json.loads(line) for line in payloads[1].splitlines()]
    assert blocks and all(len(b["player_ids"]) > _SCORE_CHUNK for b in blocks)  # several chunks per match
    assert payloads[0] == payloads[1]

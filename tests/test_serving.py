import gc
import json
import re
import socket
import threading
import time
import tracemalloc
import urllib.error
import urllib.request
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from widir import serving
from widir.domain import CENTS
from widir.errors import ConfigError
from widir.evaluation import popularity_rank
from widir.inference import MatchScores, RankingPayload
from widir.serving import (
    OnlineStore,
    RankRequest,
    RequestError,
    ServeConfig,
    handle_rank_body,
    load_fallbacks,
    parse_rank_request,
    rank_live,
    serve,
)

from conftest import mk_contest, mk_payload
from latency_harness import run_latency_harness
from serving_oracle import rank_oracle, score_map_of


def _payload(player="p1", match="m1", ranking=(("t2", 2.0), ("t1", 1.0)), version="v1"):
    return mk_payload(player, match, ranking, version=version)


def _store_with(payloads=(), fallback_contests=()):
    store = OnlineStore()
    for p in payloads:
        store.put(p)
    if fallback_contests:
        load_fallbacks(store, list(fallback_contests))
    return store


def _score_map(store, player_id, match_id):
    return score_map_of(store.payload(player_id, match_id))


def req(contests, player="p1", match="m1"):
    return RankRequest(player_id=player, match_id=match, contests=tuple(contests))


class TestStore:
    def test_put_get_round_trip(self):
        store = _store_with([_payload()])
        assert _score_map(store, "p1", "m1") == {"t2": 2.0, "t1": 1.0}
        assert store.payload_count == 1

    def test_unknown_key_absent(self):
        assert _score_map(_store_with(), "p9", "m9") is None
        assert _store_with().payload_count == 0

    def test_put_replaces_whole_payload(self):
        store = _store_with([_payload(ranking=(("t2", 2.0), ("t1", 1.0), ("t3", 0.5)))])
        newer = _payload(ranking=(("t1", 9.0), ("t2", 8.0)), version="v2")
        store.put(newer)
        assert _score_map(store, "p1", "m1") == {"t1": 9.0, "t2": 8.0}
        assert store.payload_count == 1
        assert store.model_version == "v2"

    def test_concurrent_reads_never_see_mixed_payloads(self):
        store = OnlineStore()
        a = _payload(ranking=(("t1", 1.0), ("t2", 1.0)), version="A")
        b = _payload(ranking=(("t1", 2.0), ("t2", 2.0)), version="B")
        store.put(a)
        stop = threading.Event()
        bad = []

        def writer():
            i = 0
            while not stop.is_set():
                store.put(a if i % 2 == 0 else b)
                i += 1

        def reader():
            while not stop.is_set():
                score_map = _score_map(store, "p1", "m1")
                if len(set(score_map.values())) != 1:  # a mixture of the two versions
                    bad.append(score_map)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for t in threads:
            t.start()
        import time

        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join()
        assert bad == []

    def test_publishing_a_block_copies_no_scores(self):
        """The store keeps each published row as its view of the score block."""
        players = tuple(f"p{i:05d}" for i in range(5000))
        templates = tuple(f"t{j:02d}" for j in range(60))
        scores = np.random.default_rng(0).random((len(players), len(templates)), dtype=np.float32)
        block = MatchScores("m1", templates, players, scores, generated_at=0, model_version="v1")
        views = [RankingPayload(block, i) for i in range(len(players))]
        store = OnlineStore()
        tracemalloc.start()
        try:
            for view in views:
                store.put(view)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert store.payload_count == len(players)
        assert _score_map(store, "p00042", "m1") == dict(zip(templates, scores[42].tolist()))
        assert peak < 2 * 1024 * 1024, f"publishing 5,000 views allocated {peak} bytes"


_TEMPLATES = ("t0", "t1", "t2", "t3", "t4", "t5")


_TIED_SCORES = st.sampled_from([-1.5, 0.0, 0.25, 0.25, 2.0])


@st.composite
def _ranking_cases(draw, score=_TIED_SCORES):
    """A two-player score block, a fallback catalog and one request for the same match.

    Templates fall in the payload, the fallback, both or neither; by default
    scores and prizes come from small sets, so both tie; instances may share
    a template.
    """
    payload_tids = draw(st.lists(st.sampled_from(_TEMPLATES), unique=True))
    fallback_tids = draw(st.lists(st.sampled_from(_TEMPLATES), unique=True))
    scores = draw(st.lists(score, min_size=2 * len(payload_tids), max_size=2 * len(payload_tids)))
    block = MatchScores(
        match_id="m1",
        template_ids=tuple(payload_tids),
        player_ids=("p1", "p2"),
        scores=np.asarray(scores, dtype=np.float32).reshape(2, len(payload_tids)),
        generated_at=0,
        model_version="v1",
    )
    fallback = [
        mk_contest(contest_id=f"i{tid}", template_id=tid, match_id="m1",
                   tiers=((1, 1, draw(st.sampled_from([100, 500])) * CENTS),))
        for tid in fallback_tids
    ]
    ids = draw(st.lists(st.integers(0, 99), min_size=1, max_size=20, unique=True))
    contests = [(f"c{i}", draw(st.sampled_from(_TEMPLATES))) for i in ids]
    player = draw(st.sampled_from(["p1", "p2", "cold"]))
    return block, fallback, contests, player


class TestRankLive:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_ranking_cases())
    def test_one_path_matches_the_two_branch_oracle(self, case):
        block, fallback, contests, player = case
        views = [RankingPayload(block, row) for row in range(len(block.player_ids))]
        store = _store_with(views, fallback)
        response = rank_live(store, req(contests, player=player))
        payload = next((v for v in views if v.player_id == player), None)
        fallback_ranked = popularity_rank(fallback).ranked if fallback else ()
        assert (response.contests, response.source) == rank_oracle(payload, fallback_ranked, contests)

    def test_template_score_ordering_with_id_tiebreak(self):
        store = _store_with([_payload()])
        response = rank_live(store, req([("c1", "t1"), ("c2", "t2"), ("c3", "t2")]))
        assert [c for c, _ in response.contests] == ["c2", "c3", "c1"]
        assert response.source == "personalized"
        assert response.served_in_micros >= 0

    def test_fallback_for_cold_player(self):
        fallback = [
            mk_contest(contest_id="i1", template_id="t1", match_id="m1",
                       tiers=((1, 1, 50 * CENTS),)),
            mk_contest(contest_id="i2", template_id="t2", match_id="m1",
                       tiers=((1, 1, 900 * CENTS),)),
        ]
        store = _store_with(fallback_contests=fallback)
        response = rank_live(store, req([("c1", "t1"), ("c2", "t2")], player="cold"))
        assert response.source == "fallback"
        assert [c for c, _ in response.contests] == ["c2", "c1"]  # bigger prize first

    def test_replacement_instance_ranks_at_template_position(self):
        store = _store_with([_payload()])
        before = rank_live(store, req([("c1", "t1"), ("c2", "t2")]))
        # c2 fills; a fresh instance c9 of the same template replaces it
        after = rank_live(store, req([("c1", "t1"), ("c9", "t2")]))
        assert [c for c, _ in before.contests].index("c2") == [
            c for c, _ in after.contests
        ].index("c9")

    def test_unknown_templates_append_in_fallback_order(self):
        fallback = [
            mk_contest(contest_id="i1", template_id="tX", match_id="m1",
                       tiers=((1, 1, 100 * CENTS),)),
            mk_contest(contest_id="i2", template_id="tY", match_id="m1",
                       tiers=((1, 1, 500 * CENTS),)),
        ]
        store = _store_with([_payload()], fallback)
        response = rank_live(
            store, req([("c4", "tY"), ("c3", "tX"), ("c1", "t1"), ("c2", "t2")])
        )
        assert [c for c, _ in response.contests] == ["c2", "c1", "c4", "c3"]

    def test_malformed_requests_rejected(self):
        store = _store_with([_payload()])
        with pytest.raises(RequestError, match="no contests"):
            rank_live(store, req([]))
        with pytest.raises(RequestError, match="duplicate"):
            rank_live(store, req([("c1", "t1"), ("c1", "t2")]))
        with pytest.raises(RequestError, match="^duplicate contest_id 'c2' in rank request$"):
            rank_live(store, req([(cid, "t1") for cid in ("c1", "c2", "c3", "c2", "c1")]))
        with pytest.raises(RequestError, match="limit"):
            rank_live(store, req([(f"c{i}", "t1") for i in range(2001)]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 500), min_size=1, max_size=60, unique=True), st.data())
    def test_response_is_permutation_of_request(self, ids, data):
        store = _store_with([_payload()])
        contests = [(f"c{i}", data.draw(st.sampled_from(["t1", "t2", "tZ"]))) for i in ids]
        response = rank_live(store, req(contests))
        assert sorted(c for c, _ in response.contests) == sorted(c for c, _ in contests)


# contest ids that JSON escapes: quotes, backslashes, control characters,
# non-ASCII text and a lone surrogate (which a "\ud800" escape in a body decodes to)
_ODD_IDS = st.text(
    alphabet=st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "漢", "🎲", "\ud800", "c"])
    | st.characters(),
    max_size=6,
)


def _served_in_cut(reply: bytes) -> bytes:
    """`reply` with its served_in_micros value replaced by 0."""
    head, key, tail = reply.rpartition(b'"served_in_micros": ')
    assert key and tail[:-1].isdigit() and tail.endswith(b"}"), reply
    return head + key + b"0}"


class TestWireFormat:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_ranking_cases(score=st.floats(width=32, allow_nan=False, allow_infinity=False)), st.data())
    def test_reply_bytes_equal_json_dumps_of_the_oracle(self, case, data):
        block, fallback, contests, player = case
        ids = data.draw(st.lists(_ODD_IDS, min_size=len(contests), max_size=len(contests), unique=True))
        contests = [(cid, tid) for cid, (_, tid) in zip(ids, contests)]
        views = [RankingPayload(block, row) for row in range(len(block.player_ids))]
        store = _store_with(views, fallback)
        body = json.dumps({"player_id": player, "match_id": "m1", "contests": [
            {"contest_id": cid, "template_id": tid} for cid, tid in contests]}).encode()
        status, reply = handle_rank_body(store, body)
        payload = next((v for v in views if v.player_id == player), None)
        fallback_ranked = popularity_rank(fallback).ranked if fallback else ()
        ordered, source = rank_oracle(payload, fallback_ranked, contests)
        doc = {"contests": [{"contest_id": cid, "score": score} for cid, score in ordered],
               "source": source, "served_in_micros": 12345}
        assert status == 200
        assert _served_in_cut(reply) == _served_in_cut(json.dumps(doc).encode())

    def test_reply_bytes_are_pinned(self):
        """The wire format of one warm request, byte for byte."""
        fallback = [mk_contest(contest_id="i1", template_id="tX", match_id="m1",
                               tiers=((1, 1, 250 * CENTS),))]
        store = _store_with([_payload(ranking=(("t2", float(np.float32(0.1))), ("t1", -3.0)))], fallback)
        body = json.dumps({"player_id": "p1", "match_id": "m1", "contests": [
            {"contest_id": "c1", "template_id": "t1"},
            {"contest_id": "q\"é", "template_id": "tX"},
            {"contest_id": "c2", "template_id": "t2"},
            {"contest_id": "c0", "template_id": "tZ"},
        ]}).encode()
        status, reply = handle_rank_body(store, body)
        assert status == 200
        assert _served_in_cut(reply) == (
            b'{"contests": [{"contest_id": "c2", "score": 0.10000000149011612}, '
            b'{"contest_id": "c1", "score": -3.0}, '
            b'{"contest_id": "q\\"\\u00e9", "score": 25000.0}, '
            b'{"contest_id": "c0", "score": 0.0}], '
            b'"source": "personalized", "served_in_micros": 0}'
        )

    def test_parse_and_handle(self):
        store = _store_with([_payload()])
        body = json.dumps(
            {
                "player_id": "p1",
                "match_id": "m1",
                "contests": [
                    {"contest_id": "c1", "template_id": "t1"},
                    {"contest_id": "c2", "template_id": "t2"},
                ],
            }
        ).encode()
        request = parse_rank_request(body)
        assert request.player_id == "p1"
        status, out = handle_rank_body(store, body)
        assert status == 200
        doc = json.loads(out)
        assert [c["contest_id"] for c in doc["contests"]] == ["c2", "c1"]
        assert doc["source"] == "personalized"

    def test_malformed_body_is_400(self):
        store = _store_with([_payload()])
        status, out = handle_rank_body(store, b"{not json")
        assert status == 400
        assert "error" in json.loads(out)
        status, _ = handle_rank_body(store, json.dumps({"player_id": "p"}).encode())
        assert status == 400

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            "p1",
            None,
            {"player_id": 1, "match_id": "m1", "contests": [{"contest_id": "c1", "template_id": "t1"}]},
            {"player_id": "p1", "match_id": {"m": 1}, "contests": [{"contest_id": "c1", "template_id": "t1"}]},
            {"player_id": "p1", "match_id": "m1", "contests": {"contest_id": "c1", "template_id": "t1"}},
            {"player_id": "p1", "match_id": "m1", "contests": "c1"},
            {"player_id": "p1", "match_id": "m1", "contests": [["c1", "t1"]]},
            {"player_id": "p1", "match_id": "m1", "contests": [{"contest_id": [1], "template_id": "t1"}]},
            {"player_id": "p1", "match_id": "m1", "contests": [{"contest_id": "c1", "template_id": None}]},
            {"player_id": "p1", "match_id": "m1", "contests": [{"contest_id": "c1"}]},
        ],
    )
    def test_badly_typed_body_is_400(self, doc):
        store = _store_with([_payload()])
        body = json.dumps(doc).encode()
        with pytest.raises(RequestError):
            parse_rank_request(body)
        status, out = handle_rank_body(store, body)
        assert status == 400
        assert "error" in json.loads(out)

    def test_deeply_nested_body_is_400(self):
        body = b"[" * 100_000
        with pytest.raises(RequestError, match="malformed"):
            parse_rank_request(body)
        status, out = handle_rank_body(_store_with([_payload()]), body)
        assert status == 400
        assert "error" in json.loads(out)


class TestServeConfig:
    def test_env_overrides_file(self, tmp_path):
        path = tmp_path / "serve.kv"
        path.write_text("bind_port = 1234\nmax_request_bytes = 1000\n")
        config = ServeConfig.load(path, env={"WIDIR_BIND_PORT": "4321"})
        assert config.bind_port == 4321  # env wins
        assert config.max_request_bytes == 1000

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "serve.kv"
        path.write_text("threads = 4\n")
        with pytest.raises(ConfigError, match="threads"):
            ServeConfig.load(path, env={})

    def test_bad_env_value_is_config_error_naming_key(self):
        with pytest.raises(ConfigError, match="WIDIR_\\* environment: bad value for 'bind_port'"):
            ServeConfig.load(None, env={"WIDIR_BIND_PORT": "eighty"})

    def test_rules_are_checked_on_the_merged_values_naming_their_sources(self, tmp_path):
        path = tmp_path / "serve.kv"
        path.write_text("bind_port = 70000\n")
        assert ServeConfig.load(path, env={"WIDIR_BIND_PORT": "8080"}).bind_port == 8080
        with pytest.raises(ConfigError, match=re.escape(f"{path}: bind_port must lie in [0, 65535]")):
            ServeConfig.load(path, env={})
        with pytest.raises(ConfigError, match=re.escape(f"{path} + WIDIR_* environment: max_request_bytes")):
            ServeConfig.load(path, env={"WIDIR_BIND_PORT": "8080", "WIDIR_MAX_REQUEST_BYTES": "0"})


class TestHTTPService:
    def _start(self, max_request_bytes=10_000):
        store = _store_with(
            [_payload()],
            [mk_contest(contest_id="i1", template_id="t1", match_id="m1")],
        )
        config = ServeConfig(bind_port=0, max_request_bytes=max_request_bytes)
        return store, serve(store, config)

    def test_rank_and_health_endpoints(self):
        store, service = self._start()
        try:
            host, port = service.address
            body = json.dumps(
                {
                    "player_id": "p1",
                    "match_id": "m1",
                    "contests": [{"contest_id": "c1", "template_id": "t1"},
                                 {"contest_id": "c2", "template_id": "t2"}],
                }
            ).encode()
            with urllib.request.urlopen(
                urllib.request.Request(f"http://{host}:{port}/rank", data=body, method="POST")
            ) as r:
                doc = json.loads(r.read())
            assert [c["contest_id"] for c in doc["contests"]] == ["c2", "c1"]
            with urllib.request.urlopen(f"http://{host}:{port}/health") as r:
                h = json.loads(r.read())
            assert h["status"] == "ok"
            assert h["model_version"] == "v1"
            assert h["payload_count"] == 1
        finally:
            service.close()

    def test_oversized_request_rejected(self):
        store, service = self._start()
        try:
            host, port = service.address
            big = b"x" * 20_000
            request = urllib.request.Request(
                f"http://{host}:{port}/rank", data=big, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request)
            err.value.close()
            assert err.value.code == 413
        finally:
            service.close()

    @staticmethod
    def _raw_status(address, content_length: str) -> int:
        """Status line of a POST /rank that declares `content_length` and sends no body."""
        head = (
            "POST /rank HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {content_length}\r\n\r\n"
        ).encode()
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(head)
            reply = b""
            while b"\r\n" not in reply:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        return int(reply.split(b" ", 2)[1])

    @pytest.mark.parametrize(
        "content_length, status",
        [("abc", 400), ("-1", 400), ("+5", 400), ("1_0", 400), ("1000000000", 413)],
    )
    def test_bad_content_length_answered_within_timeout(self, content_length, status):
        store, service = self._start()
        try:
            assert self._raw_status(service.address, content_length) == status
        finally:
            service.close()


    def test_badly_typed_contest_id_is_400_over_http(self):
        store, service = self._start()
        try:
            host, port = service.address
            body = json.dumps(
                {"player_id": "p1", "match_id": "m1",
                 "contests": [{"contest_id": [1], "template_id": "t1"}]}
            ).encode()
            request = urllib.request.Request(f"http://{host}:{port}/rank", data=body, method="POST")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request)
            err.value.close()
            assert err.value.code == 400
        finally:
            service.close()

    @staticmethod
    def _exchange(address, request: bytes) -> bytes:
        """Everything the server sends back for the raw bytes `request`."""
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(request)
            return TestHTTPService._read_all(sock)

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GET /health HTTP/1.0\r\nX-Long: " + b"a" * (64 * 1024) + b"\r\n\r\n", 431),
            (b"GET /health HTTP/1.0\r\n" + b"X-Many: 1\r\n" * 101 + b"\r\n", 431),
            (b"GET /" + b"a" * (64 * 1024) + b" HTTP/1.0\r\n\r\n", 414),
            (b"GET /health\r\n\r\n", 400),
            (b"GET /health HTTP/1.0 extra\r\n\r\n", 400),
            (b"GET /health HTTP/one\r\n\r\n", 400),
            (b"PUT /rank HTTP/1.0\r\nContent-Length: 2\r\n\r\n{}", 501),
            (b"GET /health HTTP/2.0\r\n\r\n", 505),
            (b"GET /rank HTTP/1.0\r\n\r\n", 404),
            (b"POST /health HTTP/1.0\r\nContent-Length: 2\r\n\r\n{}", 404),
            (b"POST /rank HTTP/1.0\r\nHost: localhost\r\n\r\n", 400),
            (b"GET /health HTTP/1.0\nHost: localhost\n\n", 200),
        ],
        ids=["long-header", "101-headers", "long-request-line", "no-version", "four-words",
             "bad-version", "put", "http-2", "get-rank", "post-health", "no-content-length", "bare-lf"],
    )
    def test_http_parity(self, request_bytes, status):
        store, service = self._start()
        try:
            reply = self._exchange(service.address, request_bytes)
        finally:
            service.close()
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 %d " % status)
        assert (b"Content-Length: %d" % len(body)) in head
        doc = json.loads(body)
        assert (doc.get("status") == "ok") if status == 200 else ("error" in doc)

    def test_deeply_nested_body_is_400_over_http(self):
        store, service = self._start(max_request_bytes=200_000)
        try:
            body = b"[" * 100_000
            reply = self._exchange(
                service.address,
                b"POST /rank HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body),
            )
            assert reply.startswith(b"HTTP/1.0 400 ")
            assert self._rank_status(service.address) == 200
        finally:
            service.close()

    def test_stalled_client_does_not_hold_up_another(self):
        store, service = self._start()
        try:
            with self._short_body_client(service.address) as stalled:
                t0 = time.monotonic()
                assert self._rank_status(service.address) == 200
                assert time.monotonic() - t0 < 1.0
                stalled.settimeout(0.05)
                with pytest.raises(TimeoutError):  # still open, and not answered
                    stalled.recv(1)
        finally:
            service.close()

    def test_close_with_a_stalled_connection_open_leaks_nothing(self):
        store, service = self._start()
        with self._short_body_client(service.address) as stalled:
            assert self._rank_status(service.address) == 200  # the stalled one was accepted first
            thread = service.thread
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                service.close()
                del service
                gc.collect()
            assert not thread.is_alive()
            stalled.settimeout(5)
            try:
                assert self._read_all(stalled) == b""  # closed without an answer
            except ConnectionResetError:
                pass
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    @staticmethod
    def _short_body_client(address):
        """A POST /rank that declares 100 body bytes and sends 2."""
        sock = socket.create_connection(address, timeout=5)
        sock.sendall(b"POST /rank HTTP/1.1\r\nHost: localhost\r\nContent-Length: 100\r\n\r\n{}")
        return sock

    @staticmethod
    def _read_all(sock) -> bytes:
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
        return reply

    def test_short_body_released_after_timeout(self, monkeypatch):
        assert 0 < serving.CONNECTION_TIMEOUT_S <= 60  # a fixed connection deadline is on by default
        monkeypatch.setattr(serving, "CONNECTION_TIMEOUT_S", 0.5)
        store, service = self._start()
        try:
            t0 = time.monotonic()
            with self._short_body_client(service.address) as sock:
                reply = self._read_all(sock)
            assert time.monotonic() - t0 < 0.5 + 1.0
            assert reply == b"" or reply.split(b" ", 2)[1] == b"408"
            assert self._rank_status(service.address) == 200
        finally:
            service.close()

    def test_short_body_then_half_close_is_400_without_traceback(self, monkeypatch, capsys):
        monkeypatch.setattr(serving, "CONNECTION_TIMEOUT_S", 0.5)
        store, service = self._start()
        try:
            with self._short_body_client(service.address) as sock:
                sock.shutdown(socket.SHUT_WR)
                reply = self._read_all(sock)
            assert reply.split(b" ", 2)[1] == b"400"
            assert b"ended after 2 of 100 bytes" in reply  # the short body was never ranked
            assert self._rank_status(service.address) == 200
        finally:
            service.close()
        assert "Traceback" not in capsys.readouterr().err

    @staticmethod
    def _rank_status(address) -> int:
        host, port = address
        body = json.dumps(
            {"player_id": "p1", "match_id": "m1",
             "contests": [{"contest_id": "c1", "template_id": "t1"}]}
        ).encode()
        request = urllib.request.Request(f"http://{host}:{port}/rank", data=body, method="POST")
        with urllib.request.urlopen(request, timeout=5) as r:
            return r.status


class TestLatencyHarness:
    def test_smoke(self):
        n_contests = 100
        ranking = tuple((f"t{i}", float(1000 - i)) for i in range(n_contests))
        store = _store_with([_payload(ranking=ranking)])
        contests = [(f"c{i}", f"t{i}") for i in range(n_contests)]
        stats = run_latency_harness(store, "p1", "m1", contests, n_requests=300)
        assert stats["p99_ms"] > 0
        assert stats["p50_ms"] <= stats["p99_ms"] <= stats["max_ms"]
        assert "in-process" in stats["note"]

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings, strategies as st

from widir.domain import CENTS
from widir.errors import ConfigError
from widir.serving import (
    OnlineStore,
    RankRequest,
    RequestError,
    ServeConfig,
    _Handler,
    handle_rank_body,
    load_fallbacks,
    parse_rank_request,
    rank_live,
    serve,
)

from conftest import mk_contest, mk_payload
from latency_harness import run_latency_harness


def _payload(player="p1", match="m1", ranking=(("t2", 2.0), ("t1", 1.0)), version="v1"):
    return mk_payload(player, match, ranking, version=version)


def _store_with(payloads=(), fallback_contests=()):
    store = OnlineStore()
    for p in payloads:
        store.put(p)
    if fallback_contests:
        load_fallbacks(store, list(fallback_contests))
    return store


def req(contests, player="p1", match="m1"):
    return RankRequest(player_id=player, match_id=match, contests=tuple(contests))


class TestStore:
    def test_put_get_round_trip(self):
        store = _store_with([_payload()])
        assert store.score_map("p1", "m1") == {"t2": 2.0, "t1": 1.0}
        assert store.payload_count == 1

    def test_unknown_key_absent(self):
        assert _store_with().score_map("p9", "m9") is None
        assert _store_with().payload_count == 0

    def test_put_replaces_whole_payload(self):
        store = _store_with([_payload(ranking=(("t2", 2.0), ("t1", 1.0), ("t3", 0.5)))])
        newer = _payload(ranking=(("t1", 9.0), ("t2", 8.0)), version="v2")
        store.put(newer)
        assert store.score_map("p1", "m1") == {"t1": 9.0, "t2": 8.0}
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
                score_map = store.score_map("p1", "m1")
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


class TestRankLive:
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
        with pytest.raises(RequestError, match="limit"):
            rank_live(store, req([(f"c{i}", "t1") for i in range(2001)]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 500), min_size=1, max_size=60, unique=True), st.data())
    def test_response_is_permutation_of_request(self, ids, data):
        store = _store_with([_payload()])
        contests = [(f"c{i}", data.draw(st.sampled_from(["t1", "t2", "tZ"]))) for i in ids]
        response = rank_live(store, req(contests))
        assert sorted(c for c, _ in response.contests) == sorted(c for c, _ in contests)


class TestWireFormat:
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


class TestHTTPService:
    def _start(self):
        store = _store_with(
            [_payload()],
            [mk_contest(contest_id="i1", template_id="t1", match_id="m1")],
        )
        config = ServeConfig(bind_port=0, max_request_bytes=10_000)
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
        assert 0 < _Handler.timeout <= 60  # a fixed socket timeout is on by default
        monkeypatch.setattr(_Handler, "timeout", 0.5)
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
        monkeypatch.setattr(_Handler, "timeout", 0.5)
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

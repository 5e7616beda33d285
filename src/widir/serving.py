"""Low-latency ranking service over precomputed payloads.

The online store maps (player_id, match_id) to the template scores the
batch job published for that row, plus a per-match popularity fallback. Request
handling only reorders live contest instances by stored template scores;
no model forward pass ever runs here. The 10 ms budget is measured
in-process (request parse through response serialize).
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping, Sequence

from .domain import ContestSpec, match_templates
from .errors import ConfigError
from .evaluation import popularity_rank
from .inference import RankingPayload
from .textio import from_kv, read_kv, to_kv


class RequestError(ValueError):
    """Malformed rank request: badly shaped or typed, empty, oversized, or duplicated contest ids."""


MAX_LIVE_CONTESTS = 2000


@dataclass(frozen=True, slots=True)
class RankRequest:
    player_id: str
    match_id: str
    contests: tuple[tuple[str, str], ...]  # (contest_id, template_id)


@dataclass(frozen=True, slots=True)
class RankResponse:
    contests: tuple[tuple[str, float], ...]  # (contest_id, score), best first
    source: str  # "personalized" | "fallback"
    served_in_micros: int


class OnlineStore:
    """In-memory payload store: one template -> score map per (player, match),
    built from the payload's score row and replaced atomically; many readers."""

    _EMPTY_FALLBACK = ({}, {})

    def __init__(self):
        self._lock = threading.Lock()
        # match_id -> (rank map, score map), built once at set_fallback
        self._fallbacks: dict[str, tuple[dict[str, int], dict[str, float]]] = {}
        self._score_maps: dict[tuple[str, str], dict[str, float]] = {}
        self.model_version: str = ""

    def put(self, payload: RankingPayload) -> None:
        block = payload.block
        score_map = dict(zip(block.template_ids, block.scores[payload.row].tolist()))
        with self._lock:
            self._score_maps[(block.player_ids[payload.row], block.match_id)] = score_map
            self.model_version = block.model_version

    def score_map(self, player_id: str, match_id: str) -> dict[str, float] | None:
        return self._score_maps.get((player_id, match_id))

    def set_fallback(self, match_id: str, ranked: Sequence[tuple[str, float]]) -> None:
        ranked = tuple(ranked)
        rank_map = {tid: i for i, (tid, _) in enumerate(ranked)}
        score_map = {tid: score for tid, score in ranked}
        with self._lock:
            self._fallbacks[match_id] = (rank_map, score_map)

    def fallback_maps(self, match_id: str) -> tuple[dict[str, int], dict[str, float]]:
        return self._fallbacks.get(match_id, self._EMPTY_FALLBACK)

    @property
    def payload_count(self) -> int:
        return len(self._score_maps)


def load_fallbacks(store: OnlineStore, contests: Sequence[ContestSpec]) -> None:
    """Per-match popularity slates (prize descending) as the fallback order."""
    for match_id, templates in match_templates(contests).items():
        slate = popularity_rank(templates)
        store.set_fallback(match_id, slate.ranked)


def rank_live(store: OnlineStore, request: RankRequest) -> RankResponse:
    """Order live contest instances by their template's stored score.

    Instances sharing a template tie-break by contest_id; templates unknown
    to the payload append after known ones in the match's popularity-fallback
    order; with no payload at all the whole response is fallback-ordered.
    """
    t0 = time.perf_counter_ns()
    if not request.contests:
        raise RequestError("rank request has no contests")
    if len(request.contests) > MAX_LIVE_CONTESTS:
        raise RequestError(
            f"rank request has {len(request.contests)} contests, limit {MAX_LIVE_CONTESTS}"
        )
    seen = set()
    for cid, _ in request.contests:
        if cid in seen:
            raise RequestError(f"duplicate contest_id {cid!r} in rank request")
        seen.add(cid)

    fb_rank, fb_score = store.fallback_maps(request.match_id)
    score_map = store.score_map(request.player_id, request.match_id)

    if score_map is not None:
        known = [(cid, tid) for cid, tid in request.contests if tid in score_map]
        unknown = [(cid, tid) for cid, tid in request.contests if tid not in score_map]
        known.sort(key=lambda ct: (-score_map[ct[1]], ct[1], ct[0]))
        unknown.sort(key=lambda ct: (fb_rank.get(ct[1], len(fb_rank)), ct[1], ct[0]))
        ordered = [(cid, score_map[tid]) for cid, tid in known]
        ordered += [(cid, fb_score.get(tid, 0.0)) for cid, tid in unknown]
        source = "personalized"
    else:
        by_fallback = sorted(
            request.contests, key=lambda ct: (fb_rank.get(ct[1], len(fb_rank)), ct[1], ct[0])
        )
        ordered = [(cid, fb_score.get(tid, 0.0)) for cid, tid in by_fallback]
        source = "fallback"

    return RankResponse(
        contests=tuple(ordered),
        source=source,
        served_in_micros=(time.perf_counter_ns() - t0) // 1000,
    )


# --- request wire format ---------------------------------------------------------


def parse_rank_request(body: bytes) -> RankRequest:
    """Decode a rank request; anything but the documented shape is a RequestError.

    The body is a JSON object with string `player_id` and `match_id` and a
    `contests` list of objects with string `contest_id` and `template_id`.
    """
    try:
        doc = json.loads(body)
    except ValueError as exc:
        raise RequestError(f"malformed rank request body: {exc}") from exc
    if not isinstance(doc, dict):
        raise RequestError(f"rank request body must be a JSON object, not {type(doc).__name__}")
    player_id = _field(doc, "player_id", str)
    match_id = _field(doc, "match_id", str)
    contests = []
    for c in _field(doc, "contests", list):
        if not isinstance(c, dict):
            raise RequestError(f"each rank request contest must be a JSON object, not {type(c).__name__}")
        contests.append((_field(c, "contest_id", str), _field(c, "template_id", str)))
    return RankRequest(player_id=player_id, match_id=match_id, contests=tuple(contests))


def _field(doc: dict, key: str, kind: type):
    if key not in doc:
        raise RequestError(f"rank request has no {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise RequestError(f"rank request {key!r} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def handle_rank_body(store: OnlineStore, body: bytes) -> tuple[int, bytes]:
    """The full in-process request path: parse, rank, serialize."""
    try:
        response = rank_live(store, parse_rank_request(body))
    except RequestError as exc:
        return 400, json.dumps({"error": str(exc)}).encode()
    doc = {
        "contests": [{"contest_id": cid, "score": score} for cid, score in response.contests],
        "source": response.source,
        "served_in_micros": response.served_in_micros,
    }
    return 200, json.dumps(doc).encode()


# --- configuration ----------------------------------------------------------------


@dataclass(frozen=True)
class ServeConfig:
    bind_host: str = "127.0.0.1"
    bind_port: int = 0  # 0: pick a free port
    max_request_bytes: int = 4 * 1024 * 1024
    fallback_path: str = ""  # contest catalog used for popularity fallbacks

    _ENV = {
        "bind_host": "WIDIR_BIND_HOST",
        "bind_port": "WIDIR_BIND_PORT",
        "max_request_bytes": "WIDIR_MAX_REQUEST_BYTES",
        "fallback_path": "WIDIR_FALLBACK_PATH",
    }

    def validate(self) -> None:
        if not 0 <= self.bind_port <= 65535:
            raise ConfigError(f"bind_port must lie in [0, 65535], got {self.bind_port}")
        if self.max_request_bytes < 1:
            raise ConfigError(f"max_request_bytes must be >= 1, got {self.max_request_bytes}")

    @classmethod
    def load(cls, path=None, env: Mapping[str, str] | None = None) -> "ServeConfig":
        """File values overridden by environment variables (env wins)."""
        env = os.environ if env is None else env
        config = from_kv(cls, read_kv(path), str(path)) if path else cls()
        overrides = {name: env[var] for name, var in cls._ENV.items() if var in env}
        config = from_kv(cls, {**to_kv(config), **overrides}, "WIDIR_* environment")
        config.validate()
        return config


# --- HTTP service ------------------------------------------------------------------


class _Handler(BaseHTTPRequestHandler):
    store: OnlineStore
    max_request_bytes: int
    # seconds any one read or write on a connection may stall; a client that
    # declares more body than it sends would otherwise hold a thread forever
    timeout = 10.0

    def _send(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _drop(self, status: int, message: str) -> None:
        """Answer an incomplete request if the client still reads, then close."""
        self.close_connection = True
        with contextlib.suppress(OSError):
            self._send(status, json.dumps({"error": message}).encode())

    def do_GET(self):  # noqa: N802 (http.server API)
        if self.path != "/health":
            self._send(404, json.dumps({"error": "not found"}).encode())
            return
        body = json.dumps(
            {
                "status": "ok",
                "model_version": self.store.model_version,
                "payload_count": self.store.payload_count,
            }
        ).encode()
        self._send(200, body)

    def do_POST(self):  # noqa: N802
        if self.path != "/rank":
            self._send(404, json.dumps({"error": "not found"}).encode())
            return
        raw_length = self.headers.get("Content-Length", "0").strip()
        # digits only: int() would also take "-1" (rfile.read(-1) blocks until
        # the client hangs up), "+5" and "1_0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            self._send(400, json.dumps({"error": f"invalid Content-Length {raw_length!r}"}).encode())
            return
        length = int(raw_length)
        if length > self.max_request_bytes:
            self._send(
                413,
                json.dumps(
                    {"error": f"request of {length} bytes exceeds limit {self.max_request_bytes}"}
                ).encode(),
            )
            return
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            self._drop(408, f"request body not received within {self.timeout} s")
            return
        if len(body) < length:
            self._drop(400, f"request body ended after {len(body)} of {length} bytes")
            return
        try:
            status, out = handle_rank_body(self.store, body)
        except Exception as exc:  # defensive: never kill the connection thread
            status, out = 500, json.dumps({"error": f"internal error: {exc}"}).encode()
        self._send(status, out)

    def log_message(self, fmt, *args):  # quiet by default
        pass


@dataclass
class RankingService:
    server: ThreadingHTTPServer
    thread: threading.Thread

    @property
    def address(self) -> tuple[str, int]:
        return self.server.server_address[:2]

    def close(self) -> None:
        self.server.shutdown()
        self.thread.join(timeout=5)
        self.server.server_close()


def serve(store: OnlineStore, config: ServeConfig) -> RankingService:
    """Start the HTTP service on a daemon thread and return a handle."""
    handler = type(
        "BoundHandler", (_Handler,), {"store": store, "max_request_bytes": config.max_request_bytes}
    )
    try:
        server = ThreadingHTTPServer((config.bind_host, config.bind_port), handler)
    except OSError as exc:
        raise ConfigError(f"cannot bind {config.bind_host}:{config.bind_port}: {exc}") from exc
    thread = threading.Thread(target=server.serve_forever, name="widir-serve", daemon=True)
    thread.start()
    return RankingService(server=server, thread=thread)

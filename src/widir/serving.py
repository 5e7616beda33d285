"""Low-latency ranking service over precomputed payloads.

The online store maps (player_id, match_id) to the payload view the batch job
published for that row, a row of its match's score block, plus a per-match
popularity fallback; the scores are not copied. Request handling only
reorders live contest instances by stored template scores;
no model forward pass ever runs here. Ranking reads the row once, finds
each template's column in its block's column map and sorts plain tuples.
The reply is joined from per-contest fragments and equals `json.dumps` of
the reply document byte for byte. The 10 ms budget is measured
in-process (request parse through response serialize).

`serve` runs one `selectors` loop on one daemon thread, and that loop serves
every connection from a small record of its buffer, deadline and unsent reply:
no thread, task or timer per connection. The ranking work is Python that holds
the GIL, so it runs one request at a time whatever the thread count; threads
per connection only added the cost of handing each request from thread to
thread. The service speaks a subset of HTTP/1.0: one request per connection,
answered with an `HTTP/1.0` reply with a JSON body, then the connection closes.

- `GET /health` and `POST /rank` answer 200; a rank body that `handle_rank_body`
  rejects answers 400;
- 400: a request line that is not `METHOD PATH HTTP/x.y`, a header line with no
  colon, a `POST /rank` with no, a repeated or a non-decimal `Content-Length`,
  or a body that ends before its `Content-Length`;
- 404: any other path; 501: a method other than GET and POST; 505: HTTP/2 or later;
- 413: a `Content-Length` over `max_request_bytes`, answered before any body is read;
- 414 or 431: a request line or a head over 64 KiB (`HEAD_LIMIT`); 431: more
  than 100 headers;
- 408: a request not complete `CONNECTION_TIMEOUT_S` (10 s) after the connection
  was accepted. Past that deadline a connection whose reply is still unread is
  aborted;
- 500: ranking raised; the loop goes on serving the other connections.
"""

from __future__ import annotations

import collections
import json
import os
import re
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field, fields
from http import HTTPStatus
from json.encoder import encode_basestring_ascii
from typing import Mapping, Sequence

from .domain import ContestSpec, match_templates
from .errors import ConfigError
from .evaluation import popularity_rank
from .inference import RankingPayload
from .textio import from_kv, json_field, load_json, parse_fields, read_kv


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
    """In-memory payload store: the payload view of each (player, match), a row
    of its match's score block, replaced atomically; many readers."""

    def __init__(self):
        self._lock = threading.Lock()
        # match_id -> (rank map, score map), built once at set_fallback
        self._fallbacks: dict[str, tuple[dict[str, int], dict[str, float]]] = {}
        self._payloads: dict[tuple[str, str], RankingPayload] = {}
        self.model_version: str = ""

    def put(self, payload: RankingPayload) -> None:
        with self._lock:
            self._payloads[(payload.player_id, payload.match_id)] = payload
            self.model_version = payload.model_version

    def payload(self, player_id: str, match_id: str) -> RankingPayload | None:
        return self._payloads.get((player_id, match_id))

    def set_fallback(self, match_id: str, ranked: Sequence[tuple[str, float]]) -> None:
        rank_map = {tid: i for i, (tid, _) in enumerate(ranked)}
        score_map = dict(ranked)
        with self._lock:
            self._fallbacks[match_id] = (rank_map, score_map)

    def fallback_maps(self, match_id: str) -> tuple[dict[str, int], dict[str, float]]:
        return self._fallbacks.get(match_id, ({}, {}))

    @property
    def payload_count(self) -> int:
        return len(self._payloads)


def load_fallbacks(store: OnlineStore, contests: Sequence[ContestSpec]) -> None:
    """Per-match popularity slates (prize descending) as the fallback order."""
    for match_id, templates in match_templates(contests).items():
        slate = popularity_rank(templates)
        store.set_fallback(match_id, slate.ranked)


def rank_live(store: OnlineStore, request: RankRequest) -> RankResponse:
    """Order live contest instances by their template's stored score.

    Instances sharing a template tie-break by contest_id; templates unknown
    to the payload append after known ones in the match's popularity-fallback
    order. A player with no payload is a player whose every template is
    unknown: the whole response is fallback-ordered, with source "fallback".
    Each list sorts on plain tuples, (-score, template_id, contest_id, score)
    and (fallback rank, template_id, contest_id): contest ids are distinct,
    so no comparison reaches past them.
    """
    t0 = time.perf_counter_ns()
    contests = request.contests
    if not contests:
        raise RequestError("rank request has no contests")
    if len(contests) > MAX_LIVE_CONTESTS:
        raise RequestError(f"rank request has {len(contests)} contests, limit {MAX_LIVE_CONTESTS}")
    if len({cid for cid, _ in contests}) != len(contests):
        seen = set()
        for cid, _ in contests:
            if cid in seen:
                raise RequestError(f"duplicate contest_id {cid!r} in rank request")
            seen.add(cid)

    fb_rank, fb_score = store.fallback_maps(request.match_id)
    payload = store.payload(request.player_id, request.match_id)
    columns, srow = {}, []
    if payload is not None:
        columns, srow = payload.block.columns, payload.block.scores[payload.row].tolist()
    unlisted = len(fb_rank)  # the fallback rank of a template the slate does not list
    known, unknown = [], []
    for cid, tid in contests:
        c = columns.get(tid)
        if c is None:
            unknown.append((fb_rank.get(tid, unlisted), tid, cid))
        else:
            known.append((-srow[c], tid, cid, srow[c]))
    known.sort()
    unknown.sort()
    ordered = [(cid, score) for _, _, cid, score in known]
    ordered += [(cid, fb_score.get(tid, 0.0)) for _, tid, cid in unknown]

    return RankResponse(
        contests=tuple(ordered),
        source="fallback" if payload is None else "personalized",
        served_in_micros=(time.perf_counter_ns() - t0) // 1000,
    )


# --- request wire format ---------------------------------------------------------


def parse_rank_request(body: bytes) -> RankRequest:
    """Decode a rank request; anything but the documented shape is a RequestError.

    The body is a JSON object with string `player_id` and `match_id` and a
    `contests` list of objects with string `contest_id` and `template_id`.
    """
    doc = load_json(body, "rank request", RequestError)
    player_id = json_field(doc, "player_id", str, "rank request", RequestError)
    match_id = json_field(doc, "match_id", str, "rank request", RequestError)
    contests = []
    for c in json_field(doc, "contests", list, "rank request", RequestError):
        if not isinstance(c, dict):
            raise RequestError(f"each rank request contest must be a JSON object, not {type(c).__name__}")
        contests.append((json_field(c, "contest_id", str, "rank request contest", RequestError),
                         json_field(c, "template_id", str, "rank request contest", RequestError)))
    return RankRequest(player_id=player_id, match_id=match_id, contests=tuple(contests))


def handle_rank_body(store: OnlineStore, body: bytes) -> tuple[int, bytes]:
    """The full in-process request path: parse, rank, serialize."""
    try:
        response = rank_live(store, parse_rank_request(body))
    except RequestError as exc:
        return 400, json.dumps({"error": str(exc)}).encode()
    # the bytes of json.dumps(doc).encode(): every score is a finite float, whose
    # repr is its JSON text (read_payloads rejects NaN and infinite scores, and
    # fallback scores are prize amounts)
    contests = ", ".join([
        '{"contest_id": %s, "score": %r}' % (encode_basestring_ascii(cid), score)
        for cid, score in response.contests
    ])
    return 200, b'{"contests": [%s], "source": "%s", "served_in_micros": %d}' % (
        contests.encode(), response.source.encode(), response.served_in_micros)


# --- configuration ----------------------------------------------------------------


@dataclass(frozen=True)
class ServeConfig:
    """Where the service listens, and its request size limit; a broken rule is a ConfigError when it is made."""

    bind_host: str = "127.0.0.1"
    bind_port: int = 0  # 0: pick a free port
    max_request_bytes: int = 4 * 1024 * 1024

    def __post_init__(self):
        if not 0 <= self.bind_port <= 65535:
            raise ConfigError(f"bind_port must lie in [0, 65535], got {self.bind_port}")
        if self.max_request_bytes < 1:
            raise ConfigError(f"max_request_bytes must be >= 1, got {self.max_request_bytes}")

    @classmethod
    def load(cls, path=None, env: Mapping[str, str] | None = None) -> "ServeConfig":
        """File values overridden by environment variables (`WIDIR_<FIELD>`), the rules checked on the
        merged values. A bad key or value names its source; a broken rule names each source that gave values."""
        env = os.environ if env is None else env
        values = parse_fields(cls, read_kv(path), str(path)) if path else {}
        overrides = {f.name: env[var] for f in fields(cls) if (var := f"WIDIR_{f.name.upper()}") in env}
        values.update(parse_fields(cls, overrides, "WIDIR_* environment"))
        sources = [str(path)] * bool(path) + ["WIDIR_* environment"] * bool(overrides)
        return from_kv(cls, {}, " + ".join(sources), **values)


# --- HTTP service ------------------------------------------------------------------

HEAD_LIMIT = 64 * 1024  # bytes of request line and headers
MAX_HEADERS = 100
# seconds from accept to the last byte of the request; a client that declares
# more body than it sends would otherwise hold its connection open forever
CONNECTION_TIMEOUT_S = 10.0
READ_BYTES = 256 * 1024  # per recv, above HEAD_LIMIT: closing on unread request bytes would reset the reply
_VERSION = re.compile(rb"HTTP/(\d{1,9})\.\d{1,9}")


class _Refused(Exception):
    """A request the service answers with `status` and the message, without ranking."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _body_length(head: bytes, max_request_bytes: int) -> int | None:
    """The body length a request head declares for POST /rank, None for GET /health.

    `head` is the request line and headers, up to but without the empty line;
    lines end in CRLF or a bare LF. Anything else raises _Refused.
    """
    line, *headers = head.split(b"\n")
    words = line.split()
    if len(words) != 3 or not (version := _VERSION.fullmatch(words[2])):
        raise _Refused(400, f"malformed request line {line.strip().decode('latin-1')!r}")
    if int(version[1]) >= 2:
        raise _Refused(505, f"HTTP version {words[2].decode()} is not supported")
    if len(headers) > MAX_HEADERS:
        raise _Refused(431, f"more than {MAX_HEADERS} headers")
    raw_length = None
    for header in headers:
        name, colon, value = header.partition(b":")
        if not colon:
            raise _Refused(400, f"malformed header line {header.strip().decode('latin-1')!r}")
        if name.strip().lower() == b"content-length":
            if raw_length is not None:
                raise _Refused(400, "more than one Content-Length")
            raw_length = value.strip()
    method, path = words[0], words[1]
    if method not in (b"GET", b"POST"):
        raise _Refused(501, f"method {method.decode('latin-1')} is not supported")
    if (method, path) == (b"GET", b"/health"):
        return None
    if (method, path) != (b"POST", b"/rank"):
        raise _Refused(404, "not found")
    if raw_length is None:
        raise _Refused(400, "POST /rank needs a Content-Length")
    # digits only: int() would also take "-1", "+5" and "1_0"
    if not (raw_length.isdigit() and len(raw_length) <= 18):
        raise _Refused(400, f"invalid Content-Length {raw_length.decode('latin-1')!r}")
    length = int(raw_length)
    if length > max_request_bytes:
        raise _Refused(413, f"request of {length} bytes exceeds limit {max_request_bytes}")
    return length


def _error(message: str) -> bytes:
    return json.dumps({"error": message}).encode()


@dataclass(slots=True)
class _Connection:
    """One connection: the request read so far, its deadline and the reply bytes not yet sent."""

    sock: socket.socket | None  # None once closed
    deadline: float
    buffer: bytearray = field(default_factory=bytearray)
    scanned: int = 0  # bytes of buffer already searched for the head's end
    length: int | None = None  # the body's length, once the head is read
    unsent: bytes | None = None  # the reply's unsent bytes, once answered


class RankingService:
    """The running service: `serve`'s selector loop, run by `thread` until close()."""

    def __init__(self, store: OnlineStore, listeners: list[socket.socket], max_request_bytes: int):
        self.store = store
        self.listeners = listeners
        self.max_request_bytes = max_request_bytes
        self.timeout = CONNECTION_TIMEOUT_S
        # every deadline is its accept time plus the same timeout, so accept order is deadline order
        self.deadlines: collections.deque[_Connection] = collections.deque()
        self.selector = selectors.DefaultSelector()
        for listener in listeners:
            self.selector.register(listener, selectors.EVENT_READ)
        self._wakeup, self._waker = socket.socketpair()  # a byte on _waker stops the loop
        self.selector.register(self._wakeup, selectors.EVENT_READ)
        self._closed = threading.Event()
        self.thread = threading.Thread(target=self._run, name="widir-serve", daemon=True)
        self.thread.start()

    @property
    def address(self) -> tuple[str, int]:
        return self.listeners[0].getsockname()[:2]

    def close(self) -> None:
        """Stop the loop, which closes every socket it holds, and end its thread. A second call does nothing."""
        try:
            self._waker.send(b"\0")
        except OSError:  # the loop has stopped and closed its sockets
            pass
        # wait on the event, not on thread.join alone: on Python 3.11 a join cut short by
        # KeyboardInterrupt (the CLI's Ctrl-C) marks the thread stopped while it still runs
        self._closed.wait(timeout=5)
        self.thread.join(timeout=5)

    def _run(self) -> None:
        try:
            while True:
                for key, events in self.selector.select(self._expire(time.monotonic())):
                    if key.fileobj is self._wakeup:
                        return
                    if key.data is None:
                        self._accept(key.fileobj)
                    elif events & selectors.EVENT_WRITE:
                        self._send(key.data)
                    else:
                        self._read(key.data)
        finally:
            for key in list(self.selector.get_map().values()):
                key.fileobj.close()
            self.selector.close()
            self._waker.close()
            self._closed.set()

    def _expire(self, now: float) -> float | None:
        """Answer 408, or drop a reply still unsent, on each connection past its deadline;
        the seconds until the next deadline, None if no connection is open."""
        deadlines = self.deadlines
        while deadlines and (deadlines[0].sock is None or deadlines[0].deadline <= now):
            conn = deadlines.popleft()
            if conn.sock is not None and conn.unsent is None:
                self._reply(conn, 408, _error(f"request not received within {self.timeout} s"))
            if conn.sock is not None:  # answered, but the client does not read the reply
                self._close(conn)
        return deadlines[0].deadline - now if deadlines else None

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:  # none left to accept, or the client has already gone
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock, time.monotonic() + self.timeout)
            self.selector.register(sock, selectors.EVENT_READ, conn)
            self.deadlines.append(conn)
            self._read(conn)  # the request has often arrived with the connection: skip a pass of the loop

    def _read(self, conn: _Connection) -> None:
        """Read until the socket has no bytes left or the request is answered."""
        try:
            while conn.unsent is None:
                data = conn.sock.recv(READ_BYTES)
                if not data:  # the client has sent its last byte
                    if conn.length is not None:
                        self._reply(conn, 400, _error(
                            f"request body ended after {len(conn.buffer)} of {conn.length} bytes"))
                    elif conn.buffer:
                        self._reply(conn, 400, _error("request head ended before its empty line"))
                    else:
                        self._close(conn)
                    return
                conn.buffer += data
                self._take(conn)
        except BlockingIOError:
            pass
        except OSError:  # reset by the client
            self._close(conn)

    def _take(self, conn: _Connection) -> None:
        """Answer the request once its head, or its whole body, has arrived."""
        if conn.length is None and not self._read_head(conn):
            return
        if len(conn.buffer) >= conn.length:
            try:
                status, body = handle_rank_body(self.store, bytes(conn.buffer[: conn.length]))
            except Exception as exc:  # answer, and keep serving the other connections
                status, body = 500, _error(f"internal error: {exc}")
            self._reply(conn, status, body)

    def _read_head(self, conn: _Connection) -> bool:
        """Answer or take the request head once it has arrived; True if a body is due."""
        buf = conn.buffer
        # the head ends at its first empty line: the first "\n" followed by "\r\n" or "\n"
        start = max(0, conn.scanned - 2)
        crlf = buf.find(b"\n\r\n", start, HEAD_LIMIT)
        lf = buf.find(b"\n\n", start, HEAD_LIMIT if crlf < 0 else crlf + 1)
        end, body = (lf, lf + 2) if lf >= 0 else (crlf, crlf + 3)
        if end < 0:
            conn.scanned = len(buf)
            if len(buf) >= HEAD_LIMIT:
                status = 414 if buf.find(b"\n", 0, HEAD_LIMIT) < 0 else 431
                self._reply(conn, status, _error(f"request head exceeds {HEAD_LIMIT} bytes"))
            return False
        head = bytes(buf[:end])
        del buf[:body]
        try:
            length = _body_length(head, self.max_request_bytes)
        except _Refused as exc:
            self._reply(conn, exc.status, _error(str(exc)))
            return False
        if length is None:
            doc = {"status": "ok", "model_version": self.store.model_version,
                   "payload_count": self.store.payload_count}
            self._reply(conn, 200, json.dumps(doc).encode())
            return False
        conn.length = length
        return True

    def _reply(self, conn: _Connection, status: int, body: bytes) -> None:
        """Send the reply at once; wait for the socket to take the rest only if some is left."""
        phrase = HTTPStatus(status).phrase.encode()
        conn.unsent = (b"HTTP/1.0 %d %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
                       % (status, phrase, len(body), body))
        if self._send(conn):
            self.selector.modify(conn.sock, selectors.EVENT_WRITE, conn)

    def _send(self, conn: _Connection) -> bool:
        """Send what the socket takes of the reply and close once it is all sent; True if some is left."""
        try:
            conn.unsent = conn.unsent[conn.sock.send(conn.unsent):]
        except BlockingIOError:
            pass
        except OSError:  # the client has gone
            conn.unsent = b""
        if conn.unsent:
            return True
        self._close(conn)
        return False

    def _close(self, conn: _Connection) -> None:
        self.selector.unregister(conn.sock)
        conn.sock.close()
        conn.sock = conn.buffer = None


def serve(store: OnlineStore, config: ServeConfig) -> RankingService:
    """Listen on every address `bind_host` resolves to and start the service loop on a daemon thread."""
    listeners = []
    try:
        for family, kind, proto, _, address in socket.getaddrinfo(
                config.bind_host or None, config.bind_port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE):
            listeners.append(sock := socket.socket(family, kind, proto))
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if family == socket.AF_INET6:  # leave IPv4 to its own socket
                sock.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_V6ONLY, 1)
            sock.bind(address)
            sock.listen()
            sock.setblocking(False)
    except OSError as exc:
        for sock in listeners:
            sock.close()
        raise ConfigError(f"cannot bind {config.bind_host}:{config.bind_port}: {exc}") from exc
    return RankingService(store, listeners, config.max_request_bytes)

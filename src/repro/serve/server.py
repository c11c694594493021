"""JSON-over-HTTP front end for the compile farm (stdlib only).

``repro serve`` puts a :class:`http.server.ThreadingHTTPServer` in
front of a :class:`~repro.serve.farm.WorkerFarm` of worker
*processes*.  The front end parses, routes and accounts; every
compilation runs in a farm worker.  The design goals, in order: never
corrupt a result, shed load explicitly, drain cleanly.

* **Compile farm** — ``workers`` (default 1) supervised worker
  processes; requests are sharded by graph content digest (rendezvous
  hashing) so each worker's session LRU and in-memory report tier
  stay hot.  The connection thread talks straight to its shard's
  pipe — no intermediate queue hop.
* **Batch through the farm** — ``/batch`` shards every item by its
  own graph digest, shard groups run concurrently (items within a
  shard in order, so each worker's caches stay hot), each item reuses
  the per-item single-flight and all three cache tiers, and item
  failures are isolated — one malformed document or one worker crash
  costs that *item* an error entry, never the whole batch.  Responses
  come back in request order, success items spliced verbatim from the
  workers' rendered bytes.
* **Live resizing** — ``POST /resize`` ``{"workers": N}`` grows or
  shrinks the farm without a restart: added workers are spawned
  supervised, removed workers drain (finish in-flight work, ship
  final counters) before shutdown, and rendezvous hashing moves only
  ~1/N of the key space.  The body memo is flushed so routing follows
  the new pool immediately.
* **Single-flight** — concurrent identical cache-enabled ``/compile``
  requests coalesce: the first becomes the leader and compiles; the
  rest wait and receive the leader's bytes verbatim (counted under
  ``coalesced``, not as extra hits/misses).  A cold-cache stampede
  compiles once, not N times.
* **Bounded queue / backpressure** — at most ``queue_limit`` requests
  may be queued or running; one more gets an immediate ``429`` with a
  ``Retry-After`` header instead of unbounded buffering.  Load the
  server cannot take is the *client's* signal to back off.
* **Per-request timeout** — a request that outlives
  ``request_timeout`` seconds gets ``504``; the overdue worker is
  killed and respawned, so a hung compile cannot wedge its shard.
* **Supervision** — a farm worker that crashes mid-request fails that
  request with a one-line ``503`` (never a hang) and is respawned
  immediately; a worker that dies idle is respawned by the farm's
  supervisor thread, so ``/healthz`` recovers without traffic.
* **Graceful drain** — :meth:`CompileServer.drain` (wired to SIGTERM
  by the CLI) stops accepting new work (``503`` while draining),
  waits for in-flight requests, stops the farm, writes the
  accumulated trace, and returns; ``repro serve`` then exits 0.
* **Observability** — with ``trace_path`` set, every request records
  a ``serve.request`` span tree.  Farm workers record into their own
  recorders and ship the serialized tree back over the pipe; the
  front end grafts it under the request span, so one merged
  Chrome-trace file covers the whole pool.  ``/stats`` reports
  latency percentiles (p50/p95/p99 over a sliding window) and
  per-worker counters alongside the existing cache figures.

Endpoints
---------
``GET /healthz``
    ``{"status": "ok" | "draining", "farm": {...}}`` (200 / 503); the
    farm object carries size, alive and restart figures.
``GET /stats``
    Server counters, latency percentiles, cache stats, farm stats.
``POST /compile``
    ``{"graph": <to_json document>, "options": {...}, "cache": true}``
    → ``{"status": "hit"|"miss"|"disabled", "report": {...}}``.
``POST /batch``
    ``{"graphs": [<document>, ...], "options": {...}, "cache": true}``
    → ``{"responses": [{"status": ..., "report": ...}, ...]}`` in
    request order.  A failed item is ``{"status": "error", "code":
    <http-equivalent>, "error": "..."}`` with the other items intact.
    A ``"jobs"`` field is accepted and ignored.
``POST /resize``
    ``{"workers": N}`` → the post-resize farm description.

Error responses are ``{"error": "..."}`` with status 400 (malformed
request or ``Content-Length``), 404 (unknown path), 411 (a POST with
no ``Content-Length`` or with a ``Transfer-Encoding``), 413 (declared
body over ``_MAX_BODY_BYTES``), 429 (queue full), 503 (draining or
worker crash), 504 (timeout), or 500 (unexpected failure).  Framing
errors (400/411/413) close the connection without reading the body.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from ..exceptions import SDFError
from ..sdf.io import canonical_hash
from . import DEFAULT_PORT
from .cache import ArtifactCache, cache_key
from .farm import (
    FarmError,
    FarmRequestError,
    FarmTimeout,
    FarmWorkerCrashed,
    WorkerFarm,
)
from .service import CompileOptions

__all__ = ["CompileServer", "DEFAULT_PORT"]

#: How often ``serve_forever`` checks for a shutdown request; every
#: :meth:`CompileServer.drain` waits up to this long for the accept
#: loop to notice (the stdlib default is 0.5 s).
_POLL_INTERVAL_S = 0.05

#: Longest a coalesced follower will wait on its leader when no
#: ``request_timeout`` is configured.  The leader always publishes a
#: result (its error paths run under ``finally``), so this bound only
#: matters if the leader thread is destroyed mid-request.
_SINGLE_FLIGHT_CAP_S = 600.0

#: Largest request body accepted; a larger declared ``Content-Length``
#: gets a 413 before any of the body is read (``rfile.read(n)``
#: allocates ``n`` bytes up front).
_MAX_BODY_BYTES = 64 << 20

#: Body-memo limits: requests larger than this, or beyond this many
#: distinct bodies, are parsed every time instead of cached.
_MEMO_MAX_BODY = 1 << 20
_MEMO_MAX_ENTRIES = 512


class _FastHeaders:
    """Case-insensitive header lookup over a plain dict.

    Stands in for the ``email.message.Message`` that
    ``http.client.parse_headers`` would build — the full MIME parser
    costs ~100µs per request, an order of magnitude more than every
    other per-request step combined, for headers we only ever ``get``.
    """

    __slots__ = ("_fields",)

    def __init__(self, fields: Dict[str, str]) -> None:
        self._fields = fields

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self._fields.get(name.lower(), default)


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the owning :class:`CompileServer`."""

    protocol_version = "HTTP/1.1"
    # Keep-alive clients on loopback otherwise hit the Nagle +
    # delayed-ACK interaction: each response stalls ~40ms waiting for
    # the client's ACK before the final segment leaves.  TCP_NODELAY
    # on the server socket (client-side alone is not enough) takes
    # warm round trips from ~23/s to thousands/s.
    disable_nagle_algorithm = True

    _STATUS_LINES = {
        code: f"HTTP/1.1 {code} {msg[0]}\r\n".encode("latin-1")
        for code, msg in BaseHTTPRequestHandler.responses.items()
    }

    @property
    def _owner(self) -> "CompileServer":
        return self.server.owner  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:
        if not self._owner.quiet:
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    def handle_one_request(self) -> None:
        """One request off the wire, with lean header parsing.

        Replaces the stock implementation only to avoid routing the
        header block through ``email.feedparser``; request-line
        handling, error codes, and keep-alive semantics match
        ``BaseHTTPRequestHandler``.
        """
        try:
            self.raw_requestline = self.rfile.readline(65537)
            if len(self.raw_requestline) > 65536:
                self.requestline = ""
                self.request_version = ""
                self.command = ""
                self.send_error(414)
                return
            if not self.raw_requestline:
                self.close_connection = True
                return
            if not self._parse_fast():
                return
            mname = "do_" + self.command
            if not hasattr(self, mname):
                self.send_error(
                    501, f"Unsupported method ({self.command!r})"
                )
                return
            getattr(self, mname)()
            self.wfile.flush()
        except TimeoutError as exc:  # pragma: no cover - socket timeout
            self.log_error("Request timed out: %r", exc)
            self.close_connection = True

    def _parse_fast(self) -> bool:
        """Parse request line + headers; False means already replied."""
        self.command = ""
        # An unparsable request line still gets an HTTP/1.1 status
        # line: the stdlib's HTTP/0.9 default would send a bare body.
        self.request_version = "HTTP/1.1"
        version = "HTTP/0.9"
        self.close_connection = True
        requestline = self.raw_requestline.decode("iso-8859-1")
        self.requestline = requestline = requestline.rstrip("\r\n")
        words = requestline.split()
        if len(words) == 3:
            command, path, version = words
            if version not in ("HTTP/1.0", "HTTP/1.1"):
                self.send_error(
                    505, f"Invalid HTTP version ({version[5:]})"
                )
                return False
        elif len(words) == 2:
            command, path = words
            if command != "GET":
                self.send_error(
                    400, f"Bad HTTP/0.9 request type ({command!r})"
                )
                return False
        else:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        self.command, self.path, self.request_version = (
            command, path, version
        )
        fields: Dict[str, str] = {}
        while True:
            line = self.rfile.readline(65537)
            if len(line) > 65536:
                self.send_error(431, "Header line too long")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            if len(fields) >= 100:
                self.send_error(431, "Too many headers")
                return False
            name, sep, value = line.decode("iso-8859-1").partition(":")
            if not sep:
                self.send_error(
                    400, f"Bad header line ({line!r})"
                )
                return False
            fields[name.strip().lower()] = value.strip()
        self.headers = _FastHeaders(fields)  # type: ignore[assignment]
        conntype = fields.get("connection", "").lower()
        if version == "HTTP/1.1":
            self.close_connection = "close" in conntype
        else:
            self.close_connection = "keep-alive" not in conntype
        if (
            fields.get("expect", "").lower() == "100-continue"
            and version == "HTTP/1.1"
        ):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def _reply_bytes(
        self, code: int, body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        # One buffer, one write: status line, headers, and body leave
        # in a single syscall/TCP segment instead of three.
        parts = [
            self._STATUS_LINES.get(
                code, f"HTTP/1.1 {code} Response\r\n".encode("latin-1")
            ),
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode("latin-1")
            + b"\r\n",
        ]
        for name, value in (headers or {}).items():
            parts.append(f"{name}: {value}\r\n".encode("latin-1"))
        if self.close_connection:
            parts.append(b"Connection: close\r\n")
        parts.append(b"\r\n")
        parts.append(body)
        self.wfile.write(b"".join(parts))
        if not self._owner.quiet:
            self.log_request(code, len(body))

    def _reply(
        self, code: int, payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._reply_bytes(
            code, json.dumps(payload).encode("utf-8"), headers
        )

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        owner = self._owner
        if self.path == "/healthz":
            payload = {
                "status": "draining" if owner.draining else "ok",
                "farm": owner.farm.describe(),
            }
            self._reply(503 if owner.draining else 200, payload)
        elif self.path == "/stats":
            self._reply(200, owner.stats())
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        owner = self._owner
        if self.path not in ("/compile", "/batch", "/resize"):
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        declared = self.headers.get("Content-Length")
        if declared is None or self.headers.get("Transfer-Encoding"):
            self._refuse(411, "POST needs a Content-Length header and no "
                              "Transfer-Encoding")
            return
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            self._refuse(400, "malformed Content-Length header")
            return
        if length > _MAX_BODY_BYTES:
            self._refuse(413, f"request body of {length} bytes exceeds "
                              f"the {_MAX_BODY_BYTES}-byte limit")
            return
        raw = self.rfile.read(length) if length else b""
        code, body, headers = owner.handle_raw(self.path, raw)
        self._reply_bytes(code, body, headers)

    def _refuse(self, code: int, error: str) -> None:
        """Reply ``code`` without reading the body, then close.

        The body is unread (or its extent unknown), so the connection
        cannot be reused for another request.
        """
        self.close_connection = True
        self._reply(code, {"error": error})


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    owner: "CompileServer"


class _Memo:
    """One routed item: worker request, cache key (``""`` when not
    caching) and shard — a ``/compile`` body or one ``/batch`` item."""

    __slots__ = ("request", "key", "shard")

    def __init__(
        self, request: Dict[str, Any], key: str, shard: int
    ) -> None:
        self.request = request
        self.key = key
        self.shard = shard


class _Flight:
    """Single-flight rendezvous: leader publishes, followers wait."""

    __slots__ = ("event", "result")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Optional[Tuple[int, bytes, Dict[str, str]]] = None


#: One-line payload shapes quoted by missing-field errors, so a 400
#: tells the client exactly what to send instead of a bare KeyError.
_PAYLOAD_SHAPES = {
    "/compile": '{"graph": <to_json document>, "options": {...}, '
                '"cache": true}',
    "/batch": '{"graphs": [<to_json document>, ...], "options": {...}, '
              '"cache": true}',
    "/resize": '{"workers": N}',
}


#: What a malformed body or document can raise while it is parsed and
#: routed; each maps to a one-line 400.  ``RecursionError`` comes from
#: deeply nested JSON, in ``json.loads`` or in the canonical hash.
_BAD_REQUEST = (SDFError, ValueError, KeyError, TypeError, RecursionError)


def _require(request: Dict[str, Any], field: str, path: str) -> Any:
    """``request[field]`` with an actionable one-line error on absence."""
    try:
        return request[field]
    except KeyError:
        raise ValueError(
            f"missing required field '{field}': POST {path} expects "
            f"{_PAYLOAD_SHAPES[path]}"
        ) from None


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[rank]


class CompileServer:
    """The long-running ``repro serve`` process (see module docstring).

    Parameters
    ----------
    cache:
        The shared on-disk :class:`~repro.serve.cache.ArtifactCache`
        the farm workers open by path, or ``None`` to disable caching
        (every request compiles).
    host / port:
        Bind address; ``port=0`` picks a free ephemeral port
        (``.port`` reports the bound one).
    workers:
        Farm size: worker *processes* serving ``/compile`` and
        ``/batch``, sharded by content digest (1 to
        :data:`~repro.serve.farm.MAX_WORKERS`).
    allow_faults:
        Honor test-only ``"fault"`` request fields in farm workers
        (never set by the CLI).
    queue_limit:
        Maximum queued-plus-running requests before ``429``.
    request_timeout:
        Seconds a request may take before ``504`` (``None``: no limit).
    trace_path / trace_format:
        When set, per-request span trees (including farm-worker
        subtrees) are recorded and written here (Chrome traceEvents
        by default) at drain time.
    quiet:
        Suppress per-request access logging.
    """

    def __init__(
        self,
        cache: Optional[ArtifactCache] = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        workers: int = 1,
        allow_faults: bool = False,
        queue_limit: int = 8,
        request_timeout: Optional[float] = None,
        trace_path: Optional[str] = None,
        trace_format: str = "auto",
        quiet: bool = False,
    ) -> None:
        self.cache = cache
        self.queue_limit = max(1, queue_limit)
        self.request_timeout = request_timeout
        self.trace_path = trace_path
        self.trace_format = trace_format
        self.quiet = quiet
        self.draining = False
        self._lock = threading.Lock()
        self._inflight = 0
        self._counters = {
            "requests": 0, "hits": 0, "misses": 0, "compiled": 0,
            "rejected": 0, "timeouts": 0, "errors": 0,
            "coalesced": 0, "worker_failures": 0,
        }
        self._latencies: "deque[float]" = deque(maxlen=2048)
        self._trace_trees: List[Dict[str, Any]] = []
        #: Parsed-and-routed bodies by path + body SHA-256: a
        #: ``_Memo`` per ``/compile`` body, a list of ``_Memo`` or
        #: item-error bytes per ``/batch`` body.
        self._memo: "OrderedDict[str, Any]" = OrderedDict()
        self._memo_lock = threading.Lock()
        self._flights: Dict[str, _Flight] = {}
        self._flight_lock = threading.Lock()
        self.farm = WorkerFarm(
            size=workers,
            cache_root=cache.root if cache is not None else None,
            allow_faults=allow_faults,
        ).start()
        #: Shard-group dispatch for /batch.  A persistent pool:
        #: spawning one Thread per shard group per POST costs more
        #: than the warm dispatch it parallelizes.  run_group never
        #: re-submits, so a bounded pool cannot deadlock.
        self._batch_pool = ThreadPoolExecutor(
            max_workers=8, thread_name_prefix="repro-batch"
        )
        self._httpd = _Server((host, port), _Handler)
        self._httpd.owner = self
        self._thread: Optional[threading.Thread] = None

    # -- addressing -----------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "CompileServer":
        """Serve on a background thread (tests, smoke harness)."""
        self._thread = threading.Thread(
            target=self.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`drain` (CLI path)."""
        self._httpd.serve_forever(poll_interval=_POLL_INTERVAL_S)

    def drain(self, timeout: float = 60.0) -> None:
        """Stop accepting work, finish in-flight requests, shut down.

        Idempotent.  New requests observe ``draining`` and get 503
        immediately; existing ones run to completion (bounded by
        ``timeout`` seconds of waiting).  The farm is stopped after
        the queue empties; the accumulated trace, if any, is written
        last so it includes every completed request.
        """
        with self._lock:
            if self.draining:
                return
            self.draining = True
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if self._inflight == 0:
                    break
            time.sleep(0.02)
        self._batch_pool.shutdown(wait=True)
        self.farm.stop()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._write_trace()

    # -- request handling -----------------------------------------------
    def handle_raw(
        self, path: str, raw: bytes
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """One POST body straight off the socket → response bytes.

        ``/compile`` and ``/batch`` share one path: memoized parse and
        routing, admission, then single-flight and direct pipe
        dispatch on the connection thread(s).  ``/resize``
        reconfigures the farm.
        """
        if self.draining:
            return self._err(503, "server is draining")
        start = time.perf_counter()
        try:
            if path == "/resize":
                return self._handle_resize(raw)
            try:
                plan = self._plan(path, raw)
            except _BAD_REQUEST as exc:
                with self._lock:
                    self._counters["errors"] += 1
                return self._err(400, f"bad request: {exc}")
            with self._lock:
                self._counters["requests"] += 1
                if self._inflight >= self.queue_limit:
                    self._counters["rejected"] += 1
                    return self._err(
                        429, "compile queue is full, retry later",
                        {"Retry-After": "1"},
                    )
                self._inflight += 1
            try:
                if path == "/compile":
                    return self._coalesced_dispatch(plan)
                return self._run_batch(plan)
            finally:
                with self._lock:
                    self._inflight -= 1
        finally:
            self._latencies.append(time.perf_counter() - start)

    @staticmethod
    def _err(
        code: int, message: str, headers: Optional[Dict[str, str]] = None
    ) -> Tuple[int, bytes, Dict[str, str]]:
        return (
            code,
            json.dumps({"error": message}).encode("utf-8"),
            headers or {},
        )

    def _plan(self, path: str, raw: bytes) -> Any:
        """Parse + route one ``/compile`` or ``/batch`` body, memoized
        on its path and bytes.

        A repeated identical body (the warm hot path) costs one
        SHA-256 and a dict probe instead of a JSON parse, an options
        validation, and two canonical-JSON hashes per item.  Batch
        items that cannot be routed become item-error bytes in place.
        Batch bodies with fault injection are never memoized — faults
        must reach the worker on every POST.
        """
        body_id = path + hashlib.sha256(raw).hexdigest()
        with self._memo_lock:
            plan = self._memo.get(body_id)
            if plan is not None:
                self._memo.move_to_end(body_id)
                return plan
        request = json.loads(raw or b"{}")
        if not isinstance(request, dict):
            raise ValueError("request body must be a JSON object")
        caching = bool(request.get("cache", True)) and self.cache is not None
        if path == "/compile":
            options = CompileOptions.from_dict(request.get("options"))
            plan = self._route(
                _require(request, "graph", path), options, caching,
                request.get("fault"),
            )
            memoize = True
        else:
            documents = _require(request, "graphs", path)
            if not isinstance(documents, list):
                raise ValueError(
                    "'graphs' must be a list of graph documents"
                )
            options = CompileOptions.from_dict(request.get("options"))
            faults = request.get("faults")
            if faults is not None and (
                not isinstance(faults, list)
                or len(faults) != len(documents)
            ):
                raise ValueError(
                    "'faults' must align one-to-one with 'graphs'"
                )
            plan = []
            for index, document in enumerate(documents):
                try:
                    plan.append(self._route(
                        document, options, caching,
                        faults[index] if faults is not None else None,
                    ))
                except _BAD_REQUEST as exc:
                    plan.append(self._item_error(400, f"bad request: {exc}"))
            memoize = faults is None
        if memoize and len(raw) <= _MEMO_MAX_BODY:
            with self._memo_lock:
                self._memo[body_id] = plan
                while len(self._memo) > _MEMO_MAX_ENTRIES:
                    self._memo.popitem(last=False)
        return plan

    def _route(
        self, document: Any, options: CompileOptions, caching: bool,
        fault: Any,
    ) -> _Memo:
        """One graph document → its worker request, cache key, shard."""
        request = {
            "graph": document, "options": options.as_dict(),
            "cache": caching,
        }
        if fault:
            request["fault"] = fault
        key = cache_key(document, options.key_dict()) if caching else ""
        return _Memo(
            request, key, self.farm.shard_for(canonical_hash(document))
        )

    def _coalesced_dispatch(
        self, memo: _Memo, path: str = "/compile"
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """One item through single-flight + farm dispatch.

        Shared by ``/compile`` and each ``/batch`` item: cache-enabled
        identical requests in flight anywhere on the server (single
        requests or batch items, in any mix) coalesce onto one leader
        per cache key; the rest receive the leader's bytes verbatim.
        """
        if not memo.key:
            return self._farm_dispatch(memo, path)
        with self._flight_lock:
            flight = self._flights.get(memo.key)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._flights[memo.key] = flight
        if not leader:
            ok = flight.event.wait(
                self.request_timeout or _SINGLE_FLIGHT_CAP_S
            )
            with self._lock:
                self._counters["coalesced"] += 1
            if not ok or flight.result is None:
                with self._lock:
                    self._counters["timeouts"] += 1
                return self._err(
                    504,
                    "coalesced request timed out waiting for the "
                    "in-flight identical compile",
                )
            return flight.result
        try:
            result = self._farm_dispatch(memo, path)
            flight.result = result
            return result
        finally:
            with self._flight_lock:
                self._flights.pop(memo.key, None)
            flight.event.set()

    def _farm_dispatch(
        self, memo: _Memo, path: str = "/compile"
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """Run one request on its shard; map farm failures to HTTP."""
        trace = self.trace_path is not None
        try:
            response = self.farm.compile(
                memo.shard, memo.key, memo.request,
                trace=trace, timeout=self.request_timeout,
            )
        except FarmRequestError as exc:
            with self._lock:
                self._counters["errors"] += 1
            return self._err(exc.code, str(exc))
        except FarmWorkerCrashed as exc:
            with self._lock:
                self._counters["worker_failures"] += 1
                self._counters["errors"] += 1
            return self._err(exc.code, str(exc))
        except FarmTimeout as exc:
            with self._lock:
                self._counters["timeouts"] += 1
            return self._err(exc.code, str(exc))
        self._account(response.status)
        if response.tree is not None:
            self._graft_worker_trace(memo, response.tree, path)
        return 200, response.body, {}

    def _graft_worker_trace(
        self, memo: _Memo, tree: Dict[str, Any], path: str = "/compile"
    ) -> None:
        from .. import obs

        recorder = obs.TraceRecorder()
        with recorder.span(
            "serve.request", path=path, shard=memo.shard
        ):
            recorder.merge_serialized(tree)
        with self._lock:
            self._trace_trees.append(recorder.serialize())

    # -- batch path -----------------------------------------------------
    def _run_batch(
        self, plan: List[Any]
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """``/batch`` through the farm: per-item sharding + isolation.

        Each item is routed by its own graph digest; shard groups run
        on a persistent dispatch pool with the items of one shard
        processed in request order (the shard's session LRU and memory
        tier stay hot, and N identical colds in one batch compile
        exactly once — the first item compiles, the rest hit the
        memory tier or coalesce on the single-flight).  A malformed
        document, worker crash, or per-item timeout yields a
        ``{"status": "error", "code": ..., "error": ...}`` entry for
        that item only.  Success items splice the workers' rendered
        response bytes verbatim — no decode/re-encode on the hot path.
        """
        parts: List[Optional[bytes]] = [None] * len(plan)
        groups: Dict[int, List[Tuple[int, _Memo]]] = {}
        parse_errors = 0
        for index, entry in enumerate(plan):
            if isinstance(entry, bytes):
                parts[index] = entry
                parse_errors += 1
            else:
                groups.setdefault(entry.shard, []).append((index, entry))
        if parse_errors:
            with self._lock:
                self._counters["errors"] += parse_errors

        def run_item(index: int, memo: _Memo) -> None:
            code, body, _headers = self._coalesced_dispatch(
                memo, path="/batch"
            )
            if code == 200:
                parts[index] = body
            else:
                message = ""
                try:
                    message = json.loads(body).get("error", "")
                except (ValueError, AttributeError):
                    pass
                parts[index] = self._item_error(code, message)

        def run_group(members: List[Tuple[int, _Memo]]) -> None:
            trace = self.trace_path is not None
            try:
                results = self.farm.compile_many(
                    members[0][1].shard,
                    [(memo.key, memo.request) for _, memo in members],
                    trace=trace, timeout=self.request_timeout,
                )
            except FarmError as exc:
                # The grouped frame failed as a unit (the worker died
                # or hung mid-group, or one document could not be
                # sent).  Fall back to per-item dispatch so only the
                # actually-bad item errors — fault isolation stays per
                # item, not per shard.
                if not isinstance(exc, FarmRequestError):
                    with self._lock:
                        self._counters["worker_failures"] += 1
                for index, memo in members:
                    run_item(index, memo)
                return
            for (index, memo), entry in zip(members, results):
                if entry[0] != "ok":
                    with self._lock:
                        self._counters["errors"] += 1
                    parts[index] = self._item_error(entry[1], entry[2])
                    continue
                _, status, _tier, body, tree = entry
                self._account(status)
                if tree is not None:
                    self._graft_worker_trace(memo, tree, "/batch")
                parts[index] = body

        ordered = [groups[shard] for shard in sorted(groups)]
        if len(ordered) == 1:
            run_group(ordered[0])
        elif ordered:
            # First group runs inline; the rest overlap on the
            # persistent pool (per-POST Thread spawns cost more than
            # the warm dispatches they parallelize).
            futures = [
                self._batch_pool.submit(run_group, members)
                for members in ordered[1:]
            ]
            run_group(ordered[0])
            for future in futures:
                future.result()
        filled = [
            part if part is not None
            else self._item_error(500, "internal error")
            for part in parts
        ]
        return 200, b'{"responses":[' + b",".join(filled) + b"]}", {}

    @staticmethod
    def _item_error(code: int, message: str) -> bytes:
        """One failed batch item, shaped like a response entry."""
        return json.dumps(
            {"status": "error", "code": code, "error": message}
        ).encode("utf-8")

    # -- live resizing --------------------------------------------------
    def _handle_resize(
        self, raw: bytes
    ) -> Tuple[int, bytes, Dict[str, str]]:
        try:
            request = json.loads(raw or b"{}")
            if not isinstance(request, dict):
                raise ValueError("request body must be a JSON object")
            workers = int(_require(request, "workers", "/resize"))
        except (ValueError, TypeError, RecursionError) as exc:
            return self._err(400, f"bad request: {exc}")
        try:
            info = self.resize(workers)
        except ValueError as exc:
            return self._err(400, f"bad request: {exc}")
        payload = dict(info)
        payload.update(self.farm.describe())
        return 200, json.dumps(payload).encode("utf-8"), {}

    def resize(self, workers: int) -> Dict[str, Any]:
        """Resize the farm live; flush routing memos.  See
        :meth:`WorkerFarm.resize`."""
        info = self.farm.resize(workers)
        # Memoized bodies carry pre-resize shard numbers; flush so new
        # requests route against the new pool (in-flight stale shards
        # are re-routed by the farm itself).
        with self._memo_lock:
            self._memo.clear()
        return info

    def _account(self, status: str) -> None:
        with self._lock:
            if status == "hit":
                self._counters["hits"] += 1
            else:
                self._counters["compiled"] += 1
                if status == "miss":
                    self._counters["misses"] += 1

    # -- introspection --------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Server counters plus cache/farm stats (the ``/stats`` payload)."""
        with self._lock:
            counters = dict(self._counters)
            counters["inflight"] = self._inflight
            window = sorted(self._latencies)
        payload: Dict[str, Any] = {
            "server": counters,
            "workers": self.farm.size,
            "queue_limit": self.queue_limit,
            "draining": self.draining,
            "latency_ms": {
                "count": len(window),
                "p50": round(_percentile(window, 0.50) * 1000, 3),
                "p95": round(_percentile(window, 0.95) * 1000, 3),
                "p99": round(_percentile(window, 0.99) * 1000, 3),
            },
        }
        if self.cache is not None:
            payload["cache"] = self.cache.stats()
        farm = self.farm.describe()
        workers = self.farm.worker_stats()
        totals: Dict[str, int] = {}
        for row in workers:
            for name, value in row.get("counters", {}).items():
                totals[name] = totals.get(name, 0) + value
        # Counters shipped home by workers drained on a shrink keep
        # counting after the resize.
        for name, value in self.farm.retired.get("counters", {}).items():
            totals[name] = totals.get(name, 0) + value
        farm["workers"] = workers
        farm["counters"] = totals
        payload["farm"] = farm
        return payload

    def _write_trace(self) -> None:
        if self.trace_path is None:
            return
        from .. import obs

        merged = obs.TraceRecorder()
        with self._lock:
            trees = list(self._trace_trees)
        for tree in trees:
            merged.merge_serialized(tree)
        obs.write_trace(merged, self.trace_path, fmt=self.trace_format)

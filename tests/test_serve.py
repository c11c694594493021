"""Tests for the compilation service: cache, service core, HTTP server."""

import json
import os
import socket
import threading
import time

import pytest

from repro.apps.ptolemy_demos import cd_to_dat
from repro.check.fault_injection import inject_cache_corrupt
from repro.check.oracles import build_artifacts
from repro.scheduling.pipeline import implement
from repro.sdf.graph import SDFGraph
from repro.sdf.io import to_json
from repro.serve import client as serve_client
from repro.serve import server as server_module
from repro.serve.cache import ArtifactCache, cache_key
from repro.serve.client import (
    BatchItemError,
    ServeClientError,
    compile_batch_remote,
    compile_remote,
    get_json,
)
from repro.serve.report import CompilationReport
from repro.serve.server import CompileServer
from repro.serve.service import CompileOptions, CompileService

import random


def small_graph():
    g = SDFGraph("serve_sample")
    g.add_actors("ABC")
    g.add_edge("A", "B", 3, 2)
    g.add_edge("B", "C", 2, 5, delay=2)
    return g


def make_report(**overrides):
    result = implement(small_graph())
    report = CompilationReport.from_result(result, "serve_sample")
    for name, value in overrides.items():
        setattr(report, name, value)
    return report


class TestCacheKey:
    def test_key_order_invariant(self):
        doc = to_json(small_graph())
        reordered = {k: doc[k] for k in reversed(list(doc))}
        reordered["edges"] = [
            {k: e[k] for k in reversed(list(e))} for e in doc["edges"]
        ]
        assert cache_key(doc) == cache_key(reordered)

    def test_semantic_changes_change_key(self):
        doc = to_json(small_graph())
        base = cache_key(doc)
        assert cache_key(doc, {"method": "apgan"}) != base
        assert cache_key(doc, version="other") != base
        changed = json.loads(json.dumps(doc))
        changed["edges"][0]["production"] += 1
        assert cache_key(changed) != base


class TestArtifactCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        report = make_report()
        key = cache_key(to_json(small_graph()))
        cache.put(key, report)
        again = cache.get(key)
        assert again is not None
        assert again.cached is True
        assert again.canonical() != ""  # volatile fields excluded
        # Stored copy is bit-identical modulo the key field it gains.
        report.key = key
        assert again.canonical() == report.canonical()
        assert cache.hits == 1 and cache.writes == 1

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        assert cache.get("0" * 64) is None
        assert cache.misses == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.put("ab" * 32, make_report())
        leftovers = [
            name
            for _, _, names in os.walk(str(tmp_path))
            for name in names
            if name.endswith(".tmp")
        ]
        assert leftovers == []

    @pytest.mark.parametrize("mode", ["truncate", "tamper", "garbage"])
    def test_corrupt_entry_evicted_not_served(self, tmp_path, mode):
        cache = ArtifactCache(str(tmp_path))
        key = "cd" * 32
        cache.put(key, make_report())
        path = cache.path_for(key)
        if mode == "truncate":
            with open(path, "r+") as handle:
                handle.truncate(os.path.getsize(path) // 2)
        elif mode == "tamper":
            with open(path) as handle:
                entry = json.load(handle)
            entry["report"]["total"] += 1
            with open(path, "w") as handle:
                json.dump(entry, handle)
        else:
            with open(path, "w") as handle:
                handle.write("\x00garbage\x00")
        assert cache.get(key) is None
        assert not os.path.exists(path)
        assert cache.evictions == 1 and cache.misses == 1

    def test_wrong_key_field_rejected(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.put("ef" * 32, make_report())
        # Entry copied under a different key must fail verification.
        src = cache.path_for("ef" * 32)
        dst = cache.path_for("01" * 32)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        with open(src) as handle:
            data = handle.read()
        with open(dst, "w") as handle:
            handle.write(data)
        assert cache.get("01" * 32) is None
        assert not os.path.exists(dst)

    def test_gc_max_entries_keeps_newest(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        report = make_report()
        keys = [format(i, "02x") * 32 for i in range(4)]
        for i, key in enumerate(keys):
            cache.put(key, report)
            os.utime(cache.path_for(key), (1000 + i, 1000 + i))
        assert cache.gc(max_entries=2) == 2
        assert cache.get(keys[0]) is None
        assert cache.get(keys[3]) is not None

    def test_gc_max_age(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.put("aa" * 32, make_report())
        os.utime(cache.path_for("aa" * 32), (100.0, 100.0))
        assert cache.gc(max_age_s=50.0, now=1000.0) == 1
        assert cache.stats()["entries"] == 0

    def test_clear_and_stats(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.put("bb" * 32, make_report())
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["bytes"] > 0
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0


class TestCompilationReport:
    def test_json_round_trip(self):
        report = make_report(cached=True, wall_s=1.5)
        again = CompilationReport.from_json(report.to_json())
        assert again == report

    def test_canonical_excludes_volatile(self):
        a = make_report()
        b = make_report(cached=True, wall_s=99.0)
        assert a.canonical() == b.canonical()
        assert a.digest() == b.digest()

    def test_summary_mentions_source(self):
        assert "cache hit" in make_report(cached=True).summary_lines()[0]
        assert "compiled" in make_report().summary_lines()[0]


class TestCompileOptions:
    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown compile options"):
            CompileOptions.from_dict({"methd": "rpmc"})

    def test_round_trip(self):
        options = CompileOptions(method="apgan", seed=3)
        assert CompileOptions.from_dict(options.as_dict()) == options


class TestCompileService:
    def test_miss_then_hit_bit_identical(self, tmp_path):
        service = CompileService(cache=ArtifactCache(str(tmp_path)))
        doc = to_json(cd_to_dat())
        cold, s1 = service.compile_document(doc)
        warm, s2 = service.compile_document(doc)
        assert (s1, s2) == ("miss", "hit")
        assert warm.canonical() == cold.canonical()
        assert warm.cached and not cold.cached

    def test_disabled_cache_matches_direct_pipeline(self):
        doc = to_json(cd_to_dat())
        report, status = CompileService().compile_document(doc)
        assert status == "disabled"
        direct = CompilationReport.from_result(
            implement(cd_to_dat()), "cd2dat"
        )
        assert report.canonical() == direct.canonical()

    def test_options_fragment_cache(self, tmp_path):
        service = CompileService(cache=ArtifactCache(str(tmp_path)))
        doc = to_json(small_graph())
        _, s1 = service.compile_document(doc, CompileOptions(method="rpmc"))
        _, s2 = service.compile_document(doc, CompileOptions(method="apgan"))
        assert (s1, s2) == ("miss", "miss")

    def test_sessions_are_reused(self, tmp_path):
        service = CompileService()
        doc = to_json(small_graph())
        service.compile_document(doc, use_cache=False)
        assert len(service._sessions) == 1
        service.compile_document(doc, use_cache=False)
        assert len(service._sessions) == 1

    def test_session_lru_key_is_the_session_graph_digest(self):
        # The LRU key, CompilationSession.graph_digest, and the graph
        # component of cache keys must all be the same content address.
        service = CompileService()
        service.compile_document(to_json(small_graph()), use_cache=False)
        ((digest, session),) = service._sessions.items()
        assert session.graph_digest == digest


@pytest.fixture
def live_server(tmp_path):
    """The default server: one farm worker over a throwaway cache."""
    server = CompileServer(
        ArtifactCache(str(tmp_path)), port=0, queue_limit=4, quiet=True,
    ).start()
    yield server
    server.drain(timeout=10)


def raw_post(server, head):
    """Send one hand-framed request; return every byte the server sent."""
    with socket.create_connection((server.host, server.port)) as sock:
        sock.settimeout(5)
        sock.sendall(head)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestCompileServer:
    def test_healthz_and_stats(self, live_server):
        health = get_json(live_server.url, "/healthz")
        assert health["status"] == "ok"
        assert (health["farm"]["size"], health["farm"]["alive"]) == (1, 1)
        stats = get_json(live_server.url, "/stats")
        assert stats["server"]["requests"] == 0
        assert stats["workers"] == 1
        assert "cache" in stats

    def test_compile_miss_then_hit(self, live_server):
        doc = to_json(cd_to_dat())
        cold, s1 = compile_remote(doc, url=live_server.url)
        warm, s2 = compile_remote(doc, url=live_server.url)
        assert (s1, s2) == ("miss", "hit")
        assert warm.canonical() == cold.canonical()
        stats = get_json(live_server.url, "/stats")
        assert stats["server"]["hits"] == 1
        assert stats["server"]["misses"] == 1

    def test_batch_endpoint(self, live_server):
        doc = to_json(small_graph())
        results = compile_batch_remote([doc, doc], url=live_server.url)
        assert [s for _, s in results] == ["miss", "hit"]

    def test_malformed_request_400(self, live_server):
        with pytest.raises(ServeClientError) as err:
            compile_remote({"actors": "nope"}, url=live_server.url)
        assert err.value.status == 400

    @pytest.mark.parametrize("document", [
        [[]],
        {"actors": [{"name": "a"}], "edges": [["a", "a"]]},
    ])
    def test_wrong_json_type_document_400(self, live_server, document):
        # A list where the graph layer expects an object used to
        # escape it as an AttributeError: a 500 for the client's
        # mistake.
        with pytest.raises(ServeClientError) as err:
            compile_remote(document, url=live_server.url)
        assert err.value.status == 400

    def test_unknown_option_400(self, live_server):
        with pytest.raises(ServeClientError) as err:
            compile_remote(
                to_json(small_graph()), url=live_server.url,
                options={"bogus": 1},
            )
        assert err.value.status == 400

    def test_unknown_path_404(self, live_server):
        payload = get_json(live_server.url, "/nope")
        assert "error" in payload

    @pytest.mark.parametrize("length", [b"abc", b"-1"])
    def test_malformed_content_length_400(self, live_server, length):
        # A non-integer length used to drop the connection with a
        # traceback; a negative one read to EOF and hung the handler.
        reply = raw_post(
            live_server,
            b"POST /compile HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: " + length + b"\r\n\r\n{}",
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head.split(b"\r\n")
        assert b"\n" not in body
        assert "Content-Length" in json.loads(body)["error"]

    def test_oversized_content_length_413(self, live_server):
        # The declared length used to be read (and allocated) up
        # front, so a tiny body behind a huge length hung the handler.
        length = str(server_module._MAX_BODY_BYTES + 1).encode()
        reply = raw_post(
            live_server,
            b"POST /compile HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: " + length + b"\r\n\r\n{}",
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in head.split(b"\r\n")
        assert b"\n" not in body
        assert "limit" in json.loads(body)["error"]

    def test_chunked_post_411(self, live_server):
        # Without a Content-Length the body used to be taken as empty
        # and its chunks parsed as the next request: two responses.
        reply = raw_post(
            live_server,
            b"POST /compile HTTP/1.1\r\nHost: localhost\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"2\r\n{}\r\n0\r\n\r\n",
        )
        assert reply.count(b"HTTP/1.1 ") == 1
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 411 ")
        assert b"Connection: close" in head.split(b"\r\n")
        assert b"\n" not in body
        assert "Content-Length" in json.loads(body)["error"]

    @pytest.mark.parametrize("line, code", [
        (b"\x16\x03\x01 garbage", 400),
        (b"just-one-word", 400),
        (b"GARBAGE / HTTP/9.9", 505),
    ])
    def test_garbage_request_line_gets_status_line(
        self, live_server, line, code
    ):
        # The stdlib default answered an unparsable request line the
        # HTTP/0.9 way: an HTML body with no status line at all.
        reply = raw_post(live_server, line + b"\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 %d " % code), reply[:80]

    def test_deeply_nested_body_400(self, live_server):
        # json.loads raises RecursionError on deep nesting; it used to
        # escape the handler, drop the connection with no reply and
        # print a traceback.
        body = b"[" * 200000
        for path in (b"/compile", b"/batch", b"/resize"):
            reply = raw_post(
                live_server,
                b"POST " + path + b" HTTP/1.1\r\nHost: localhost\r\n"
                b"Connection: close\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
                + body,
            )
            head, _, payload = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 "), (path, reply[:80])
            assert b"\n" not in payload
            assert json.loads(payload)["error"].startswith("bad request: ")
        health = raw_post(
            live_server,
            b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n"
            b"Connection: close\r\n\r\n",
        )
        assert health.startswith(b"HTTP/1.1 200 ")

    def test_nesting_near_the_recursion_limit_400(self, live_server):
        # Depths json.loads accepts may still overflow later: in the
        # canonical hash, in pickling the frame to the worker, or in
        # the worker's own hashing.  Every one must end in a 400 (a
        # per-item 400 inside /batch), never a dropped connection.
        import sys

        limit = sys.getrecursionlimit()
        good = json.dumps(to_json(small_graph())).encode()
        for depth in range(limit - 300, limit + 50, 25):
            nested = b"[" * depth + b"]" * depth
            for path, body in (
                (b"/compile", b'{"graph": ' + nested + b"}"),
                (b"/batch", b'{"graphs": [' + nested + b", " + good + b"]}"),
            ):
                reply = raw_post(
                    live_server,
                    b"POST " + path + b" HTTP/1.1\r\nHost: localhost\r\n"
                    b"Connection: close\r\nContent-Length: "
                    + str(len(body)).encode() + b"\r\n\r\n" + body,
                )
                head, _, payload = reply.partition(b"\r\n\r\n")
                if path == b"/compile":
                    assert head.startswith(b"HTTP/1.1 400 "), (depth, head)
                    continue
                assert head.startswith(b"HTTP/1.1 "), (depth, head)
                if head.startswith(b"HTTP/1.1 200 "):
                    nested_item, good_item = json.loads(payload)["responses"]
                    assert nested_item["code"] == 400, (depth, nested_item)
                    assert good_item["status"] in ("miss", "hit")
                else:
                    assert head.startswith(b"HTTP/1.1 400 "), (depth, head)

    def test_batch_item_hash_overflow_is_item_400(
        self, live_server, monkeypatch
    ):
        # Routing hashes each document on its own, and the canonical
        # hash can overflow on nesting json.loads accepted: that item
        # alone gets a 400 entry.
        real_hash = server_module.canonical_hash

        def shallow_only(document):
            if isinstance(document, list):
                raise RecursionError("maximum recursion depth exceeded")
            return real_hash(document)

        monkeypatch.setattr(server_module, "canonical_hash", shallow_only)
        good = to_json(small_graph())
        response = serve_client._post(
            live_server.url, "/batch", {"graphs": [good, [[[]]], good]}
        )
        items = response["responses"]
        assert items[1]["status"] == "error" and items[1]["code"] == 400
        assert "recursion" in items[1]["error"]
        assert (items[0]["status"], items[2]["status"]) == ("miss", "hit")

    def test_backpressure_429(self):
        server = CompileServer(
            port=0, queue_limit=1, allow_faults=True, quiet=True,
        ).start()
        try:
            doc = to_json(small_graph())
            slow = {
                "graph": doc, "options": {}, "cache": False,
                "fault": "sleep:1.0",
            }
            errors = []

            def hold_the_slot():
                try:
                    serve_client._post(server.url, "/compile", slow,
                                       timeout=10)
                except ServeClientError as exc:
                    errors.append(exc)

            first = threading.Thread(target=hold_the_slot)
            first.start()
            deadline = time.monotonic() + 5
            while server._inflight == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises(ServeClientError) as err:
                compile_remote(doc, url=server.url, timeout=10)
            assert err.value.status == 429
            assert err.value.retry_after == 1
            first.join(timeout=10)
            assert not first.is_alive()
            assert errors == []
            assert server.stats()["server"]["rejected"] == 1
        finally:
            server.drain(timeout=10)

    def test_request_timeout_504(self):
        server = CompileServer(
            port=0, queue_limit=2, request_timeout=0.2,
            allow_faults=True, quiet=True,
        ).start()
        try:
            with pytest.raises(ServeClientError) as err:
                serve_client._post(
                    server.url, "/compile",
                    {"graph": to_json(small_graph()), "options": {},
                     "fault": "sleep:5"},
                    timeout=10,
                )
            assert err.value.status == 504
            assert server.stats()["server"]["timeouts"] == 1
        finally:
            server.drain(timeout=10)

    def test_drain_rejects_new_work(self, tmp_path):
        server = CompileServer(port=0, quiet=True).start()
        url = server.url
        server.drain(timeout=10)
        with pytest.raises(ServeClientError):
            compile_remote(to_json(small_graph()), url=url, timeout=2)

    def test_trace_written_on_drain(self, tmp_path):
        trace = str(tmp_path / "trace.json")
        server = CompileServer(
            ArtifactCache(str(tmp_path / "c")),
            port=0, quiet=True, trace_path=trace,
        ).start()
        compile_remote(to_json(small_graph()), url=server.url)
        server.drain(timeout=10)
        with open(trace) as handle:
            events = json.load(handle)["traceEvents"]
        names = {e["name"] for e in events}
        assert "serve.request" in names
        assert "implement" in names


class TestBatchThreadPath:
    """/batch request validation and per-item isolation on the default
    server."""

    def test_missing_field_messages_name_field_and_shape(self, live_server):
        # A missing graph/graphs key must produce a one-line
        # actionable message, not a bare KeyError repr.
        for path, field in (("/compile", "graph"), ("/batch", "graphs")):
            with pytest.raises(ServeClientError) as err:
                serve_client._post(live_server.url, path, {"options": {}})
            assert err.value.status == 400
            message = str(err.value)
            assert f"missing required field '{field}'" in message
            assert f"POST {path} expects" in message
            assert "\n" not in message

    def test_poisoned_item_isolated(self, live_server):
        good = to_json(small_graph())
        results = compile_batch_remote(
            [good, {"actors": "nope"}, good], url=live_server.url
        )
        (r0, s0), (r1, s1), (r2, s2) = results
        assert isinstance(r1, BatchItemError)
        assert (s1, r1.code) == ("error", 400)
        assert s0 == "miss" and s2 == "hit"
        assert r0.canonical() == r2.canonical()
        stats = get_json(live_server.url, "/stats")["server"]
        assert stats["errors"] >= 1


class TestCacheCorruptInjection:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_modes_caught(self, seed):
        art = build_artifacts(small_graph(), method="rpmc", seed=seed)
        outcome = inject_cache_corrupt(art, random.Random(seed))
        assert outcome is not None
        assert outcome.caught, outcome.detail


def run_fresh(code):
    """Run ``code`` in a fresh interpreter on this checkout's ``src``."""
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run


class TestImportFootprint:
    def test_service_compile_leaves_numpy_unloaded(self):
        # numpy is optional and only the batched VM uses it; the
        # compile server, its farm workers and the pipeline must not
        # pay its import time and memory.  A fresh interpreter, because
        # this one has imported numpy through other tests.
        code = (
            "import sys\n"
            "import repro.serve.server, repro.serve.farm\n"
            "import repro.scheduling.pipeline\n"
            "from repro.apps import table1_graph\n"
            "from repro.sdf.io import to_json\n"
            "from repro.serve.service import CompileService\n"
            "report, status = CompileService(cache=None).compile_document(\n"
            "    to_json(table1_graph('satrec')))\n"
            "assert report.graph == 'satrec', report.graph\n"
            "print('numpy' in sys.modules)\n"
        )
        run = run_fresh(code)
        assert run.stdout.strip() == "False"

    def test_cli_compile_loads_no_service_stack(self):
        # ``repro compile`` is a one-shot tool: neither numpy (only the
        # batched VM needs it) nor the service stack (HTTP server,
        # client, farm) may be imported on its path.
        code = (
            "import contextlib, io, sys\n"
            "import repro.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert repro.cli.main(['compile', 'satrec']) == 0\n"
            "heavy = ('numpy', 'repro.serve', 'http.server',\n"
            "         'urllib.request', 'ssl', 'multiprocessing')\n"
            "print(sorted(m for m in sys.modules if any(\n"
            "    m == h or m.startswith(h + '.') for h in heavy)))\n"
        )
        run = run_fresh(code)
        assert run.stdout.strip() == "[]"

    def test_cache_stats_and_resize_load_no_compiler_or_server(
        self, tmp_path
    ):
        # Neither command compiles or serves: the compiler, the server,
        # the farm and multiprocessing stay unloaded.
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            closed_url = "http://127.0.0.1:%d" % sock.getsockname()[1]
        code = (
            "import contextlib, io, sys\n"
            "import repro.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert repro.cli.main(\n"
            f"        ['cache', 'stats', '--cache-dir', {str(tmp_path)!r}]"
            ") == 0\n"
            "try:\n"
            "    repro.cli.main(['resize', '2', '--url', "
            f"{closed_url!r}, '--timeout', '5'])\n"
            "except SystemExit as exc:\n"
            "    assert 'resize failed' in str(exc), exc\n"
            "else:\n"
            "    raise AssertionError('resize reached a closed port')\n"
            "heavy = ('repro.scheduling', 'repro.serve.server',\n"
            "         'repro.serve.farm', 'multiprocessing')\n"
            "print(sorted(m for m in sys.modules if any(\n"
            "    m == h or m.startswith(h + '.') for h in heavy)))\n"
        )
        run = run_fresh(code)
        assert run.stdout.strip() == "[]"

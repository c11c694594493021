"""Service smoke test: start ``repro serve``, exercise it, drain it.

The end-to-end acceptance ritual, runnable locally (``make
serve-smoke``) and in CI, in two phases:

**Default-server phase** (plain ``repro serve``, a 1-worker farm):

1. start ``repro serve`` as a subprocess on an ephemeral port with a
   throwaway cache directory and ``--trace`` enabled;
2. wait for ``/healthz``;
3. submit CD-DAT twice through the real client; assert the first
   response is a cache *miss*, the second a *hit*, and that the two
   reports are bit-identical (canonical-form comparison);
4. assert ``/stats`` agrees (1 hit, 1 miss, 0 rejected);
4b. hostile input: a deeply nested JSON body, a ``/resize`` above
    the farm cap, a chunked POST, an oversized ``Content-Length`` and
    a garbage request line each get a well-formed HTTP status line
    (400, 400, 411, 413, 400) within ``HOSTILE_TIMEOUT_S``, and
    ``/healthz`` stays 200 after every one;
5. send SIGTERM; assert the server drains cleanly (exit code 0) and
   leaves the trace artifact behind (``serve_trace.json`` by
   default — CI uploads it).

**Farm phase** (``--workers 2``):

6. start ``repro serve --workers 2`` (a two-process compile farm)
   with its own throwaway cache and trace file;
7. assert ``/healthz`` reports the farm (size 2, all alive), then
   miss -> hit with bit-identical reports, exactly as above;
8. SIGKILL one worker process (pid from ``/stats``); assert the
   supervisor respawns it — ``/healthz`` returns to 2/2 alive with a
   restart counted — and that a subsequent submit still hits,
   bit-identical;
9. ``/batch`` through the farm: a mixed cold batch then the same
   batch warm, every item bit-identical across the two; a batch with
   one malformed document yields a per-item 400 entry with the good
   items untouched;
10. live resize 2 -> 4 -> 2 via ``POST /resize`` with ``/healthz``
    green at every step and the same batch still bit-identical after
    each move;
11. SIGTERM; assert a clean drain and that the merged trace artifact
    (``serve_farm_trace.json``) contains worker-side request spans.

Exit code 0 only when every step held.

Usage::

    python scripts/serve_smoke.py [--trace serve_trace.json]
                                  [--farm-trace serve_farm_trace.json]
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "src")
sys.path.insert(0, REPO_SRC)

from repro.apps.ptolemy_demos import cd_to_dat  # noqa: E402
from repro.sdf.io import to_json  # noqa: E402
from repro.sdf.random_graphs import random_sdf_graph  # noqa: E402
from repro.serve.client import (  # noqa: E402
    BatchItemError,
    ServeClientError,
    compile_batch_remote,
    compile_remote,
    get_json,
    resize_remote,
)
from repro.serve.farm import MAX_WORKERS  # noqa: E402


def fail(message: str) -> "NoReturn":  # noqa: F821 (py3.10 typing)
    print(f"serve-smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def wait_healthy(url: str, deadline_s: float = 15.0) -> None:
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            if get_json(url, "/healthz", timeout=2).get("status") == "ok":
                return
        except ServeClientError:
            pass
        time.sleep(0.1)
    fail(f"server at {url} never became healthy")


def launch(extra_args, trace, env):
    """Start one ``repro serve`` subprocess; returns (proc, url)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--quiet", "--trace", trace, *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
    )
    banner = proc.stdout.readline().strip()
    if not banner.startswith("serving on "):
        proc.kill()
        fail(f"unexpected server banner: {banner!r}")
    url = banner.split()[2]
    wait_healthy(url)
    return proc, url


def submit_twice(url):
    """CD-DAT miss then hit; returns the (bit-identical) warm report."""
    document = to_json(cd_to_dat())
    first, first_status = compile_remote(document, url=url, timeout=30)
    if first_status != "miss":
        fail(f"first submit should miss, got {first_status!r}")
    second, second_status = compile_remote(document, url=url, timeout=30)
    if second_status != "hit":
        fail(f"second submit should hit, got {second_status!r}")
    if second.canonical() != first.canonical():
        fail("warm report is not bit-identical to the cold one")
    if not second.cached or first.cached:
        fail("cached flags inconsistent with statuses")
    return second


#: Longest any hostile request may wait for its status line.
HOSTILE_TIMEOUT_S = 10.0

_STATUS_LINE = re.compile(rb"HTTP/1\.[01] (\d{3}) [^\r\n]*\r\n")


def _post_head(path, length, extra=b""):
    return (b"POST " + path + b" HTTP/1.1\r\nHost: localhost\r\n"
            b"Connection: close\r\n" + extra
            + b"Content-Length: %d\r\n\r\n" % length)


def hostile_requests():
    """(name, raw bytes, expected status) for the hostile-input step."""
    nested = b"[" * 200000
    resize = b'{"workers": %d}' % (MAX_WORKERS + 1)
    return [
        ("nested JSON body", _post_head(b"/compile", len(nested)) + nested,
         400),
        ("resize above the cap", _post_head(b"/resize", len(resize)) + resize,
         400),
        ("chunked POST",
         b"POST /compile HTTP/1.1\r\nHost: localhost\r\n"
         b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n", 411),
        ("oversized Content-Length", _post_head(b"/batch", 1 << 40) + b"{}",
         413),
        ("garbage request line", b"\x16\x03\x01\xff\xfe garbage\r\n\r\n",
         400),
    ]


def raw_exchange(url, data):
    """Send ``data`` on a fresh connection; return the reply's first
    bytes (enough for the status line), read within the time limit."""
    host, port = url.rsplit("/", 1)[-1].rsplit(":", 1)
    with socket.create_connection((host, int(port)),
                                  timeout=HOSTILE_TIMEOUT_S) as sock:
        sock.sendall(data)
        reply = b""
        while b"\r\n" not in reply:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    return reply


def hostile_steps(url) -> None:
    """Step 4b: every hostile request gets a status line; still healthy."""
    for name, data, expected in hostile_requests():
        try:
            reply = raw_exchange(url, data)
        except OSError as exc:
            fail(f"{name}: no reply within {HOSTILE_TIMEOUT_S}s ({exc})")
        match = _STATUS_LINE.match(reply)
        if match is None:
            fail(f"{name}: reply has no HTTP status line: {reply[:80]!r}")
        if int(match.group(1)) != expected:
            fail(f"{name}: expected {expected}, got {match.group(0)!r}")
        health = raw_exchange(
            url, b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n"
                 b"Connection: close\r\n\r\n")
        if not health.startswith(b"HTTP/1.1 200 "):
            fail(f"/healthz not 200 after {name}: {health[:80]!r}")


def terminate_cleanly(proc, trace, timeout):
    """SIGTERM; assert exit 0, a clean-drain message, and the trace."""
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=timeout)
    if proc.returncode != 0:
        fail(f"server exited {proc.returncode}; output:\n{out}")
    if "drained cleanly" not in out:
        fail(f"no clean-drain message; output:\n{out}")
    if not os.path.isfile(trace):
        fail(f"trace artifact {trace!r} was not written")


def default_phase(args, env) -> None:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-cache-") as root:
        proc, url = launch(["--cache-dir", root], args.trace, env)
        try:
            submit_twice(url)
            stats = get_json(url, "/stats", timeout=5)
            server_stats = stats.get("server", {})
            if (server_stats.get("hits"), server_stats.get("misses"),
                    server_stats.get("rejected")) != (1, 1, 0):
                fail(f"unexpected /stats counters: {server_stats}")
            hostile_steps(url)
            terminate_cleanly(proc, args.trace, args.timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
    print("serve-smoke: default-server phase OK "
          "(cold miss -> warm hit, bit-identical; hostile input answered, "
          f"healthz 200 throughout; trace at {args.trace})")


def batch_docs():
    """Three distinct documents so the batch spans shards."""
    return [
        to_json(cd_to_dat()),
        to_json(random_sdf_graph(12, seed=71)),
        to_json(random_sdf_graph(12, seed=72)),
    ]


def batch_canonicals(url, docs):
    """One ``/batch`` POST; fail on any error item, return canonicals."""
    results = compile_batch_remote(docs, url=url, timeout=30)
    for index, (report, status) in enumerate(results):
        if isinstance(report, BatchItemError):
            fail(f"batch item {index} errored: "
                 f"{report.code}: {report.message}")
        if status not in ("miss", "hit"):
            fail(f"batch item {index} has status {status!r}")
    return [report.canonical() for report, _ in results]


def farm_batch_steps(url) -> list:
    """Steps 9: batch miss -> hit bit-identity + per-item isolation."""
    docs = batch_docs()
    cold = batch_canonicals(url, docs)
    warm = batch_canonicals(url, docs)
    if warm != cold:
        fail("warm /batch is not bit-identical to the cold one")

    poisoned = [docs[0], {"actors": "not-a-graph"}, docs[1]]
    results = compile_batch_remote(poisoned, url=url, timeout=30)
    bad_report, bad_status = results[1]
    if not isinstance(bad_report, BatchItemError) or bad_status != "error":
        fail(f"poisoned batch item not isolated: got {bad_status!r}")
    if bad_report.code != 400:
        fail(f"poisoned item should be a per-item 400, "
             f"got {bad_report.code}")
    for index in (0, 2):
        report, status = results[index]
        if isinstance(report, BatchItemError) or status != "hit":
            fail(f"good item {index} was poisoned by its neighbour: "
                 f"{status!r}")
    health = get_json(url, "/healthz", timeout=5)
    if health.get("status") != "ok":
        fail(f"server left 'ok' after poisoned batch: {health}")
    return cold


def resize_steps(url, expected) -> None:
    """Step 10: live resize 2 -> 4 -> 2, /healthz green throughout."""
    docs = batch_docs()
    for size in (4, 2):
        info = resize_remote(size, url=url, timeout=30)
        if info.get("size") != size:
            fail(f"resize to {size} reported {info}")
        health = get_json(url, "/healthz", timeout=5)
        farm = health.get("farm", {})
        if health.get("status") != "ok" or (
                farm.get("alive"), farm.get("size")) != (size, size):
            fail(f"farm not {size}/{size} alive after resize: {health}")
        if batch_canonicals(url, docs) != expected:
            fail(f"batch not bit-identical after resize to {size}")


def farm_phase(args, env) -> None:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-farm-") as root:
        proc, url = launch(
            ["--cache-dir", root, "--workers", "2"],
            args.farm_trace, env,
        )
        try:
            farm = get_json(url, "/healthz", timeout=5).get("farm")
            if not farm or (farm.get("size"), farm.get("alive")) != (2, 2):
                fail(f"farm not reported 2/2 alive on /healthz: {farm}")
            warm = submit_twice(url)

            # Kill one worker; the supervisor must respawn it without
            # the server ever leaving "ok".
            rows = get_json(url, "/stats", timeout=5)["farm"]["workers"]
            pids = [r["pid"] for r in rows if r.get("alive") and "pid" in r]
            if not pids:
                fail(f"no live worker pids in /stats farm rows: {rows}")
            os.kill(pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 15.0
            while True:
                health = get_json(url, "/healthz", timeout=5)
                if health.get("status") != "ok":
                    fail(f"server left 'ok' after worker kill: {health}")
                farm = health.get("farm", {})
                if farm.get("alive") == 2 and farm.get("restarts", 0) >= 1:
                    break
                if time.monotonic() > deadline:
                    fail(f"worker never respawned: {farm}")
                time.sleep(0.1)

            document = to_json(cd_to_dat())
            after, after_status = compile_remote(
                document, url=url, timeout=30
            )
            if after_status != "hit":
                fail(f"post-respawn submit should hit, got {after_status!r}")
            if after.canonical() != warm.canonical():
                fail("post-respawn report is not bit-identical")

            expected = farm_batch_steps(url)
            resize_steps(url, expected)

            terminate_cleanly(proc, args.farm_trace, args.timeout)
            with open(args.farm_trace, encoding="utf-8") as handle:
                trace_text = handle.read()
            if "serve.request" not in trace_text:
                fail("farm trace has no serve.request spans "
                     "(worker trees not merged?)")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
    print("serve-smoke: farm phase OK "
          "(2 workers, kill -> respawn -> healthy; farm batch "
          "miss -> hit bit-identical, poisoned item isolated, live "
          "resize 2 -> 4 -> 2 green; "
          f"merged trace at {args.farm_trace})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", default="serve_trace.json",
                        help="default-server phase trace artifact path")
    parser.add_argument("--farm-trace", default="serve_farm_trace.json",
                        help="farm-phase merged trace artifact path")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="per-subprocess wait budget, seconds")
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        REPO_SRC + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else REPO_SRC
    )
    for trace in (args.trace, args.farm_trace):
        if os.path.exists(trace):
            os.unlink(trace)

    default_phase(args, env)
    farm_phase(args, env)
    print("serve-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``serve_mixed``: ``repro serve --workers 1`` under mixed HTTP load.

The only workload for the HTTP front end, the worker pipe and the cache
tiers.  Load comes from this process: at most two threads, one
keep-alive connection each.  The client, the server and its worker
share one CPU (:func:`common.one_cpu`).  The run alternates ``ROUNDS``
rounds of:

* Phase A: one client sends ``A_PER_ROUND`` requests one after another:
  mostly warm ``/compile`` drawn Zipf over a catalogue twice the
  server's 512-entry memo and memory tiers (so the tail falls to the
  disk tier), a few never-seen cold graphs, a few warm 16-item
  ``/batch``.  Its ``/compile`` round trips give the latency metrics.
* Phase B: closed loop on two connections, warm ``/compile``.
* Phase C: closed loop on two connections, warm ``/batch``.

Each throughput is the median over rounds.  Each phase is scaled to
the reference speed by the null server's round trip, timed before and
after it (:class:`NullProbe`, METRICS.md "Host speed"); short
alternating rounds keep that reading next to the work it scales.  An
open loop (requests due on a seeded Poisson schedule) runs only in the
traced run: on a VM, every idle gap lets the vCPUs sleep, and waking
them added about a millisecond per request, varying with the host's
load, which no regression bound could absorb.

Every served report is checked against a direct ``implement()``
reference computed before the timed phases.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import common
import inputs
import layers
from common import Outcome, median, nearest_rank, tail
from gates import batch_gate, served_gate
from tracing import (
    Tracer, adopt_by_containment, durations, load_spans, self_times, subtree,
)

SERVE_ARGV = ["serve", "--workers", "1", "--quiet", "--port", "0"]
#: Round trips per reading of the null server, and the median round trip
#: at the reference speed (typical of a 2-vCPU x86-64 KVM guest).
NULL_REQUESTS = 30
REF_NULL_RTT_S = 0.0004
_NULL_BODY = json.dumps({"graph": {"actors": [f"a{i}" for i in range(8)],
                                   "edges": [[i, i + 1, 2, 3, 0]
                                             for i in range(7)]}}).encode()
ROUNDS = 20
A_PER_ROUND = 120
_URL = re.compile(r"serving on http://([\d.]+):(\d+)")


class Server:
    """One HTTP server process: ``repro serve`` (optionally under the
    probe's shims, see :func:`repro_server`) or the null server."""

    def __init__(self, cmd: List[str], env: Dict[str, str],
                 spans_path: Optional[str] = None) -> None:
        self.spans_path = spans_path
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=common.ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        found = _URL.search(line)
        if found is None:
            self.stop()
            raise RuntimeError(f"{cmd[1]} did not start: {line!r}")
        self.host, self.port = found.group(1), int(found.group(2))

    def connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def stats(self) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (graceful drain) and wait for the process to exit."""
        if self.proc.returncode is not None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()

    def worker_spans(self) -> List[dict]:
        d = os.path.dirname(self.spans_path)
        prefix = os.path.basename(self.spans_path) + "."
        return load_spans(os.path.join(d, f) for f in os.listdir(d)
                          if f.startswith(prefix))


def repro_server(env: Dict[str, str], cache_dir: str,
                 spans_path: Optional[str] = None) -> Server:
    argv = SERVE_ARGV + ["--cache-dir", cache_dir]
    if spans_path is None:
        return Server([sys.executable, "-m", "repro", *argv], env)
    return Server([sys.executable, os.path.join(common.BENCH_DIR, "probe.py"),
                   spans_path, "pipeline,serve", "--", *argv], env,
                  spans_path)


class NullProbe:
    """The null server, whose round trip is ``serve_mixed``'s speed probe.

    Against warm ``/compile`` round trips on the same CPU for 90 s while
    the host drifted, log round trip over log null round trip had slope
    0.91 (r 0.90); over the probe of :func:`common.slowness`, 1.17
    (r 0.85).
    """

    def __init__(self, env: Dict[str, str]) -> None:
        self.server = Server([sys.executable, os.path.join(
            common.BENCH_DIR, "null_server.py")], env)
        self.conn = self.server.connect()

    def __call__(self) -> float:
        """The median of a few round trips over ``REF_NULL_RTT_S``."""
        times = []
        for _ in range(NULL_REQUESTS):
            t0 = time.perf_counter()
            post(self.conn, "/", _NULL_BODY)
            times.append(time.perf_counter() - t0)
        return median(times) / REF_NULL_RTT_S

    def stop(self) -> None:
        self.conn.close()
        self.server.stop()


def post(conn: http.client.HTTPConnection, path: str,
         body: bytes) -> Tuple[int, bytes]:
    conn.request("POST", path, body,
                 {"Content-Type": "application/json"})
    resp = conn.getresponse()
    return resp.status, resp.read()


class Load:
    """Bodies, references and the gate shared by every phase."""

    def __init__(self, data: inputs.ServeInputs, refs: Dict[tuple, str],
                 out: Outcome) -> None:
        self.data = data
        self.refs = refs
        self.out = out
        self.compile_bodies = [data.body(d) for d in data.catalogue]
        self.cold_bodies = [data.body(d) for d in data.cold]
        self.batch_bodies = [data.batch_body(b)
                             for b in range(len(data.batches))]
        self._seen: Dict[tuple, set] = {}

    def request(self, kind: str, index: int) -> Tuple[str, bytes]:
        if kind == "warm":
            return "/compile", self.compile_bodies[index]
        if kind == "cold":
            return "/compile", self.cold_bodies[index]
        return "/batch", self.batch_bodies[index]

    def gate(self, kind: str, index: int, status: int, body: bytes,
             label: str) -> bool:
        """Count one request; identical bodies are verified once."""
        if status != 200:
            self.out.op(f"HTTP {status}", f"{label} {kind} {index}")
            return False
        seen = self._seen.setdefault((kind, index), set())
        if body in seen:
            self.out.op(None)
            return True
        if kind == "batch":
            failure = batch_gate(body, [self.refs[("warm", i)]
                                        for i in self.data.batches[index]])
        else:
            failure = served_gate(body, self.refs[(kind, index)])
        self.out.op(failure, f"{label} {kind} {index}")
        if failure is None:
            seen.add(body)
        return failure is None


def _references(data: inputs.ServeInputs) -> Dict[tuple, str]:
    """Report digests of direct ``implement()`` calls, per document."""
    from repro.scheduling.pipeline import implement
    from repro.sdf.io import from_json
    from repro.serve.cache import cache_key
    from repro.serve.report import CompilationReport
    from repro.serve.service import CompileOptions

    options = CompileOptions()
    refs = {}
    for kind, docs in (("warm", data.catalogue), ("cold", data.cold)):
        for i, doc in enumerate(docs):
            graph = from_json(doc)
            result = implement(graph, options.method, seed=options.seed)
            refs[(kind, i)] = CompilationReport.from_result(
                result, graph.name, key=cache_key(doc, options.key_dict()),
                seed=options.seed).digest()
    return refs


def prewarm(server: Server, data: inputs.ServeInputs) -> List[tuple]:
    """Compile the catalogue through ``/batch``, least popular first.

    The most popular documents are compiled last, so they are the ones
    left in the worker's 512-entry memory tier.  Returns the replies
    for :func:`check_prewarm`.
    """
    conn = server.connect()
    replies = []
    try:
        order = list(range(len(data.catalogue)))[::-1]
        for lo in range(0, len(order), inputs.BATCH_ITEMS):
            idx = order[lo:lo + inputs.BATCH_ITEMS]
            body = json.dumps(
                {"graphs": [data.catalogue[i] for i in idx]}).encode()
            replies.append((idx, *post(conn, "/batch", body)))
    finally:
        conn.close()
    return replies


def check_prewarm(load: Load, replies: List[tuple]) -> Tuple[int, int]:
    """Gate every prewarmed report; the served pool words and BMLB."""
    pool = bmlb = 0
    for idx, status, reply in replies:
        if status != 200:
            load.out.op(f"prewarm HTTP {status}")
            continue
        for i, item in zip(idx, json.loads(reply)["responses"]):
            failure = served_gate(json.dumps(item).encode(),
                                  load.refs[("warm", i)])
            load.out.op(failure, f"prewarm {i}")
            pool += item["report"]["total"]
            bmlb += item["report"]["bmlb"]
    return pool, bmlb


def open_loop(server: Server, load: Load, schedule: List[inputs.Arrival],
              label: str):
    """The traced run's open loop: (/compile latencies, lateness), in s.

    Latency is timed from each request's scheduled send time; a request
    that fails counts as infinitely slow.  Each of the two connections
    sends the next due request; when both are busy, the next one leaves
    late, and its latency includes that wait.
    """
    lock = threading.Lock()
    cursor = [0]
    rows: List[tuple] = []
    t0 = time.perf_counter() + 0.01

    def client() -> None:
        conn = server.connect()
        try:
            while True:
                with lock:
                    k = cursor[0]
                    cursor[0] += 1
                if k >= len(schedule):
                    return
                arrival = schedule[k]
                due = t0 + arrival.at
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                path, body = load.request(arrival.kind, arrival.index)
                sent = time.perf_counter()
                status, reply = post(conn, path, body)
                done = time.perf_counter()
                rows.append((arrival, due, sent, done, status, reply))
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    latencies, late = [], []
    for arrival, due, sent, done, status, reply in rows:
        ok = load.gate(arrival.kind, arrival.index, status, reply, label)
        late.append(sent - due)
        if arrival.kind != "batch":
            latencies.append(done - due if ok else float("inf"))
    return latencies, late


def closed_loop(server: Server, load: Load, kind: str,
                sequences: List[List[int]], seconds: float,
                label: str) -> Tuple[int, int, float]:
    """Phases B and C.  Returns (ok requests, ok items, elapsed)."""
    rows: List[List[tuple]] = [[] for _ in sequences]
    start = time.perf_counter()
    deadline = start + seconds

    def client(slot: int) -> None:
        conn = server.connect()
        try:
            seq = sequences[slot]
            k = 0
            while time.perf_counter() < deadline:
                index = seq[k % len(seq)]
                path, body = load.request(kind, index)
                status, reply = post(conn, path, body)
                rows[slot].append((index, status, reply))
                k += 1
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(s,))
               for s in range(len(sequences))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    ok = items = 0
    for slot_rows in rows:
        for index, status, reply in slot_rows:
            if load.gate(kind, index, status, reply, label):
                ok += 1
                items += (len(load.data.batches[index])
                          if kind == "batch" else 1)
    return ok, items, elapsed


def sequential(server: Server, load: Load, arrivals: List[inputs.Arrival],
               label: str, tracer: Optional[Tracer] = None
               ) -> List[Tuple[inputs.Arrival, float]]:
    """Phase A: one connection, each request sent when the last returns.

    Returns ``(request, round trip seconds)``; a failed request counts
    as infinitely slow.  With ``tracer``, each round trip is recorded as
    a ``serve.http`` span.
    """
    rows = []
    conn = server.connect()
    try:
        for arrival in arrivals:
            path, body = load.request(arrival.kind, arrival.index)
            t0 = time.perf_counter()
            status, reply = post(conn, path, body)
            rows.append((arrival, t0, time.perf_counter(), status, reply))
    finally:
        conn.close()
    out = []
    for arrival, t0, t1, status, reply in rows:
        ok = load.gate(arrival.kind, arrival.index, status, reply, label)
        if tracer is not None:
            tracer.record("serve.http", t0, t1, kind=arrival.kind,
                          rid=f"{arrival.kind}:{arrival.index}")
        out.append((arrival, t1 - t0 if ok else float("inf")))
    return out


def _compile_latencies(rows, kinds=("warm", "cold")) -> List[float]:
    return [t for arrival, t in rows if arrival.kind in kinds]


def _setup(seed: int, rep: int):
    base, env = common.setup_dir("serve_mixed", rep)
    data = inputs.serve_inputs(seed)
    backend = common.build_kernel_via_program(env)
    return base, data, env, env["REPRO_CACHE_DIR"], backend


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    pace = common.Pace()
    setups = []
    refs = None
    server = probe = None
    try:
        for rep in range(common.SETUP_REPEATS):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            base, data, env, cache, backend = _setup(seed, rep)
            server = repro_server(env, cache)
            t1 = time.perf_counter()
            if refs is None:  # the gate's references, not program set-up
                common.use_env_in_process(env)
                refs = _references(data)
            t2 = time.perf_counter()
            replies = prewarm(server, data)
            setups.append((time.perf_counter() - t2 + t1 - t0)
                          / pace.now())
        load = Load(data, refs, out)
        pool, bmlb = check_prewarm(load, replies)
        out.add("setup_s", median(setups), "s")
        out.record["native_backend"] = backend
        out.add("pool_ratio", pool / bmlb, "ratio")
        probe = NullProbe(env)
        if not trace:
            _measure(seed, seconds, server, load, out,
                     common.Pace(every=0.0, probe=probe, window=1))
            return out
        before = probe()
        plain = sequential(server, load, inputs.mixed_requests(
            seed, data, "plain", _TRACE_REQUESTS), "plain")
        plain_slowness = (before + probe()) / 2
        server.stop()
        cold_used = sum(1 for a, _ in plain if a.kind == "cold")
        out.record["per_layer"] = _traced(
            seed, seconds, out, data, refs, base,
            _compile_latencies(plain, ("warm",)), cold_used, probe,
            plain_slowness)
        return out
    finally:
        for process in (server, probe):
            if process is not None:
                process.stop()


def _measure(seed: int, seconds: float, server: Server, load: Load,
             out: Outcome, pace: common.Pace) -> None:
    """The timed rounds of phases A, B and C."""
    data = load.data
    raw_lat: List[float] = []
    raw_b: List[float] = []
    raw_c: List[float] = []
    # Each phase is scaled by the mean slowness probed before and after.
    slow: List[Tuple[float, float, float]] = []
    cold_used = 0
    nb = len(data.batches)
    window = seconds * 0.35 / ROUNDS
    for r in range(ROUNDS):
        arrivals = inputs.mixed_requests(seed, data, f"round{r}",
                                         A_PER_ROUND, cold_used)
        cold_used += sum(1 for a in arrivals if a.kind == "cold")
        before = pace.now()
        raw_lat.append(_compile_latencies(
            sequential(server, load, arrivals, f"A{r}")))
        after_a = pace.now()
        seqs = [inputs.closed_sequence(seed, data, f"B{r}-{s}", 2000)
                for s in range(2)]
        ok, _, elapsed = closed_loop(server, load, "warm", seqs, window,
                                     f"B{r}")
        raw_b.append(ok / elapsed)
        after_b = pace.now()
        bseqs = [[(s * nb // 2 + k + r) % nb for k in range(nb)]
                 for s in range(2)]
        _, items, elapsed = closed_loop(server, load, "batch", bseqs,
                                        window, f"C{r}")
        raw_c.append(items / elapsed)
        after_c = pace.now()
        slow.append(((before + after_a) / 2, (after_a + after_b) / 2,
                     (after_b + after_c) / 2))
    latencies = [x / s[0] for lat, s in zip(raw_lat, slow) for x in lat]
    pct, tail_s = tail(latencies)
    out.add("op_p50_ms", 1000.0 * median(latencies), "ms")
    out.add("op_tail_ms", 1000.0 * tail_s, "ms")
    out.add("ops_per_s", median([b * s[1] for b, s in zip(raw_b, slow)]),
            "1/s")
    out.add("work_per_s", median([c * s[2] for c, s in zip(raw_c, slow)]),
            "1/s")
    unscaled = [x for lat in raw_lat for x in lat]
    out.notes.append(pace.note(
        op_p50_ms=1000.0 * median(unscaled),
        op_tail_ms=1000.0 * tail(unscaled)[1], ops_per_s=median(raw_b),
        work_per_s=median(raw_c)))
    out.notes.append(
        f"{ROUNDS} rounds of A/B/C; phase A: {len(latencies)} /compile "
        f"({cold_used} cold), tail is p{pct}; B and C: medians of "
        f"{ROUNDS} windows of {window:.3f}s")


#: Requests per phase of the traced run (plain server, then traced).
_TRACE_REQUESTS = 600
_TRACE_BATCHES = 20


def _traced(seed, seconds, out, data, refs, base, plain_warm, cold_used,
            probe, plain_slowness):
    """A second server under the shims.

    An open loop at ``inputs.OPEN_RATE`` gives the tier counters and the
    generator's lateness; then requests one at a time, so client, front
    end, farm and worker spans nest and can be attributed.  The overhead
    compares them with the plain server's, both scaled by ``probe``.
    """
    spans_dir = os.path.join(base, "spans")
    os.makedirs(spans_dir)
    spans_path = os.path.join(spans_dir, "server.json")
    env = common.child_env(os.path.join(base, "cache"),
                           os.path.join(base, "tmp"))
    server = repro_server(env, os.path.join(base, "cache"), spans_path)
    load = Load(data, refs, out)
    client = Tracer("client")
    try:
        check_prewarm(load, prewarm(server, data))
        before = server.stats()
        schedule = inputs.open_schedule(seed, data, seconds / 3.0, "traced",
                                        cold_start=cold_used)
        cold_used += sum(1 for a in schedule if a.kind == "cold")
        open_latencies, late = open_loop(server, load, schedule, "traced A")
        after = server.stats()
        window = time.perf_counter()
        arrivals = [inputs.Arrival(0.0, "batch", k % len(data.batches))
                    for k in range(_TRACE_BATCHES)]
        arrivals += inputs.mixed_requests(seed, data, "traced",
                                          _TRACE_REQUESTS, cold_used)
        before_traced = probe()
        traced = sequential(server, load, arrivals, "attributed", client)
        traced_slowness = (before_traced + probe()) / 2
    finally:
        server.stop()
    server_spans = load_spans([spans_path])
    worker_spans = server.worker_spans()
    measured = layers.startup_metrics(env)
    measured.update(layers.pipeline_metrics(worker_spans))
    measured.update(_layer_times(server_spans + worker_spans))
    measured.update(_attribution(client.spans, server_spans, worker_spans,
                                 window))
    measured.update(_stat_deltas(before, after))
    measured["loadgen.open_p50_ms"] = 1000.0 * median(open_latencies)
    measured["loadgen.late_p99_ms"] = 1000.0 * nearest_rank(late, 99)
    measured["trace.overhead_pct"] = 100.0 * (
        median(_compile_latencies(traced, ("warm",))) / traced_slowness
        / (median(plain_warm) / plain_slowness) - 1.0)
    return measured


def _med_us(spans, *names) -> float:
    total = 0.0
    for name in names:
        values = durations(spans, name)
        total += median(values) * 1e6 if values else 0.0
    return total


def _layer_times(spans) -> Dict[str, float]:
    workers = [s for s in spans if s["name"] == "serve.worker"]
    by_tier: Dict[str, List[float]] = {}
    for s in workers:
        by_tier.setdefault(s["attrs"]["tier"], []).append(
            s["end"] - s["start"])
    out = {
        "sdf.io.parse_hash_us": _med_us(spans, "sdf.io.from_json",
                                        "sdf.io.canonical_hash"),
        "serve.cache.key_us": _med_us(spans, "serve.cache.key"),
        "serve.cache.get_us": _med_us(spans, "serve.cache.get"),
        "serve.cache.put_us": _med_us(spans, "serve.cache.put"),
        "serve.report.render_us": _med_us(spans, "serve.report.from_result",
                                          "serve.report.to_json"),
    }
    for tier in ("memory", "disk", "compile"):
        values = by_tier.get(tier)
        out[f"serve.service.{tier}_us"] = (
            median(values) * 1e6 if values else 0.0)
    return out


def _attribution(client_spans, server_spans, worker_spans, window):
    """Self-time split of each sequential request's span tree.

    HTTP (client, socket, headers, thread hand-off) is the client span's
    self time; dispatch is ``handle_raw`` minus the farm call; the farm
    round trip is the farm call minus the worker's service time.
    """
    server_spans = [s for s in server_spans if s["start"] >= window]
    worker_spans = [s for s in worker_spans if s["start"] >= window]
    handles = [s for s in server_spans
               if s["name"] == "serve.server.handle_raw"]
    farm_calls = [s for s in server_spans if s["name"] in
                  ("serve.farm.compile", "serve.farm.compile_many")]
    adopt_by_containment(client_spans, handles)
    adopt_by_containment(handles, farm_calls)
    adopt_by_containment(farm_calls, [s for s in worker_spans
                                      if s["name"] == "serve.worker"])
    spans = client_spans + server_spans + worker_spans
    st = self_times(spans)
    rows: Dict[str, List[float]] = {}
    errors = []
    for root in client_spans:
        tree = subtree(spans, root["id"])
        total = sum(st[s["id"]] for s in tree)
        errors.append(abs(total - (root["end"] - root["start"])) * 1e6)
        kind = root["attrs"]["kind"]
        parts: Dict[str, float] = {}
        for s in tree:
            if s["name"] in ("serve.http", "serve.server.handle_raw",
                             "serve.farm.compile", "serve.farm.compile_many"):
                parts[s["name"]] = parts.get(s["name"], 0.0) + st[s["id"]]
        parts["service"] = total - sum(parts.values())
        parts["wall"] = root["end"] - root["start"]
        for name, value in parts.items():
            rows.setdefault(f"{kind}:{name}", []).append(value * 1e6)

    def med(key: str) -> float:
        return median(rows[key]) if rows.get(key) else 0.0

    return {
        "serve.server.http_us": med("warm:serve.http"),
        "serve.server.dispatch_us": med("warm:serve.server.handle_raw"),
        "serve.farm.roundtrip_us": med("warm:serve.farm.compile"),
        "serve.farm.batch_roundtrip_us": med("batch:serve.farm.compile_many"),
        "serve.traced_wall_us": med("warm:wall"),
        "trace.attributed_requests": len(client_spans),
        "trace.self_sum_error_us": max(errors) if errors else 0.0,
    }


def _stat_deltas(before: dict, after: dict) -> Dict[str, float]:
    def farm(stats, name):
        return stats.get("farm", {}).get("counters", {}).get(name, 0)

    def server(stats, name):
        return stats["server"].get(name, 0)

    return {
        "serve.tier_memory_hits": farm(after, "farm.mem_hits")
        - farm(before, "farm.mem_hits"),
        "serve.tier_disk_hits": farm(after, "farm.disk_hits")
        - farm(before, "farm.disk_hits"),
        "serve.compiled": farm(after, "farm.compiles")
        - farm(before, "farm.compiles"),
        "serve.coalesced": server(after, "coalesced")
        - server(before, "coalesced"),
        "serve.rejected": server(after, "rejected")
        - server(before, "rejected"),
    }

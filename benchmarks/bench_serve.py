"""Compilation-service benchmark: cold vs warm cache, HTTP throughput.

Writes the ``BENCH_PR5.json`` perf trajectory file.  Three suites:

* **cold vs warm (in-process)** — for each system, one cold
  ``CompileService.compile_document`` (cache miss: full pipeline +
  cache write) and repeated warm calls (cache hit: hash-verified read)
  against a throwaway cache.  The warm report must be bit-identical to
  the cold one (:meth:`CompilationReport.canonical`), and the recorded
  ``speedup`` is the acceptance figure (warm must be >= 10x faster on
  CD-DAT).
* **no-cache equivalence** — the same document compiled with the cache
  disabled must canonicalize identically to the cached path's result
  (the service may never change what the pipeline computes).
* **sustained throughput (live HTTP)** — the default ``CompileServer``
  (a 1-worker compile farm) on a loopback port, hammered with
  sequential warm ``/compile`` requests;
  reports requests/second including HTTP framing, JSON codec, and the
  verified cache read.

Per-measurement minima over ``--repeat`` interleaved rounds, same as
the other bench files, so background noise cannot inflate one mode.

Usage::

    python benchmarks/bench_serve.py --out BENCH_PR5.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.apps import table1_graph  # noqa: E402
from repro.apps.ptolemy_demos import cd_to_dat  # noqa: E402
from repro.experiments.runner import TimingReport  # noqa: E402
from repro.sdf.io import to_json  # noqa: E402
from repro.serve.cache import ArtifactCache  # noqa: E402
from repro.serve.server import CompileServer  # noqa: E402
from repro.serve.service import CompileService  # noqa: E402
from repro.serve.client import compile_remote  # noqa: E402

#: Acceptance floor: a warm-cache CD-DAT submit must beat cold by this.
MIN_WARM_SPEEDUP = 10.0

SYSTEMS = {
    "cddat": cd_to_dat,
    "satrec": lambda: table1_graph("satrec"),
}


def bench_cold_warm(report: TimingReport, repeat: int) -> dict:
    """Cold vs warm latency per system; returns speedups by system."""
    speedups = {}
    for name, factory in SYSTEMS.items():
        document = to_json(factory())
        cold_best = warm_best = None
        canonical = None
        for _ in range(max(1, repeat)):
            with tempfile.TemporaryDirectory() as root:
                service = CompileService(cache=ArtifactCache(root))
                t0 = time.perf_counter()
                cold, status = service.compile_document(document)
                cold_wall = time.perf_counter() - t0
                assert status == "miss", status
                t0 = time.perf_counter()
                warm, status = service.compile_document(document)
                warm_wall = time.perf_counter() - t0
                assert status == "hit", status
                assert warm.canonical() == cold.canonical(), (
                    f"warm {name} result differs from cold"
                )
                # The service must not change the pipeline's answer.
                bare, bare_status = CompileService().compile_document(
                    document, use_cache=False
                )
                assert bare_status == "disabled"
                assert bare.canonical() != "" and (
                    json.loads(bare.canonical())
                    == {**json.loads(cold.canonical()), "key": ""}
                ), f"cache-disabled {name} result differs"
                canonical = cold.canonical()
                if cold_best is None or cold_wall < cold_best:
                    cold_best = cold_wall
                if warm_best is None or warm_wall < warm_best:
                    warm_best = warm_wall
        speedup = cold_best / warm_best if warm_best > 0 else float("inf")
        speedups[name] = speedup
        report.record(
            f"serve_cold_{name}", cold_best,
            cache="miss", report_bytes=len(canonical),
        )
        report.record(
            f"serve_warm_{name}", warm_best,
            cache="hit", speedup_vs_cold=round(speedup, 2),
            floor=MIN_WARM_SPEEDUP if name == "cddat" else None,
        )
    return speedups


def bench_http_throughput(
    report: TimingReport, requests: int, repeat: int
) -> float:
    """Warm requests/second through a live loopback server."""
    document = to_json(cd_to_dat())
    best = None
    with tempfile.TemporaryDirectory() as root:
        server = CompileServer(
            ArtifactCache(root), port=0, queue_limit=64, quiet=True,
        ).start()
        try:
            compile_remote(document, url=server.url)  # fill the cache
            for _ in range(max(1, repeat)):
                t0 = time.perf_counter()
                for _ in range(requests):
                    _, status = compile_remote(document, url=server.url)
                    assert status == "hit", status
                wall = time.perf_counter() - t0
                if best is None or wall < best:
                    best = wall
        finally:
            server.drain()
    rps = requests / best
    report.record(
        "serve_http_warm_throughput", best,
        requests=requests, requests_per_s=round(rps, 1),
    )
    return rps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_PR5.json")
    parser.add_argument("--requests", type=int, default=100,
                        help="warm HTTP requests per throughput round")
    parser.add_argument("--repeat", type=int, default=5,
                        help="interleaved rounds; the minimum wall is kept")
    args = parser.parse_args(argv)

    report = TimingReport()
    speedups = bench_cold_warm(report, args.repeat)
    rps = bench_http_throughput(report, args.requests, args.repeat)
    report.write_json(args.out)
    for row in report.rows:
        print(f"{row['bench']:>28}: {row['wall_s']:9.5f}s  {row['meta']}")
    print(f"warm-cache speedups: "
          + ", ".join(f"{k} {v:.1f}x" for k, v in speedups.items()))
    print(f"sustained warm throughput: {rps:.0f} req/s")
    print(f"wrote {args.out}")
    assert speedups["cddat"] >= MIN_WARM_SPEEDUP, (
        f"warm CD-DAT speedup {speedups['cddat']:.1f}x below the "
        f"{MIN_WARM_SPEEDUP}x acceptance floor"
    )


if __name__ == "__main__":
    main()

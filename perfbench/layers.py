"""The per-layer metric catalogue and how spans turn into it.

Every traced run prints every metric below.  A layer the workload never
calls reads 0: no spans were recorded for it.  ``METRICS.md`` says which
end-to-end metric each one should move, and on which workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Dict, List, Tuple

from common import ROOT, median
from tracing import Span, self_by_name

#: Pipeline stage metric -> span name (self time per call, ms).
STAGES = [
    ("scheduling.session_ms", "scheduling.session"),
    ("scheduling.topsort_ms", "scheduling.topsort"),
    ("scheduling.dppo_ms", "scheduling.dppo"),
    ("scheduling.sdppo_ms", "scheduling.sdppo"),
    ("scheduling.vectorize_ms", "scheduling.vectorize"),
    ("scheduling.implement_self_ms", "scheduling.implement"),
    ("lifetimes.extract_ms", "lifetimes.extract"),
    ("allocation.wig_ms", "allocation.wig"),
    ("allocation.first_fit_ms", "allocation.first_fit"),
    ("allocation.verify_ms", "allocation.verify"),
    ("allocation.clique_ms", "allocation.clique"),
]

#: Work counts: metric -> (span name, attr); mean per span.  DP cells
#: are counted on the DP spans but reported per ``implement`` call.
COUNTS = [
    ("scheduling.vectorize_fissions", "scheduling.vectorize", "fissions"),
    ("lifetimes.buffers", "lifetimes.extract", "buffers"),
    ("allocation.wig_edges", "allocation.wig", "edges"),
]

CHECK_GROUPS = ["trace", "schedule", "symbolic", "execution", "allocation",
                "broadcast", "native", "vectorize", "cyclic"]

PER_LAYER: List[Tuple[str, str]] = (
    [("startup.python_ms", "ms"), ("startup.import_ms", "ms"),
     ("startup.modules", "count"), ("native.load_ms", "ms"),
     ("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms"),
     ("cli.native_ms", "ms"), ("cli.trace_install_ms", "ms"),
     ("cli.main_ms", "ms"), ("cli.teardown_ms", "ms"),
     ("cli.traced_wall_ms", "ms")]
    + [(name, "ms") for name, _ in STAGES]
    + [("scheduling.dp_cells", "count")]
    + [(name, "count") for name, _, _ in COUNTS]
    + [("native.dp_speedup", "x"), ("native.dp_base_ms", "ms"),
       ("native.first_fit_speedup", "x"), ("native.first_fit_base_ms", "ms"),
       ("codegen.vm_ms", "ms"), ("codegen.batched_vm_ms", "ms"),
       ("codegen.firings", "count"),
       ("sdf.io.parse_hash_us", "us"), ("serve.cache.key_us", "us"),
       ("serve.cache.get_us", "us"), ("serve.cache.put_us", "us"),
       ("serve.report.render_us", "us"),
       ("serve.service.memory_us", "us"), ("serve.service.disk_us", "us"),
       ("serve.service.compile_us", "us"),
       ("serve.farm.roundtrip_us", "us"),
       ("serve.farm.batch_roundtrip_us", "us"),
       ("serve.server.dispatch_us", "us"), ("serve.server.http_us", "us"),
       ("serve.traced_wall_us", "us"),
       ("serve.tier_memory_hits", "count"), ("serve.tier_disk_hits", "count"),
       ("serve.compiled", "count"), ("serve.coalesced", "count"),
       ("serve.rejected", "count"), ("loadgen.open_p50_ms", "ms"),
       ("loadgen.late_p99_ms", "ms"),
       ("check.build_artifacts_ms", "ms")]
    + [(f"check.oracle.{g}_ms", "ms") for g in CHECK_GROUPS]
    + [("check.shrink_ms", "ms"), ("check.injection_ms", "ms"),
       ("check.violations", "count"),
       ("trace.attributed_requests", "count"),
       ("trace.self_sum_error_us", "us"),
       ("trace.overhead_pct", "%")]
)

UNITS = dict(PER_LAYER)


def complete(measured: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Every catalogue metric, 0 where the workload never hit the layer."""
    unknown = set(measured) - set(UNITS)
    if unknown:
        raise KeyError(f"metrics outside the catalogue: {sorted(unknown)}")
    return {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER
    }


def pipeline_metrics(spans: List[Span]) -> Dict[str, float]:
    """Stage self times (ms per call), work counts, VM times."""
    out: Dict[str, float] = {}
    by_name = self_by_name(spans)
    for metric, span_name in STAGES:
        total, count = by_name.get(span_name, (0.0, 0))
        out[metric] = 1000.0 * total / count if count else 0.0
    implements = by_name.get("scheduling.implement", (0.0, 0))[1]
    cells = sum(s["attrs"].get("dp_cells", 0) for s in spans
                if s["name"] in ("scheduling.dppo", "scheduling.sdppo"))
    out["scheduling.dp_cells"] = cells / implements if implements else 0.0
    for metric, span_name, attr in COUNTS:
        values = [s["attrs"][attr] for s in spans if s["name"] == span_name]
        out[metric] = sum(values) / len(values) if values else 0.0
    for metric, span_name in (("codegen.vm_ms", "codegen.vm"),
                              ("codegen.batched_vm_ms", "codegen.batched_vm")):
        total, count = by_name.get(span_name, (0.0, 0))
        out[metric] = 1000.0 * total / count if count else 0.0
    firings = [s["attrs"]["firings"] for s in spans
               if s["name"] in ("codegen.vm", "codegen.batched_vm")]
    out["codegen.firings"] = sum(firings) / len(firings) if firings else 0.0
    return out


STARTUP_PROBE = (
    "import time, sys, json\n"
    "t0 = time.perf_counter()\n"
    "import repro.cli\n"
    "t1 = time.perf_counter()\n"
    "modules = len(sys.modules)\n"
    "from repro.native import resolve_backend\n"
    "backend = resolve_backend('auto')[0]\n"
    "t2 = time.perf_counter()\n"
    "print(json.dumps([t1 - t0, t2 - t1, modules, backend]))\n"
)


def startup_metrics(env: Dict[str, str], repeats: int = 5
                    ) -> Dict[str, float]:
    """Interpreter floor, ``import repro.cli``, module count, kernel load.

    Fresh interpreters with a warm kernel cache; medians of ``repeats``.
    """
    import time

    floor, imports, loads, modules = [], [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT,
                       check=True)
        floor.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", STARTUP_PROBE], env=env,
                             cwd=ROOT, check=True, capture_output=True,
                             text=True).stdout
        imp, load, mods, _backend = json.loads(out.strip().splitlines()[-1])
        imports.append(imp)
        loads.append(load)
        modules.append(mods)
    return {
        "startup.python_ms": 1000.0 * median(floor),
        "startup.import_ms": 1000.0 * median(imports),
        "startup.modules": median(modules),
        "native.load_ms": 1000.0 * median(loads),
    }

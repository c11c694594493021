"""Run ``repro.cli.main`` under the traced run's shims.

Usage::

    python perfbench/probe.py SPANS_JSON LAYERS -- <repro arguments>

``LAYERS`` is a comma list of ``pipeline``, ``codegen`` and ``serve``.
The probe times the start-up steps a ``python -m repro`` process goes
through (importing ``repro.cli``, the first native-kernel load), then
installs the shims and runs ``main``.  All spans are written to
``SPANS_JSON`` when ``main`` returns; with ``serve``, each farm worker
writes ``SPANS_JSON.<pid>.json`` when it shuts down.
"""

import time

ENTER = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import shims  # noqa: E402
from tracing import Tracer, export_in_fork_children  # noqa: E402


def main() -> int:
    spans_path, layers = sys.argv[1], sys.argv[2].split(",")
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = Tracer("probe")
    tracer.record("probe.enter", ENTER, ENTER)
    t0 = time.perf_counter()
    import repro.cli

    t1 = time.perf_counter()
    tracer.record("startup.import", t0, t1)
    from repro.native import resolve_backend

    resolve_backend("auto")
    t2 = time.perf_counter()
    tracer.record("native.load", t1, t2)
    if "pipeline" in layers:
        shims.install_pipeline(tracer)
    if "codegen" in layers:
        shims.install_codegen(tracer)
    if "serve" in layers:
        shims.install_serve(tracer)
        export_in_fork_children(tracer, spans_path)
    tracer.record("trace.install", t2, time.perf_counter())
    try:
        return tracer.call("cli.main", repro.cli.main, (argv,), {})
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())

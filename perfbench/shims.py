"""Which public calls the traced run times, layer by layer.

Each ``install_*`` function wraps the attributes the program's own
callers look up, so the spans cover exactly the calls the program
makes: the pipeline stages as ``repro.scheduling.pipeline`` calls them,
the VMs' ``run``, the serving stack's front end, farm, worker, cache and
report calls, and the harness's oracle groups.
"""

from __future__ import annotations

from typing import Any, Dict

from tracing import Tracer


def _dp_cells(result: Any, args: tuple, kwargs: dict) -> Dict[str, int]:
    # dppo/sdppo(graph, order, q, ...): the strided DP evaluates every
    # split of every window, n(n^2 - 1)/6 cells.
    order = args[1] if len(args) > 1 else kwargs.get("order")
    n = len(order)
    return {"dp_cells": n * (n * n - 1) // 6}


def _capturing(classify, store: list, limit: int = 64):
    """``classify`` that also keeps the first ``limit`` calls' arguments."""
    def capture(result: Any, args: tuple, kwargs: dict) -> Dict[str, Any]:
        if len(store) < limit:
            store.append((args, dict(kwargs)))
        return classify(result, args, kwargs) if classify else {}
    return capture


def install_pipeline(tracer: Tracer, capture: Dict[str, list] = None
                     ) -> None:
    """Pipeline stage shims.

    With ``capture``, the arguments of the first calls to ``dppo``,
    ``sdppo``, ``ffdur`` and ``ffstart`` are kept under those names, so
    the backend comparison can replay them.
    """
    from repro.scheduling import pipeline
    from repro.scheduling.session import CompilationSession

    tracer.wrap(pipeline, "CompilationSession", "scheduling.session")
    tracer.wrap(pipeline, "rpmc", "scheduling.topsort")
    tracer.wrap(pipeline, "apgan", "scheduling.topsort")
    def keep(name, classify=None):
        if capture is None:
            return classify
        return _capturing(classify, capture.setdefault(name, []))

    tracer.wrap(pipeline, "dppo", "scheduling.dppo", keep("dppo", _dp_cells))
    tracer.wrap(pipeline, "sdppo", "scheduling.sdppo",
                keep("sdppo", _dp_cells))
    tracer.wrap(CompilationSession, "chain_sdppo_result", "scheduling.sdppo")
    tracer.wrap(pipeline, "vectorize_schedule", "scheduling.vectorize",
                lambda r, a, k: {"fissions": r.steps})
    tracer.wrap(pipeline, "implement", "scheduling.implement")
    tracer.wrap(pipeline, "extract_lifetimes", "lifetimes.extract",
                lambda r, a, k: {"buffers": len(r.as_list())})
    tracer.wrap(pipeline, "build_intersection_graph", "allocation.wig",
                lambda r, a, k: {"edges": r.num_edges()})
    tracer.wrap(pipeline, "ffdur", "allocation.first_fit", keep("ffdur"))
    tracer.wrap(pipeline, "ffstart", "allocation.first_fit",
                keep("ffstart"))
    tracer.wrap(pipeline, "verify_allocation", "allocation.verify")
    tracer.wrap(pipeline, "mcw_optimistic", "allocation.clique")
    tracer.wrap(pipeline, "mcw_pessimistic", "allocation.clique")


def install_codegen(tracer: Tracer) -> None:
    from repro.codegen.batched_vm import BatchedVM
    from repro.codegen.vm import SharedMemoryVM

    tracer.wrap(SharedMemoryVM, "run", "codegen.vm",
                lambda r, a, k: {"firings": a[0].firings})
    tracer.wrap(BatchedVM, "run", "codegen.batched_vm",
                lambda r, a, k: {"firings": a[0].firings})


def _tier(result: Any, args: tuple, kwargs: dict) -> Dict[str, str]:
    # _Worker._compile_inner returns (status, tier, body) or None when it
    # must ask the front end for the document.
    return {"tier": result[1] if result is not None else "need"}


def install_serve(tracer: Tracer) -> None:
    """Front end, farm, worker and the calls the worker makes.

    The farm worker answers a repeated warm hit from its rendered-body
    memo without calling ``CompileService``, so the worker-side span is
    its tiered entry point ``_Worker._compile_inner``: the only call
    every tier goes through.
    """
    from repro.serve import cache, farm, report, server, service

    tracer.wrap(server.CompileServer, "handle_raw", "serve.server.handle_raw")
    tracer.wrap(farm.WorkerFarm, "compile", "serve.farm.compile")
    tracer.wrap(farm.WorkerFarm, "compile_many", "serve.farm.compile_many")
    tracer.wrap(farm._Worker, "_compile_inner", "serve.worker", _tier)
    tracer.wrap(service, "implement", "scheduling.implement")
    tracer.wrap(service.CompileService, "compile_document_tiered",
                "serve.service.tiered")
    tracer.wrap(cache.ArtifactCache, "get", "serve.cache.get")
    tracer.wrap(cache.ArtifactCache, "put", "serve.cache.put")
    tracer.wrap(server, "cache_key", "serve.cache.key")
    tracer.wrap(service, "cache_key", "serve.cache.key")
    tracer.wrap(service, "from_json", "sdf.io.from_json")
    tracer.wrap(service, "canonical_hash", "sdf.io.canonical_hash")
    tracer.wrap(server, "canonical_hash", "sdf.io.canonical_hash")
    tracer.wrap(report.CompilationReport, "from_result",
                "serve.report.from_result")
    tracer.wrap(report.CompilationReport, "to_json", "serve.report.to_json")


#: Oracle group -> function name in ``repro.check.oracles``.
ORACLES = {
    "trace": "trace_oracles",
    "schedule": "schedule_oracles",
    "symbolic": "symbolic_oracles",
    "execution": "execution_oracles",
    "allocation": "allocation_oracles",
    "broadcast": "broadcast_oracles",
    "native": "native_oracles",
    "vectorize": "vectorize_oracles",
}


def install_check(tracer: Tracer) -> None:
    from repro.check import harness, oracles

    tracer.wrap(oracles, "implement", "scheduling.implement")
    tracer.wrap(harness, "build_artifacts", "check.build_artifacts")
    for group, fn in ORACLES.items():
        tracer.wrap(oracles, fn, f"check.oracle.{group}")
    tracer.wrap(harness, "cyclic_oracles", "check.oracle.cyclic")
    tracer.wrap(harness, "shrink_graph", "check.shrink")
    tracer.wrap(harness, "run_injection_selftest", "check.injection")

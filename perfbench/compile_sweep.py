"""``compile_sweep``: cold library compiles, then the generated artifact runs.

Runs inside ``host.py`` (a child of the benchmark), so the program's
memory is measured apart from the benchmark's.  Each graph gets a fresh
``CompilationSession`` (``implement`` makes one) and there is no
artifact cache; the pipeline stages, native kernels and both VMs do
nearly all the work.
"""

from __future__ import annotations

import time
from typing import Dict, List

import common
import inputs
import layers
import shims
from common import Outcome, median, tail
from gates import allocation_gate
from tracing import Tracer, max_self_sum_error


def _setup(seed: int, rep: int):
    _, env = common.setup_dir("compile_sweep", rep)
    backend = common.build_kernel_in_process(env)
    return inputs.sweep_jobs(seed), backend, env


def _one(job: inputs.SweepJob) -> Dict[str, object]:
    """Compile, gate and execute one job; timings in seconds."""
    from repro.codegen import BatchedVM, run_shared_memory_check
    from repro.scheduling.pipeline import implement, implement_best

    t0 = time.perf_counter()
    if job.best:
        both = implement_best(job.graph)
        result = min((both.rpmc, both.apgan),
                     key=lambda r: r.allocation.total)
    else:
        result = implement(job.graph, "rpmc", vectorize=job.vectorize,
                           memory_budget=job.memory_budget)
    t1 = time.perf_counter()
    failure = allocation_gate(result.lifetimes.as_list(), result.allocation)
    t2 = time.perf_counter()
    firings = run_shared_memory_check(
        job.graph, result.lifetimes, result.allocation, periods=2,
        vm_class=BatchedVM if result.vectorize is not None else None)
    t3 = time.perf_counter()
    return {"compile": t1 - t0, "vm": t3 - t2, "firings": firings,
            "pool": result.allocation.total, "bmlb": result.bmlb,
            "failure": failure}


def _pass(jobs, out: Outcome, rows: List[dict], label: str,
          pace: common.Pace) -> None:
    for job in jobs:
        try:
            row = _one(job)
        except Exception as exc:  # a crash is a failed operation
            out.op(f"{type(exc).__name__}: {exc}", f"{label} {job.label}")
            continue
        out.op(row["failure"], f"{label} {job.label}")
        row["slowness"] = pace.now()
        row["label"] = job.label
        if row["failure"] is None:
            rows.append(row)


def _per_graph(rows: List[dict], times: List[float]) -> List[float]:
    """Each graph's median time over the passes, from rows' labels."""
    by_graph: Dict[str, List[float]] = {}
    for row, t in zip(rows, times):
        by_graph.setdefault(row["label"], []).append(t)
    return [median(ts) for ts in by_graph.values()]


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    pace = common.Pace()
    setups = []
    for rep in range(common.SETUP_REPEATS):
        t0 = time.perf_counter()
        jobs, backend, env = _setup(seed, rep)
        setups.append((time.perf_counter() - t0) / pace.now())
    out.add("setup_s", median(setups), "s")
    out.record["native_backend"] = backend

    plain: List[dict] = []
    traced: List[dict] = []
    tracer = Tracer("host")
    capture: Dict[str, list] = {}
    first_pass = None
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        _pass(jobs, out, plain, f"pass {passes}", pace)
        if first_pass is None:
            first_pass = list(plain)
        if trace:
            shims.install_pipeline(tracer, capture)
            shims.install_codegen(tracer)
            _pass(jobs, out, traced, f"traced pass {passes}", pace)
            tracer.unwrap_all()
        passes += 1

    raw = [r["compile"] for r in plain]
    compile_s = [r["compile"] / r["slowness"] for r in plain]
    firings = sum(r["firings"] for r in plain)
    # One sample per graph, its median over the passes: the tail then
    # falls among many mid-sized graphs instead of on repeats of the two
    # or three heaviest, which made it a draw of their structure.
    pct, tail_s = tail(_per_graph(plain, compile_s))
    out.add("op_p50_ms", 1000.0 * median(_per_graph(plain, compile_s)),
            "ms")
    out.add("op_tail_ms", 1000.0 * tail_s, "ms")
    out.add("ops_per_s", len(plain) / sum(compile_s), "1/s")
    out.add("work_per_s", firings
            / sum(r["vm"] / r["slowness"] for r in plain), "1/s")
    out.notes.append(pace.note(
        op_p50_ms=1000.0 * median(_per_graph(plain, raw)),
        op_tail_ms=1000.0 * tail(_per_graph(plain, raw))[1],
        ops_per_s=len(raw) / sum(raw),
        work_per_s=firings / sum(r["vm"] for r in plain)))
    pool = sum(r["pool"] for r in first_pass)
    bmlb = sum(r["bmlb"] for r in first_pass)
    out.add("pool_ratio", pool / bmlb, "ratio")
    out.notes.append(
        f"{passes} pass(es) over {len(jobs)} graphs, {len(plain)} compiled; "
        f"p50 and tail (p{pct}) over per-graph medians; first pass pools "
        f"{pool} words over BMLB {bmlb}; backend {backend}")
    if trace:
        measured = layers.pipeline_metrics(tracer.spans)
        measured.update(_backend_speedups(capture))
        measured["trace.overhead_pct"] = 100.0 * (
            median([r["compile"] for r in traced]) / median(raw) - 1.0)
        measured["trace.attributed_requests"] = len(traced)
        measured["trace.self_sum_error_us"] = 1e6 * max_self_sum_error(
            tracer.spans)
        measured.update(layers.startup_metrics(env))
        out.record["per_layer"] = measured
    return out


#: Graph size limit for replaying DP calls on the pure-Python backend.
_REPLAY_MAX_ACTORS = 60
_REPLAY_CALLS = 8


def _backend_speedups(capture: Dict[str, list]) -> Dict[str, float]:
    """Replay captured DP / first-fit calls under ``backend="python"``.

    The ratio's base is the backend the pipeline chose for the same call
    (``native`` when a C compiler is present).  DP calls are replayed
    without the pipeline's shared context, so neither side starts with
    warm window tables.
    """
    from repro.allocation.first_fit import ffdur, ffstart
    from repro.scheduling.dppo import dppo
    from repro.scheduling.sdppo import sdppo

    def timed(fn, args, kwargs) -> float:
        t0 = time.perf_counter()
        fn(*args, **kwargs)
        return time.perf_counter() - t0

    out = {}
    for label, fns in (("dp", {"dppo": dppo, "sdppo": sdppo}),
                       ("first_fit", {"ffdur": ffdur, "ffstart": ffstart})):
        base = python = 0.0
        calls = 0
        for name, fn in fns.items():
            picked = [
                (a, k) for a, k in capture.get(name, [])
                if label == "first_fit" or len(a[1]) <= _REPLAY_MAX_ACTORS
            ][:_REPLAY_CALLS]
            for args, kwargs in picked:
                kwargs = dict(kwargs)
                kwargs.pop("context", None)
                kwargs.pop("recorder", None)
                chosen = kwargs.pop("backend", "python")
                base += timed(fn, args, dict(kwargs, backend=chosen))
                python += timed(fn, args, dict(kwargs, backend="python"))
                calls += 1
        out[f"native.{label}_speedup"] = python / base if base else 0.0
        out[f"native.{label}_base_ms"] = (
            1000.0 * base / calls if calls else 0.0)
    return out

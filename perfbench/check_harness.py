"""``check_harness``: ``run_check`` as CI runs it, one call after another.

Runs inside ``host.py``.  Each call is 25 trials over the acyclic,
broadcast and cyclic families with shrinking and the fault-injection
self-test, from a root seed derived from the workload seed.  Violations
and uncaught injected faults are the harness's verdicts on the program:
they count as failed operations and are listed by graph seed.
"""

from __future__ import annotations

import time
from typing import List

import common
import inputs
import layers
import shims
from common import Outcome, median, tail
from tracing import Tracer, durations, max_self_sum_error

#: Trial graphs (from the harness's acyclic generator) behind pool_ratio:
#: this many from each of the first three root seeds.
_POOL_GRAPHS = 20


#: ``run_check`` calls per second of ``--seconds`` (one call took about
#: 1.2 s on a 2-vCPU x86-64 VM).  The count, not a deadline, ends the
#: run, so which trials run, and so the harness's verdicts, follow from
#: the seed alone and not from how fast the host ran.
CALLS_PER_SECOND = 0.8


def calls(seconds: float, trace: bool) -> int:
    """Calls in a run; a traced run times each call twice, plain and
    traced, so it makes half as many."""
    return max(1, round(seconds * CALLS_PER_SECOND) // (2 if trace else 1))


def _setup(seed: int, rep: int):
    _, env = common.setup_dir("check_harness", rep)
    backend = common.build_kernel_in_process(env)
    return inputs.check_root_seeds(seed), backend, env


def _call(root: int, out: Outcome, label: str):
    from repro.check.harness import run_check

    t0, c0 = time.perf_counter(), common.cpu_seconds()
    report = run_check(trials=inputs.CHECK_TRIALS, seed=root, inject=True,
                       shrink=True, families=inputs.CHECK_FAMILIES)
    wall, cpu = time.perf_counter() - t0, common.cpu_seconds() - c0
    failing = {f.trial: f for f in report.failures}
    for trial in range(report.trials):
        f = failing.get(trial)
        out.op(None if f is None else
               f"trial {trial} (graph seed {f.graph_seed}, {f.method}): "
               f"{f.violations[0]}", f"{label} seed {root}",
               wrong_output=False)
    for v in report.runner_violations:
        out.op(f"runner: {v}", f"{label} seed {root}", wrong_output=False)
    for o in report.injection.outcomes:
        out.op(None if o.caught else
               f"injected {o.mutation} not caught (graph seed "
               f"{o.graph_seed}): {o.detail}", f"{label} seed {root}",
               wrong_output=False)
    classes = len(report.injection.outcomes)
    violations = sum(len(f.violations) for f in report.failures)
    return wall, cpu, report.trials, classes, violations


def _pool_ratio(roots: List[int]) -> float:
    from repro.check.harness import trial_graph
    from repro.scheduling.pipeline import implement

    pool = bmlb = 0
    for root in roots:
        for i in range(_POOL_GRAPHS):
            result = implement(trial_graph(root * 100000 + i), "rpmc")
            pool += result.allocation.total
            bmlb += result.bmlb
    return pool / bmlb


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    pace = common.Pace()
    setups = []
    for rep in range(common.SETUP_REPEATS):
        t0 = time.perf_counter()
        seeds, backend, env = _setup(seed, rep)
        setups.append((time.perf_counter() - t0) / pace.now())
    out.add("setup_s", median(setups), "s")
    out.record["native_backend"] = backend

    walls: List[float] = []
    rates: List[float] = []
    work_rates: List[float] = []
    traced: List[float] = []
    trials = classes = violations = traced_trials = 0
    tracer = Tracer("host")
    raw: List[float] = []
    for root in seeds[:calls(seconds, trace)]:
        wall, cpu, n, c, v = _call(root, out, "run")
        raw.append(wall)
        # The injection self-test's server idles on shutdown (about half
        # of a call), so only the CPU share is scaled.
        wall = pace.scaled(wall, cpu)
        walls.append(wall)
        rates.append(n / wall)
        work_rates.append((n + c) / wall)
        trials += n
        classes += c
        violations += v
        if trace:
            shims.install_pipeline(tracer)
            shims.install_codegen(tracer)
            shims.install_check(tracer)
            wall, _, n, _, _ = _call(root, out, "traced run")
            tracer.unwrap_all()
            traced.append(wall)
            traced_trials += n

    # Rates are medians over calls: shrinking a failing trial can take
    # seconds, and whether a run meets one is the luck of its seeds.
    pct, tail_s = tail(walls)
    out.add("op_p50_ms", 1000.0 * median(walls), "ms")
    out.add("op_tail_ms", 1000.0 * tail_s, "ms")
    out.add("ops_per_s", median(rates), "1/s")
    out.add("work_per_s", median(work_rates), "1/s")
    out.add("pool_ratio", _pool_ratio(seeds[:3]), "ratio")
    out.notes.append(pace.note(
        op_p50_ms=1000.0 * median(raw), op_tail_ms=1000.0 * tail(raw)[1]))
    out.notes.append(
        f"{len(walls)} run_check calls ({trials} trials, {classes} injected "
        f"fault classes, {violations} violations); op is one call, tail is "
        f"p{pct}; backend {backend}")
    if trace:
        measured = layers.pipeline_metrics(tracer.spans)
        # Time inside each call per trial, callees included: the
        # pipeline-stage metrics split build_artifacts further.
        names = ["check.build_artifacts", "check.shrink", "check.injection"]
        names += [f"check.oracle.{g}" for g in layers.CHECK_GROUPS]
        for name in names:
            inside = sum(durations(tracer.spans, name))
            measured[f"{name}_ms"] = 1000.0 * inside / traced_trials
        measured["check.violations"] = violations
        measured["trace.overhead_pct"] = 100.0 * (
            median(traced) / median(raw) - 1.0)
        measured["trace.attributed_requests"] = len(traced)
        measured["trace.self_sum_error_us"] = 1e6 * max_self_sum_error(
            tracer.spans)
        measured.update(layers.startup_metrics(env))
        out.record["per_layer"] = measured
    return out

"""``cli_oneshot``: sequential ``python -m repro compile`` processes.

What a user types.  Start-up (interpreter, imports, kernel load)
dominates each run, so this is the workload where start-up cuts show.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import common
import inputs
import layers
from common import Outcome, median, tail
from gates import cli_gate
from tracing import load_spans, self_times


#: Whole cycles per second of ``--seconds`` (a cycle of twenty runs took
#: about 12 s on a 2-vCPU x86-64 VM).  A count, not a deadline, ends the
#: run, so every run of a seed holds the same operations and its tail
#: the same rank among them, however fast the host ran.
CYCLES_PER_SECOND = 0.1


def cycles(seconds: float, trace: bool) -> int:
    """Cycles in a run; a traced run times each operation twice, plain
    and traced, so it makes half as many."""
    return max(1, round(seconds * CYCLES_PER_SECOND) // (2 if trace else 1))


def _setup(seed: int, rep: int) -> Tuple[str, Dict[str, str], str]:
    base, env = common.setup_dir("cli_oneshot", rep)
    graph_dir = os.path.join(base, "graphs")
    os.makedirs(graph_dir)
    inputs.write_cli_graphs(seed, graph_dir)
    backend = common.build_kernel_via_program(env)
    return graph_dir, env, backend


def _resolve(spec: str):
    from repro.apps import TABLE1_SYSTEMS, table1_graph
    from repro.apps.ptolemy_demos import cd_to_dat
    from repro.sdf.io import load_graph

    if spec in TABLE1_SYSTEMS:
        return table1_graph(spec)
    if spec == "cddat":
        return cd_to_dat()
    return load_graph(spec)


def _references(ops: List[inputs.CliOp]) -> Dict[Tuple[str, bool], tuple]:
    """(spec, vectorize) -> (shared words, BMLB, actors), in-process."""
    from repro.scheduling.pipeline import implement

    refs = {}
    for op in ops:
        key = (op.spec, op.vectorize)
        if key not in refs:
            graph = _resolve(op.spec)
            result = implement(graph, "rpmc", seed=0, vectorize=op.vectorize)
            refs[key] = (result.allocation.total, result.bmlb,
                         graph.num_actors)
    return refs


def _spawn(argv: List[str], env: Dict[str, str]):
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=common.ROOT,
                          capture_output=True, text=True, timeout=170)
    end = time.perf_counter()
    return start, end, proc


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    pace = common.Pace()
    setups = []
    for rep in range(common.SETUP_REPEATS):
        t0 = time.perf_counter()
        graph_dir, env, backend = _setup(seed, rep)
        setups.append((time.perf_counter() - t0) / pace.now())
    out.add("setup_s", median(setups), "s")
    out.record["native_backend"] = backend
    common.use_env_in_process(env)
    ops = inputs.cli_ops(seed, graph_dir)
    refs = _references(ops)
    spans_dir = common.fresh_dir("cli_oneshot", "spans")

    walls: List[float] = []
    raw: List[float] = []
    traced: List[float] = []
    trees: List[Dict[str, float]] = []
    shared_sum = bmlb_sum = actors = 0
    for i in range(len(ops) * cycles(seconds, trace)):
        op = ops[i % len(ops)]
        shared, bmlb, n_actors = refs[(op.spec, op.vectorize)]
        plain = [sys.executable, "-m", "repro", *op.argv()]
        start, end, proc = _spawn(plain, env)
        failure = cli_gate(proc.returncode, proc.stdout, shared, op.check)
        out.op(failure, f"op {i} {' '.join(op.argv())}")
        raw.append(end - start)
        walls.append((end - start) / pace.now())
        actors += n_actors
        # The paper's systems always run unblocked, so their pool ratio
        # repeats for every seed; the random files' would not.
        if i < len(ops) and failure is None and not op.spec.endswith(".json"):
            shared_sum += shared
            bmlb_sum += bmlb
        if trace:
            path = os.path.join(spans_dir, f"op{i}.json")
            probe = [sys.executable, os.path.join(common.BENCH_DIR,
                                                  "probe.py"),
                     path, "pipeline,codegen", "--", *op.argv()]
            start, end, proc = _spawn(probe, env)
            out.op(cli_gate(proc.returncode, proc.stdout, shared, op.check),
                   f"traced op {i}")
            traced.append(end - start)
            trees.append(_attribute(load_spans([path]), start, end))

    pct, tail_s = tail(walls)
    out.add("op_p50_ms", 1000.0 * median(walls), "ms")
    out.add("op_tail_ms", 1000.0 * tail_s, "ms")
    out.add("ops_per_s", len(walls) / sum(walls), "1/s")
    out.add("work_per_s", actors / sum(walls), "1/s")
    out.add("pool_ratio", shared_sum / bmlb_sum, "ratio")
    out.notes.append(pace.note(
        op_p50_ms=1000.0 * median(raw), op_tail_ms=1000.0 * tail(raw)[1],
        ops_per_s=len(raw) / sum(raw), work_per_s=actors / sum(raw)))
    out.notes.append(
        f"{len(walls)} CLI runs in cycles of {len(ops)}; tail is p{pct}; "
        f"Table 1 and CD-DAT: {shared_sum} shared words over BMLB "
        f"{bmlb_sum}")
    if trace:
        out.record["per_layer"] = _layer_metrics(env, trees, raw, traced)
    return out


#: Child spans of one traced CLI process, in order, and their metrics.
_PHASES = [
    ("startup.interpreter", "cli.interpreter_ms"),
    ("startup.import", "cli.import_ms"),
    ("native.load", "cli.native_ms"),
    ("trace.install", "cli.trace_install_ms"),
    ("cli.main", "cli.main_ms"),
]


def _attribute(spans, spawn: float, exit_: float) -> Dict[str, float]:
    """Split one process's wall time into self times that sum to it.

    The root span is the whole process as the benchmark saw it, spawn to
    exit; its self time (probe bookkeeping and interpreter teardown) is
    reported as ``cli.teardown_ms``.
    """
    enter = next(s for s in spans if s["name"] == "probe.enter")["start"]
    root = {"id": "root", "name": "cli.process", "start": spawn,
            "end": exit_, "parent": None, "rid": None, "attrs": {}}
    spans = [s for s in spans if s["name"] != "probe.enter"]
    spans.append({"id": "interp", "name": "startup.interpreter",
                  "start": spawn, "end": enter, "parent": None,
                  "rid": None, "attrs": {}})
    for span in spans:
        if span["parent"] is None:
            span["parent"] = "root"
    spans.append(root)
    st = self_times(spans)
    row = {metric: 0.0 for _, metric in _PHASES}
    names = {s["id"]: s["name"] for s in spans}
    phase_of = dict(_PHASES)
    by_id = {s["id"]: s for s in spans}
    for sid, seconds in st.items():
        node = by_id[sid]
        while node["parent"] not in (None, "root"):
            node = by_id[node["parent"]]
        if node["id"] == "root":
            row["cli.teardown_ms"] = 1000.0 * seconds
        else:
            row[phase_of[names[node["id"]]]] += 1000.0 * seconds
    row["cli.traced_wall_ms"] = 1000.0 * (exit_ - spawn)
    row["_spans"] = spans
    return row


def _layer_metrics(env, trees, walls, traced) -> Dict[str, float]:
    measured = layers.startup_metrics(env)
    spans = [s for row in trees for s in row.pop("_spans")]
    measured.update(layers.pipeline_metrics(spans))
    errors = []
    for row in trees:
        parts = sum(v for k, v in row.items() if k != "cli.traced_wall_ms")
        errors.append(abs(parts - row["cli.traced_wall_ms"]) * 1000.0)
    for name in [m for _, m in _PHASES] + ["cli.teardown_ms",
                                           "cli.traced_wall_ms"]:
        measured[name] = median([row[name] for row in trees])
    measured["trace.attributed_requests"] = len(trees)
    measured["trace.self_sum_error_us"] = max(errors)
    measured["trace.overhead_pct"] = 100.0 * (median(traced) / median(walls)
                                              - 1.0)
    return measured

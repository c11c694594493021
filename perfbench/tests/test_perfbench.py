"""Tests of the benchmark itself: inputs, gates, statistics, tracing.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import common  # noqa: E402
import gates  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracing import (  # noqa: E402
    adopt_by_containment, covered, max_self_sum_error, self_times,
)


# ----------------------------------------------------------------------
# the same seed gives the same inputs
# ----------------------------------------------------------------------
def _sweep_digest(seed):
    from repro.sdf.io import canonical_hash

    return [(j.label, canonical_hash(j.graph), j.best, j.vectorize,
             j.memory_budget) for j in inputs.sweep_jobs(seed)]


def test_same_seed_same_inputs():
    assert inputs.cli_graphs(3) == inputs.cli_graphs(3)
    assert inputs.cli_ops(3, "g") == inputs.cli_ops(3, "g")
    assert _sweep_digest(3) == _sweep_digest(3)
    assert inputs.check_root_seeds(3) == inputs.check_root_seeds(3)
    a, b = inputs.serve_inputs(3), inputs.serve_inputs(3)
    assert (a.catalogue, a.cold, a.batches) == (b.catalogue, b.cold,
                                                b.batches)
    assert (inputs.open_schedule(3, a, 2.0, "x")
            == inputs.open_schedule(3, b, 2.0, "x"))
    assert (inputs.mixed_requests(3, a, "x", 500)
            == inputs.mixed_requests(3, b, "x", 500))
    assert (inputs.closed_sequence(3, a, "x", 50)
            == inputs.closed_sequence(3, b, "x", 50))


def test_other_seed_other_inputs():
    assert inputs.cli_graphs(3) != inputs.cli_graphs(4)
    assert _sweep_digest(3) != _sweep_digest(4)
    assert inputs.check_root_seeds(3) != inputs.check_root_seeds(4)
    assert (inputs.serve_inputs(3).catalogue
            != inputs.serve_inputs(4).catalogue)


def test_every_seed_holds_the_same_work():
    def shape(seed):
        jobs = inputs.sweep_jobs(seed)
        return (sorted(j.graph.num_actors for j in jobs if j.best),
                sum(j.vectorize for j in jobs),
                sum(j.memory_budget is not None for j in jobs))

    assert shape(1) == shape(2)
    assert inputs.sweep_sizes()[0] == 10 and inputs.sweep_sizes()[-1] == 200
    ops = [inputs.cli_ops(seed, "g") for seed in (1, 2)]
    for cycle in ops:
        assert sum(op.check for op in cycle) == inputs.CLI_CHECKS
        assert sum(op.vectorize for op in cycle) == inputs.CLI_VECTORIZE
    assert sorted(op.spec for op in ops[0] if "/" not in op.spec) == \
        sorted(op.spec for op in ops[1] if "/" not in op.spec)

    def served(seed):
        data = inputs.serve_inputs(seed)
        return ([len(d["actors"]) for d in data.catalogue + data.cold],
                data.batches)

    assert served(1) == served(2)


def test_cold_documents_are_used_once():
    data = inputs.serve_inputs(5)
    first = inputs.mixed_requests(5, data, "a", 400)
    used = sum(a.kind == "cold" for a in first)
    later = inputs.mixed_requests(5, data, "b", 400, cold_start=used)
    cold = [a.index for a in first + later if a.kind == "cold"]
    assert len(cold) == len(set(cold)) > 0


# ----------------------------------------------------------------------
# output gates
# ----------------------------------------------------------------------
CLI_OUT = ("graph:      satrec (22 actors)\n"
           "shared:     262 words (mco 261, mcp 301)\n"
           "execution check: OK (9030 firings, scalar VM)\n")


def test_cli_gate_accepts_the_right_count():
    assert gates.cli_gate(0, CLI_OUT, 262, checked=True) is None


def test_cli_gate_catches_a_wrong_word_count():
    assert "262" in gates.cli_gate(0, CLI_OUT.replace("262", "263"), 262,
                                   checked=False)


def test_cli_gate_catches_exit_status_and_missing_check():
    assert gates.cli_gate(1, CLI_OUT, 262, checked=False) is not None
    no_check = CLI_OUT.splitlines()[1] + "\n"
    assert gates.cli_gate(0, no_check, 262, checked=True) is not None


@pytest.fixture(scope="module")
def cddat_report():
    from repro.apps.ptolemy_demos import cd_to_dat
    from repro.scheduling.pipeline import implement
    from repro.serve.report import CompilationReport

    graph = cd_to_dat()
    result = implement(graph, "rpmc", backend="python")
    return result, CompilationReport.from_result(result, graph.name)


def test_served_gate_catches_a_tampered_report(cddat_report):
    _, report = cddat_report
    body = {"status": "hit", "report": report.to_json()}
    assert gates.served_gate(json.dumps(body).encode(),
                             report.digest()) is None
    body["report"]["total"] += 1
    assert gates.served_gate(json.dumps(body).encode(),
                             report.digest()) is not None


def test_batch_gate_catches_one_tampered_item(cddat_report):
    _, report = cddat_report
    item = {"status": "hit", "report": report.to_json()}
    bad = {"status": "hit", "report": dict(report.to_json(), total=1)}
    body = json.dumps({"responses": [item, bad]}).encode()
    assert gates.batch_gate(body, [report.digest()] * 2) is not None
    body = json.dumps({"responses": [item, item]}).encode()
    assert gates.batch_gate(body, [report.digest()] * 2) is None


def test_allocation_gate_catches_an_overlap(cddat_report):
    import copy

    result, _ = cddat_report
    buffers = [b for b in result.lifetimes.as_list() if b.size > 0]
    assert gates.allocation_gate(buffers, result.allocation) is None
    overlapping = next(
        (a, b) for i, a in enumerate(buffers) for b in buffers[i + 1:]
        if a.overlaps(b))
    bad = copy.copy(result.allocation)
    bad.offsets = dict(bad.offsets)
    bad.offsets[overlapping[1].name] = bad.offsets[overlapping[0].name]
    assert "allocation" in gates.allocation_gate(buffers, bad)


# ----------------------------------------------------------------------
# tail percentile rank rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [20, 21, 27, 50, 99, 100, 101, 999, 1000,
                               1001, 5000])
def test_tail_leaves_at_least_ten_samples_beyond(n):
    import math

    pct = common.tail_percentile(n)
    rank = math.ceil(pct / 100.0 * n)
    assert n - rank >= 10
    if pct < 99:  # one point higher would leave fewer than ten
        assert n - math.ceil((pct + 1) / 100.0 * n) < 10


def test_tail_values():
    assert common.tail_percentile(1000) == 99
    assert common.tail_percentile(27) == 62
    assert common.tail_percentile(19) == 50
    values = list(range(1, 101))
    assert common.tail(values) == (90, 90)
    assert common.nearest_rank(values, 50) == 50
    assert common.nearest_rank([5.0], 99) == 5.0


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def _span(sid, start, end, parent=None, name="s"):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "rid": None, "attrs": {}}


def test_self_time_subtracts_the_union_of_children():
    spans = [_span("r", 0.0, 10.0),
             _span("a", 1.0, 4.0, "r"),
             _span("b", 3.0, 6.0, "r"),      # overlaps a: union is 1..6
             _span("c", 2.0, 3.0, "a"),
             _span("d", 8.0, 12.0, "r")]     # sticks out: clipped to 8..10
    st = self_times(spans)
    assert st["r"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert st["a"] == pytest.approx(2.0)
    assert st["c"] == pytest.approx(1.0)
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)


def test_self_times_of_a_nested_tree_sum_to_its_root():
    spans = [_span("r", 0.0, 10.0), _span("a", 1.0, 4.0, "r"),
             _span("c", 2.0, 3.5, "a"), _span("b", 5.0, 9.0, "r")]
    assert sum(self_times(spans).values()) == pytest.approx(10.0)
    assert max_self_sum_error(spans) == pytest.approx(0.0, abs=1e-12)


def test_self_sum_error_skips_trees_whose_root_was_not_recorded():
    spans = [_span("r", 0.0, 2.0), _span("a", 0.5, 1.0, "r"),
             _span("x", 0.0, 5.0, "gone")]
    assert max_self_sum_error(spans) == pytest.approx(0.0, abs=1e-12)


def test_containment_links_spans_across_processes():
    client = [_span("h1", 0.0, 5.0), _span("h2", 6.0, 9.0)]
    server = [_span("s1", 1.0, 4.0), _span("s2", 6.5, 8.0)]
    client[0]["rid"], client[1]["rid"] = "warm:1", "warm:2"
    adopt_by_containment(client, server)
    assert [s["parent"] for s in server] == ["h1", "h2"]
    assert server[1]["rid"] == "warm:2"


# ----------------------------------------------------------------------
# host-speed scaling
# ----------------------------------------------------------------------
def test_pace_uses_the_median_of_the_last_readings():
    readings = iter([1.0, 2.0, 4.0, 2.0])
    pace = common.Pace(every=0.0, probe=lambda: next(readings), window=3)
    assert [pace.now() for _ in range(4)] == [1.0, 1.5, 2.0, 2.0]


def test_pace_scales_only_the_cpu_share():
    pace = common.Pace(every=0.0, probe=lambda: 2.0)
    assert pace.scaled(1.0, 0.6) == pytest.approx(0.4 + 0.3)
    assert pace.scaled(1.0, 1.5) == pytest.approx(0.5)  # CPU capped at wall


def test_runs_hold_a_count_of_operations_not_a_deadline():
    import check_harness
    import cli_oneshot

    assert check_harness.calls(20, False) == 16
    assert check_harness.calls(20, True) == 8
    assert check_harness.calls(0.1, True) == 1
    assert cli_oneshot.cycles(20, False) == 2
    assert cli_oneshot.cycles(20, True) == 1


# ----------------------------------------------------------------------
# the benchmark's declaration matches what it prints
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        layers.PER_LAYER
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in bench["end_to_end"])


def test_complete_fills_every_layer_and_rejects_unknown_names():
    full = layers.complete({"codegen.vm_ms": 1.5})
    assert list(full) == [name for name, _ in layers.PER_LAYER]
    assert full["codegen.vm_ms"]["value"] == 1.5
    with pytest.raises(KeyError):
        layers.complete({"no.such_ms": 1.0})

"""Tests for memory-constrained vectorization and blocked execution.

Covers the loop-fission pass (``repro.scheduling.vectorize``) — the
safety rule, the budget loop's edge cases (zero budget, unconstrained
fixed point, backward-edge declines, non-SAS fallbacks), block
accounting — the ``backend="batched"`` contract (bit-identical
observables *and* byte-identical errors), the block-at-a-time
``BatchedVM`` against the scalar VM, and the vectorized pipeline path
(``implement(..., vectorize=True)``).
"""

import pytest

from repro.allocation.first_fit import Allocation
from repro.apps import cd_to_dat
from repro.codegen import batched_vm
from repro.codegen.batched_vm import BatchedVM
from repro.codegen.vm import SharedMemoryVM, run_shared_memory_check
from repro.exceptions import CodegenError, ScheduleError
from repro.scheduling.pipeline import implement
from repro.scheduling.vectorize import (
    blocked_cost,
    dispatch_blocks,
    fission_candidates,
    fission_safe,
    vectorize_schedule,
)
from repro.sdf.graph import SDFGraph
from repro.sdf.random_graphs import (
    random_broadcast_sdf_graph,
    random_sdf_graph,
)
from repro.sdf.repetitions import repetitions_vector
from repro.sdf.schedule import Loop, parse_schedule
from repro.sdf.simulate import validate_schedule


def chain_graph():
    """q = A:3, B:6, C:2 — the module docstring's running example."""
    g = SDFGraph("chain")
    g.add_actors("ABC")
    g.add_edge("A", "B", 2, 1)
    g.add_edge("B", "C", 1, 3)
    return g


def feedback_graph():
    """Two-actor loop living on 2 initial tokens; q = A:1, B:2."""
    g = SDFGraph("fb")
    g.add_actors("AB")
    g.add_edge("A", "B", 2, 1)
    g.add_edge("B", "A", 1, 2, delay=2)
    return g


def first_loop(text):
    node = parse_schedule(text).body[0]
    assert isinstance(node, Loop)
    return node


class TestFissionSafety:
    def test_forward_edges_are_safe(self):
        g = chain_graph()
        assert fission_safe(g, first_loop("(3A(2B))"))
        assert fission_safe(g, first_loop("(2(3A)(6B)(2C))"))

    def test_backward_edge_declines(self):
        # B->A is lexically backward inside (2 A B): hoisting A's two
        # iterations ahead of B would drain the delay dry.
        g = feedback_graph()
        assert not fission_safe(g, first_loop("(2A(2B))"))

    def test_duplicate_actor_declines(self):
        g = chain_graph()
        assert not fission_safe(g, first_loop("(2A B A)"))

    def test_edge_crossing_loop_boundary_is_ignored(self):
        # Only edges with BOTH endpoints inside the body constrain the
        # fission; C is outside (3A(2B)) so A->B is the one that counts.
        g = chain_graph()
        loop = first_loop("(3A(2B))")
        assert fission_safe(g, loop)


class TestDispatchBlocks:
    def test_nested_schedule(self):
        blocks, firings, factors = dispatch_blocks(
            parse_schedule("(3A(2B))(2C)")
        )
        # "(2B)" and "(2C)" are single counted firings, not loops: the
        # parser folds them, so one visit dispatches a 2-firing block.
        assert (blocks, firings) == (7, 11)
        assert factors == {"A": 1, "B": 2, "C": 2}

    def test_flat_sas(self):
        blocks, firings, factors = dispatch_blocks(
            parse_schedule("(3A)(6B)(2C)")
        )
        assert (blocks, firings) == (3, 11)
        assert factors == {"A": 3, "B": 6, "C": 2}


class TestFissionCandidates:
    def test_docstring_example(self):
        g = chain_graph()
        texts = {
            str(c)
            for c in fission_candidates(g, parse_schedule("(3A(2B))(2C)"))
        }
        # Fissioning the outer loop hoists A and B; the inner (2B) and
        # the unit-count (2C) wrapper offer nothing further on their own.
        assert "(3A)(6B)(2C)" in texts

    def test_backward_edge_has_no_candidates(self):
        g = feedback_graph()
        assert fission_candidates(g, parse_schedule("(2A(2B))")) == []


class TestVectorizePass:
    def test_unconstrained_reaches_flat_sas(self):
        g = chain_graph()
        vec = vectorize_schedule(g, parse_schedule("(3A(2B))(2C)"))
        assert str(vec.schedule) == "(3A)(6B)(2C)"
        assert vec.block_factors == repetitions_vector(g)
        assert (vec.blocks, vec.firings) == (3, 11)
        assert vec.steps >= 1
        assert vec.amortization > vec.baseline_amortization

    def test_zero_budget_is_identity(self):
        g = chain_graph()
        base = parse_schedule("(3A(2B))(2C)")
        vec = vectorize_schedule(g, base, memory_budget=0)
        assert str(vec.schedule) == str(base)
        assert vec.steps == 0
        assert vec.cost == vec.baseline_cost

    def test_backward_edge_declines_cleanly(self):
        g = feedback_graph()
        base = parse_schedule("(2A(2B))")
        vec = vectorize_schedule(g, base)
        assert str(vec.schedule) == str(base)
        assert vec.steps == 0
        assert vec.cost == vec.baseline_cost is not None

    def test_non_sas_schedule_falls_back_with_cost_none(self):
        g = chain_graph()
        base = parse_schedule("(3A(2B))(2C)(1A)")  # A appears twice
        vec = vectorize_schedule(g, base)
        assert vec.cost is None and vec.baseline_cost is None
        assert str(vec.schedule) == str(base.normalized())
        assert vec.steps == 0

    def test_delayed_forward_edge_still_blocks(self):
        g = SDFGraph("dly")
        g.add_actors("ABC")
        g.add_edge("A", "B", 2, 1, delay=1)
        g.add_edge("B", "C", 1, 3)
        result = implement(g, "natural", verify=False)
        vec = vectorize_schedule(g, result.sdppo_schedule)
        validate_schedule(g, vec.schedule)
        assert vec.blocks <= vec.baseline_blocks

    def test_cddat_budget_sweep_is_monotone(self):
        g = cd_to_dat()
        result = implement(g, "rpmc", verify=False)
        base_total = result.allocation.total
        q = repetitions_vector(g)
        prev_blocks = None
        for budget in (0, base_total, 2 * base_total, None):
            vec = vectorize_schedule(g, result.sdppo_schedule, q,
                                     memory_budget=budget)
            assert validate_schedule(g, vec.schedule) == q
            if budget is not None:
                assert vec.cost <= max(budget, vec.baseline_cost)
            if prev_blocks is not None:
                # A larger budget can never force more blocks.
                assert vec.blocks <= prev_blocks
            prev_blocks = vec.blocks
        assert vec.blocks == len(q)  # unconstrained = flat SAS

    def test_claimed_cost_matches_independent_recost(self):
        g = cd_to_dat()
        result = implement(g, "rpmc", verify=False)
        q = repetitions_vector(g)
        budget = result.allocation.total * 3 // 2
        vec = vectorize_schedule(g, result.sdppo_schedule, q,
                                 memory_budget=budget)
        assert vec.steps > 0
        assert blocked_cost(g, vec.schedule, q) == vec.cost

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_respect_budget(self, seed):
        g = random_sdf_graph(12, seed=700 + seed)
        result = implement(g, "apgan", verify=False)
        q = repetitions_vector(g)
        budget = result.allocation.total * 3 // 2
        vec = vectorize_schedule(g, result.sdppo_schedule, q,
                                 memory_budget=budget)
        assert validate_schedule(g, vec.schedule) == q
        if vec.steps:
            assert vec.cost <= budget

    @pytest.mark.parametrize("seed", range(3))
    def test_broadcast_graphs_block_validly(self, seed):
        g = random_broadcast_sdf_graph(10, seed=40 + seed)
        result = implement(g, "apgan", verify=False)
        q = repetitions_vector(g)
        vec = vectorize_schedule(g, result.sdppo_schedule, q)
        assert validate_schedule(g, vec.schedule) == q
        assert vec.blocks <= vec.baseline_blocks


class TestBatchedErrorParity:
    def test_underflow_error_is_byte_identical(self):
        g = chain_graph()
        bad = parse_schedule("(6B)(3A)(2C)")  # B fires before any A
        with pytest.raises(ScheduleError) as interp:
            validate_schedule(g, bad, backend="interpreter")
        with pytest.raises(ScheduleError) as batched:
            validate_schedule(g, bad, backend="batched")
        assert str(interp.value) == str(batched.value)

    def test_mid_block_underflow_error_is_byte_identical(self):
        # (4B) is fed by only one A firing: the block fails part-way
        # through, at the same firing index the interpreter reports.
        g = chain_graph()
        bad = parse_schedule("(1A)(4B)")
        with pytest.raises(ScheduleError) as interp:
            validate_schedule(g, bad, backend="interpreter")
        with pytest.raises(ScheduleError) as batched:
            validate_schedule(g, bad, backend="batched")
        assert str(interp.value) == str(batched.value)


class TestBatchedVM:
    def _implemented(self, graph, method="rpmc"):
        return implement(graph, method, verify=False, vectorize=True)

    def test_matches_scalar_vm_on_cddat(self):
        g = cd_to_dat()
        result = self._implemented(g)
        scalar = SharedMemoryVM(g, result.lifetimes, result.allocation)
        batched = BatchedVM(g, result.lifetimes, result.allocation)
        scalar.run(periods=2)
        batched.run(periods=2)
        assert batched.firings == scalar.firings
        assert batched.firings_per_actor == scalar.firings_per_actor
        assert batched.peak_address == scalar.peak_address
        assert batched.peak_address <= result.allocation.total

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_execute(self, seed):
        g = random_sdf_graph(10, seed=900 + seed)
        result = implement(g, "apgan", verify=False, vectorize=True)
        fires = run_shared_memory_check(
            g, result.lifetimes, result.allocation,
            periods=2, vm_class=BatchedVM,
        )
        assert fires == 2 * sum(repetitions_vector(g).values())

    @pytest.mark.parametrize("seed", range(2))
    def test_broadcast_graphs_execute(self, seed):
        g = random_broadcast_sdf_graph(10, seed=60 + seed)
        result = implement(g, "apgan", verify=False, vectorize=True)
        fires = run_shared_memory_check(
            g, result.lifetimes, result.allocation,
            periods=2, vm_class=BatchedVM,
        )
        assert fires == 2 * sum(repetitions_vector(g).values())

    def test_delayed_graph_executes(self):
        g = SDFGraph("dly")
        g.add_actors("ABC")
        g.add_edge("A", "B", 2, 1, delay=1)
        g.add_edge("B", "C", 1, 3)
        result = implement(g, "natural", verify=False, vectorize=True)
        run_shared_memory_check(
            g, result.lifetimes, result.allocation,
            periods=3, vm_class=BatchedVM,
        )

    @staticmethod
    def _observe(graph, lifetimes, allocation, periods, numpy_free):
        vm = BatchedVM(graph, lifetimes, allocation)
        assert isinstance(vm.mem_edge, list) == numpy_free
        try:
            vm.run(periods=periods)
        except CodegenError as exc:
            return ("CodegenError", str(exc))
        return (vm.firings, vm.firings_per_actor, vm.peak_address)

    def test_pure_list_path_matches_numpy(self, monkeypatch):
        # Without numpy the VM's transfers degrade to per-token list
        # loops; they must observe exactly what the array path does,
        # errors included.  Overlaying every buffer at offset 0 is the
        # unsafe allocation that makes the token check fire.
        pytest.importorskip("numpy")
        delayed = SDFGraph("dly")
        delayed.add_actors("ABC")
        delayed.add_edge("A", "B", 2, 1, delay=1)
        delayed.add_edge("B", "C", 1, 3)
        cases = [(random_sdf_graph(10, seed=900 + s), "apgan", 2)
                 for s in range(4)]
        cases += [(random_broadcast_sdf_graph(10, seed=60 + s), "apgan", 2)
                  for s in range(2)]
        cases.append((delayed, "natural", 3))
        errors = 0
        for graph, method, periods in cases:
            result = implement(graph, method, verify=False, vectorize=True)
            buffers = result.lifetimes.as_list()
            overlaid = Allocation(
                offsets={b.name: 0 for b in buffers},
                total=max(b.size for b in buffers),
                order=[b.name for b in buffers],
                graph=result.allocation.graph,
            )
            for allocation in (result.allocation, overlaid):
                args = (graph, result.lifetimes, allocation, periods)
                with_numpy = self._observe(*args, numpy_free=False)
                with monkeypatch.context() as patch:
                    patch.setattr(batched_vm, "_np", None)
                    without = self._observe(*args, numpy_free=True)
                assert without == with_numpy, graph.name
                if allocation is result.allocation:
                    assert with_numpy[0] != "CodegenError", with_numpy
                else:
                    errors += with_numpy[0] == "CodegenError"
        assert errors == len(cases)


class TestVectorizedPipeline:
    def test_implement_carries_vectorize_result(self):
        g = cd_to_dat()
        result = implement(g, "rpmc", verify=False,
                           vectorize=True, memory_budget=None)
        vec = result.vectorize
        assert vec is not None
        assert vec.memory_budget is None
        # The downstream artifacts describe the BLOCKED schedule: its
        # honest re-cost is exactly the allocation the pipeline packed.
        assert result.allocation.total == vec.cost
        # The unblocked DP outputs survive untouched.
        assert str(result.sdppo_schedule) == str(vec.baseline_schedule)

    def test_plain_implement_has_no_vectorize_field(self):
        g = chain_graph()
        result = implement(g, "natural", verify=False)
        assert result.vectorize is None

    def test_budgeted_implement_respects_budget(self):
        g = cd_to_dat()
        plain = implement(g, "rpmc", verify=False)
        budget = plain.allocation.total * 3 // 2
        result = implement(g, "rpmc", verify=False,
                           vectorize=True, memory_budget=budget)
        assert result.vectorize.steps > 0
        assert result.allocation.total <= budget

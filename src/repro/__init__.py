"""Shared-memory implementations of synchronous dataflow specifications.

A from-scratch reproduction of Murthy & Bhattacharyya, *"Shared Memory
Implementations of Synchronous Dataflow Specifications Using Lifetime
Analysis Techniques"* (DATE 2000): SDF scheduling that minimizes data
memory by overlaying buffers with disjoint lifetimes.

Quickstart
----------
>>> from repro import SDFGraph, implement_best
>>> g = SDFGraph("example")
>>> _ = g.add_actors("ABC")
>>> _ = g.add_edge("A", "B", 10, 2)
>>> _ = g.add_edge("B", "C", 2, 3)
>>> result = implement_best(g)
>>> result.best_shared <= result.best_nonshared
True

See ``examples/`` for complete scenarios and ``DESIGN.md`` for the
module map.
"""

import importlib

from .exceptions import (
    AllocationError,
    CodegenError,
    GraphStructureError,
    InconsistentGraphError,
    ScheduleError,
    SDFError,
)

#: Compiler names re-exported here, by the subpackage that defines
#: them.  They resolve on first access (PEP 562 ``__getattr__``), so a
#: command that never compiles (``repro cache``, ``repro resize``)
#: does not pay for importing the compiler.
_EXPORTS = {
    "sdf": (
        "Actor", "Edge", "Firing", "Loop", "LoopedSchedule", "SDFGraph",
        "bmlb", "buffer_memory_nonshared",
        "flat_single_appearance_schedule", "is_consistent",
        "is_valid_schedule", "max_tokens", "parse_schedule",
        "repetitions_vector", "validate_schedule",
    ),
    "scheduling": (
        "apgan", "chain_sdppo", "dppo", "implement", "implement_best",
        "rpmc", "sdppo",
    ),
    "lifetimes": ("PeriodicLifetime", "ScheduleTree", "extract_lifetimes"),
    "allocation": (
        "ffdur", "ffstart", "first_fit", "mcw_optimistic",
        "mcw_pessimistic", "verify_allocation",
    ),
}
_HOME = {name: pkg for pkg, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    pkg = _HOME.get(name)
    if pkg is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{pkg}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))


__version__ = "1.0.0"

__all__ = [
    "SDFError",
    "GraphStructureError",
    "InconsistentGraphError",
    "ScheduleError",
    "AllocationError",
    "CodegenError",
    "Actor",
    "Edge",
    "SDFGraph",
    "Firing",
    "Loop",
    "LoopedSchedule",
    "parse_schedule",
    "flat_single_appearance_schedule",
    "repetitions_vector",
    "is_consistent",
    "validate_schedule",
    "is_valid_schedule",
    "max_tokens",
    "buffer_memory_nonshared",
    "bmlb",
    "dppo",
    "sdppo",
    "chain_sdppo",
    "apgan",
    "rpmc",
    "implement",
    "implement_best",
    "PeriodicLifetime",
    "ScheduleTree",
    "extract_lifetimes",
    "ffdur",
    "ffstart",
    "first_fit",
    "mcw_optimistic",
    "mcw_pessimistic",
    "verify_allocation",
    "__version__",
]

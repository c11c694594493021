"""Code generation: inline C emission and shared-memory execution checks.

:class:`BatchedVM` is resolved on first access (PEP 562): it is the
only module that imports numpy, and the one-shot compiler never needs
it unless it runs a vectorized schedule.
"""

from .c_emitter import emit_c
from .py_emitter import compile_python, emit_python
from .vm import SharedMemoryVM, run_shared_memory_check

__all__ = [
    "emit_c",
    "emit_python",
    "compile_python",
    "SharedMemoryVM",
    "BatchedVM",
    "run_shared_memory_check",
]


def __getattr__(name):
    if name == "BatchedVM":
        from .batched_vm import BatchedVM

        return BatchedVM
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

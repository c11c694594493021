"""cc-compiled native kernel for the scheduler's hot core.

The chain DP (``dp_over_context`` — DPPO's EQ 2 and SDPPO's EQ 5,
including the episodic/persistent split for delayed graphs) is the
compile path's inner loop.  This package compiles it once with the
system C compiler into a small shared object, content-addressed in the
artifact cache (keyed by kernel source + compiler identity + cflags +
ABI), loads it via ctypes, and dispatches to it behind
``backend="auto"|"python"|"native"`` at the
``implement``/``CompilationSession`` level.

The contract is *bit-identity*: the native kernel produces exactly the
bytes the pure-Python oracle
(:func:`repro.scheduling.common.dp_over_context`) produces (same
first-minimum tie-breaks, same exact integer arithmetic, same
factoring decisions), pinned by the differential harness across the
acyclic and broadcast trial families and by a dedicated
``native_kernel`` fault-injection class.  When no compiler is
available (or ``$REPRO_NATIVE=0``) every entry point silently takes
the Python path — zero behavior change, counted as
``native.fallback`` via :mod:`repro.obs`.
"""

from .build import (
    CFLAGS,
    build_kernel,
    compiler_identity,
    find_compiler,
    kernel_key,
    native_enabled,
)
from .kernels import (
    BACKENDS,
    NativeKernels,
    get_kernels,
    kernel_fault,
    reset,
    resolve_backend,
)
from .source import KERNEL_ABI_VERSION, KERNEL_SOURCE

__all__ = [
    "BACKENDS",
    "CFLAGS",
    "KERNEL_ABI_VERSION",
    "KERNEL_SOURCE",
    "NativeKernels",
    "build_kernel",
    "compiler_identity",
    "find_compiler",
    "get_kernels",
    "kernel_fault",
    "kernel_key",
    "native_enabled",
    "reset",
    "resolve_backend",
]

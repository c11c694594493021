"""Shared helpers of the benchmark: statistics, child environments, records.

Every workload module builds on these.  Nothing here imports ``repro``:
the program is only ever imported by the processes that run it (or, for
reference results, after the run directory and environment are set up).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: The checkout root: the parent of this benchmark directory.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")

#: How many times each workload repeats its set-up; ``setup_s`` is the
#: median, so a single slow ``cc`` or disk flush does not move it.
SETUP_REPEATS = 3


def program_present() -> bool:
    """Whether the checkout holds the program the benchmark drives."""
    return os.path.isfile(os.path.join(SRC, "repro", "cli.py"))


def work_root() -> str:
    """Directory for everything a run writes, inside the checkout.

    ``$CARGO_TARGET_DIR`` names the build directory when it is set;
    ``.bench_build`` otherwise.
    """
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def fresh_dir(*parts: str) -> str:
    path = os.path.join(work_root(), *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def setup_dir(workload: str, rep: int) -> Tuple[str, Dict[str, str]]:
    """A fresh directory for one set-up repetition, and its child env.

    The artifact cache (``cache/``) starts empty, so the program builds
    its native kernel again inside the timed set-up.
    """
    base = fresh_dir(workload, f"setup{rep}")
    os.makedirs(os.path.join(base, "tmp"))
    return base, child_env(os.path.join(base, "cache"),
                           os.path.join(base, "tmp"))


def child_env(cache_dir: str, tmp_dir: str) -> Dict[str, str]:
    """Environment for program processes: no knobs, private cache/tmp.

    ``REPRO_JOBS`` and ``REPRO_NATIVE`` are removed so the program runs
    its defaults; ``TMPDIR`` keeps the kernel build's scratch files in
    the checkout.
    """
    env = dict(os.environ)
    for name in ("REPRO_JOBS", "REPRO_NATIVE", "REPRO_CC",
                 "REPRO_FULL_SCALE"):
        env.pop(name, None)
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE_DIR"] = cache_dir
    env["TMPDIR"] = tmp_dir
    return env


def use_env_in_process(env: Dict[str, str]) -> None:
    """Adopt ``env`` in this process (hosts that import the program)."""
    for name in ("REPRO_JOBS", "REPRO_NATIVE", "REPRO_CC",
                 "REPRO_FULL_SCALE"):
        os.environ.pop(name, None)
    os.environ["REPRO_CACHE_DIR"] = env["REPRO_CACHE_DIR"]
    os.environ["TMPDIR"] = env["TMPDIR"]
    import tempfile

    tempfile.tempdir = env["TMPDIR"]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def build_kernel_in_process(env: Dict[str, str]) -> str:
    """Adopt ``env`` here and let the program build and load its kernel.

    For the library hosts, which run the program in this process.
    Returns the backend in effect.
    """
    use_env_in_process(env)
    from repro import native

    native.reset()
    return native.resolve_backend("auto")[0]


def build_kernel_via_program(env: Dict[str, str]) -> str:
    """Let the program build its native kernel into ``env``'s cache.

    This is the program's own first-use path (``resolve_backend``), run
    in a child so the benchmark process never holds the kernel.  Returns
    the backend in effect (``native``, or ``python`` without a compiler).
    """
    code = ("from repro.native import resolve_backend; "
            "print(resolve_backend('auto')[0])")
    return subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, cwd=ROOT,
        timeout=300, capture_output=True, text=True,
    ).stdout.strip()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The nearest-rank percentile: the ceil(pct/100 * n)-th smallest."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int, cap: int = 99) -> int:
    """Highest whole percentile (at most ``cap``) with >= 10 samples beyond.

    Nearest rank ``k = ceil(p/100 * n)`` leaves ``n - k`` samples above
    it; the largest ``p`` with ``n - k >= 10`` is ``floor(100 (n-10)/n)``.
    Below 20 samples that would fall under the median, so the median
    (50) is returned: no tail can be resolved from so few samples.
    """
    if n < 20:
        return 50
    return min(cap, (100 * (n - 10)) // n)


def tail(values: Sequence[float], cap: int = 99) -> Tuple[int, float]:
    """(percentile, value); with no resolvable tail, the median itself."""
    pct = tail_percentile(len(values), cap)
    if pct == 50:
        return pct, median(values)
    return pct, nearest_rank(values, pct)


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
# On a shared host the CPU's speed drifts, by up to a factor of two over
# tens of seconds on a 2-vCPU x86-64 KVM guest, more than any bound could
# absorb.  Every run is held on one CPU, that CPU's speed is probed
# between operations with two fixed tasks of the benchmark's own, and
# each time is divided by the slowness read next to it, so metrics read
# as if measured at the reference speed.  The program is never probed,
# so a change to it moves the scaled times as much as the raw ones.

#: Seconds :func:`_speed_loop` and :func:`_reference_task` take at the
#: reference speed (typical of that guest).
REF_LOOP_S = 0.0015
REF_TASK_S = 0.0032

_REF_DOC = {
    "actors": [{"name": f"a{i}", "rate": i, "tags": ["x", "y"]}
               for i in range(40)],
    "edges": [[i, i + 1, 3, 4, 0] for i in range(40)],
}


def _speed_loop() -> int:
    """Interpreter arithmetic."""
    total = 0
    for i in range(20000):
        total += i * i
    return total


def _reference_task() -> None:
    """Allocation-heavy library work: JSON round trips and hashing."""
    for _ in range(20):
        text = json.dumps(_REF_DOC, sort_keys=True).encode()
        hashlib.sha256(text).hexdigest()
        json.loads(text)


def _timed(fn, loops: int) -> float:
    times = []
    for _ in range(loops):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def slowness() -> float:
    """How slowly this CPU runs now: 1.25 is 25% slower than reference.

    The geometric mean of both probes' time over its reference time.
    Against one operation repeated on one CPU for 80 s while the host
    drifted, log time over log slowness had slope 0.98 (r 0.88) for
    compiles and 0.85 (r 0.83) for a CLI run, but only 0.43 (r 0.63)
    for a ``run_check`` call.
    """
    loop = _timed(_speed_loop, 3) / REF_LOOP_S
    task = _timed(_reference_task, 3) / REF_TASK_S
    return math.sqrt(loop * task)


class Pace:
    """The slowness next to each operation: ``probe`` is read at most
    every ``every`` seconds, and the median of the last ``window``
    readings damps the probe's own noise while following a drift that
    takes seconds."""

    def __init__(self, every: float = 0.25, probe=slowness,
                 window: int = 5) -> None:
        self.every = every
        self.probe = probe
        self.window = window
        self.last = -math.inf
        self.readings: List[float] = []

    def now(self) -> float:
        if time.perf_counter() - self.last >= self.every:
            self.readings.append(self.probe())
            self.last = time.perf_counter()
        return median(self.readings[-self.window:])

    def scaled(self, wall: float, cpu: float) -> float:
        """``wall`` with only its ``cpu`` seconds scaled to reference
        speed: time spent waiting, with the CPU idle, does not depend
        on how fast the CPU runs."""
        cpu = min(cpu, wall)
        return wall - cpu + cpu / self.now()

    def note(self, **unscaled: float) -> str:
        """A note line with the unscaled figures and the median slowness."""
        figures = ", ".join(f"{k} {v:.4g}" for k, v in unscaled.items())
        return (f"unscaled: {figures}; median slowness "
                f"{median(self.readings):.3f} over {len(self.readings)} "
                f"probes")


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.

    The probe then reads the speed of the CPU the work runs on (the two
    vCPUs of a guest drift apart), and in ``serve_mixed`` a request
    passes between client, front end and worker by plain context
    switches rather than vCPU wake-ups, which varied with the host's
    load.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------
def children_peak_rss_mb() -> float:
    """Largest resident set of any waited-for descendant, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def fingerprint(native_backend: Optional[str] = None) -> Dict[str, object]:
    """The environment a result was measured in."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cc = shutil.which("cc")
    cc_id = None
    if cc is not None:
        try:
            banner = subprocess.run(
                [cc, "--version"], capture_output=True, text=True,
                timeout=30,
            ).stdout.splitlines()
            cc_id = banner[0] if banner else cc
        except (OSError, subprocess.TimeoutExpired):
            cc_id = cc
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cc": cc_id,
        "native_backend": native_backend,
        "machine": platform.machine(),
    }


def failures_summary(failures: List[str], limit: int = 20) -> List[str]:
    lines = [f"  FAILED: {f}" for f in failures[:limit]]
    if len(failures) > limit:
        lines.append(f"  ... and {len(failures) - limit} more")
    return lines


class Outcome:
    """What one workload run produced, before it is printed."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.attempted = 0
        self.failures: List[str] = []
        #: The failures that are wrong outputs (all but harness verdicts).
        self.wrong: List[str] = []
        self.notes: List[str] = []
        self.record: Dict[str, object] = {}

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def op(self, failure: Optional[str], label: str = "",
           wrong_output: bool = True) -> None:
        """Count one operation; ``failure`` is its gate's verdict.

        ``wrong_output=False`` marks a failure that is the program's own
        verdict on itself (a harness violation): it counts as failed but
        does not make the run's outputs incorrect.
        """
        self.attempted += 1
        if failure is not None:
            line = f"{label}: {failure}" if label else failure
            self.failures.append(line)
            if wrong_output:
                self.wrong.append(line)

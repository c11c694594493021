"""The compilation service core: cache in front of the pipeline.

:class:`CompileService` is the transport-independent heart of
``repro serve``: each compile-farm worker process
(:mod:`repro.serve.farm`) owns one.  The workers and the in-process
benchmarks call the same two methods:

* :meth:`CompileService.compile_document` — one graph document through
  the cache-then-compile flow, returning a
  :class:`~repro.serve.report.CompilationReport` plus a cache status
  (``"hit"``, ``"miss"``, or ``"disabled"``);
* :meth:`CompileService.compile_document_tiered` — the same flow but
  also reporting *which* tier answered (``"disk"`` or ``"compile"``);
  the farm workers use this to keep per-tier counters.

Repeated compiles of the same graph within one service process also
share a :class:`~repro.scheduling.session.CompilationSession` (a small
LRU keyed by the graph's canonical hash), so even cache-disabled
traffic reuses the per-graph precomputation.

The in-memory tier in front of the disk lives in the farm worker
(:mod:`repro.serve.farm`), which keeps the rendered response bytes.

With the cache disabled the flow degrades to exactly the pre-service
pipeline — same :func:`~repro.scheduling.pipeline.implement` call,
same outputs — which the equivalence tests pin bit-for-bit.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..lifetimes.periodic import DEFAULT_OCCURRENCE_CAP
from ..scheduling.pipeline import implement
from ..scheduling.session import CompilationSession
from ..sdf.io import canonical_hash, from_json
from .cache import ArtifactCache, cache_key
from .report import CompilationReport

__all__ = ["CompileOptions", "CompileService"]


@dataclass(frozen=True)
class CompileOptions:
    """The strategy knobs of one compile request.

    ``method``/``seed``/``use_chain_dp``/``occurrence_cap`` are exactly
    the :func:`~repro.scheduling.pipeline.implement` arguments that
    change the result; they form the cache key (:meth:`key_dict`).
    ``backend`` selects the kernel implementation — native kernels are
    bit-identical to the Python path by contract, so it is transported
    with the request (:meth:`as_dict`) but deliberately *excluded* from
    the key: a native compile and a Python compile of the same request
    share one cache entry instead of fragmenting the cache.

    ``vectorize``/``memory_budget`` run the blocking pass
    (:mod:`repro.scheduling.vectorize`).  Unlike ``backend`` they
    *change the artifact* (the blocked schedule carries different
    lifetimes and a different allocation), so they are part of the
    cache key: a vectorized compile and a plain compile of the same
    document must never share an entry.
    """

    method: str = "rpmc"
    seed: int = 0
    use_chain_dp: bool = True
    occurrence_cap: int = DEFAULT_OCCURRENCE_CAP
    backend: str = "auto"
    vectorize: bool = False
    memory_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.memory_budget is not None and not self.vectorize:
            raise ValueError("memory_budget requires vectorize")

    def as_dict(self) -> Dict[str, Any]:
        """The JSON-ready transport form (includes ``backend``)."""
        return {
            "method": self.method,
            "seed": self.seed,
            "use_chain_dp": self.use_chain_dp,
            "occurrence_cap": self.occurrence_cap,
            "backend": self.backend,
            "vectorize": self.vectorize,
            "memory_budget": self.memory_budget,
        }

    def key_dict(self) -> Dict[str, Any]:
        """The cache-key form: only the result-changing options.

        ``backend`` is omitted — all backends produce bit-identical
        reports, a contract pinned by the differential harness
        (``oracle.native``) and the fallback tests.
        ``vectorize``/``memory_budget`` stay in: they change the
        report's schedule, lifetimes and allocation.
        """
        data = self.as_dict()
        del data["backend"]
        return data

    @staticmethod
    def from_dict(data: Optional[Dict[str, Any]]) -> "CompileOptions":
        """Build options from a request's ``options`` object.

        Unknown keys raise ``ValueError`` (a typo'd option silently
        ignored would silently mis-key the cache), as does an unknown
        ``backend`` value or a ``memory_budget`` without ``vectorize``.
        """
        data = dict(data or {})
        known = {
            "method": str,
            "seed": int,
            "use_chain_dp": bool,
            "occurrence_cap": int,
            "backend": str,
            "vectorize": bool,
            "memory_budget": lambda v: None if v is None else int(v),
        }
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(f"unknown compile options: {unknown}")
        kwargs = {
            name: cast(data[name])
            for name, cast in known.items()
            if name in data
        }
        backend = kwargs.get("backend")
        if backend is not None and backend not in ("auto", "python", "native"):
            raise ValueError(f"unknown backend {backend!r}")
        budget = kwargs.get("memory_budget")
        if budget is not None and budget < 0:
            raise ValueError(f"memory_budget must be >= 0, got {budget}")
        return CompileOptions(**kwargs)


class CompileService:
    """Cache-fronted compilation over the existing pipeline.

    Parameters
    ----------
    cache:
        An :class:`~repro.serve.cache.ArtifactCache`, or ``None`` to
        disable caching entirely (every request recompiles).
    max_sessions:
        Size of the per-graph :class:`CompilationSession` LRU.
    """

    def __init__(
        self,
        cache: Optional[ArtifactCache] = None,
        max_sessions: int = 32,
    ) -> None:
        self.cache = cache
        self.max_sessions = max_sessions
        self._sessions: "OrderedDict[str, CompilationSession]" = OrderedDict()

    def lookup(self, key: str, recorder=None) -> Optional[CompilationReport]:
        """Probe the disk tier for ``key`` without a document.

        Returns the cached report, or ``None`` on a miss (the caller
        must then supply the document and compile).  Never counts a
        miss against the cache's ``misses`` counter — a probe is not a
        request outcome.
        """
        if self.cache is None:
            return None
        span = (
            recorder.span("cache.lookup", key=key[:12])
            if recorder is not None
            else None
        )
        if span is not None:
            with span:
                report = self.cache.get(key)
        else:
            report = self.cache.get(key)
        if report is None:
            # cache.get counted a miss; undo it — the compile path that
            # follows will account the miss exactly once.
            self.cache.misses -= 1
            return None
        if recorder is not None:
            recorder.count("serve.cache_hits")
        return report

    # -- session reuse --------------------------------------------------
    def _session_for(self, digest: str, graph) -> CompilationSession:
        session = self._sessions.get(digest)
        if session is None:
            session = CompilationSession(graph)
            self._sessions[digest] = session
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
        else:
            self._sessions.move_to_end(digest)
        return session

    # -- single compile -------------------------------------------------
    def compile_document(
        self,
        document: Dict[str, Any],
        options: Optional[CompileOptions] = None,
        use_cache: bool = True,
        recorder=None,
    ) -> Tuple[CompilationReport, str]:
        """One graph document through cache-then-compile.

        Returns ``(report, status)`` where ``status`` is ``"hit"``
        (served from the cache, bit-identical to the cold result),
        ``"miss"`` (compiled and stored), or ``"disabled"`` (compiled;
        no cache configured or ``use_cache=False``).  Malformed
        documents raise :class:`repro.exceptions.GraphStructureError`;
        unknown options raise ``ValueError`` — transport layers map
        both to 400-class responses.
        """
        report, status, _tier = self.compile_document_tiered(
            document, options, use_cache=use_cache, recorder=recorder
        )
        return report, status

    def compile_document_tiered(
        self,
        document: Dict[str, Any],
        options: Optional[CompileOptions] = None,
        use_cache: bool = True,
        recorder=None,
    ) -> Tuple[CompilationReport, str, str]:
        """Like :meth:`compile_document`, plus the answering tier.

        Returns ``(report, status, tier)`` where ``tier`` is ``"disk"``
        (on-disk artifact cache) or ``"compile"`` (ran the pipeline).
        Both produce bit-identical ``canonical()`` reports.
        """
        options = options or CompileOptions()
        caching = use_cache and self.cache is not None
        key = cache_key(document, options.key_dict()) if caching else ""
        start = time.perf_counter()
        if caching:
            report = self.lookup(key, recorder=recorder)
            if report is not None:
                report.wall_s = time.perf_counter() - start
                return report, "hit", "disk"
        graph = from_json(document)
        session = self._session_for(canonical_hash(document), graph)
        result = implement(
            graph,
            options.method,
            seed=options.seed,
            use_chain_dp=options.use_chain_dp,
            occurrence_cap=options.occurrence_cap,
            session=session,
            recorder=recorder,
            backend=options.backend,
            vectorize=options.vectorize,
            memory_budget=options.memory_budget,
        )
        report = CompilationReport.from_result(
            result, graph.name, key=key, seed=options.seed
        )
        status = "disabled"
        if caching:
            if recorder is not None:
                recorder.count("serve.cache_misses")
            self.cache.misses += 1  # lookup() deferred the accounting
            self.cache.put(key, report)
            status = "miss"
        report.wall_s = time.perf_counter() - start
        return report, status, "compile"

"""Compilation as a service: content-addressed caching over the pipeline.

The one-shot CLI (``repro compile``) reruns the full
schedule/allocation flow on every invocation.  This package turns the
same :func:`~repro.scheduling.pipeline.implement` machinery into a
long-running, cache-fronted service:

:mod:`repro.serve.cache`
    :class:`ArtifactCache` — the report kind of the leaf
    :class:`repro.store.Store`: :class:`CompilationReport` payloads
    keyed by :func:`~repro.serve.cache.cache_key` (SHA-256 of the
    canonical graph document + strategy options + package version).
    Atomic writes, hash-verified reads, corrupt entries evicted and
    recomputed rather than served.  ``repro cache {stats,gc,clear}``.

:mod:`repro.serve.report`
    :class:`CompilationReport` — the plain-data projection of an
    ``ImplementationResult`` that travels over HTTP and into the
    cache, with a :meth:`~CompilationReport.canonical` form for
    bit-identity comparisons.

:mod:`repro.serve.service`
    :class:`CompileService` — transport-independent cache-then-compile
    core with a per-graph :class:`CompilationSession` LRU and an
    optional in-memory report tier; every farm worker owns one.

:mod:`repro.serve.farm`
    :class:`WorkerFarm` — a supervised pool of compile worker
    *processes*, sharded by graph content digest with rendezvous
    hashing (:func:`~repro.serve.farm.rendezvous_shard`) so each
    worker's session LRU and in-memory report tier stay hot.  Crashed
    workers are respawned; their in-flight request fails with a
    one-line 503 rather than hanging.

:mod:`repro.serve.server`
    :class:`CompileServer` — the ``repro serve`` JSON-over-HTTP
    front end (stdlib ``http.server``) over the compile farm:
    digest-sharded ``/compile`` and ``/batch``, live ``/resize``,
    single-flight coalescing of identical concurrent requests,
    bounded queue with 429 backpressure, per-request timeouts,
    latency percentiles on ``/stats``, graceful SIGTERM drain,
    per-request ``repro.obs`` spans (including farm-worker subtrees)
    exported through the Chrome-trace path.

:mod:`repro.serve.client`
    ``repro submit`` — submit one or many graphs to a running server
    and print/save the reports.

Quickstart::

    $ repro serve --port 8177 &          # a 1-worker compile farm
    $ repro submit cddat                 # cold: compiles, fills cache
    $ repro submit cddat                 # warm: served from cache,
                                         # bit-identical, >=10x faster

The package re-exports nothing: import each name from the submodule
that defines it, so that loading one part (say, the cache for
``repro cache``) never drags in the HTTP server, the client or the
farm's ``multiprocessing``.

The cache can be disabled end to end (``repro serve --no-cache``,
``repro submit --no-cache``, ``CompileServer(cache=None)``), in which
case the service's outputs are bit-identical to the direct pipeline.
"""

"""Content-addressed artifact cache for compilation results.

The compile flow is a pure function of ``(graph document, strategy
options, package version)``, so its result is addressed by content:
:func:`cache_key` hashes the canonical JSON of that triple (SHA-256),
and :class:`ArtifactCache` stores
:class:`~repro.serve.report.CompilationReport` payloads under it.

Layout, atomic writes, digest-verified reads and ``stats``/``clear``
belong to the leaf :class:`repro.store.Store`, which also holds the
native kernels.  This module adds what is specific to reports: the
key, the entry payload (the report's canonical form plus its digest,
re-checked on every :meth:`ArtifactCache.get`) and expiry
(:meth:`ArtifactCache.gc`).  A corrupt entry is *never served*;
``repro check --inject`` plants exactly this fault (the
``cache_corrupt`` mutation class) and asserts it stays caught.
Maintenance is exposed as ``repro cache {stats,gc,clear}``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from .. import __version__
from ..store import Store, write_record
from .report import CompilationReport

__all__ = ["ArtifactCache", "cache_key"]


def cache_key(
    document: Dict[str, Any],
    options: Optional[Dict[str, Any]] = None,
    version: str = __version__,
) -> str:
    """The content address of one compilation.

    SHA-256 over the canonical JSON of ``{graph, options, version}``:
    object keys sorted at every level, fixed separators.  Key order in
    the input JSON therefore cannot change the address, while any
    semantic change — a rate, a delay, a different method or seed, a
    new package version — produces a fresh key (stale results can
    never be served across releases).
    """
    payload = {
        "graph": document,
        "options": dict(options or {}),
        "version": version,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ArtifactCache(Store):
    """A :class:`~repro.store.Store` of hash-verified compilation reports.

    ``repro serve`` exposes the session counters (``hits``, ``misses``,
    ``writes``, ``evictions``) on its ``/stats`` endpoint.
    """

    def get(self, key: str) -> Optional[CompilationReport]:
        """The stored report for ``key``, or ``None``.

        Verifies the entry's recorded key and report digest before
        returning; any mismatch (or unreadable/unparseable entry)
        evicts the entry and counts as a miss — corruption is repaired
        by recomputation, never served.
        """

        def decode(entry: Dict[str, Any]) -> Tuple[CompilationReport, str]:
            report = CompilationReport.from_json(entry["report"])
            return report, report.digest()

        report = self._read(key, self.path_for(key), decode, self.evict)
        if report is not None:
            report.key = key
            report.cached = True
        return report

    def put(self, key: str, report: CompilationReport) -> str:
        """Store ``report`` under ``key`` atomically; returns the path.

        The entry records the canonical payload (volatile fields
        normalized away) plus its digest.
        """
        path = self.path_for(key)
        write_record(
            path, key, report.digest(),
            report=json.loads(report.canonical()),
        )
        self.writes += 1
        return path

    def evict(self, key: str) -> bool:
        """Remove entry ``key`` if present; True when a file was removed."""
        return self._remove(self.path_for(key))

    # -- expiry ---------------------------------------------------------
    def _remove_if_unchanged(self, path: str, seen_mtime_ns: int) -> bool:
        """Unlink ``path`` only if it still holds the entry we scanned.

        The scan-to-unlink window races concurrent writers two ways:
        the entry may vanish (another gc, an eviction), or it may be
        *rewritten* — ``os.replace`` swaps in a fresh file that no
        longer deserves expiry.  Re-stat first and skip when the
        mtime moved; give up (don't count) when the file is already
        gone.  A writer replacing the file in the remaining stat-to-
        unlink instant loses nothing either: its ``os.replace`` wins
        or the next ``get`` simply misses and recompiles — a removed
        entry is always safe, only *miscounting* or deleting fresh
        work is not.
        """
        try:
            if os.stat(path).st_mtime_ns != seen_mtime_ns:
                return False  # rewritten since the scan: now fresh
            os.unlink(path)
        except OSError:
            return False  # someone else removed it; don't count twice
        return True

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_age_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> int:
        """Expire entries; returns the number removed.

        ``max_age_s`` removes entries older than that many seconds
        (by mtime, i.e. last write); ``max_entries`` then keeps only
        the newest N.  With neither bound this is a no-op.  Safe to
        run concurrently with writers and with other ``gc`` calls:
        in-progress tempfiles are never candidates (only ``*.json``
        entries are scanned), an entry rewritten after the scan is
        left alone, and an entry already removed by a racing gc is
        not double-counted.
        """
        if now is None:
            now = time.time()
        removed = 0
        by_age: List[Tuple[int, str]] = []
        for path in self._entries():
            try:
                by_age.append((os.stat(path).st_mtime_ns, path))
            except OSError:
                continue  # vanished between scan and stat
        by_age.sort()
        if max_age_s is not None:
            fresh = []
            for mtime_ns, path in by_age:
                if now - mtime_ns / 1e9 > max_age_s:
                    if self._remove_if_unchanged(path, mtime_ns):
                        removed += 1
                else:
                    fresh.append((mtime_ns, path))
            by_age = fresh
        if max_entries is not None and len(by_age) > max_entries:
            excess = len(by_age) - max_entries
            for mtime_ns, path in by_age[:excess]:
                if self._remove_if_unchanged(path, mtime_ns):
                    removed += 1
        self.evictions += removed
        return removed

"""Content-addressed on-disk store shared by the compiler and the service.

A leaf module (standard library only), so :mod:`repro.native.build`
and :mod:`repro.serve.cache` share one store without the compiler
loading the service stack.  Two kinds of entry live under one root,
``$REPRO_CACHE_DIR`` or ``~/.cache/repro``:

* **reports** — ``<root>/<key[:2]>/<key>.json``, the JSON record
  ``{digest, key, report}`` whose payload belongs to
  :class:`repro.serve.cache.ArtifactCache`;
* **kernels** — ``<root>/kernels/<key>.so``, a native kernel binary,
  plus the sidecar record ``<key>.so.json``, ``{bytes, digest, key}``.

A store may be slow, cold, or missing — it must never be *wrong*.
Every write goes through :func:`atomic_write` (a temporary file
``os.replace``-d into place, so no reader sees half an entry), and
every read through :meth:`Store._read`, which recomputes the payload's
SHA-256 and checks it and the key against the record; an unreadable,
mis-keyed or mismatched entry is evicted and misses, never served.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Store", "atomic_write", "default_cache_dir", "write_record"]

_ENTRY_SUFFIX = ".json"
_KERNEL_DIRNAME = "kernels"
_KERNEL_SUFFIX = ".so"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, or ``~/.cache/repro`` when unset."""
    env = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def atomic_write(path: str, data: bytes, mode: Optional[int] = None) -> None:
    """Write ``data`` to ``path`` so readers only ever see whole files.

    The bytes go to a temporary file in the target directory (created
    if needed), which is then ``os.replace``-d over ``path``.  On any
    failure the temporary file is removed and the error re-raised.
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        _unlink(tmp)
        raise


def write_record(path: str, key: str, digest: str, **fields: Any) -> None:
    """Atomically store the JSON record ``{key, digest, **fields}``.

    Keys sorted, default separators: existing caches hold records in
    exactly these bytes, so the layout must not change.
    """
    record = dict(fields, key=key, digest=digest)
    atomic_write(path, json.dumps(record, sort_keys=True).encode("utf-8"))


def _unlink(path: str) -> bool:
    """Remove ``path``; False when it is already gone or cannot go."""
    try:
        os.unlink(path)
    except OSError:
        return False
    return True


def _size(path: str) -> Optional[int]:
    """Size of ``path``, or ``None`` when it vanished mid-scan."""
    try:
        return os.path.getsize(path)
    except OSError:
        return None


def _listing(directory: str, suffix: str) -> List[str]:
    """Sorted paths of the files in ``directory`` ending in ``suffix``."""
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return []  # absent, or not a directory
    return [os.path.join(directory, n) for n in names if n.endswith(suffix)]


class Store:
    """A directory of content-addressed, digest-verified entries.

    Parameters
    ----------
    root:
        Store directory (created lazily on first write).  Defaults to
        :func:`default_cache_dir`.

    The instance keeps session counters (``hits``, ``misses``,
    ``writes``, ``evictions``) across both kinds; on-disk figures
    (entry count, bytes) are computed by :meth:`stats` on demand.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0

    # -- addressing -----------------------------------------------------
    def path_for(self, key: str) -> str:
        """Where report ``key`` lives (two-level fan-out by key prefix)."""
        return os.path.join(self.root, key[:2], key + _ENTRY_SUFFIX)

    def kernel_path_for(self, key: str) -> str:
        """Where the compiled kernel for ``key`` lives."""
        return os.path.join(self.root, _KERNEL_DIRNAME, key + _KERNEL_SUFFIX)

    def _entries(self) -> List[str]:
        """Paths of stored reports."""
        return [
            path
            for sub in _listing(self.root, "")
            if os.path.basename(sub) != _KERNEL_DIRNAME
            for path in _listing(sub, _ENTRY_SUFFIX)
        ]

    def _kernel_entries(self) -> List[str]:
        """Paths of stored kernel binaries (``.so`` files only)."""
        kernel_dir = os.path.join(self.root, _KERNEL_DIRNAME)
        return _listing(kernel_dir, _KERNEL_SUFFIX)

    # -- the one verified read ------------------------------------------
    def _read(
        self,
        key: str,
        record_path: str,
        decode: Callable[[Dict[str, Any]], Tuple[Any, str]],
        evict: Callable[[str], bool],
    ) -> Any:
        """The verified value stored under ``key``, or ``None``.

        ``decode`` maps the parsed record to ``(value, digest)``, the
        digest recomputed from the stored payload.  A missing record is
        a plain miss; an unreadable, unparseable, mis-keyed or
        digest-mismatched one is evicted (``evict(key)``) and misses.
        """
        try:
            with open(record_path, encoding="utf-8") as handle:
                record = json.load(handle)
            value, digest = decode(record)
            if record["key"] != key or record["digest"] != digest:
                raise ValueError("store entry failed verification")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            evict(key)
            self.misses += 1
            return None
        self.hits += 1
        return value

    def _remove(self, *paths: str) -> bool:
        """Unlink ``paths``; one eviction when any of them existed."""
        removed = [_unlink(path) for path in paths]
        if any(removed):
            self.evictions += 1
        return any(removed)

    # -- kernel binaries ------------------------------------------------
    def get_kernel(self, key: str) -> Optional[str]:
        """Path of a digest-verified kernel binary, or ``None``.

        The sidecar records the binary's SHA-256; a missing sidecar is
        a miss, and a wrong key or digest evicts the pair — a corrupt
        kernel is rebuilt, never ``dlopen``-ed.
        """
        path = self.kernel_path_for(key)

        def decode(record: Dict[str, Any]) -> Tuple[str, str]:
            with open(path, "rb") as handle:
                return path, hashlib.sha256(handle.read()).hexdigest()

        return self._read(key, path + _ENTRY_SUFFIX, decode, self.evict_kernel)

    def put_kernel(self, key: str, data: bytes) -> str:
        """Store a kernel binary atomically; returns its path.

        The binary lands first, the sidecar (whose presence makes the
        entry valid) second — a crash between the two reads as a miss.
        """
        path = self.kernel_path_for(key)
        atomic_write(path, data, mode=0o755)
        write_record(
            path + _ENTRY_SUFFIX, key, hashlib.sha256(data).hexdigest(),
            bytes=len(data),
        )
        self.writes += 1
        return path

    def evict_kernel(self, key: str) -> bool:
        """Remove a kernel binary and its sidecar if present."""
        path = self.kernel_path_for(key)
        return self._remove(path, path + _ENTRY_SUFFIX)

    # -- maintenance ----------------------------------------------------
    def _kinds(self) -> List[Tuple[str, List[str], Optional[str]]]:
        """``(kind, entry paths, sidecar suffix)`` for each kind."""
        return [
            ("reports", self._entries(), None),
            ("kernels", self._kernel_entries(), _ENTRY_SUFFIX),
        ]

    def stats(self) -> Dict[str, Any]:
        """On-disk entry count/bytes plus this instance's counters.

        ``entries``/``bytes`` cover the report kind (their meaning
        before kernels were stored); ``kinds`` breaks the figures out
        per kind, kernel bytes including the sidecars.  An entry that
        vanishes between the scan and its ``stat`` (a concurrent gc or
        evict) drops out of the figures instead of raising.
        """
        kinds = {}
        for kind, paths, sidecar in self._kinds():
            count = 0
            total = 0
            for path in paths:
                size = _size(path)
                if size is None:
                    continue
                if sidecar is not None:
                    # A missing sidecar adds nothing: the entry misses.
                    size += _size(path + sidecar) or 0
                count += 1
                total += size
            kinds[kind] = {"entries": count, "bytes": total}
        return {
            "root": self.root,
            "entries": kinds["reports"]["entries"],
            "bytes": kinds["reports"]["bytes"],
            "kinds": kinds,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
        }

    def clear(self) -> int:
        """Remove every entry of both kinds; returns the number removed.

        Entries vanishing underneath it are skipped; a kernel counts
        once, its sidecar going with it.
        """
        removed = 0
        for _kind, paths, sidecar in self._kinds():
            for path in paths:
                if _unlink(path):
                    removed += 1
                    if sidecar is not None:
                        _unlink(path + sidecar)
        self.evictions += removed
        return removed

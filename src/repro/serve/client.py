"""Batch client for a running ``repro serve`` instance (stdlib only).

``repro submit`` is a thin ``urllib`` wrapper over the server's JSON
endpoints: it resolves each argument to a graph document (built-in
system name or ``.json`` file), posts one ``/compile`` request per
graph (or a single ``/batch`` request), and prints or saves the
returned :class:`~repro.serve.report.CompilationReport`s.  Transport
failures raise :class:`ServeClientError` with the server's one-line
``error`` message when it sent one, so CLI users see the 429/503/504
reason rather than a traceback.

Backpressure is cooperative: a loaded (429) or momentarily degraded
(503, e.g. a farm worker being respawned) server is asking the client
to come back, not to give up.  With ``retries > 0`` the client obeys:
it sleeps for the server's ``Retry-After`` header when present (else
exponential backoff), jittered to avoid retry stampedes and capped at
:data:`RETRY_CAP_S`, then resubmits — up to ``retries`` extra
attempts.  The default stays 0 (fail fast, the pre-farm behavior).
"""

from __future__ import annotations

import email.utils
import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple, Union

from .report import CompilationReport
from . import DEFAULT_PORT

__all__ = [
    "DEFAULT_URL",
    "RETRY_CAP_S",
    "RETRY_STATUSES",
    "BatchItemError",
    "ServeClientError",
    "compile_remote",
    "compile_batch_remote",
    "get_json",
    "resize_remote",
]

DEFAULT_URL = f"http://127.0.0.1:{DEFAULT_PORT}"

#: Statuses worth retrying: the server said "busy" (429) or "briefly
#: degraded" (503).  400s are the request's fault and 504 means the
#: compile itself is slow — retrying either wastes a server slot.
RETRY_STATUSES = (429, 503)

#: Upper bound on any single retry sleep, whatever Retry-After says.
RETRY_CAP_S = 8.0

#: First backoff step when the server sent no Retry-After header.
RETRY_BASE_S = 0.25

# Test seams: the retry tests replace these to run instantly and
# deterministically without patching the stdlib.
_sleep = time.sleep
_jitter = random.random


class BatchItemError:
    """One failed item of a ``/batch`` response.

    The server isolates item failures — a malformed document or a
    worker crash costs that item an error entry, not the whole batch —
    and :func:`compile_batch_remote` surfaces each as a
    ``(BatchItemError, "error")`` pair in its slot, preserving request
    order alongside the successful reports.
    """

    __slots__ = ("message", "code")

    def __init__(self, message: str, code: int = 500) -> None:
        self.message = message
        self.code = code

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BatchItemError(code={self.code}, message={self.message!r})"


class ServeClientError(RuntimeError):
    """A request the server refused or could not complete.

    ``status`` carries the HTTP status code (0 when the server was
    unreachable); the message is the server's ``error`` string when
    available.  ``retry_after`` is the parsed ``Retry-After`` header
    in seconds when the server sent one.
    """

    def __init__(
        self, message: str, status: int = 0,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def _parse_retry_after(header: Optional[str]) -> Optional[float]:
    """``Retry-After`` in seconds, or ``None`` when unusable.

    RFC 9110 allows two forms: delta-seconds (``"2"``) and an
    HTTP-date (``"Wed, 21 Oct 2026 07:28:00 GMT"``).  Both parse to a
    non-negative sleep; anything else — empty, garbage, a date with no
    timezone — returns ``None`` so the retry loop falls back to
    exponential backoff instead of raising mid-retry.
    """
    if header is None:
        return None
    header = header.strip()
    try:
        return max(0.0, float(header))
    except (TypeError, ValueError):
        pass
    try:
        when = email.utils.parsedate_to_datetime(header)
    except (TypeError, ValueError, OverflowError):
        return None
    if when is None or when.tzinfo is None:
        return None
    now = email.utils.parsedate_to_datetime(
        email.utils.formatdate(time.time(), usegmt=True)
    )
    return max(0.0, (when - now).total_seconds())


def _post(
    url: str, path: str, payload: Dict[str, Any],
    timeout: Optional[float] = None,
) -> Dict[str, Any]:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url.rstrip("/") + path,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        detail = ""
        try:
            detail = json.loads(exc.read().decode("utf-8")).get("error", "")
        except (ValueError, OSError):
            pass
        retry_after = _parse_retry_after(
            exc.headers.get("Retry-After") if exc.headers else None
        )
        raise ServeClientError(
            detail or f"server returned HTTP {exc.code}",
            status=exc.code, retry_after=retry_after,
        ) from None
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        raise ServeClientError(
            f"cannot reach compile server at {url}: "
            f"{getattr(exc, 'reason', exc)}"
        ) from None


def _post_retrying(
    url: str, path: str, payload: Dict[str, Any],
    timeout: Optional[float] = None, retries: int = 0,
) -> Dict[str, Any]:
    """:func:`_post`, resubmitting on 429/503 up to ``retries`` times.

    Sleep per attempt: the server's ``Retry-After`` when sent, else
    ``RETRY_BASE_S * 2**attempt``; capped at :data:`RETRY_CAP_S`, then
    scaled by a 50–100% jitter factor so a burst of rejected clients
    does not return in lockstep.  The final failure is re-raised
    unchanged.
    """
    attempt = 0
    while True:
        try:
            return _post(url, path, payload, timeout=timeout)
        except ServeClientError as exc:
            if attempt >= retries or exc.status not in RETRY_STATUSES:
                raise
            delay = (
                exc.retry_after
                if exc.retry_after is not None
                else RETRY_BASE_S * (2 ** attempt)
            )
            delay = min(delay, RETRY_CAP_S) * (0.5 + 0.5 * _jitter())
            if delay > 0:
                _sleep(delay)
            attempt += 1


def get_json(
    url: str, path: str, timeout: Optional[float] = None
) -> Dict[str, Any]:
    """GET a JSON endpoint (``/healthz``, ``/stats``)."""
    try:
        with urllib.request.urlopen(
            url.rstrip("/") + path, timeout=timeout
        ) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            return json.loads(exc.read().decode("utf-8"))
        except (ValueError, OSError):
            raise ServeClientError(
                f"server returned HTTP {exc.code}", status=exc.code
            ) from None
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        raise ServeClientError(
            f"cannot reach compile server at {url}: "
            f"{getattr(exc, 'reason', exc)}"
        ) from None


def compile_remote(
    document: Dict[str, Any],
    url: str = DEFAULT_URL,
    options: Optional[Dict[str, Any]] = None,
    use_cache: bool = True,
    timeout: Optional[float] = None,
    retries: int = 0,
) -> Tuple[CompilationReport, str]:
    """Submit one graph document; returns ``(report, cache_status)``.

    ``retries`` extra attempts are made on 429/503, honoring the
    server's ``Retry-After`` (see :func:`_post_retrying`).
    """
    payload = {
        "graph": document,
        "options": dict(options or {}),
        "cache": use_cache,
    }
    response = _post_retrying(
        url, "/compile", payload, timeout=timeout, retries=retries
    )
    return (
        CompilationReport.from_json(response["report"]),
        response["status"],
    )


def compile_batch_remote(
    documents: List[Dict[str, Any]],
    url: str = DEFAULT_URL,
    options: Optional[Dict[str, Any]] = None,
    use_cache: bool = True,
    timeout: Optional[float] = None,
    retries: int = 0,
) -> List[Tuple[Union[CompilationReport, BatchItemError], str]]:
    """Submit many documents in one ``/batch`` request, request order.

    ``retries`` behaves as in :func:`compile_remote`; a whole-batch
    429/503 is retried as a unit (the server processes batches
    atomically, so no duplicate partial work results).  Failed items
    come back as ``(BatchItemError, "error")`` in their slot — the
    server isolates per-item failures rather than failing the batch.
    """
    payload: Dict[str, Any] = {
        "graphs": list(documents),
        "options": dict(options or {}),
        "cache": use_cache,
    }
    response = _post_retrying(
        url, "/batch", payload, timeout=timeout, retries=retries
    )
    results: List[Tuple[Union[CompilationReport, BatchItemError], str]] = []
    for item in response["responses"]:
        if item.get("status") == "error" or "report" not in item:
            results.append((
                BatchItemError(
                    str(item.get("error", "unknown batch item failure")),
                    code=int(item.get("code", 500)),
                ),
                "error",
            ))
        else:
            results.append((
                CompilationReport.from_json(item["report"]),
                item["status"],
            ))
    return results


def resize_remote(
    workers: int,
    url: str = DEFAULT_URL,
    timeout: Optional[float] = None,
) -> Dict[str, Any]:
    """``POST /resize`` — live-resize the server's compile farm.

    Returns the post-resize farm description (``previous``, ``size``,
    ``added``, ``removed``, alive/restart figures).  A size below 1
    is refused with a 400, surfaced as :class:`ServeClientError`.
    """
    return _post(
        url, "/resize", {"workers": int(workers)}, timeout=timeout
    )

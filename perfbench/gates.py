"""Output gates: one verdict per benchmark operation.

Each gate returns ``None`` when the program's output is right and a
one-line reason otherwise.  A wrong output counts as a failed
operation and makes the benchmark exit nonzero.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional, Sequence

_SHARED = re.compile(r"^shared:\s+(\d+) words", re.M)
_NONSHARED = re.compile(r"^non-shared:\s+(\d+) words", re.M)
_CHECK_OK = re.compile(r"^execution check: OK \((\d+) firings", re.M)


def cli_gate(returncode: int, stdout: str, expected_shared: int,
             checked: bool) -> Optional[str]:
    """``repro compile``: exit 0, the in-process ``shared:`` words, and
    a passing execution check when ``--check`` was given."""
    if returncode != 0:
        return f"exit status {returncode}"
    found = _SHARED.search(stdout)
    if found is None:
        return "no 'shared:' line in the output"
    if int(found.group(1)) != expected_shared:
        return (f"shared {found.group(1)} words, in-process implement "
                f"gives {expected_shared}")
    if checked and _CHECK_OK.search(stdout) is None:
        return "--check did not report 'execution check: OK'"
    return None


def cli_shared_words(stdout: str) -> int:
    return int(_SHARED.search(stdout).group(1))


def allocation_gate(buffers: Sequence[Any], allocation: Any,
                    occurrence_cap: Optional[int] = None) -> Optional[str]:
    """Definition 5: no two live buffers share a word."""
    from repro.allocation.verify import verify_allocation
    from repro.exceptions import AllocationError

    kwargs = {} if occurrence_cap is None else {
        "occurrence_cap": occurrence_cap}
    try:
        verify_allocation(list(buffers), allocation, **kwargs)
    except AllocationError as exc:
        return f"allocation check failed: {exc}"
    return None


def report_digest(report_json: Dict[str, Any]) -> str:
    from repro.serve.report import CompilationReport

    return CompilationReport.from_json(report_json).digest()


def served_gate(body: bytes, expected_digest: str) -> Optional[str]:
    """``/compile``: the served report is the direct ``implement()`` one."""
    try:
        payload = json.loads(body)
        digest = report_digest(payload["report"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable /compile response: {exc!r}"
    if digest != expected_digest:
        return "served report differs from the implement() reference"
    return None


def batch_gate(body: bytes, expected: List[str]) -> Optional[str]:
    """``/batch``: every item's report is its reference, in order."""
    try:
        items = json.loads(body)["responses"]
        digests = [report_digest(item["report"]) for item in items]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable /batch response: {exc!r}"
    if digests != expected:
        bad = sum(1 for a, b in zip(digests, expected) if a != b)
        bad += abs(len(digests) - len(expected))
        return f"{bad} /batch item(s) differ from their references"
    return None

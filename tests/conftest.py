"""Shared test fixtures.

``repro.cli`` deliberately exports ``--jobs`` to ``REPRO_JOBS`` for the
rest of the process (so nested ``parallel_map`` calls see it).  Inside
the test suite that export must not leak across tests —
``monkeypatch.delenv(..., raising=False)`` on an *unset* variable
records nothing to undo, so a CLI test that passes ``--jobs 2`` would
silently flip every later test into parallel mode.
"""

import os

import pytest


@pytest.fixture(autouse=True)
def _isolate_repro_jobs():
    before = os.environ.get("REPRO_JOBS")
    yield
    if before is None:
        os.environ.pop("REPRO_JOBS", None)
    else:
        os.environ["REPRO_JOBS"] = before

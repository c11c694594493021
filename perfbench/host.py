"""Child process hosting a library workload (``compile_sweep``,
``check_harness``).

Usage::

    python perfbench/host.py WORKLOAD SEED SECONDS TRACE OUT_JSON

Running the library in a child keeps the program's resident set apart
from the benchmark's own, so ``peak_rss_mb`` reads the same way for
every workload.  The outcome is written to ``OUT_JSON``.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def main() -> int:
    workload, seed, seconds, trace, out_path = sys.argv[1:6]
    sys.path.insert(0, common.SRC)
    if workload == "compile_sweep":
        import compile_sweep as module
    elif workload == "check_harness":
        import check_harness as module
    else:
        raise SystemExit(f"host: unknown workload {workload!r}")
    outcome = module.run(int(seed), float(seconds), trace == "1")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(outcome.__dict__, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

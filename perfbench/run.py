"""The repository benchmark: one command, four workloads.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload cli_oneshot --seed 1 --seconds 12 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` is the separate traced run that prints the per-layer
metrics.  Human-readable lines (seed, environment fingerprint, notes,
any failed operation) come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record is also written under the run directory
(``.bench_build/perfbench/results``).  Exit status is 0 when every
output the benchmark checks is correct.  ``METRICS.md`` defines every
metric.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("cli_oneshot", "compile_sweep", "serve_mixed", "check_harness")

#: End-to-end metrics, printed by every ``--trace 0`` run, in this order.
END_TO_END = ("setup_s", "peak_rss_mb", "ok_share", "op_p50_ms",
              "op_tail_ms", "ops_per_s", "work_per_s", "pool_ratio")


def _run_in_host(workload: str, seed: int, seconds: float,
                 trace: bool) -> common.Outcome:
    out_path = os.path.join(common.fresh_dir(workload, "host"), "out.json")
    subprocess.run(
        [sys.executable, os.path.join(common.BENCH_DIR, "host.py"),
         workload, str(seed), str(seconds), "1" if trace else "0", out_path],
        cwd=common.ROOT, check=True, timeout=900)
    outcome = common.Outcome()
    with open(out_path, encoding="utf-8") as handle:
        outcome.__dict__.update(json.load(handle))
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.program_present():
        print(f"perfbench: no program under {common.SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    common.one_cpu()
    trace = bool(args.trace)
    if args.workload in ("compile_sweep", "check_harness"):
        outcome = _run_in_host(args.workload, args.seed, args.seconds, trace)
    elif args.workload == "cli_oneshot":
        import cli_oneshot

        outcome = cli_oneshot.run(args.seed, args.seconds, trace)
    else:
        import serve_mixed

        outcome = serve_mixed.run(args.seed, args.seconds, trace)

    outcome.add("peak_rss_mb", common.children_peak_rss_mb(), "MB")
    failed = len(outcome.failures)
    outcome.add("ok_share", 1.0 - failed / outcome.attempted, "ratio")
    wrong = outcome.wrong
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": common.fingerprint(
            outcome.record.get("native_backend")),
        "attempted": outcome.attempted, "failed": failed,
        "failures": outcome.failures, "notes": outcome.notes,
        "end_to_end": {k: outcome.metrics[k] for k in END_TO_END
                       if k in outcome.metrics},
    }
    if trace:
        import layers

        metrics = layers.complete(outcome.record["per_layer"])
        record["per_layer"] = metrics
    else:
        metrics = {k: outcome.metrics[k] for k in END_TO_END}
    results = os.path.join(common.work_root(), "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g}s, trace {args.trace}")
    print("fingerprint: " + json.dumps(record["fingerprint"]))
    for note in outcome.notes:
        print(note)
    for line in common.failures_summary(outcome.failures):
        print(line)
    for key, entry in metrics.items():
        print(f"  {key:32s} {entry['value']:14.4f} {entry['unit']}")
    print(json.dumps({
        "correct": not wrong, "attempted": outcome.attempted,
        "failed": failed, "metrics": metrics,
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())

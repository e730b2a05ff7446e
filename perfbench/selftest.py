"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seed N]

Checks, for every workload, that one seed always yields the same inputs and
that the traced counts are exact: a traced pass over the inputs and a traced
run of two passes, each with fresh inputs from the same seed, must give
identical calls_per_op values and the same attempted and failed counts.
Also checks that BENCHMARK.json names the workloads and per-layer metrics
the benchmark produces.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import pickle
import sys

import run


def _traced_counts(wl_cls, seed: int, passes: int) -> dict[str, float]:
    import tracing

    workload = wl_cls()
    ops = workload.generate(seed)
    tracer, tally = tracing.Tracer(), run.Tally()
    with tracing.Patched(tracer):
        for _ in range(passes):
            run._run_ops(workload, ops, tracer.op(workload.call), tally, until=0.0)
    counts = {k: v for k, v in tracing.layer_metrics(tracer).items()
              if k.endswith(".calls_per_op")}
    counts["attempted"], counts["failed"] = tally.total, tally.failed
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    run._import_library()
    import tracing
    import workloads

    problems = []
    spec = run._load_spec()
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    produced = set(tracing.layer_metrics(tracing.Tracer())) | {"trace_overhead_frac"}
    for m in spec["per_layer"]:
        if m["name"] not in produced:
            problems.append(f"per-layer metric {m['name']} is not produced")

    for name, wl_cls in workloads.WORKLOADS.items():
        # Pickles compare the numpy arguments bit for bit.
        if (pickle.dumps(wl_cls().generate(args.seed))
                != pickle.dumps(wl_cls().generate(args.seed))):
            problems.append(f"{name}: seed {args.seed} gave different inputs")
        one = _traced_counts(wl_cls, args.seed, 1)
        two = _traced_counts(wl_cls, args.seed, 2)
        diff = sorted(k for k in one if one[k] != two[k])
        print(f"{name}: {len(one) - 2} calls_per_op values, "
              f"{one['failed']} of {one['attempted']} inputs failed, "
              + ("identical" if not diff else f"differ in {', '.join(diff)}"))
        if diff:
            problems.append(f"{name}: traced counts differ between runs")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Layered benchmark for sl2geo.

    python3 perfbench/run.py --workload solve_mixed --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory, and the run fails if that directory is missing.  One
single-threaded client drives the library in a closed loop: each operation
is sent only after the previous one returned.  All inputs are generated from
the seed before timing starts, every answer is checked against its
forward-generated truth (workloads.py, oracle.py) outside the timed region
(``attempted`` and ``failed`` count inputs, see Tally), and the last line
of standard output is one JSON object with the metrics that BENCHMARK.json
names.

--trace 0 measures the end-to-end metrics over whole passes through the
inputs.  --trace 1 runs the same inputs in alternating passes, untraced and
with spans and counts around every layer (tracing.py), and reports the
per-layer metrics and the tracing overhead; the spans of the first traced
pass are written to perfbench/out/.  --workload all runs every workload in
turn in one process and prefixes each metric with its workload name; there
peak_rss_mb is the process peak up to the end of each workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_SAMPLES = 1000  # so that at least ten samples lie beyond the p99
WARMUP_OPS = 64
SETUP_REPEATS = 7

# Child interpreter for setup_s: import the package and make one call.
_SETUP_CODE = """
import numpy as np
import sl2geo
sl2geo.solve(np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([[2.0, 1.0], [1.0, 1.0]]))
print(sl2geo.__file__)
"""


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "sl2geo" / "__init__.py").is_file():
        _fail(f"no sl2geo sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import sl2geo
    if Path(sl2geo.__file__).resolve().parent != SRC / "sl2geo":
        _fail(f"imported sl2geo from {sl2geo.__file__}, not from {SRC}")
    return sl2geo


def _load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")


def setup_seconds() -> float:
    """Wall time of a fresh interpreter importing sl2geo and solving once."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        _fail(f"setup child failed: {proc.stderr.strip()}")
    if Path(proc.stdout.strip()).resolve().parent != SRC / "sl2geo":
        _fail(f"setup child imported sl2geo from {proc.stdout.strip()}")
    return elapsed


class Tally:
    """Inputs attempted and failed, per stratum and failure kind.

    Every execution is checked, but an input counts once however often it
    ran: as failed if any of its executions failed.  The counts then depend
    on the seed alone, not on how many passes the machine's speed allowed.
    """

    def __init__(self):
        self.stratum: dict[int, str] = {}  # input index -> stratum
        self.failure: dict[int, str] = {}  # input index -> first failure kind

    def add(self, index: int, stratum: str, failure: str | None) -> None:
        self.stratum[index] = stratum
        if failure is not None:
            self.failure.setdefault(index, failure)

    @property
    def attempted(self) -> Counter:
        return Counter(self.stratum.values())

    @property
    def failures(self) -> dict[str, Counter]:
        out: dict[str, Counter] = {}
        for index, kind in self.failure.items():
            out.setdefault(self.stratum[index], Counter())[kind] += 1
        return out

    @property
    def total(self) -> int:
        return len(self.stratum)

    @property
    def failed(self) -> int:
        return len(self.failure)


def _run_ops(workload, ops, call, tally, *, until: float, per_op=None,
             min_samples: int = 0) -> None:
    """Closed loop over whole passes through ops until the clock passes
    `until` and min_samples operations ran.

    Appends each latency to per_op[index of the op] when per_op is given;
    every answer is checked after its latency is taken.
    """
    clock = time.perf_counter
    n = len(ops)
    i = 0
    while i % n or i == 0 or clock() < until or i < min_samples:
        op = ops[i % n]
        start = clock()
        try:
            result = call(op.args)
        except Exception as exc:  # any exception is a failed operation
            elapsed = clock() - start
            failure = f"raised {type(exc).__name__}"
        else:
            elapsed = clock() - start
            failure = None if workload.check(op, result) else "wrong answer"
        if per_op is not None:
            per_op[i % n].append(elapsed)
        tally.add(i % n, op.stratum, failure)
        i += 1


def _best_of_each_input(per_op: list[list[float]]) -> list[float]:
    """Every sample's latency replaced by the best its input reached, sorted.

    The machine this benchmark was built on runs the same code at speeds
    that differ by up to 2x over phases of seconds to minutes, because it
    shares its cores.  An input runs dozens to hundreds of times in a run,
    so its best time is the code's cost on an uncontended core; the sample
    count and the mix of inputs stay those of the run.
    """
    out = []
    for samples in per_op:
        out.extend([min(samples)] * len(samples))
    out.sort()
    return out


def _percentile(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _prepare(wl_cls, seed: int):
    workload = wl_cls()
    ops = workload.generate(seed)
    _run_ops(workload, ops[:WARMUP_OPS], workload.call, Tally(), until=0.0)
    gc.collect()
    return workload, ops


def run_end_to_end(wl_cls, seed: int, seconds: float):
    setup_seconds()  # warms the file cache and the bytecode
    workload, ops = _prepare(wl_cls, seed)
    tally, per_op, setups = Tally(), [[] for _ in ops], []
    # The timed passes are split into SETUP_REPEATS segments, each followed
    # by one set-up measurement, so that set-up is sampled across the run
    # rather than in one phase of machine speed.
    start = time.perf_counter()
    for k in range(1, SETUP_REPEATS + 1):
        _run_ops(workload, ops, workload.call, tally, per_op=per_op,
                 until=start + seconds * k / SETUP_REPEATS,
                 min_samples=MIN_SAMPLES - sum(map(len, per_op)) if k == SETUP_REPEATS else 0)
        setups.append(setup_seconds())
    setup_s = statistics.median(setups)
    lat = _best_of_each_input(per_op)
    raw = sorted(t for samples in per_op for t in samples)
    metrics = {
        "ops_per_s": len(lat) / math.fsum(lat),
        "latency_p50_us": _percentile(lat, 0.50) * 1e6,
        "latency_p99_us": _percentile(lat, 0.99) * 1e6,
        "ok_frac": 1.0 - tally.failed / tally.total,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return workload, tally, metrics, {
        "samples": len(lat), "beyond_p99": len(lat) - math.ceil(0.99 * len(lat)),
        "inputs": len(ops), "runs_per_input_min": min(len(s) for s in per_op),
        "raw_ops_per_s": len(raw) / math.fsum(raw),
        "raw_latency_p50_us": _percentile(raw, 0.50) * 1e6,
        "raw_latency_p99_us": _percentile(raw, 0.99) * 1e6}


def run_traced(wl_cls, seed: int, seconds: float):
    import tracing

    workload, ops = _prepare(wl_cls, seed)
    tally, tracer = Tally(), tracing.Tracer()
    traced_call = tracer.op(workload.call)
    untraced, traced = [[] for _ in ops], [[] for _ in ops]
    deadline = time.perf_counter() + seconds
    # Untraced and traced passes alternate, so both see the same phases of
    # machine speed.
    while True:
        _run_ops(workload, ops, workload.call, tally, per_op=untraced, until=0.0)
        with tracing.Patched(tracer):
            _run_ops(workload, ops, traced_call, tally, per_op=traced, until=0.0)
        tracer.fold()
        if time.perf_counter() >= deadline:
            break
    metrics = tracing.layer_metrics(tracer)
    cost = [math.fsum(min(s) for s in phase) for phase in (untraced, traced)]
    metrics["trace_overhead_frac"] = 1.0 - cost[0] / cost[1]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{workload.name}.csv"  # the latest run only
    tracing.write_spans(tracer, spans_file)
    return workload, tally, metrics, {
        "traced_ops": tracer.ops, "spans_written": len(tracer.kept),
        "spans_file": str(spans_file.relative_to(ROOT))}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _correct(workload, tally: Tally) -> bool:
    """False if an operation failed outside the strata with known defects."""
    known = getattr(workload, "known_defects", frozenset())
    return all(stratum in known for stratum in tally.failures)


def main(argv=None) -> int:
    spec = _load_spec()
    workloads_spec = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads_spec) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")

    sl2geo = _import_library()
    import numpy
    import workloads

    metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(workloads_spec) if args.workload == "all" else [args.workload]
    print(json.dumps({"provenance": {
        "seed": args.seed, "python": platform.python_version(),
        "numpy": numpy.__version__, "sl2geo": sl2geo.__version__,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "loop": "closed, one single-threaded client",
        "seconds": args.seconds, "trace": args.trace}}))

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        runner = run_traced if args.trace else run_end_to_end
        workload, tally, values, info = runner(workloads.WORKLOADS[name], args.seed,
                                               args.seconds)
        print(json.dumps({"workload": name, "why": workloads_spec[name], **info}))
        for stratum in sorted(tally.attempted):
            kinds = tally.failures.get(stratum, Counter())
            print(f"  {name} {stratum}: attempted {tally.attempted[stratum]}, "
                  f"failed {sum(kinds.values())}"
                  + "".join(f", {kind} {n}" for kind, n in sorted(kinds.items())))
        print(f"  {name} fail_frac {tally.failed / tally.total:.6g} "
              f"({tally.failed} of {tally.total})")
        prefix = f"{name}." if args.workload == "all" else ""
        for m in metric_spec:
            value = values[m["name"]]
            print(f"  {name} {m['name']} {value:.6g} {m['unit']}")
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
        correct = correct and _correct(workload, tally)
        attempted += tally.total
        failed += tally.failed
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

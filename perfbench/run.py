"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {bootstrap,spectral,cli} --seed N --seconds S --trace {0,1}

Run from the repository root.  ``--trace 0`` measures the end-to-end metrics
of BENCHMARK.json; ``--trace 1`` measures its per-layer metrics: an untraced
pass over whole rounds for half the time, then the same operations again with
every public muculants function wrapped in spans.  Every operation's result
is checked.  The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name each
metric with its unit, then the run metadata.  A record of the run goes to
``.perfbench_out/results/`` (traces to ``.perfbench_out/traces/``), which
``perfbench/compare.py`` reads.
"""

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads():
    """Cap BLAS/OpenMP pools at nproc; runs before numpy is imported."""
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > cap:
            os.environ[var] = str(cap)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("bootstrap", "spectral", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def unit_of(name) -> str:
    """Unit of a metric that BENCHMARK.json does not list."""
    if name.endswith("_s"):
        return "1/s" if name.endswith("per_s") else "s"
    if name.endswith(("_ms_per_op", "_ms")):
        return "ms"
    if name.endswith(("calls_per_op", "points_per_op")):
        return "count"
    return "bytes" if name.endswith("bytes_out_per_op") else "ratio"


def layer_metrics(tracer, traced, untraced, n_ops) -> tuple[dict, dict]:
    layers, accounting = tracer.summary(n_ops, traced.busy_s)
    metrics = {}
    for name, vals in layers.items():
        if name == tracer.ROOT:
            metrics["unwrapped.self_ms_per_op"] = vals["self_ms_per_op"]
        else:
            metrics[f"{name}.calls_per_op"] = vals["calls_per_op"]
            metrics[f"{name}.self_ms_per_op"] = vals["self_ms_per_op"]
    attempted = traced.counts["replicates_attempted"]
    metrics.update(
        {
            "charfn.fft_points_per_op": tracer.fft_points / n_ops,
            "inference.replicate_yield": traced.counts["replicates_used"] / attempted if attempted else 0.0,
            "io.bytes_out_per_op": traced.counts["bytes_out"] / n_ops,
            "cpu_util": untraced.cpu_s / untraced.wall_s,
            "trace_overhead": traced.busy_s / untraced.busy_s,
            "traced_op_ms": 1e3 * traced.busy_s / n_ops,
        }
    )
    return metrics, accounting


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "muculants" / "__init__.py").is_file():
        print(f"error: no muculants sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cap_threads()
    import harness
    import tracing

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for sub in ("results", "traces", "work"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    meta = harness.metadata(ROOT, args, THREAD_VARS)
    cls = workloads.WORKLOADS[args.workload]
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"

    with tempfile.TemporaryDirectory(dir=OUT / "work") as workdir:
        wl = cls(args.seed, Path(workdir))
        extra = {}
        if not args.trace:
            setup = harness.SetupSampler(ROOT, cls.imports, args.seconds, THREAD_VARS)
            phase = harness.run_phase(wl, args.seconds, between_rounds=setup)
            metrics, extra["op_ms"] = harness.end_to_end(phase)
            metrics.update(setup.result())
            extra["setup_samples_s"] = setup.samples
            phases = [phase]
        else:
            untraced = harness.run_phase(wl, args.seconds / 2)
            tracer = tracing.Tracer()
            with tracer:
                traced = harness.run_phase(wl, rounds=untraced.rounds, tracer=tracer)
            metrics, extra = layer_metrics(tracer, traced, untraced, traced.attempted)
            trace_path = OUT / "traces" / f"{stamp}.npz"
            tracer.save(trace_path)
            extra["trace_file"] = str(trace_path.relative_to(ROOT))
            phases = [untraced, traced]

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for p in phases:
        for err in p.errors:
            print(f"check failed: {err}", file=sys.stderr)
    metrics["error_rate"] = failed / attempted
    meta.update(
        rounds=[p.rounds for p in phases],
        ops=[p.attempted for p in phases],
        measured_s=[p.wall_s for p in phases],
        **extra,
    )

    units = {m["name"]: m["unit"] for m in wanted}
    for name, value in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {units.get(name) or unit_of(name)}")
    print(f"failed {failed} of {attempted} attempted")
    print("meta " + json.dumps(meta, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"meta": meta, "result": result, "all_metrics": metrics}
    (OUT / "results" / f"{stamp}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

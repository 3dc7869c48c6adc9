"""epicast benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train-regional --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
traces every second operation and reports the per-layer metrics plus the
tracing overhead (traced minus untraced median of the main operation).
``--smoke`` runs the workload at toy size with every output check on and
no minimum sample counts, in seconds.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the lines before it name every metric the way the workload's rationale
does, with its unit and sample count.  The exit code is 0 only when every
operation succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import machine  # noqa: E402  (imports no numpy: BLAS threads are set first)

WORKLOAD_NAMES = ("train-regional", "train-wide", "forecast-serve")


def _import_epicast() -> None:
    """Import epicast from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import epicast

    if not Path(epicast.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"epicast imported from {epicast.__file__}, not {src}")


def _end_to_end(session, found: dict) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and one text line per metric.

    Times are scaled to the reference speed (see ``speed.py``); each line
    also shows the unscaled wall-clock value.
    """
    import speed
    from workloads import percentile, trimmed_mean

    names = found["names"]
    op, periodic = found["op"], found["periodic"]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rows = [
        # name, unit, the workload's own name, operation kind, statistic
        ("setup_s", "s", "setup_s", "setup", lambda ms: statistics.median(ms) / 1e3),
        ("op_ms_p50", "ms", names["op"] + "_p50", op, lambda ms: percentile(ms, 50)),
        ("op_ms_p90", "ms", names["op"] + "_p90", op, lambda ms: percentile(ms, 90)),
        ("periodic_ms_p50", "ms", names["periodic"] + "_p50", periodic,
         lambda ms: percentile(ms, 50)),
        ("windows_per_s", "1/s", names["windows_per_s"], op,
         lambda ms: found["windows_per_op"] * len(ms) / (sum(ms) / 1e3)),
        ("cold_ms_trim_mean", "ms", names["cold"] + "_trim_mean", "cold", trimmed_mean),
    ]
    metrics, lines = {}, []
    for name, unit, alias, kind, value in rows:
        scaled, raw = value(session.scaled(kind)), value(session.samples(kind))
        count = len(session.samples(kind))
        if scaled is None:
            lines.append(
                f"{alias:<26} = {name:<16} not reported: {count} {kind} samples are too few"
            )
            continue
        metrics[name] = {"value": scaled, "unit": unit}
        lines.append(
            f"{alias:<26} = {name:<16} {scaled:12.4f} {unit:<5} "
            f"(wall clock {raw:.4f}; {count} {kind} samples)"
        )
    for name, unit, alias, value, note in (
        ("quality_mae", "cases", names["quality_mae"], found["quality_mae"],
         "deterministic per seed"),
        ("peak_rss_mb", "MB", "peak_rss_mb", rss, "getrusage of this process"),
    ):
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{alias:<26} = {name:<16} {value:12.4f} {unit:<5} ({note})")
    kernel = [op["kernel_ms"] for op in session.ops if "kernel_ms" in op]
    lines.append(
        f"reference kernel: median {statistics.median(kernel):.3f} ms over "
        f"{len(kernel)} runs; times above are scaled to {speed.REFERENCE_MS} ms"
    )
    return metrics, lines


def _per_layer(session, tracer, found: dict) -> tuple[dict, list[str]]:
    import tracing

    metrics = tracing.layer_metrics(tracer, session.ops, found["kinds"])
    traced = session.samples(found["op"], traced=True)
    untraced = session.samples(found["op"], traced=False)
    if traced and untraced:
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics["trace.overhead_ms"] = {"value": overhead, "unit": "ms"}
    lines = [f"{name:<36} {m['value']:16.4f} {m['unit']}" for name, m in metrics.items()]
    lines.append(
        f"(medians per {found['op']} over {len(traced)} traced and {len(untraced)} "
        f"untraced {found['op']}s; a layer that did not run reads 0)"
    )
    if tracer.missing:
        lines.append("missing per-layer targets: " + ", ".join(sorted(tracer.missing)))
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    blas_threads = machine.limit_blas_threads()
    cpu, nproc = machine.pin_to_one_cpu()
    try:
        _import_epicast()
    except ImportError as err:
        print(f"cannot import epicast from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    import workloads

    context = machine.context(ROOT, blas_threads, cpu, nproc)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}{' smoke' if args.smoke else ''}")
    print("context " + json.dumps(context, sort_keys=True))

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    session = workloads.Session(tracer)
    plan = workloads.Plan(
        seconds=args.seconds,
        minimum=(
            workloads.SMOKE_MINIMUM if args.smoke
            else workloads.TRACE_MINIMUM if args.trace
            else workloads.MINIMUM
        ),
        smoke=args.smoke,
    )
    metrics, lines = {}, []
    try:
        found = workloads.WORKLOADS[args.workload](
            session, ROOT, args.workload, args.seed, plan
        )
        if tracer is None:
            metrics, lines = _end_to_end(session, found)
        else:
            metrics, lines = _per_layer(session, tracer, found)
            tracer.dump(
                ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json",
                session.ops,
            )
    except Exception:  # the run's boundary: report the failure, then fail
        traceback.print_exc()
        session.errors.append("the workload raised; see the traceback above")
        session.failed.add(session.ops[-1]["id"] if session.ops else 0)

    attempted = max(len(session.ops), 1)
    failed = len(session.failed)
    for line in lines:
        print(line)
    print(f"error_rate {failed / attempted:.4f} ({failed} failed / {attempted} attempted)")
    for problem in session.errors:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of epicast's layers, installed from the benchmark's side.

``Tracer`` swaps selected callables of the epicast modules for thin wrappers
that record one span per call: the operation (training step, validation
pass, request, set-up) it belongs to, its label, its parent span and its
start and end times.  Nothing under ``src/`` knows about it.  The wrappers
are installed only around traced operations, spans stay in memory, and
``dump`` writes them out when the run ends.

A target that a later refactor removes is recorded in ``missing``; the
layer metrics built on it are then left out of the result instead of
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter

import kernel_counts

# (label, module, attribute path).  Several targets may share a label; their
# times add up, and a span nested in one with the same label is not counted
# twice.
TARGETS = (
    ("cli.main", "epicast.cli", "main"),
    ("datasets.load_dataset", "epicast.datasets", "load_dataset"),
    ("datasets.windowize", "epicast.datasets", "windowize"),
    ("datasets.batch", "epicast.datasets", "WindowSet.batch"),
    ("training.load_checkpoint", "epicast.training", "load_checkpoint"),
    ("training.adam", "epicast.training", "Adam.step"),
    ("pipeline.forward", "epicast.pipeline", "ForecastModel.forward"),
    ("suppression.detect", "epicast.pipeline", "ForecastModel._detect"),
    ("suppression.adaptive_threshold", "epicast.suppression", "adaptive_threshold"),
    ("adjacency.coupling", "epicast.adjacency", "forecast_mobility"),
    ("adjacency.coupling", "epicast.adjacency", "pool_mobility"),
    ("adjacency.coupling", "epicast.adjacency", "extract_pattern"),
    ("adjacency.coupling", "epicast.adjacency", "retrieve_representation"),
    ("adjacency.coupling", "epicast.adjacency", "case_adjacency"),
    ("adjacency.coupling", "epicast.adjacency", "compose_adjacency"),
    ("estimator.lift", "epicast.estimator", "lift_features"),
    ("estimator.dependency", "epicast.estimator", "dynamic_dependency"),
    ("estimator.backbone", "epicast.estimator", "Backbone.__call__"),
    ("estimator.heads", "epicast.estimator", "estimate_params"),
    ("metapop.rollout_batch", "epicast.metapop", "rollout_batch"),
    ("autodiff.backward", "epicast.autodiff", "Tensor.backward"),
    ("evaluation.horizon_report", "epicast.evaluation", "horizon_report"),
)

# The kernels are reached through ``kernels.active()``, whose result is a
# named tuple of functions; the tracer wraps that accessor and the fields.
KERNELS = ("conv_fwd", "conv_bwd", "rollout_fwd", "rollout_bwd")


def _tape_nodes(result) -> int:
    """Recorded operations reachable from the tensors of a forward result."""
    stack = [
        value
        for value in vars(result).values()
        if getattr(value, "requires_grad", False)
    ]
    seen = set()
    nodes = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes += node._backward is not None
        stack.extend(node._parents)
    return nodes


def _window_bytes(windows) -> int:
    return sum(getattr(value, "nbytes", 0) for value in vars(windows).values())


# Counters derived from a call's arguments or result, keyed by span label.
def _count_result(name, measure):
    def hook(args, result):
        return {name: measure(result)}

    return hook


def _count_kernel(label, measure):
    def hook(args, result):
        flop, moved = measure(*args)
        return {label + ".flop": flop, label + ".bytes": moved}

    return hook


HOOKS = {
    "pipeline.forward": _count_result("autodiff.tape_nodes", _tape_nodes),
    "datasets.windowize": _count_result("datasets.window_bytes", _window_bytes),
    **{
        f"kernels.{name}": _count_kernel(f"kernels.{name}", getattr(kernel_counts, name))
        for name in KERNELS
    },
}


class Tracer:
    """Records spans and counters for the operations it is told to trace."""

    def __init__(self):
        self.spans: list[list] = []  # [op, label, parent index, start, end]
        self.counters: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.missing: set[str] = set()
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._prepare()

    # ------------------------------------------------------------ installing

    def _prepare(self) -> None:
        for label, module, path in TARGETS:
            try:
                owner = importlib.import_module(module)
                *parents, name = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = vars(owner)[name]
            except (ImportError, AttributeError, KeyError):
                self.missing.add(label)
                continue
            self._patches.append((owner, name, original, self._wrap(label, original)))
        try:
            kernels = importlib.import_module("epicast.kernels")
            original = kernels.active
            kernels.KernelSet._fields  # the accessor must still return the named tuple
        except (ImportError, AttributeError):
            self.missing.update(f"kernels.{name}" for name in KERNELS)
            return
        self._patches.append((kernels, "active", original, self._wrap_active(original)))

    def _wrap(self, label, fn):
        hook = HOOKS.get(label)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([self.op, label, stack[-1] if stack else -1, perf_counter(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][4] = perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    counts = hook(args, result)
                except (AttributeError, TypeError, ValueError):
                    self.missing.add(label + ".counters")
                else:
                    for name, value in counts.items():
                        self.counters[self.op][name] += value
            return result

        return traced

    def _wrap_active(self, active):
        wrapped = {}

        @functools.wraps(active)
        def traced_active():
            kset = active()
            if id(kset) not in wrapped:
                fields = {
                    name: self._wrap(f"kernels.{name}", getattr(kset, name))
                    for name in KERNELS
                }
                wrapped[id(kset)] = (kset, kset._replace(**fields))
            return wrapped[id(kset)][1]

        return traced_active

    def begin(self, op: int) -> None:
        """Trace the calls of operation ``op`` until ``end``."""
        self.op = op
        for owner, name, _, traced in self._patches:
            setattr(owner, name, traced)

    def end(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)
        self.op = None

    def dump(self, path, ops) -> None:
        payload = {
            "ops": ops,
            "spans": self.spans,
            "counters": {str(op): dict(values) for op, values in self.counters.items()},
            "missing": sorted(self.missing),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


# ------------------------------------------------------------ layer metrics


def _per_op(spans):
    """Per operation: label -> [time s, self time s, calls]."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans.values():
        if span[2] >= 0:
            child_time[span[2]] += span[4] - span[3]
    ops: dict[int, dict[str, list[float]]] = defaultdict(
        lambda: defaultdict(lambda: [0.0, 0.0, 0])
    )
    for index, (op, label, parent, start, end) in spans.items():
        entry = ops[op][label]
        entry[2] += 1
        while parent >= 0 and spans[parent][1] != label:
            parent = spans[parent][2]
        if parent < 0:  # outermost span of its label
            entry[0] += end - start
            entry[1] += end - start - child_time[index]
    return ops


def _time_ms(layer, counters, label):
    return 1e3 * layer[label][0] if label in layer else None


def _self_ms(layer, counters, label):
    return 1e3 * layer[label][1] if label in layer else None


def _calls(layer, counters, label):
    return layer[label][2] if label in layer else None


def _per_call(counter):
    def value(layer, counters, label):
        if label not in layer or counter not in counters:
            return None
        return counters[counter] / layer[label][2]

    value.counted = True
    return value


def _counter(counter):
    def value(layer, counters, label):
        return counters.get(counter) if label in layer else None

    value.counted = True
    return value


def _gflop_s(layer, counters, label):
    if label not in layer or label + ".flop" not in counters:
        return None
    return counters[label + ".flop"] / layer[label][0] / 1e9


_gflop_s.counted = True

# name, unit, better, source label, value of one operation
LAYER_METRICS = (
    ("kernels.conv_fwd_ms", "ms", "lower", "kernels.conv_fwd", _time_ms),
    ("kernels.conv_bwd_ms", "ms", "lower", "kernels.conv_bwd", _time_ms),
    ("kernels.conv_bwd_gflop_s", "GFLOP/s", "higher", "kernels.conv_bwd", _gflop_s),
    ("kernels.rollout_fwd_ms", "ms", "lower", "kernels.rollout_fwd", _time_ms),
    ("kernels.rollout_bwd_ms", "ms", "lower", "kernels.rollout_bwd", _time_ms),
    ("metapop.rollout_batch_ms", "ms", "lower", "metapop.rollout_batch", _time_ms),
    ("autodiff.backward_ms", "ms", "lower", "autodiff.backward", _time_ms),
    ("autodiff.backward_self_ms", "ms", "lower", "autodiff.backward", _self_ms),
    ("autodiff.tape_nodes", "count", "lower", "pipeline.forward",
     _per_call("autodiff.tape_nodes")),
    ("suppression.detect_ms", "ms", "lower", "suppression.detect", _time_ms),
    ("suppression.threshold_calls", "count", "lower", "suppression.adaptive_threshold",
     _calls),
    ("estimator.dependency_ms", "ms", "lower", "estimator.dependency", _time_ms),
    ("adjacency.coupling_ms", "ms", "lower", "adjacency.coupling", _time_ms),
    ("estimator.backbone_ms", "ms", "lower", "estimator.backbone", _time_ms),
    ("estimator.lift_ms", "ms", "lower", "estimator.lift", _time_ms),
    ("estimator.heads_ms", "ms", "lower", "estimator.heads", _time_ms),
    ("pipeline.forward_ms", "ms", "lower", "pipeline.forward", _time_ms),
    ("pipeline.forward_self_ms", "ms", "lower", "pipeline.forward", _self_ms),
    ("training.adam_ms", "ms", "lower", "training.adam", _time_ms),
    ("datasets.load_dataset_ms", "ms", "lower", "datasets.load_dataset", _time_ms),
    ("training.load_checkpoint_ms", "ms", "lower", "training.load_checkpoint", _time_ms),
    ("cli.forecast_self_ms", "ms", "lower", "cli.main", _self_ms),
    ("datasets.windowize_ms", "ms", "lower", "datasets.windowize", _time_ms),
    ("datasets.window_bytes", "bytes", "lower", "datasets.windowize",
     _counter("datasets.window_bytes")),
    ("datasets.batch_ms", "ms", "lower", "datasets.batch", _time_ms),
    ("evaluation.horizon_report_ms", "ms", "lower", "evaluation.horizon_report", _time_ms),
    *(
        (f"kernels.{name}_{what}_computed", unit, "lower", f"kernels.{name}",
         _per_call(f"kernels.{name}.{what}"))
        for name in KERNELS
        for what, unit in (("flop", "flop"), ("bytes", "bytes"))
    ),
)


def layer_metrics(tracer: Tracer, ops: list[dict], kinds: tuple[str, ...]) -> dict:
    """Median per operation of every layer metric, from the first kind that ran it.

    ``kinds`` lists operation kinds by priority (the workload's main
    operation first).  A layer that ran in none of them reads 0; a layer
    whose wrap target is missing is left out.
    """
    spans = dict(enumerate(tracer.spans))
    per_op = _per_op(spans)
    traced = [op for op in ops if op["traced"]]
    metrics = {}
    for name, unit, _, label, value in LAYER_METRICS:
        counted = getattr(value, "counted", False)
        if label in tracer.missing or (counted and f"{label}.counters" in tracer.missing):
            continue
        result = 0.0
        for kind in kinds:
            values = [
                value(per_op[op["id"]], tracer.counters.get(op["id"], {}), label)
                for op in traced
                if op["kind"] == kind
            ]
            values = [v for v in values if v is not None]
            if values:
                result = statistics.median(values)
                break
        metrics[name] = {"value": float(result), "unit": unit}
    return metrics

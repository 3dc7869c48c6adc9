"""The benchmark's three workloads: set-up, closed-loop operations, output checks.

One client runs every operation in turn and starts the next only when the
previous one has finished (a closed loop).  ``Session`` times each
operation, counts attempts and failed checks, and, when it holds a tracer,
traces every second timed operation of each kind so that traced and
untraced samples interleave.

Workloads (the rationale is repeated in BENCHMARK.json and README.md):

* ``train-regional``: the acceptance world and model (8 regions, 400 days,
  default ``ModelConfig``) trained at batch 32 on the full horizon.  Many
  small operations: the autodiff tape, the convolution backward and the
  per-window suppression loop dominate.
* ``train-wide``: the same loop at 64 regions and batch 8, where the
  O(N^2) layers (attention dependency, graph mixing, mobility forecast,
  rollout) take over and the windowed mobility makes memory visible.
* ``forecast-serve``: inference only.  Every request goes through
  ``cli.main`` in this process and reloads the CSV panel and the
  checkpoint, exactly as a separate ``epicast forecast`` process would; no
  request may gain from state left by an earlier one that such a process
  would not have.  Interpreter start-up is measured only by the
  fresh-process ("cold") requests.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from itertools import cycle, islice
from pathlib import Path
from time import perf_counter

import numpy as np
import speed

from epicast import cli, datasets, metapop, training
from epicast.domain import (
    CompartmentState,
    EpidemicParams,
    MobilitySeries,
    PopulationVector,
)
from epicast.pipeline import ForecastModel, ModelConfig

# setup_s is the median of at least 3 set-ups that together take 0.5 s
SETUPS, SETUP_SECONDS = 3, 0.5
WARMUP = {"step": 3, "val": 1, "forecast": 2, "evaluate": 1, "cold": 1}
# Timed samples a run collects at least: a percentile is reported only when
# ten samples lie beyond it, so p50 needs 20 and p90 needs 100.  Fresh
# processes cost 0.3-0.7 s each, so twelve of them give a trimmed mean instead.
MINIMUM = {"step": 100, "val": 20, "forecast": 100, "evaluate": 20, "cold": 12}
# A traced run reports per-operation medians of the layers and no
# percentiles; it starts no fresh processes.
TRACE_MINIMUM = {"step": 20, "val": 4, "forecast": 20, "evaluate": 4, "cold": 0}
SMOKE_MINIMUM = {"step": 4, "val": 2, "forecast": 3, "evaluate": 2, "cold": 2}
# criterion 02's tolerance for the mechanistic core against its loop oracle
ORACLE_RTOL = ORACLE_ATOL = 1e-12
MODEL_SEED = 2024  # configs/acceptance.yaml training seed


def trimmed_mean(samples) -> float | None:
    """Mean of the middle half of the samples (no percentile)."""
    ordered = sorted(samples)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter : len(ordered) - quarter]) if ordered else None


def percentile(samples, pct: float) -> float | None:
    """The ``pct``-th percentile, or None unless ten samples lie beyond it."""
    count = len(samples)
    if count - math.ceil(pct * count / 100) < 10:
        return None
    return float(np.percentile(samples, pct))


class Session:
    """Times one client's operations; counts attempts and failed checks.

    After every operation in this process but a check it also times the
    reference kernel of ``speed``; ``scaled`` turns operation times into
    times at the reference speed.  Checks and warm-up operations are not
    timed; fresh processes are never traced.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.reference = speed.Reference()
        self.ops: list[dict] = []
        self.failed: set[int] = set()
        self.errors: list[str] = []
        self._seen: Counter = Counter()

    @contextlib.contextmanager
    def op(self, kind: str):
        index = self._seen[kind]
        self._seen[kind] += 1
        timed = kind != "check" and index >= WARMUP.get(kind, 0)
        traced = (
            self.tracer is not None and timed and kind != "cold" and index % 2 == 1
        )
        record = {"id": len(self.ops), "kind": kind, "traced": traced, "ms": None}
        self.ops.append(record)
        if traced:
            self.tracer.begin(record["id"])
        start = perf_counter()
        try:
            yield record
        except BaseException:
            self.failed.add(record["id"])
            raise
        finally:
            elapsed = perf_counter() - start
            if traced:
                self.tracer.end()
        if timed:
            record["ms"] = 1e3 * elapsed
        if kind not in ("check", "cold"):  # a child process leaves caches cold
            record["kernel_ms"] = self.reference.run_ms()

    def check(self, ok: bool, problem: str) -> bool:
        """Fail the latest operation unless ``ok``."""
        if not ok:
            self.failed.add(self.ops[-1]["id"])
            self.errors.append(problem)
        return bool(ok)

    def samples(self, kind: str, traced: bool = False) -> list[float]:
        return [
            op["ms"]
            for op in self.ops
            if op["kind"] == kind and op["ms"] is not None and op["traced"] == traced
        ]

    def scaled(self, kind: str) -> list[float]:
        """Untraced times of ``kind``, each scaled to the reference speed."""
        factors = speed.scale_factors([op.get("kernel_ms") for op in self.ops])
        return [
            op["ms"] * factor
            for op, factor in zip(self.ops, factors)
            if op["kind"] == kind and op["ms"] is not None and not op["traced"]
        ]

    def setups(self):
        """Repeat set-up: yields until enough set-ups were timed."""
        while (
            len(self.samples("setup")) < SETUPS
            or sum(self.samples("setup")) < 1e3 * SETUP_SECONDS
        ):
            yield

    def enough(self, minimum: dict, *kinds: str) -> bool:
        return all(len(self.samples(kind)) >= minimum[kind] for kind in kinds)


@dataclass(frozen=True)
class Plan:
    """How long a run lasts and what it must collect."""

    seconds: float
    minimum: dict
    smoke: bool

    def done(self, start: float, session: Session, *kinds: str) -> bool:
        elapsed = perf_counter() - start
        if elapsed > 4 * self.seconds + 10:  # hard stop; short percentiles drop out
            return True
        return elapsed >= self.seconds and session.enough(self.minimum, *kinds)

    def wants_cold(self, session: Session) -> bool:
        """Fresh processes are started only until the minimum is reached."""
        return len(session.samples("cold")) < self.minimum["cold"]


# ------------------------------------------------------------------ shared


def _world(n_regions: int, length: int) -> datasets.Dataset:
    # the acceptance scenario (seed 42) at the workload's size
    return datasets.generate_synthetic(
        datasets.SyntheticScenario(n_regions=n_regions, length=length)
    )


def _new_model(train_windows: datasets.WindowSet) -> ForecastModel:
    # Initialisation is the acceptance run's, not the benchmark seed's: at
    # N=64 the seeded initialisation moved the 40-step validation MAE by 50%.
    model = ForecastModel(ModelConfig(), len(train_windows.regions), seed=MODEL_SEED)
    observations = train_windows.observations
    model.set_scaler(
        observations.mean(axis=(0, 1, 2)), observations.std(axis=(0, 1, 2))
    )
    return model


def _batches(count: int, batch_size: int, rng: np.random.Generator):
    """Seeded shuffled full batches, epoch after epoch (a short tail is dropped)."""
    while True:
        order = rng.permutation(count)
        for start in range(0, count - batch_size + 1, batch_size):
            yield order[start : start + batch_size]


def _train_step(model, optimizer, windows, indices) -> float:
    """One optimizer step on the full horizon, as ``training.fit`` takes it."""
    batch = windows.batch(indices)
    model.zero_grad()
    result = model.forward(batch, training=True)
    loss = training.mae_loss(result.cases, batch.targets)
    value = loss.item()
    if np.isfinite(value):  # fit raises before the backward pass instead
        loss.backward()
        optimizer.step()
        model.clamp_blend()
    return value


def _check_rollout(session: Session, windows: datasets.WindowSet, seed: int) -> None:
    """Fused ``rollout_batch`` on a probe batch against the ``rollout`` loop."""
    rng = np.random.default_rng([seed, 2])
    probe = windows.batch(np.arange(min(4, len(windows))))
    count, regions = probe.susceptible0.shape
    days = windows.t_out
    beta = rng.uniform(0.05, 0.45, size=(count, regions, days))
    gamma = rng.uniform(0.05, 0.2, size=(count, regions, days))
    flows = probe.mobility[..., :days]
    with session.op("check"):
        cases, aux = metapop.rollout_batch(
            probe.susceptible0, probe.infected0, probe.recovered0,
            beta, gamma, flows, probe.population,
        )
        agree = True
        for b in range(count):
            oracle = metapop.rollout(
                CompartmentState(
                    susceptible=probe.susceptible0[b],
                    infected=probe.infected0[b],
                    recovered=probe.recovered0[b],
                ),
                EpidemicParams(beta=beta[b], gamma=gamma[b]),
                MobilitySeries(flows=flows[b], horizon_kind="forecast"),
                PopulationVector(sizes=probe.population),
            )
            for got, want in (
                (cases[b], oracle.cases),
                (aux["susceptible"][b], oracle.susceptible),
                (aux["infected"][b], oracle.infected),
                (aux["recovered"][b], oracle.recovered),
            ):
                agree &= np.allclose(got, want, rtol=ORACLE_RTOL, atol=ORACLE_ATOL)
    session.check(agree, "rollout_batch disagrees with the rollout loop oracle")


def _cold(session: Session, root: Path, argv: list[str]) -> subprocess.CompletedProcess:
    """One fresh interpreter running ``argv``; the process is waited for."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    with session.op("cold"):
        done = subprocess.run(
            [sys.executable, *argv],
            cwd=root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    session.check(
        done.returncode == 0,
        f"cold {argv[:3]} exited {done.returncode}: {done.stderr.decode()[-300:]}",
    )
    return done


# ---------------------------------------------------------------- training


@dataclass(frozen=True)
class TrainShape:
    n_regions: int
    batch_size: int
    val_every: int  # optimizer steps between validation passes
    quality_steps: int  # steps after which final_val_mae is read
    length: int = 400


TRAIN_SHAPES = {
    # one validation pass per epoch of 8 full batches
    "train-regional": TrainShape(8, 32, val_every=8, quality_steps=64),
    # an epoch is 34 steps here, which would give too few passes per run
    "train-wide": TrainShape(64, 8, val_every=5, quality_steps=40),
}
SMOKE_TRAIN_SHAPES = {
    "train-regional": TrainShape(4, 8, val_every=4, quality_steps=16),
    "train-wide": TrainShape(8, 8, val_every=4, quality_steps=16),
}


def _train_setup(shape: TrainShape):
    world = _world(shape.n_regions, shape.length)
    train_split, val_split, _ = datasets.chronological_split(world)
    config = ModelConfig()
    train_windows = datasets.windowize(train_split, config.t_in, config.t_out)
    val_windows = datasets.windowize(val_split, config.t_in, config.t_out)
    return train_windows, val_windows, _new_model(train_windows)


def train(session: Session, root: Path, name: str, seed: int, plan: Plan) -> dict:
    shape = (SMOKE_TRAIN_SHAPES if plan.smoke else TRAIN_SHAPES)[name]
    state = None
    for _ in session.setups():
        state = None  # drop the previous set-up before building the next
        with session.op("setup"):
            state = _train_setup(shape)
    train_windows, val_windows, model = state
    _check_rollout(session, train_windows, seed)
    size = shape.batch_size
    with session.op("check"):
        untrained = training.validation_loss(model, val_windows, size)
    session.check(np.isfinite(untrained), f"untrained validation MAE {untrained}")

    optimizer = training.Adam(
        model.parameters(), training.TrainConfig(batch_size=size, seed=seed)
    )
    batches = _batches(len(train_windows), size, np.random.default_rng([seed, 1]))
    steps, final = 0, math.nan
    start = perf_counter()
    while not (
        steps >= shape.quality_steps
        and plan.done(start, session, "step", "val", "cold")
    ):
        indices = next(batches)
        with session.op("step"):
            loss = _train_step(model, optimizer, train_windows, indices)
        if not session.check(np.isfinite(loss), f"step {steps}: training loss {loss}"):
            break
        steps += 1
        if steps % shape.val_every:
            continue
        with session.op("val"):
            val = training.validation_loss(model, val_windows, size)
        if not session.check(np.isfinite(val), f"step {steps}: validation MAE {val}"):
            break
        if steps == shape.quality_steps:
            final = val
        if plan.wants_cold(session):
            _cold(session, root, ["-c", "import epicast.cli"])
    with session.op("check"):
        session.check(
            final < untrained,
            f"validation MAE {final} after {shape.quality_steps} steps is not "
            f"below the untrained model's {untrained}",
        )
    return {
        "op": "step",
        "periodic": "val",
        "windows_per_op": size,
        "quality_mae": final,
        "names": {
            "op": "train_step_ms",
            "periodic": "val_pass_ms",
            "windows_per_s": "train_windows_per_s",
            "quality_mae": "final_val_mae",
            "cold": "import_cold_ms",
        },
        # operation kinds a layer metric is read from, by priority; windows
        # are only built during set-up here
        "kinds": ("step", "val", "setup"),
    }


# ---------------------------------------------------------------- serving

SERVE_REGIONS = 8
SERVE_TRAIN_STEPS = 8  # one epoch of full batch-32 steps
FORECASTS_PER_EVALUATE = 5
FORECAST_FLOATS = (
    "cases_pred", "beta", "beta_suppressed", "gamma", "transmission_strength",
    "susceptible", "infected", "recovered",
)
REPORT_FLOATS = ("rmse", "mae", "smape")


def _serve_setup(work: Path, seed: int, smoke: bool) -> datasets.Dataset:
    world = _world(4 if smoke else SERVE_REGIONS, 224 if smoke else 400)
    datasets.save_dataset(world, work / "data")
    train_split, _, _ = datasets.chronological_split(world)
    config = ModelConfig()
    train_windows = datasets.windowize(train_split, config.t_in, config.t_out)
    model = _new_model(train_windows)
    train_config = training.TrainConfig(batch_size=4 if smoke else 32, seed=seed)
    optimizer = training.Adam(model.parameters(), train_config)
    rng = np.random.default_rng([seed, 1])
    for indices in islice(
        _batches(len(train_windows), train_config.batch_size, rng), SERVE_TRAIN_STEPS
    ):
        _train_step(model, optimizer, train_windows, indices)
    training.save_checkpoint(
        model, work / "model.ckpt", train_config=train_config, regions=world.regions
    )
    return world


def _forecast_problems(path: Path, world: datasets.Dataset, t_out: int) -> list[str]:
    """What is wrong with one forecast CSV (an empty list when nothing is)."""
    population = dict(zip(world.regions, world.population))
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    problems = []
    if len(rows) != world.n_regions * t_out:
        problems.append(f"{len(rows)} rows, expected {world.n_regions * t_out}")
    for row in rows:
        values = {key: float(row[key]) for key in FORECAST_FLOATS}
        if not all(map(math.isfinite, values.values())):
            problems.append(f"non-finite value in {row}")
        elif values["cases_pred"] < 0:
            problems.append(f"negative cases in {row}")
        elif (
            values["susceptible"] + values["infected"] + values["recovered"]
            > population[row["region"]] * (1 + 1e-9)
        ):
            problems.append(f"S+I+R above the population in {row}")
    return problems[:3]


def _report_problems(rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        values = [float(row[key]) for key in REPORT_FLOATS]
        if row["rae_defined"] == "True":
            values.append(float(row["rae"]))
        if not all(map(math.isfinite, values)):
            problems.append(f"non-finite score in {row}")
    return problems if rows else ["empty evaluate report"]


def forecast_serve(session: Session, root: Path, name: str, seed: int, plan: Plan) -> dict:
    (root / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="serve-", dir=root / ".perfbench") as tmp:
        work = Path(tmp)
        return _serve(session, root, work, seed, plan)


def _serve(session: Session, root: Path, work: Path, seed: int, plan: Plan) -> dict:
    for _ in session.setups():
        with session.op("setup"):
            world = _serve_setup(work, seed, plan.smoke)
    t_out = ModelConfig().t_out
    data, checkpoint = str(work / "data"), str(work / "model.ckpt")
    anchors = world.dates[ModelConfig().t_in - 1 :]
    order = np.random.default_rng([seed, 3]).permutation(len(anchors))
    days = cycle([anchors[i] for i in order])
    first_report, quality = None, math.nan
    start = perf_counter()
    while not plan.done(start, session, "forecast", "evaluate", "cold"):
        for _ in range(FORECASTS_PER_EVALUATE):
            out = work / "forecast.csv"
            with session.op("forecast"), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(
                    ["forecast", "--data", data, "--checkpoint", checkpoint,
                     "--out", str(out), "--at", next(days)]
                )
            session.check(code == 0, f"forecast exited {code}")
            problems = _forecast_problems(out, world, t_out) if code == 0 else []
            session.check(not problems, f"forecast output: {problems}")

        report = work / "report.csv"
        with session.op("evaluate"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(
                ["evaluate", "--data", data, "--checkpoint", checkpoint,
                 "--split", "test", "--out", str(report)]
            )
        if session.check(code == 0, f"evaluate exited {code}"):
            text = report.read_text(encoding="utf-8")
            rows = list(csv.DictReader(io.StringIO(text)))
            problems = _report_problems(rows)
            session.check(not problems, f"evaluate report: {problems}")
            if first_report is None:
                first_report = text
                quality = next(
                    float(row["mae"])
                    for row in rows
                    if row["source"] == "model" and row["slice"] == "overall"
                )
            session.check(text == first_report, "evaluate reports differ between requests")

        if not plan.wants_cold(session):
            continue
        cold_out = work / "cold.csv"
        done = _cold(
            session, root,
            ["-m", "epicast.cli", "forecast", "--data", data, "--checkpoint",
             checkpoint, "--out", str(cold_out), "--at", next(days)],
        )
        if done.returncode == 0:
            problems = _forecast_problems(cold_out, world, t_out)
            session.check(not problems, f"cold forecast output: {problems}")
    return {
        "op": "forecast",
        "periodic": "evaluate",
        "windows_per_op": 1,
        "quality_mae": quality,
        "names": {
            "op": "forecast_ms",
            "periodic": "evaluate_ms",
            "windows_per_s": "forecast_windows_per_s",
            "quality_mae": "test_mae",
            "cold": "forecast_cold_ms",
        },
        # not "setup": it trains the served checkpoint, which serving never does
        "kinds": ("forecast", "evaluate"),
    }


WORKLOADS = {
    "train-regional": train,
    "train-wide": train,
    "forecast-serve": forecast_serve,
}

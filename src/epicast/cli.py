"""Command-line interface: simulate, train, forecast, evaluate, gradcheck.

Exit codes: 0 success, 1 usage or configuration error, 2 bad or missing
data, 3 failed verification (a gradient check over tolerance).
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from datetime import date as date_type, timedelta
from itertools import chain
from pathlib import Path

import numpy as np

from . import datasets, evaluation, training
from .datasets import CASES_CHANNEL, DataError, SyntheticScenario
from .domain import ConfigRangeError, ValidationError, read_record
from .estimator import BackboneConfig
from .pipeline import ForecastModel, ModelConfig
from .training import TrainConfig

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3

# Written rates lie strictly inside (0, 1): a saturated sigmoid can emit
# exactly 0.0 or 1.0, so the forecast clips its rates this far inward.
RATE_EPSILON = 1e-12


class UsageError(Exception):
    """Bad flags or configuration (CLI exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to our codes
        raise UsageError(message)


# -------------------------------------------------------------- configuration

_SECTIONS = ("model", "synthetic", "training")  # a config file's top-level keys


def load_config(path: str | Path | None) -> dict:
    if path is None:
        return {}
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    import yaml  # only here: forecast and evaluate read no config

    try:
        payload = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as err:
        raise UsageError(f"{path}: invalid YAML ({err})") from None
    except (OSError, UnicodeDecodeError) as err:  # a directory, say, or not UTF-8
        raise UsageError(f"{path}: cannot read config ({getattr(err, 'strerror', err)})") from None
    if payload is None:
        return {}
    if not isinstance(payload, dict):
        raise UsageError(f"{path}: top level must be a mapping of sections")
    unknown = sorted(map(str, payload.keys() - set(_SECTIONS)))
    if unknown:
        raise UsageError(
            f"{path}: unknown section {unknown[0]!r}; valid sections: {', '.join(_SECTIONS)}"
        )
    return payload


def model_config_from(config: dict) -> ModelConfig:
    return read_record(ModelConfig, config.get("model"), "model")


def train_config_from(config: dict) -> TrainConfig:
    return read_record(TrainConfig, config.get("training"), "training")


# the scenario fields that ``simulate`` flags override
_SCENARIO_FLAGS = {
    "seed": "--seed", "n_regions": "--regions", "length": "--length", "noise": "--noise"
}


def scenario_from(config: dict, overrides: dict | None = None) -> SyntheticScenario:
    """The ``synthetic`` section with ``overrides`` (None values skipped) on
    top; an override out of range is reported by its ``simulate`` flag."""
    section = config.get("synthetic")
    overridden = {k: v for k, v in (overrides or {}).items() if v is not None}
    if section is None or isinstance(section, dict):
        section = {**(section or {}), **overridden}
    try:
        return read_record(SyntheticScenario, section, "synthetic")
    except ConfigRangeError as err:
        key = err.field.removeprefix("synthetic.")
        if key not in overridden:
            raise
        flagged = ConfigRangeError(_SCENARIO_FLAGS[key], err.value, err.rule, err.reason)
        raise UsageError(str(flagged)) from None


# ----------------------------------------------------------------- subcommands


def _cmd_simulate(args) -> int:
    overrides = {key: getattr(args, flag[2:]) for key, flag in _SCENARIO_FLAGS.items()}
    scenario = scenario_from(load_config(args.config), overrides)
    dataset = datasets.generate_synthetic(scenario)
    datasets.save_dataset(dataset, args.out)
    print(
        f"wrote {dataset.n_regions} regions x {dataset.n_days} days "
        f"(seed {scenario.seed}) to {args.out}"
    )
    return EXIT_OK


def _cmd_train(args) -> int:
    config = load_config(args.config)
    model_config = model_config_from(config)
    train_config = train_config_from(config)
    dataset = datasets.load_dataset(args.data)
    if model_config.channels != dataset.values.shape[2]:
        raise DataError(
            f"model.input_channels is {model_config.channels}, but observations.csv "
            f"has {dataset.values.shape[2]} channels"
        )
    train_split, val_split, _ = datasets.chronological_split(dataset)
    train_windows = datasets.windowize(train_split, model_config.t_in, model_config.t_out)
    val_windows = datasets.windowize(val_split, model_config.t_in, model_config.t_out)
    model = ForecastModel(model_config, dataset.n_regions, seed=train_config.seed)
    model.set_scaler(*datasets.channel_scaler(train_windows))
    log = None if args.quiet else print
    history = training.fit(model, train_windows, val_windows, train_config, log=log)
    training.save_checkpoint(
        model,
        args.out,
        epoch=history.best_epoch,
        val_loss=history.best_val_loss,
        train_config=train_config,
        regions=dataset.regions,
    )
    stop = "early stop" if history.stopped_early else "epoch budget reached"
    print(
        f"best validation mae {history.best_val_loss:.6f} at epoch "
        f"{history.best_epoch + 1} ({stop}); checkpoint -> {args.out}"
    )
    return EXIT_OK


def _load_checkpoint(path) -> training.LoadedCheckpoint:
    if not Path(path).exists():
        raise DataError(
            f"checkpoint not found: {path} (run 'epicast train' to create one)"
        )
    try:
        return training.load_checkpoint(path)
    except ValueError as err:
        raise DataError(str(err)) from None


def _check_regions(dataset: datasets.Dataset, manifest: dict) -> None:
    stored = manifest.get("regions")
    if stored is not None and list(stored) != list(dataset.regions):
        raise DataError(
            "checkpoint was trained on different regions than this dataset; "
            "retrain or point --data at the matching dataset"
        )


def _cmd_forecast(args) -> int:
    dataset = datasets.load_dataset(args.data)
    loaded = _load_checkpoint(args.checkpoint)
    _check_regions(dataset, loaded.manifest)
    model = loaded.model
    if model.n_regions != dataset.n_regions:
        raise DataError(
            f"checkpoint expects {model.n_regions} regions, dataset has "
            f"{dataset.n_regions}"
        )
    if args.at is None:
        end_index = dataset.n_days - 1
    else:
        try:
            end_index = dataset.dates.index(args.at)  # every panel date is YYYY-MM-DD
        except ValueError:
            raise DataError(
                f"--at {args.at}: not a date in the dataset "
                f"({dataset.dates[0]} .. {dataset.dates[-1]})"
            ) from None
    t_in = model.config.t_in
    if end_index + 1 < t_in:
        raise DataError(
            f"need {t_in} observed days before {dataset.dates[end_index]}, "
            f"but only {end_index + 1} are available"
        )
    # the one window that ends on the anchor, with no target days: a batch
    window = dataset.day_range(end_index + 1 - t_in, end_index + 1)
    with model.inference():
        result = model.forward(datasets.windowize(window, t_in, 0), training=False)

    beta = np.clip(result.beta.data[0], RATE_EPSILON, 1.0 - RATE_EPSILON)
    gamma = np.clip(result.gamma.data[0], RATE_EPSILON, 1.0 - RATE_EPSILON)
    suppressed = np.clip(
        result.suppressed_beta.data[0], RATE_EPSILON, 1.0 - RATE_EPSILON
    )
    base_date = date_type.fromisoformat(dataset.dates[end_index])
    leads = range(1, model.config.t_out + 1)
    # each column broadcasts to (regions, lead days); rows run lead-major
    columns = {
        "date": np.array(
            [(base_date + timedelta(days=lead)).isoformat() for lead in leads], dtype=object
        ),
        "lead_day": np.array(leads),
        "region": np.array(datasets._quoted(dataset.regions), dtype=object)[:, None],
        "cases_pred": result.cases.data[0],
        "beta": beta,
        "beta_suppressed": suppressed,
        "gamma": gamma,
        "transmission_strength": result.strength[0],
        "small_rates_flag": result.small_flags[0, :, None].astype(int),
        "quiet_history_flag": result.quiet_flags[0, :, None].astype(int),
        "suppressed_flag": result.flags[0, :, None].astype(int),
        **{name: result.trajectories[name][0]
           for name in ("susceptible", "infected", "recovered")},
    }
    for name, values in columns.items():
        if values.dtype != object and not np.isfinite(values).all():
            raise DataError(
                f"forecast from {dataset.dates[end_index]}: column {name!r} "
                f"holds a non-finite value; nothing was written"
            )
    # csv.writer's bytes in one pass: names are spelt as it quotes them,
    # dates and numbers never need quoting
    shape = (dataset.n_regions, model.config.t_out)
    cells = [np.broadcast_to(values, shape).T.ravel().tolist() for values in columns.values()]
    row = ",".join("%s" if v.dtype == object else "%.10g" for v in columns.values()) + "\r\n"
    text = ",".join(columns) + "\r\n" + row * len(cells[0]) % tuple(
        chain.from_iterable(zip(*cells))
    )

    out = Path(args.out)
    with datasets.atomic_write(out) as handle:
        handle.write(text)
    suppressed_count = int(result.flags.sum())
    print(
        f"forecast from {dataset.dates[end_index]} for {model.config.t_out} days "
        f"({suppressed_count}/{dataset.n_regions} regions suppressed) -> {out}"
    )
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    dataset = datasets.load_dataset(args.data)
    loaded = _load_checkpoint(args.checkpoint)
    _check_regions(dataset, loaded.manifest)
    model = loaded.model
    splits = dict(
        zip(("train", "val", "test"), datasets.chronological_split(dataset))
    )
    splits["full"] = dataset
    segment = splits[args.split]
    windows = datasets.windowize(segment, model.config.t_in, model.config.t_out)
    predictions = np.concatenate([c for _, c in training.predict_batches(model, windows)])
    truth = windows.targets
    days = tuple(d for d in (3, 7, 14) if d <= model.config.t_out)
    model_report = evaluation.horizon_report(predictions, truth, days=days)
    last_observed = windows.observations[:, :, -1, CASES_CHANNEL]
    baseline = evaluation.persistence_baseline(last_observed, model.config.t_out)
    baseline_report = evaluation.horizon_report(baseline, truth, days=days)

    print(
        evaluation.report_table(
            model_report, title=f"model ({args.split} split, {len(windows)} windows)"
        )
    )
    print(evaluation.report_table(baseline_report, title="persistence baseline"))
    if args.out:
        with datasets.atomic_write(args.out) as handle:
            sources = {"model": model_report, "persistence": baseline_report}
            rows = [
                {"source": source, **row}
                for source, report in sources.items()
                for row in evaluation.report_rows(report)
            ]
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"report -> {args.out}")
    return EXIT_OK


def tiny_gradcheck_setup(seed: int = 7):
    """Small but fully generic configuration for finite-difference checks."""
    config = ModelConfig(
        t_in=8,
        t_out=4,
        pattern_count=4,
        pattern_window=7,
        pattern_key_dim=8,
        pattern_embed_dim=8,
        lifted_channels=8,
        attention_heads=4,
        backbone=BackboneConfig(
            hidden_dim=8, skip_dim=8, output_dim=8, kernel_size=2, dilations=(1, 2, 4)
        ),
    )
    # Small populations keep pooled flows and the learned case correction on
    # comparable scales, which keeps every finite difference well conditioned.
    scenario = SyntheticScenario(
        seed=seed,
        n_regions=3,
        length=40,
        noise=0.05,
        population_low=60.0,
        population_high=400.0,
        initial_infected_fraction=0.05,
    )
    dataset = datasets.generate_synthetic(scenario)
    windows = datasets.windowize(dataset, config.t_in, config.t_out)
    batch = windows.batch(np.arange(min(4, len(windows))))
    model = ForecastModel(config, dataset.n_regions, seed=seed)
    model.set_scaler(*datasets.channel_scaler(windows))
    # The blend and the retrieval scale initialize at exactly zero, which
    # silences entire parameter groups; probe at a generic operating point.
    # The dependency and memory paths are smooth (softmax/sigmoid) but
    # heavily attenuated, so they get a strong perturbation to lift their
    # gradients off the finite-difference noise floor; the backbone keeps a
    # gentle one so no activation sits within a step of a relu/min kink.
    rng = np.random.default_rng([seed, 11])
    params = model.parameters()
    for name, tensor in params.items():
        if name.startswith(("attention.", "spatial.", "gate.")):
            spread = 0.4  # attenuated but smooth: lift gradients well off zero
        else:
            spread = 0.05  # generic nudge; keeps kinked paths off boundaries
        tensor.data += rng.normal(0.0, spread, size=tensor.data.shape)
    params["enhance.blend"].data[...] = 0.9
    # A large retrieval scale amplifies every memory-bank gradient linearly
    # without sharpening its softmax, keeping that path's finite differences
    # well conditioned.
    params["memory.scale"].data[...] = 5.0
    return model, batch


def _cmd_gradcheck(args) -> int:
    model, batch = tiny_gradcheck_setup(seed=args.seed)
    report = training.gradient_check(
        model,
        batch,
        samples_per_group=args.samples,
        fd_step=args.step,
        tolerance=args.tolerance,
        seed=args.seed,
    )
    width = max(len(name) for name in report.groups)
    print(f"{'parameter group':<{width}}  checked  max rel err  status")
    for name, group in report.groups.items():
        status = "ok" if group.max_rel_error < report.tolerance else "FAIL"
        print(
            f"{name:<{width}}  {group.checked:7d}  {group.max_rel_error:11.3e}  "
            f"{status}"
        )
    if report.passed:
        print(f"all gradients within {report.tolerance:g} relative tolerance")
        return EXIT_OK
    print(
        f"gradient check FAILED against tolerance {report.tolerance:g}; "
        f"see groups above",
        file=sys.stderr,
    )
    return EXIT_VERIFY


# ----------------------------------------------------------------- entry point


def _flag(cast, rule: str, ok):
    """An argparse ``type``: ``cast`` the text, then refuse what ``ok`` does,
    so the usage error names the flag before any work starts."""

    def convert(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    convert.__name__ = cast.__name__  # argparse's "invalid float value" wording
    return convert


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built once per process: parsing reads it and never
    changes it, so every ``main`` call shares it."""
    parser = _Parser(
        prog="epicast",
        description=(
            "Hybrid epidemic forecasting: learned per-region transmission and "
            "recovery rates driving a mechanistic metapopulation rollout."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output directory for the CSVs")
    p.add_argument("--config", help="YAML file with a 'synthetic' section")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--regions", type=int, help="override the region count")
    p.add_argument("--length", type=int, help="override the number of days")
    p.add_argument("--noise", type=float, help="override the observation noise")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="fit a model on a dataset directory")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint file to write")
    p.add_argument("--config", help="YAML file with 'model'/'training' sections")
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch lines")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("forecast", help="roll a trained model forward")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--checkpoint", required=True, help="checkpoint from 'train'")
    p.add_argument("--out", required=True, help="forecast CSV to write")
    p.add_argument(
        "--at",
        help="last observed date (ISO) the forecast starts after "
        "(default: final day)",
    )
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("evaluate", help="score a checkpoint against a baseline")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--checkpoint", required=True, help="checkpoint from 'train'")
    p.add_argument(
        "--split",
        choices=("train", "val", "test", "full"),
        default="test",
        help="which chronological segment to score (default: test)",
    )
    p.add_argument("--out", help="optional report CSV")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("gradcheck", help="verify gradients by finite differences")
    positive = _flag(float, "> 0 and finite", lambda v: 0.0 < v < math.inf)
    p.add_argument(
        "--samples", type=_flag(int, ">= 1", lambda v: v >= 1), default=50,
        help="probes per group",
    )
    p.add_argument("--step", type=positive, default=1e-5, help="finite-difference step")
    p.add_argument("--tolerance", type=positive, default=1e-4, help="relative tolerance")
    p.add_argument(
        "--seed", type=_flag(int, ">= 0", lambda v: v >= 0), default=7,
        help="setup and sampling seed",
    )
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_help()
            return EXIT_USAGE
        return args.func(args)
    except (UsageError, ConfigRangeError) as err:
        where = "config " if isinstance(err, ConfigRangeError) else ""
        print(f"error: {where}{err}", file=sys.stderr)
        print("run 'epicast --help' for usage", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ValidationError, OSError) as err:
        # OSError: a missing input, or an input or output path that is a directory
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

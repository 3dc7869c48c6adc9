"""Training loop, optimizer, curriculum, checkpointing, gradient checking.

Training minimizes mean absolute error on raw daily cases.  The horizon a
batch is scored on grows with the iteration counter (curriculum), while
validation always scores the full horizon.  Optimization is adaptive-moment
descent with decoupled weight decay, so a parameter with zero gradient
still shrinks by ``lr * weight_decay`` of itself each step.

Checkpoint container (documented layout, version 1):

* bytes 0-7: magic ``EPCAST\\x00\\x01`` (last byte is the format version);
* bytes 8-11: little-endian uint32 manifest length ``M``;
* bytes 12 .. 12+M: UTF-8 JSON manifest with the model configuration, its
  sha256 hash, region names, scaler statistics, the smoothing state
  (``ema``: one number or null per threshold kind), training provenance
  (epoch, validation loss), and per-parameter ``name``/``shape``/
  ``offset``/``count`` records in table order (byte offsets);
* the rest: the model's flat parameter table ``data`` as raw little-endian
  float64 bytes, that is each parameter's bytes in manifest order.

Round trips are bit-exact: identical state serializes to identical bytes.
A checkpoint is written to a temporary sibling and renamed into place, so a
failed save leaves the previous file intact.  Loading raises a
``ValueError`` naming the file when the manifest is not UTF-8 JSON, when a
manifest key is missing, of the wrong JSON type or of a value the model
cannot take (naming the key; ``ema`` must hold exactly the four threshold
kinds), when the records differ from the layout of the model the stored
configuration builds (naming the first differing record), when the
payload is not exactly that layout's size, or when it holds a NaN or an
infinity (naming the first record that does).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Parameters
from .datasets import WindowSet, atomic_write
from .domain import ConfigRangeError, DimensionMismatchError, check_ranges, config_from
from .pipeline import ForecastModel, ModelConfig
from .suppression import THRESHOLD_KINDS

__all__ = [
    "Adam",
    "GradientCheckReport",
    "GroupCheck",
    "TrainConfig",
    "TrainingDivergedError",
    "TrainingHistory",
    "curriculum_horizon",
    "fit",
    "gradient_check",
    "load_checkpoint",
    "mae_loss",
    "predict_batches",
    "save_checkpoint",
    "validation_loss",
]

_MAGIC = b"EPCAST\x00\x01"


class TrainingDivergedError(RuntimeError):
    """Raised when a non-finite loss or gradient appears (with context)."""


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    learning_rate: float = 1e-3
    weight_decay: float = 1e-8
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    max_epochs: int = 300
    patience: int = 20
    curriculum_step: int = 300
    seed: int = 2024

    def __post_init__(self):
        check_ranges(self, {
            "batch_size": ">= 1", "learning_rate": "> 0", "weight_decay": ">= 0",
            "beta1": "in [0, 1)", "beta2": "in [0, 1)", "epsilon": "> 0",
            "max_epochs": ">= 1", "patience": ">= 0", "curriculum_step": ">= 0",
            "seed": ">= 0",
        })


def mae_loss(predictions: ad.Tensor, truth: np.ndarray) -> ad.Tensor:
    """Mean absolute error of predicted cases (a Tensor) against the target
    panel (an ndarray), as a scalar Tensor."""
    if predictions.shape != truth.shape:
        raise DimensionMismatchError(
            f"loss shapes differ: predictions {predictions.shape}, truth {truth.shape}"
        )
    return ad.absolute(predictions - truth).mean()


def curriculum_horizon(iteration: int, step: int, full_horizon: int) -> int:
    """Scored horizon after ``iteration`` optimizer steps (1-based days)."""
    if step <= 0:
        return full_horizon
    return min(iteration // step + 1, full_horizon)


class Adam:
    """Adaptive moments with decoupled weight decay: one set of elementwise
    passes over a ``Parameters`` table's flat buffers."""

    def __init__(self, params: Parameters, config: TrainConfig):
        self.params = params
        self.config = config
        self.step_count = 0
        self.first_moment = np.zeros_like(params.data)
        self.second_moment = np.zeros_like(params.data)

    def step(self) -> None:
        cfg = self.config
        self.step_count += 1
        bias1 = 1.0 - cfg.beta1**self.step_count
        bias2 = 1.0 - cfg.beta2**self.step_count
        grad, data = self.params.grad, self.params.data
        m, v = self.first_moment, self.second_moment
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * grad
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * np.square(grad)
        update = (m / bias1) / (np.sqrt(v / bias2) + cfg.epsilon)
        data -= cfg.learning_rate * (cfg.weight_decay * data + update)


@dataclass
class TrainingHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_loss: float = float("inf")
    iterations: int = 0
    stopped_early: bool = False


def _batch_order(count: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(count)
    for start in range(0, count, batch_size):
        yield order[start : start + batch_size]


def predict_batches(model: ForecastModel, windows: WindowSet, batch_size: int = 32):
    """Each consecutive batch of ``windows`` with its predicted cases, from
    tape-free forwards that leave the smoothing state alone.

    Each batch is a slice of ``windows``: views, not copies, so the mobility
    windows are read in place from the segment's flows."""
    with model.inference():
        for start in range(0, len(windows), batch_size):
            batch = windows.batch(slice(start, start + batch_size))
            yield batch, model.forward(batch, training=False).cases.data


def validation_loss(
    model: ForecastModel, windows: WindowSet, batch_size: int = 32
) -> float:
    """Full-horizon MAE over a window set (no smoothing updates)."""
    total_error = 0.0
    total_count = 0
    for batch, cases in predict_batches(model, windows, batch_size):
        total_error += float(np.abs(cases - batch.targets).sum())
        total_count += batch.targets.size
    return total_error / total_count


def _snapshot(model: ForecastModel) -> dict:
    return {"params": model.parameters().data.copy(), "ema": dict(model.ema)}


def _restore(model: ForecastModel, snapshot: dict) -> None:
    model.parameters().data[...] = snapshot["params"]
    model.ema = dict(snapshot["ema"])


def fit(
    model: ForecastModel,
    train_windows: WindowSet,
    val_windows: WindowSet,
    config: TrainConfig = TrainConfig(),
    log=None,
) -> TrainingHistory:
    """Train until the validation loss stalls; leave the model at its best.

    Shuffling, initialization, and smoothing updates are all driven by
    seeded generators, so identical inputs reproduce identical floats.
    """
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.parameters(), config)
    history = TrainingHistory()
    best = _snapshot(model)
    since_best = 0
    t_out = train_windows.t_out
    for epoch in range(config.max_epochs):
        epoch_error = 0.0
        epoch_count = 0
        for indices in _batch_order(len(train_windows), config.batch_size, rng):
            batch = train_windows.batch(indices)
            horizon = curriculum_horizon(
                history.iterations, config.curriculum_step, t_out
            )
            model.zero_grad()
            result = model.forward(batch, training=True)
            sliced = result.cases[:, :, :horizon]
            loss = mae_loss(sliced, batch.targets[:, :, :horizon])
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite training loss {value} at epoch {epoch}, "
                    f"iteration {history.iterations} (horizon {horizon}); "
                    f"inspect the learning rate and input scaling"
                )
            loss.backward()
            if not np.isfinite(optimizer.params.grad).all():
                name = next(
                    name for name, param in optimizer.params.items()
                    if param.grad is not None and not np.isfinite(param.grad).all()
                )
                raise TrainingDivergedError(
                    f"non-finite gradient in parameter group {name!r} at epoch {epoch}, "
                    f"iteration {history.iterations}; this step's update was not applied"
                )
            optimizer.step()
            model.clamp_blend()
            history.iterations += 1
            epoch_error += value * sliced.data.size
            epoch_count += sliced.data.size
        train_loss = epoch_error / max(epoch_count, 1)
        val_loss = validation_loss(model, val_windows, config.batch_size)
        history.train_loss.append(train_loss)
        history.val_loss.append(val_loss)
        improved = val_loss < history.best_val_loss
        if improved:
            history.best_val_loss = val_loss
            history.best_epoch = epoch
            best = _snapshot(model)
            since_best = 0
        else:
            since_best += 1
        if log is not None:
            marker = " *" if improved else ""
            log(
                f"epoch {epoch + 1:4d}  train mae {train_loss:12.4f}  "
                f"val mae {val_loss:12.4f}{marker}"
            )
        if since_best > config.patience:
            history.stopped_early = True
            break
    _restore(model, best)
    return history


# ---------------------------------------------------------------- checkpoints


def _config_hash(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _layout(params: Parameters) -> list[dict]:
    """The manifest's ``params`` records, in table order, with byte offsets."""
    records, offset = [], 0
    for name, tensor in params.items():
        count = tensor.size
        records.append(
            {"name": name, "shape": list(tensor.shape), "offset": offset, "count": count}
        )
        offset += 8 * count
    return records


def save_checkpoint(
    model: ForecastModel,
    path: str | Path,
    epoch: int = 0,
    val_loss: float | None = None,
    train_config: TrainConfig | None = None,
    regions: list[str] | None = None,
) -> None:
    """Serialize the model to the versioned container described above."""
    params = model.parameters()
    config = asdict(model.config)
    manifest = {
        "format_version": 1,
        "config_hash": _config_hash(config),
        "model_config": config,
        "n_regions": model.n_regions,
        "regions": regions,
        "seed": model.seed,
        "epoch": epoch,
        "val_loss": val_loss,
        "ema": dict(model.ema),
        "scaler_mean": [float(v) for v in model.scaler_mean],
        "scaler_scale": [float(v) for v in model.scaler_scale],
        "train_config": asdict(train_config) if train_config else None,
        "params": _layout(params),
    }
    encoded = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with atomic_write(path, binary=True) as handle:
        handle.write(_MAGIC)
        handle.write(len(encoded).to_bytes(4, "little"))
        handle.write(encoded)
        handle.write(params.data.astype("<f8", copy=False).tobytes())


# Manifest keys that loading reads, with the JSON type each must have.
_MANIFEST_KEYS = {
    "config_hash": str,
    "model_config": dict,
    "n_regions": int,
    "seed": int,
    "params": list,
    "scaler_mean": list,
    "scaler_scale": list,
    "ema": dict,
}
_PARAM_KEYS = {"name": str, "shape": list, "offset": int, "count": int}


def _require_keys(mapping, keys: dict, where: str, path) -> None:
    if not isinstance(mapping, dict):
        raise ValueError(f"{path}: checkpoint {where} is not a JSON object")
    for key, kind in keys.items():
        if key not in mapping:
            raise ValueError(f"{path}: checkpoint {where} lacks key {key!r}")
        value = mapping[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(
                f"{path}: checkpoint {where} key {key!r} must be a JSON "
                f"{kind.__name__}, got {type(value).__name__}"
            )


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_values(manifest: dict, channels: int, path) -> None:
    """Refuse well-typed manifest values that the model cannot take."""
    count, regions, ema = manifest["n_regions"], manifest.get("regions"), manifest["ema"]
    rules = {
        "n_regions": (">= 1", count >= 1),
        "seed": (">= 0", manifest["seed"] >= 0),
        "regions": (f"null or a list of {count} names", regions is None or (
            isinstance(regions, list) and len(regions) == count
            and all(isinstance(name, str) for name in regions))),
        "ema": (f"a number or null for exactly {', '.join(THRESHOLD_KINDS)}",
                set(ema) == set(THRESHOLD_KINDS)
                and all(v is None or _is_number(v) for v in ema.values())),
        **{key: (f"a list of {channels} numbers", len(manifest[key]) == channels
                 and all(map(_is_number, manifest[key])))
           for key in ("scaler_mean", "scaler_scale")},
    }
    for key, (rule, ok) in rules.items():
        if not ok:
            raise ValueError(
                f"{path}: checkpoint manifest key {key!r} must be {rule}, "
                f"got {manifest.get(key)!r}"
            )


@dataclass
class LoadedCheckpoint:
    model: ForecastModel
    manifest: dict


def load_checkpoint(path: str | Path) -> LoadedCheckpoint:
    """Rebuild a model bit-for-bit from a checkpoint file."""
    raw = Path(path).read_bytes()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ValueError(
            f"{path}: not a recognized checkpoint (bad magic or version)"
        )
    cursor = len(_MAGIC)
    manifest_length = int.from_bytes(raw[cursor : cursor + 4], "little")
    cursor += 4
    try:
        manifest = json.loads(raw[cursor : cursor + manifest_length].decode("utf-8"))
    except ValueError as err:  # a UnicodeDecodeError or a JSONDecodeError
        raise ValueError(f"{path}: checkpoint manifest is not UTF-8 JSON ({err})") from None
    cursor += manifest_length
    payload = raw[cursor:]
    _require_keys(manifest, _MANIFEST_KEYS, "manifest", path)
    for index, record in enumerate(manifest["params"]):
        _require_keys(record, _PARAM_KEYS, f"manifest params[{index}]", path)
    try:
        config = config_from(
            ModelConfig, manifest["model_config"], "model_config", yaml_keys=False
        )
    except ConfigRangeError as err:
        raise ValueError(
            f"{path}: checkpoint manifest key 'model_config' is malformed ({err})"
        ) from None
    # the stored payload, not ``config``: a float field that a caller set to
    # an int is stored as one but reads back as a float
    if _config_hash(manifest["model_config"]) != manifest["config_hash"]:
        raise ValueError(f"{path}: configuration hash mismatch")
    _check_values(manifest, config.channels, path)
    model = ForecastModel(config, manifest["n_regions"], seed=manifest["seed"])
    params = model.parameters()
    stored, expected = manifest["params"], _layout(params)
    if stored != expected:
        pad = [None] * abs(len(stored) - len(expected))  # a missing record reads null
        index, (have, want) = next(
            (index, pair)
            for index, pair in enumerate(zip(stored + pad, expected + pad))
            if pair[0] != pair[1]
        )
        have, want = (json.dumps(record, sort_keys=True) for record in (have, want))
        raise ValueError(
            f"{path}: checkpoint manifest params[{index}] is {have}, "
            f"but this build's layout has {want} there"
        )
    if len(payload) != params.data.nbytes:
        raise ValueError(
            f"{path}: checkpoint payload has {len(payload)} bytes, but the "
            f"{len(expected)} parameter records take {params.data.nbytes}"
        )
    params.data[...] = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(params.data).all():
        index, name = next(
            (index, name) for index, (name, leaf) in enumerate(params.items())
            if not np.isfinite(leaf.data).all()
        )
        raise ValueError(
            f"{path}: checkpoint payload of manifest params[{index}] ({name!r}) "
            f"holds a non-finite value"
        )
    model.set_scaler(manifest["scaler_mean"], manifest["scaler_scale"])
    model.ema = {kind: manifest["ema"][kind] for kind in THRESHOLD_KINDS}
    return LoadedCheckpoint(model=model, manifest=manifest)


# ------------------------------------------------------------- gradient check


@dataclass
class GroupCheck:
    checked: int
    max_rel_error: float
    worst_index: tuple[int, ...] | None
    analytic_at_worst: float
    numeric_at_worst: float


@dataclass
class GradientCheckReport:
    groups: dict[str, GroupCheck]
    tolerance: float
    passed: bool


def gradient_check(
    model: ForecastModel,
    batch,
    samples_per_group: int = 50,
    fd_step: float = 1e-5,
    tolerance: float = 1e-4,
    seed: int = 0,
) -> GradientCheckReport:
    """Compare backpropagated gradients with central finite differences.

    The suppression decision from an initial pass is frozen for every
    evaluation, matching its constant role in training.  Each parameter
    group is probed at up to ``samples_per_group`` randomly chosen entries;
    the relative error guards its denominator so exactly-zero pairs count
    as exact agreement.  Every forward runs both fused nodes, the attention
    dependency and the backbone, in float64 (``ForecastModel.float64_compute``),
    as everything outside them always does; training and forecasting run
    those two nodes in float32.
    """
    # float32 rounding in the fused nodes would swamp the finite differences
    with model.float64_compute():
        rng = np.random.default_rng(seed)
        with model.inference():
            flags = model.forward(batch, training=False).flags

        def loss_tensor():
            result = model.forward(batch, training=False, fixed_filter=flags)
            return mae_loss(result.cases, batch.targets)

        def numeric_loss() -> float:
            with model.inference():  # the finite differences need no tape
                return loss_tensor().item()

        model.zero_grad()
        loss = loss_tensor()
        loss.backward()
        params = model.parameters()
        analytic = {
            name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()
        }

        groups: dict[str, GroupCheck] = {}
        passed = True
        for name, param in params.items():
            flat = param.data.reshape(-1)
            count = min(samples_per_group, flat.size)
            chosen = rng.choice(flat.size, size=count, replace=False)
            worst = GroupCheck(
                checked=count,
                max_rel_error=0.0,
                worst_index=None,
                analytic_at_worst=0.0,
                numeric_at_worst=0.0,
            )
            for index in chosen:
                original = flat[index]
                flat[index] = original + fd_step
                upper = numeric_loss()
                flat[index] = original - fd_step
                lower = numeric_loss()
                flat[index] = original
                numeric = (upper - lower) / (2.0 * fd_step)
                exact = float(analytic[name].reshape(-1)[index])
                scale = max(abs(exact), abs(numeric), 1e-10)
                rel = abs(exact - numeric) / scale
                if rel > worst.max_rel_error:
                    worst.max_rel_error = rel
                    worst.worst_index = tuple(
                        int(i) for i in np.unravel_index(index, param.data.shape)
                    )
                    worst.analytic_at_worst = exact
                    worst.numeric_at_worst = numeric
            groups[name] = worst
            if worst.max_rel_error >= tolerance:
                passed = False
        return GradientCheckReport(groups=groups, tolerance=tolerance, passed=passed)

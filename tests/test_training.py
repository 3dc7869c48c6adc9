"""Training loop machinery: loss, curriculum, optimizer, checkpointing,
early stopping, and run-to-run determinism."""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from epicast import datasets, estimator, training
from epicast.autodiff import Parameters, Tensor
from epicast.domain import DimensionMismatchError
from epicast.pipeline import ForecastModel
from epicast.suppression import ThresholdConfig
from epicast.training import (
    Adam,
    TrainConfig,
    TrainingDivergedError,
    curriculum_horizon,
    fit,
    gradient_check,
    load_checkpoint,
    mae_loss,
    save_checkpoint,
    validation_loss,
)

from conftest import (
    assert_leaves_view_the_table,
    rng_for,
    small_model_config,
    small_scenario,
)

DATA = Path(__file__).parent / "data"


def build_windows(scenario=None, config=None):
    config = config or small_model_config()
    # 120 days split 6:1:1 leaves 15-day segments, enough for 8+4 windows
    data = datasets.generate_synthetic(scenario or small_scenario(length=120))
    train, val, _ = datasets.chronological_split(data)
    return (
        datasets.windowize(train, config.t_in, config.t_out),
        datasets.windowize(val, config.t_in, config.t_out),
        config,
    )


def build_model(train_windows, config, seed=3):
    model = ForecastModel(config, n_regions=len(train_windows.regions), seed=seed)
    obs = train_windows.observations
    model.set_scaler(obs.mean(axis=(0, 1, 2)), obs.std(axis=(0, 1, 2)))
    return model


class TestMaeLoss:
    def test_constant_predictions(self):
        pred = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        truth = np.array([[1.0, 4.0], [0.0, 4.0]])
        loss = mae_loss(pred, truth)
        assert loss.item() == pytest.approx(1.25)
        assert not loss.requires_grad

    def test_tensor_gradient_is_sign_over_count(self):
        pred = Tensor(np.array([2.0, -1.0, 5.0]), requires_grad=True)
        truth = np.array([1.0, 1.0, 5.0])
        loss = mae_loss(pred, truth)
        loss.backward()
        np.testing.assert_allclose(pred.grad, [1 / 3, -1 / 3, 0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            mae_loss(Tensor(np.zeros((2, 3))), np.zeros((3, 2)))


class TestCurriculum:
    def test_grows_one_day_per_step_block(self):
        horizons = [curriculum_horizon(i, step=3, full_horizon=5) for i in range(20)]
        assert horizons[:3] == [1, 1, 1]
        assert horizons[3:6] == [2, 2, 2]
        assert horizons[12:15] == [5, 5, 5]
        assert horizons[15:] == [5] * 5  # saturates at the full horizon

    def test_nonpositive_step_disables_curriculum(self):
        assert curriculum_horizon(0, step=0, full_horizon=7) == 7
        assert curriculum_horizon(0, step=-1, full_horizon=7) == 7


def reference_adam(params, grads, config, steps):
    """Independent loop implementation of the decoupled-decay update."""
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(val) for k, val in params.items()}
    out = {k: val.copy() for k, val in params.items()}
    for t in range(1, steps + 1):
        for key in out:
            g = grads[key][t - 1]
            m[key] = config.beta1 * m[key] + (1 - config.beta1) * g
            v[key] = config.beta2 * v[key] + (1 - config.beta2) * g * g
            m_hat = m[key] / (1 - config.beta1**t)
            v_hat = v[key] / (1 - config.beta2**t)
            out[key] -= config.learning_rate * (
                config.weight_decay * out[key]
                + m_hat / (np.sqrt(v_hat) + config.epsilon)
            )
    return out


def give_gradients(params, grads):
    """Set each named leaf's gradient exactly, through a backward pass."""
    params.zero_grad()
    for name, grad in grads.items():
        (params[name] * grad).sum().backward()


class TestAdam:
    def test_matches_reference_implementation(self):
        rng = rng_for(500)
        config = TrainConfig(learning_rate=0.01, weight_decay=0.1)
        shapes = {"a": (3, 2), "b": (4,), "c": ()}
        start = {k: rng.standard_normal(s) for k, s in shapes.items()}
        steps = 7
        grads = {
            k: [rng.standard_normal(s) for _ in range(steps)] for k, s in shapes.items()
        }
        params = Parameters(start)
        optimizer = Adam(params, config)
        for t in range(steps):
            give_gradients(params, {k: grads[k][t] for k in params})
            optimizer.step()
        want = reference_adam(start, grads, config, steps)
        for k in params:
            np.testing.assert_allclose(params[k].data, want[k], atol=1e-12)

    def test_decay_decoupled_from_gradient(self):
        # a parameter with zero gradient still shrinks by lr * wd * theta
        config = TrainConfig(learning_rate=0.1, weight_decay=0.01)
        params = Parameters({"theta": np.array([2.0, -4.0])})
        optimizer = Adam(params, config)
        give_gradients(params, {"theta": np.zeros(2)})
        optimizer.step()
        np.testing.assert_allclose(
            params["theta"].data, np.array([2.0, -4.0]) * (1 - 0.1 * 0.01), atol=1e-15
        )

    def test_none_gradient_treated_as_zero(self):
        config = TrainConfig(learning_rate=0.1, weight_decay=0.01)
        params = Parameters({"theta": np.array([1.0]), "other": np.array([3.0])})
        optimizer = Adam(params, config)
        give_gradients(params, {"other": np.array([2.0])})
        assert params["theta"].grad is None
        optimizer.step()
        np.testing.assert_allclose(params["theta"].data, [1.0 * (1 - 0.001)], atol=1e-15)

    def test_first_step_magnitude_is_learning_rate(self):
        config = TrainConfig(learning_rate=0.05, weight_decay=0.0)
        params = Parameters({"theta": np.array([0.0])})
        optimizer = Adam(params, config)
        give_gradients(params, {"theta": np.array([7.3])})
        optimizer.step()
        # bias correction makes the first update lr * g / (|g| + eps)
        assert float(params["theta"].data[0]) == pytest.approx(-0.05, rel=1e-6)


class TestTrainConfig:
    def test_to_dict_round_trips_every_field(self):
        config = TrainConfig(batch_size=8, max_epochs=2, seed=99)
        payload = asdict(config)
        rebuilt = TrainConfig(**payload)
        assert rebuilt == config


class TestValidationLoss:
    def test_equals_manual_mae(self):
        train_w, val_w, config = build_windows()
        model = build_model(train_w, config)
        got = validation_loss(model, val_w, batch_size=3)
        result = model.forward(val_w.batch(np.arange(len(val_w))), training=False)
        want = float(np.abs(result.cases.data - val_w.targets).mean())
        assert got == pytest.approx(want, rel=1e-12)

    def test_slice_batches_give_the_gathered_batches_loss_bitwise(self):
        # validation reads its mobility windows in place; the sum it reports
        # is the one that gathered index-array batches give
        train_w, val_w, config = build_windows()
        model = build_model(train_w, config)
        total, count = 0.0, 0
        with model.inference():
            for start in range(0, len(val_w), 3):
                batch = val_w.batch(np.arange(start, min(start + 3, len(val_w))))
                cases = model.forward(batch, training=False).cases.data
                total += float(np.abs(cases - batch.targets).sum())
                count += batch.targets.size
        assert validation_loss(model, val_w, batch_size=3) == total / count


class TestFit:
    def test_loss_improves_and_history_is_consistent(self):
        train_w, val_w, config = build_windows()
        model = build_model(train_w, config)
        t_config = TrainConfig(
            batch_size=8, max_epochs=8, patience=50, curriculum_step=2, seed=0
        )
        start_val = validation_loss(model, val_w)
        history = fit(model, train_w, val_w, t_config)
        assert len(history.train_loss) == len(history.val_loss) <= 8
        assert history.best_val_loss <= start_val
        assert history.best_epoch == int(np.argmin(history.val_loss))
        # the model is left at its best-validation state
        assert validation_loss(model, val_w) == pytest.approx(
            history.best_val_loss, rel=1e-12
        )
        assert_leaves_view_the_table(model.parameters())

    def test_early_stopping_fires(self):
        train_w, val_w, config = build_windows()
        model = build_model(train_w, config)
        t_config = TrainConfig(batch_size=8, max_epochs=50, patience=1, seed=0)
        history = fit(model, train_w, val_w, t_config)
        assert history.stopped_early
        assert len(history.val_loss) < 50

    def test_non_finite_loss_raises_with_context(self):
        # the clamped mechanistic core keeps predictions finite even under
        # absurd learning rates, so trip the guard through the loss itself
        train_w, val_w, config = build_windows()
        model = build_model(train_w, config)
        train_w.targets[0, 0, 0] = np.nan
        t_config = TrainConfig(batch_size=len(train_w), max_epochs=3, seed=0)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            fit(model, train_w, val_w, t_config)

    def test_non_finite_gradient_raises_before_the_update(self, monkeypatch):
        # a finite loss can still backpropagate an inf/NaN into one group;
        # Adam must never fold it into its moments
        train_w, val_w, config = build_windows()
        model = build_model(train_w, config)
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        backward = Tensor.backward

        def poisoned(self, seed=None):
            backward(self, seed)
            model.parameters()["lift.bias"].grad[1] = np.nan  # in place: a table view

        monkeypatch.setattr(Tensor, "backward", poisoned)
        t_config = TrainConfig(batch_size=8, max_epochs=3, seed=0)
        message = r"group 'lift\.bias'.*this step's update was not applied"
        with pytest.raises(TrainingDivergedError, match=message):
            fit(model, train_w, val_w, t_config)
        for name, param in model.parameters().items():
            np.testing.assert_array_equal(param.data, before[name], err_msg=name)

    def test_identical_seeds_reproduce_identical_history(self):
        train_w, val_w, config = build_windows()
        t_config = TrainConfig(batch_size=8, max_epochs=3, patience=10, seed=7)
        runs = []
        for _ in range(2):
            model = build_model(train_w, config, seed=5)
            history = fit(model, train_w, val_w, t_config)
            runs.append((history, {k: v.data.copy() for k, v in model.parameters().items()}))
        h0, p0 = runs[0]
        h1, p1 = runs[1]
        assert h0.train_loss == h1.train_loss
        assert h0.val_loss == h1.val_loss
        for key in p0:
            np.testing.assert_array_equal(p0[key], p1[key])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        train_w, val_w, config = build_windows()
        model = build_model(train_w, config)
        model.ema["beta"] = 0.123
        path = tmp_path / "model.ckpt"
        t_config = TrainConfig(max_epochs=5)
        save_checkpoint(
            model,
            path,
            epoch=4,
            val_loss=1.5,
            train_config=t_config,
            regions=list(train_w.regions),
        )
        loaded = load_checkpoint(path)
        for name, tensor in model.parameters().items():
            np.testing.assert_array_equal(
                loaded.model.parameters()[name].data, tensor.data
            )
        np.testing.assert_array_equal(loaded.model.scaler_mean, model.scaler_mean)
        np.testing.assert_array_equal(loaded.model.scaler_scale, model.scaler_scale)
        assert loaded.model.ema == model.ema and model.ema["beta"] == 0.123
        assert loaded.manifest["epoch"] == 4
        assert loaded.manifest["val_loss"] == 1.5
        assert loaded.manifest["regions"] == list(train_w.regions)
        assert loaded.manifest["train_config"] == asdict(t_config)

    def test_float_field_set_to_an_int_loads(self, tmp_path):
        # stored as 1, read back as 1.0: the hash covers the stored payload
        train_w, _, config = build_windows()
        config = replace(config, thresholds=ThresholdConfig(downscale=1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(train_w, config), path)
        loaded = load_checkpoint(path)
        assert loaded.model.config == config
        assert type(loaded.model.config.thresholds.downscale) is float

    def test_saved_twice_is_byte_identical(self, tmp_path):
        train_w, _, config = build_windows()
        model = build_model(train_w, config)
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        save_checkpoint(model, a)
        save_checkpoint(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_reload_forward_identical(self, tmp_path):
        train_w, val_w, config = build_windows()
        model = build_model(train_w, config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        clone = load_checkpoint(path).model
        batch = val_w.batch(np.arange(min(3, len(val_w))))
        np.testing.assert_array_equal(
            model.forward(batch).cases.data, clone.forward(batch).cases.data
        )

    def test_loaded_leaves_view_the_table(self, tmp_path):
        train_w, _, config = build_windows()
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(train_w, config), path)
        model = load_checkpoint(path).model
        batch = train_w.batch(np.arange(2))
        mae_loss(model.forward(batch).cases, batch.targets).backward()
        params = model.parameters()
        assert any(p.grad is not None for p in params.values())
        assert_leaves_view_the_table(params)

    def test_bytes_follow_the_documented_layout(self, tmp_path):
        # magic, manifest length, sorted-key JSON manifest, then each
        # record's float64 bytes in manifest order at its byte offset
        train_w, _, config = build_windows()
        model = build_model(train_w, config)
        params = model.parameters()
        params.data += rng_for(510).normal(0.0, 0.1, params.data.shape)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, epoch=2, regions=list(train_w.regions))
        raw = path.read_bytes()
        length = int.from_bytes(raw[8:12], "little")
        manifest = json.loads(raw[12 : 12 + length])
        encoded = json.dumps(manifest, sort_keys=True).encode("utf-8")
        records = manifest["params"]
        assert [record["name"] for record in records] == list(params)
        blobs = []
        for record in records:
            tensor = params[record["name"]]
            assert record == {
                "name": record["name"],
                "shape": list(tensor.data.shape),
                "offset": sum(len(blob) for blob in blobs),
                "count": tensor.data.size,
            }
            blobs.append(tensor.data.astype("<f8").tobytes())
        want = b"EPCAST\x00\x01" + len(encoded).to_bytes(4, "little") + encoded
        assert raw == want + b"".join(blobs)

    def test_float32_backbone_step_keeps_the_table_float64(self, tmp_path):
        # the backbone computes in float32 inside its node; the table, its
        # gradients, Adam and the checkpoint stay float64
        train_w, _, config = build_windows()
        model = build_model(train_w, config)
        batch = train_w.batch(np.arange(4))
        optimizer = Adam(model.parameters(), TrainConfig())
        model.zero_grad()
        mae_loss(model.forward(batch, training=True).cases, batch.targets).backward()
        optimizer.step()
        params = model.parameters()
        assert params.data.dtype == np.float64 and params.grad.dtype == np.float64
        assert params["backbone.input_weight"].grad.dtype == np.float64
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        payload = raw[12 + int.from_bytes(raw[8:12], "little") :]
        assert len(payload) == 8 * params.data.size
        np.testing.assert_array_equal(np.frombuffer(payload, dtype="<f8"), params.data)

    def test_checkpoint_from_the_float64_backbone_loads_and_forecasts(self):
        # small_model.ckpt was saved while the backbone still computed in
        # float64: build_model's model, its parameters moved by a seeded
        # normal draw; small_model_cases.npy holds that code's forecast of the
        # first three validation windows
        _, val_w, _ = build_windows()
        model = load_checkpoint(DATA / "small_model.ckpt").model
        want = np.load(DATA / "small_model_cases.npy")
        batch = val_w.batch(np.arange(3))
        with model.inference():
            np.testing.assert_allclose(model.forward(batch).cases.data, want, rtol=1e-5)
            with model.float64_compute():
                np.testing.assert_array_equal(model.forward(batch).cases.data, want)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic|recognized"):
            load_checkpoint(path)

    def test_failed_save_leaves_previous_file_intact(self, tmp_path, monkeypatch):
        train_w, _, config = build_windows()
        path = tmp_path / "model.ckpt"
        save_checkpoint(build_model(train_w, config, seed=3), path)
        before = path.read_bytes()

        def full_disk(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(datasets.os, "fsync", full_disk)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(build_model(train_w, config, seed=4), path, epoch=9)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_truncated_payload_rejected(self, tmp_path):
        train_w, _, config = build_windows()
        model = build_model(train_w, config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestGradientCheck:
    def test_runs_both_fused_nodes_in_float64(self, monkeypatch):
        # spies record the compute dtype of every call of the two fused nodes
        seen = {"dependency": [], "backbone": []}
        dependency, backbone_call = estimator.dynamic_dependency, estimator.Backbone.__call__

        def dependency_spy(*args, dtype=np.float32, **kwargs):
            seen["dependency"].append(np.dtype(dtype))
            return dependency(*args, dtype=dtype, **kwargs)

        def backbone_spy(self, *args):
            seen["backbone"].append(self.dtype)
            return backbone_call(self, *args)

        monkeypatch.setattr(estimator, "dynamic_dependency", dependency_spy)
        monkeypatch.setattr(estimator.Backbone, "__call__", backbone_spy)
        train_w, _, config = build_windows()
        model = build_model(train_w, config)
        batch = train_w.batch(np.arange(2))

        def dtypes_of(run) -> dict:
            for calls in seen.values():
                calls.clear()
            run()
            return {node: set(calls) for node, calls in seen.items()}

        def forward():
            with model.inference():
                model.forward(batch)

        float32, float64 = {np.dtype(np.float32)}, {np.dtype(np.float64)}
        assert dtypes_of(forward) == {"dependency": float32, "backbone": float32}
        def check():
            gradient_check(model, batch, samples_per_group=1, seed=1)

        assert dtypes_of(check) == {"dependency": float64, "backbone": float64}
        assert dtypes_of(forward) == {"dependency": float32, "backbone": float32}

    def test_report_shape_on_tiny_model(self):
        train_w, _, config = build_windows()
        model = build_model(train_w, config)
        batch = train_w.batch(np.arange(2))
        report = gradient_check(model, batch, samples_per_group=3, seed=1)
        group_names = {name.split(".")[0] for name in model.parameters()}
        assert {name.split(".")[0] for name in report.groups} == group_names
        for check in report.groups.values():
            assert check.checked >= 1
            assert np.isfinite(check.max_rel_error)

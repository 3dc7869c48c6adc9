"""End-to-end forecast model: learned rates driving the mechanistic core.

``ForecastModel`` owns every learnable tensor, the input scaler, and the
suppression smoothing state.  ``forward`` consumes a window batch and
produces predicted daily cases along with the intermediate quantities the
CLI exposes (rates before and after suppression, coupling strengths,
flags, trajectories).  The feature path sees standardized channels; the
mechanistic core and the loss stay in raw counts.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import adjacency, estimator, metapop
from .autodiff import Tensor
from .domain import ConfigRangeError, DimensionMismatchError, check_ranges
from .estimator import (
    Backbone,
    BackboneConfig,
    FusionGate,
    ParameterHeads,
    SpatialPrior,
)
from .suppression import EmaState, ThresholdConfig, detect, suppress_beta

__all__ = ["ForecastModel", "ForwardResult", "ModelConfig", "WindowBatch"]

# Channel order inside stacked observation blocks.
CASES_CHANNEL = 0
INFECTED_CHANNEL = 2
# ModelConfig fields that count something, so must be at least 1.
_POSITIVE_SIZES = (
    "t_in", "t_out", "pattern_count", "pattern_window", "pattern_key_dim",
    "pattern_embed_dim", "lifted_channels", "attention_heads",
)


@dataclass(frozen=True)
class ModelConfig:
    """Everything that fixes the model architecture for a dataset."""

    t_in: int = field(default=14, metadata={"key": "input_window"})
    t_out: int = field(default=14, metadata={"key": "forecast_horizon"})
    channels: int = field(default=4, metadata={"key": "input_channels"})
    pattern_count: int = 9
    pattern_window: int = 7
    pattern_key_dim: int = 16
    pattern_embed_dim: int = 16
    lifted_channels: int = 8
    attention_heads: int = 4
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    thresholds: ThresholdConfig = field(
        default_factory=ThresholdConfig, metadata={"key": "suppression"}
    )

    def __post_init__(self):
        # each cross-field error names the field a user would change
        if self.channels < 4:
            raise ConfigRangeError("channels", self.channels, None, (
                f"observations need at least the 4 core channels, got {self.channels}"
            ))
        check_ranges(self, dict.fromkeys(_POSITIVE_SIZES, ">= 1"))
        if self.lifted_channels % self.attention_heads != 0:
            raise ConfigRangeError("attention_heads", self.attention_heads, None, (
                f"{self.attention_heads} attention heads do not evenly divide "
                f"{self.lifted_channels} lifted channels"
            ))
        if self.pattern_window > self.t_in:
            raise ConfigRangeError("pattern_window", self.pattern_window, None, (
                f"pattern window {self.pattern_window} exceeds the "
                f"{self.t_in}-day observation window"
            ))
        if self.backbone.receptive_field < self.t_in:
            raise ConfigRangeError("backbone.dilations", self.backbone.dilations, None, (
                f"backbone receptive field {self.backbone.receptive_field} "
                f"cannot see the full {self.t_in}-day window"
            ))


@dataclass
class WindowBatch:
    """A stack of sliding windows ready for one forward pass.

    Shapes: ``observations`` (B, N, T_in, C); ``mobility`` (B, N, N, T_in);
    start-state vectors (B, N); ``targets`` (B, N, T_out) or None;
    ``population`` (N,).
    """

    observations: np.ndarray
    mobility: np.ndarray
    susceptible0: np.ndarray
    infected0: np.ndarray
    recovered0: np.ndarray
    population: np.ndarray
    targets: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.observations.shape[0]


@dataclass
class ForwardResult:
    """Model outputs plus the diagnostics the CLI and tests inspect."""

    cases: Tensor
    beta: Tensor
    gamma: Tensor
    suppressed_beta: Tensor
    horizon_flows: Tensor
    coupling: Tensor
    small_flags: np.ndarray
    quiet_flags: np.ndarray
    flags: np.ndarray
    strength: np.ndarray
    trajectories: dict


class ForecastModel:
    """Owns parameters, scaler, and smoothing state; runs the forward pass."""

    def __init__(self, config: ModelConfig, n_regions: int, seed: int = 0):
        self.config = config
        self.n_regions = n_regions
        self.seed = seed
        rng = np.random.default_rng(seed)

        self.mobility_transform = adjacency.MobilityForecaster.initialize(
            config.t_in, config.t_out
        )
        self.memory = adjacency.PatternMemory.initialize(
            n_regions,
            rng,
            pattern_count=config.pattern_count,
            window=config.pattern_window,
            key_dim=config.pattern_key_dim,
            embed_dim=config.pattern_embed_dim,
        )
        bound = np.sqrt(6.0 / (2 * config.lifted_channels))
        self.lift_weight = rng.uniform(
            -np.sqrt(6.0 / (config.channels + config.lifted_channels)),
            np.sqrt(6.0 / (config.channels + config.lifted_channels)),
            size=(config.channels, config.lifted_channels),
        )
        self.lift_bias = np.zeros(config.lifted_channels)
        self.query_weight = rng.uniform(
            -bound, bound, size=(config.lifted_channels, config.lifted_channels)
        )
        self.key_weight = rng.uniform(
            -bound, bound, size=(config.lifted_channels, config.lifted_channels)
        )
        self.prior = SpatialPrior.initialize(n_regions)
        self.gate = FusionGate.initialize()
        self.blend = np.zeros(())
        self.backbone = Backbone.initialize(
            config.backbone, config.lifted_channels, config.t_in, config.t_out, rng
        )
        self.heads = ParameterHeads.initialize(config.backbone.output_dim, rng)

        self.scaler_mean = np.zeros(config.channels)
        self.scaler_scale = np.ones(config.channels)
        self.ema = EmaState()
        self._tensorize()

    # ------------------------------------------------------------- parameters

    def _tensorize(self) -> None:
        """Wrap every learnable array in a gradient-tracking Tensor; the order
        of the wraps is the order of ``parameters()``."""
        self._params: dict[str, Tensor] = {}
        self.mobility_transform.transform = self._track(
            "mobility.transform", self.mobility_transform.transform
        )
        for name, value in self.memory.named_arrays().items():
            setattr(self.memory, name, self._track(f"memory.{name}", value))
        self.lift_weight = self._track("lift.weight", self.lift_weight)
        self.lift_bias = self._track("lift.bias", self.lift_bias)
        self.query_weight = self._track("attention.query_weight", self.query_weight)
        self.key_weight = self._track("attention.key_weight", self.key_weight)
        self.prior.weights = self._track("spatial.prior", self.prior.weights)
        for name, value in self.gate.named_arrays().items():
            setattr(self.gate, name, self._track(f"gate.{name}", value))
        self.blend = self._track("enhance.blend", self.blend)
        for name, value in self.backbone.named_arrays().items():
            self.backbone.params[name] = self._track(f"backbone.{name}", value)
        for name, value in self.heads.named_arrays().items():
            setattr(self.heads, name, self._track(f"heads.{name}", value))

    def _track(self, name: str, value) -> Tensor:
        if not isinstance(value, Tensor):
            value = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True, name=name)
        self._params[name] = value
        return value

    def parameters(self) -> dict[str, Tensor]:
        """Flat name-to-tensor view of every learnable parameter."""
        return dict(self._params)

    def zero_grad(self) -> None:
        for tensor in self.parameters().values():
            tensor.grad = None

    @contextmanager
    def inference(self) -> Iterator[None]:
        """Forwards in the block record no tape, for callers that never call
        ``backward``.  Each ``requires_grad`` is restored on exit, also on error.
        """
        saved = [(p, p.requires_grad) for p in self.parameters().values()]
        for p, _ in saved:
            p.requires_grad = False
        try:
            yield
        finally:
            for p, flag in saved:
                p.requires_grad = flag

    def clamp_blend(self) -> None:
        """Keep the enhancement blend inside [0, 1] (called after each step)."""
        np.clip(self.blend.data, 0.0, 1.0, out=self.blend.data)

    def set_scaler(self, mean: np.ndarray, scale: np.ndarray) -> None:
        mean = np.asarray(mean, dtype=np.float64)
        scale = np.asarray(scale, dtype=np.float64)
        if mean.shape != (self.config.channels,) or scale.shape != (
            self.config.channels,
        ):
            raise DimensionMismatchError(
                f"scaler must cover {self.config.channels} channels"
            )
        self.scaler_mean = mean
        self.scaler_scale = np.where(scale < 1e-8, 1.0, scale)

    # ---------------------------------------------------------------- forward

    def _check_batch(self, batch: WindowBatch) -> None:
        B, N, T, C = batch.observations.shape
        if N != self.n_regions:
            raise DimensionMismatchError(
                f"model built for {self.n_regions} regions, batch has {N}"
            )
        if T != self.config.t_in:
            raise DimensionMismatchError(
                f"model expects {self.config.t_in}-day windows, batch has {T}"
            )
        if C != self.config.channels:
            raise DimensionMismatchError(
                f"model expects {self.config.channels} channels, batch has {C}"
            )
        if batch.mobility.shape != (B, N, N, T):
            raise DimensionMismatchError(
                f"mobility shaped {batch.mobility.shape}, expected {(B, N, N, T)}"
            )

    def _detect(
        self, beta: np.ndarray, gamma: np.ndarray, infected: np.ndarray, training: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-window suppression decisions (EMA advances in batch order)."""
        small, quiet, *_ = detect(
            beta, gamma, infected, self.config.thresholds, self.ema, training
        )
        return small, quiet, small | quiet

    def forward(
        self,
        batch: WindowBatch,
        training: bool = False,
        fixed_filter: np.ndarray | None = None,
    ) -> ForwardResult:
        self._check_batch(batch)
        cfg = self.config
        obs = batch.observations

        # Coupling path: forecast mobility, pool, add the case correction.
        horizon_flows = adjacency.forecast_mobility(
            batch.mobility, self.mobility_transform.transform
        )
        pooled = adjacency.pool_mobility(horizon_flows)
        recent = obs[:, :, cfg.t_in - cfg.pattern_window :, CASES_CHANNEL]
        pattern = adjacency.extract_pattern(recent)
        retrieval = adjacency.retrieve_representation(pattern, self.memory)
        correction = adjacency.case_adjacency(retrieval, self.memory)
        coupling = adjacency.compose_adjacency(pooled, correction)

        # Estimation path: standardized channels through the backbone.
        scaled = (obs - self.scaler_mean) / self.scaler_scale
        lifted = estimator.lift_features(scaled, self.lift_weight, self.lift_bias)
        node_adj = estimator.dynamic_dependency(
            lifted, self.query_weight, self.key_weight, cfg.attention_heads
        )
        struct_adj = estimator.static_dependency(self.prior)
        fused = estimator.fuse_dependencies(node_adj, struct_adj, self.gate)
        dependency = estimator.regularize_dependency(fused)
        enhanced = estimator.enhance_features(lifted, dependency, self.blend)
        latent = self.backbone(enhanced, coupling)
        beta, gamma = estimator.estimate_params(latent, self.heads)

        # Suppression decisions are constants with respect to gradients.
        if fixed_filter is None:
            small, quiet, flags = self._detect(
                beta.data, gamma.data, obs[:, :, :, INFECTED_CHANNEL], training
            )
        else:
            flags = np.asarray(fixed_filter, dtype=bool)
            small, quiet = flags, np.zeros_like(flags)
        suppressed = suppress_beta(beta, flags, cfg.thresholds.downscale)

        cases, aux = metapop.rollout_batch(
            batch.susceptible0,
            batch.infected0,
            batch.recovered0,
            suppressed,
            gamma,
            horizon_flows,
            batch.population,
        )
        return ForwardResult(
            cases=cases,
            beta=beta,
            gamma=gamma,
            suppressed_beta=suppressed,
            horizon_flows=horizon_flows,
            coupling=coupling,
            small_flags=small,
            quiet_flags=quiet,
            flags=flags,
            strength=aux["strength"],
            trajectories={
                "susceptible": aux["susceptible"],
                "infected": aux["infected"],
                "recovered": aux["recovered"],
            },
        )

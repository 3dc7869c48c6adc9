"""End-to-end forecast model: learned rates driving the mechanistic core.

``ForecastModel`` holds the input scaler, the suppression smoothing state,
and one ``Parameters`` table built from ``_parameter_list``, the one
ordered list that names and initializes every learnable tensor.  ``forward``
reads each parameter from that table and turns a window batch into
predicted daily cases along with the intermediate quantities the CLI
exposes (rates before and after suppression, coupling strengths, flags,
trajectories).  The feature path sees standardized channels; the
mechanistic core and the loss stay in raw counts.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import adjacency, estimator, metapop
from .autodiff import Parameters, Tensor
from .domain import ConfigRangeError, DimensionMismatchError, check_ranges
from .estimator import Backbone, BackboneConfig
from .suppression import THRESHOLD_KINDS, ThresholdConfig, detect, suppress_beta

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


def _glorot(n_in: int, n_out: int, *lead: int):
    """A Glorot-uniform draw shaped (*lead, n_in, n_out)."""
    bound = np.sqrt(6.0 / (n_in + n_out))
    return lambda rng: rng.uniform(-bound, bound, size=(*lead, n_in, n_out))


def _normal(*shape: int):
    return lambda rng: rng.standard_normal(shape)


def _full(shape, value: float):
    return lambda rng: np.full(shape, value)


def _zeros(*shape: int):
    return _full(shape, 0.0)


def _parameter_list(config: ModelConfig, n_regions: int) -> list:
    """Every learnable tensor as ``(name, initializer)``, in table order.

    The order is also the order of the seeded draws, so it fixes every
    initial value and the checkpoint layout.  Names are ``group.short``; the
    memory, gate, backbone and heads layers take their group as a
    short-name mapping (``Parameters.group``).
    """
    t_in, t_out, lifted = config.t_in, config.t_out, config.lifted_channels
    window, key = config.pattern_window, config.pattern_key_dim
    embed, bb = config.pattern_embed_dim, config.backbone
    hid, taps, skip, out = bb.hidden_dim, bb.kernel_size, bb.skip_dim, bb.output_dim
    layer = [
        ("filter_weight", _glorot(hid, hid, taps)), ("filter_bias", _zeros(hid)),
        ("gate_weight", _glorot(hid, hid, taps)), ("gate_bias", _zeros(hid)),
        ("neighbor_weight", _glorot(hid, hid)), ("self_weight", _glorot(hid, hid)),
        ("mix_bias", _zeros(hid)), ("skip_weight", _glorot(hid, skip)),
    ]
    return [
        # CAL: a neutral mobility forecast (every horizon day the window
        # mean) and the case-pattern memory, whose correction starts at zero
        ("mobility.transform", _full((t_in, t_out), 1.0 / t_in)),
        ("memory.patterns", _normal(config.pattern_count, window)),
        ("memory.key_weight", _glorot(window, key)), ("memory.key_bias", _zeros(key)),
        ("memory.value_weight", _glorot(window, key)), ("memory.value_bias", _zeros(key)),
        ("memory.output_weight", _glorot(key, embed)),
        ("memory.output_bias", _zeros(embed)),
        ("memory.region_embeddings", _normal(n_regions, embed)),
        ("memory.scale", _zeros()),
        # SPE: lift, attention dependency, static prior logits (identity),
        # fusion gate, enhancement blend (zero: the lift passes untouched)
        ("lift.weight", _glorot(config.channels, lifted)), ("lift.bias", _zeros(lifted)),
        ("attention.query_weight", _glorot(lifted, lifted)),
        ("attention.key_weight", _glorot(lifted, lifted)),
        ("spatial.prior", lambda rng: np.eye(n_regions)),
        ("gate.node_weight", _zeros()), ("gate.struct_weight", _zeros()),
        ("gate.bias", _zeros()), ("enhance.blend", _zeros()),
        ("backbone.input_weight", _glorot(lifted, hid)),
        ("backbone.input_bias", _zeros(hid)),
        *[
            (f"backbone.layer{index}_{name}", init)
            for index in range(len(bb.dilations)) for name, init in layer
        ],
        ("backbone.end_weight", _glorot(skip, out)), ("backbone.end_bias", _zeros(out)),
        ("backbone.time_weight", _glorot(t_in, t_out)),
        ("backbone.time_bias", _zeros(t_out)),
        # rate heads, biased to sigmoid(-1) ~ 0.27 for infection and
        # sigmoid(-2) ~ 0.12 for recovery: per-day rates are weakly
        # identified from short horizons, and a start near a realistic
        # regime avoids the high-recovery/high-infection valley
        ("heads.beta_weight", _glorot(out, 1)), ("heads.beta_bias", _full(1, -1.0)),
        ("heads.gamma_weight", _glorot(out, 1)), ("heads.gamma_bias", _full(1, -2.0)),
    ]


class ForecastModel:
    """Owns parameters, scaler, and smoothing state; runs the forward pass."""

    def __init__(self, config: ModelConfig, n_regions: int, seed: int = 0):
        self.config = config
        self.n_regions = n_regions
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._params = Parameters(
            {name: init(rng) for name, init in _parameter_list(config, n_regions)}
        )
        self.scaler_mean = np.zeros(config.channels)
        self.scaler_scale = np.ones(config.channels)
        self.ema = dict.fromkeys(THRESHOLD_KINDS)
        self._backbone_dtype = np.float32

    # ------------------------------------------------------------- parameters

    def parameters(self) -> Parameters:
        """The table of every learnable parameter (not a copy)."""
        return self._params

    def zero_grad(self) -> None:
        self._params.zero_grad()

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

    @contextmanager
    def float64_backbone(self) -> Iterator[None]:
        """Forwards in the block run the backbone in float64 instead of
        float32, for the finite-difference oracles.  The previous compute
        dtype is restored on exit, also on error.
        """
        saved = self._backbone_dtype
        self._backbone_dtype = np.float64
        try:
            yield
        finally:
            self._backbone_dtype = saved

    def clamp_blend(self) -> None:
        """Keep the enhancement blend inside [0, 1] (called after each step)."""
        blend = self._params["enhance.blend"].data
        np.clip(blend, 0.0, 1.0, out=blend)

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
        p = self._params
        memory = p.group("memory")
        horizon_flows = adjacency.forecast_mobility(batch.mobility, p["mobility.transform"])
        pooled = adjacency.pool_mobility(horizon_flows)
        recent = obs[:, :, cfg.t_in - cfg.pattern_window :, CASES_CHANNEL]
        pattern = adjacency.extract_pattern(recent)
        retrieval = adjacency.retrieve_representation(pattern, memory)
        correction = adjacency.case_adjacency(retrieval, memory)
        coupling = adjacency.compose_adjacency(pooled, correction)

        # Estimation path: standardized channels through the backbone.
        scaled = (obs - self.scaler_mean) / self.scaler_scale
        lifted = estimator.lift_features(scaled, p["lift.weight"], p["lift.bias"])
        node_adj = estimator.dynamic_dependency(
            lifted, p["attention.query_weight"], p["attention.key_weight"],
            cfg.attention_heads,
        )
        struct_adj = estimator.static_dependency(p["spatial.prior"])
        fused = estimator.fuse_dependencies(node_adj, struct_adj, p.group("gate"))
        dependency = estimator.regularize_dependency(fused)
        enhanced = estimator.enhance_features(lifted, dependency, p["enhance.blend"])
        backbone = Backbone(
            cfg.backbone, cfg.t_in, cfg.t_out, p.group("backbone"), dtype=self._backbone_dtype
        )
        latent = backbone(enhanced, coupling)
        beta, gamma = estimator.estimate_params(latent, p.group("heads"))

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

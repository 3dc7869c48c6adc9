"""Rate-estimation path: feature lift, dependency construction, causal
convolution backbone, and the sigmoid read-out heads."""

from __future__ import annotations

import numpy as np
import pytest

from epicast import autodiff as ad
from epicast import estimator, kernels
from epicast.autodiff import Tensor
from epicast.domain import DimensionMismatchError, ValidationError
from epicast.estimator import (
    Backbone,
    BackboneConfig,
    FusionGate,
    ParameterHeads,
    SpatialPrior,
)

from conftest import on_kernel_set, rng_for


class TestLiftFeatures:
    def test_affine_map(self):
        rng = rng_for(300)
        obs = rng.standard_normal((2, 3, 4, 5))
        weight = rng.standard_normal((5, 7))
        bias = rng.standard_normal(7)
        out = estimator.lift_features(obs, weight, bias)
        np.testing.assert_allclose(out, obs @ weight + bias, atol=1e-12)


class TestDynamicDependency:
    def test_rows_stochastic(self):
        rng = rng_for(301)
        lifted = rng.standard_normal((2, 4, 6, 8))
        qw = rng.standard_normal((8, 8))
        kw = rng.standard_normal((8, 8))
        dep = np.asarray(estimator.dynamic_dependency(lifted, qw, kw, heads=4))
        assert dep.shape == (2, 4, 4)
        np.testing.assert_allclose(dep.sum(axis=-1), 1.0, atol=1e-10)
        assert (dep >= 0).all()

    def test_single_instance_squeezed(self):
        rng = rng_for(302)
        lifted = rng.standard_normal((5, 6, 8))
        qw = rng.standard_normal((8, 8))
        kw = rng.standard_normal((8, 8))
        dep = np.asarray(estimator.dynamic_dependency(lifted, qw, kw, heads=2))
        assert dep.shape == (5, 5)
        np.testing.assert_allclose(dep.sum(axis=-1), 1.0, atol=1e-10)

    def test_head_divisibility_enforced(self):
        rng = rng_for(303)
        lifted = rng.standard_normal((2, 3, 4, 6))
        with pytest.raises(DimensionMismatchError, match="heads"):
            estimator.dynamic_dependency(
                lifted, np.eye(6), np.eye(6), heads=4
            )


def composed_dependency(lifted, query_weight, key_weight, heads):
    """The dependency built from generic tape operations (reference)."""
    batch, regions, days, channels = lifted.shape
    head_dim = channels // heads

    def split_heads(projected):
        return ad.transpose(
            ad.reshape(projected, (batch, regions, days, heads, head_dim)),
            (0, 3, 2, 1, 4),
        )

    query = split_heads(ad.matmul(lifted, query_weight))
    key = split_heads(ad.matmul(lifted, key_weight))
    scores = ad.matmul(query, ad.swapaxes(key, -1, -2)) / np.sqrt(head_dim)
    return ad.mean(ad.softmax(scores, axis=-1), axis=(1, 2))


def max_raw_score(lifted, query_weight, key_weight, heads):
    batch, regions, days, channels = lifted.shape
    head_dim = channels // heads
    q = (lifted @ query_weight).reshape(batch, regions, days, heads, head_dim)
    k = (lifted @ key_weight).reshape(batch, regions, days, heads, head_dim)
    return (np.einsum("bnthd,bmthd->bhtnm", q, k) / np.sqrt(head_dim)).max()


def dependency_inputs(rng, shape, offset=0.0):
    lifted = rng.standard_normal(shape) + offset
    channels = shape[-1]
    query_weight = np.eye(channels) + 0.3 * rng.standard_normal((channels, channels))
    key_weight = np.eye(channels) + 0.3 * rng.standard_normal((channels, channels))
    return lifted, query_weight, key_weight


class TestFusedDependencyGradients:
    """The fused dependency node against central differences and against the
    same map composed from generic tape operations."""

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("shape", [(2, 3, 4, 4), (3, 4, 4)], ids=["batched", "squeezed"])
    def test_gradients_match_finite_differences(self, shape, heads):
        rng = rng_for(320 + heads)
        arrays = dependency_inputs(rng, shape)
        regions = shape[-3]
        weights = rng.standard_normal(shape[:-3] + (regions, regions))

        def loss_of(*values):
            out = estimator.dynamic_dependency(*values, heads=heads)
            return float((np.asarray(out) * weights).sum())

        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = estimator.dynamic_dependency(*tensors, heads=heads)
        assert out.shape == weights.shape
        (out * weights).sum().backward()
        for tensor, array in zip(tensors, arrays):
            numeric = np.empty_like(array)
            flat, slope = array.ravel(), numeric.ravel()
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + 1e-6
                hi = loss_of(*arrays)
                flat[k] = keep - 1e-6
                lo = loss_of(*arrays)
                flat[k] = keep
                slope[k] = (hi - lo) / 2e-6
            np.testing.assert_allclose(tensor.grad, numeric, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("offset", [0.0, 20.0], ids=["plain", "scores-above-1000"])
    def test_matches_composed_reference(self, heads, offset):
        rng = rng_for(330 + heads)
        arrays = dependency_inputs(rng, (3, 5, 6, 8), offset)
        if offset:
            # exp() of these scores overflows unless the softmax shifts by the row max
            assert max_raw_score(*arrays, heads) > 1000.0
        upstream = rng.standard_normal((3, 5, 5))
        results = []
        for build in (estimator.dynamic_dependency, composed_dependency):
            tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = build(*tensors, heads=heads)
            out.backward(upstream)
            results.append([out.data] + [t.grad for t in tensors])
        for fused, reference in zip(*results):
            assert np.isfinite(fused).all()
            np.testing.assert_allclose(fused, reference, rtol=1e-12, atol=1e-12)

    def test_plain_arrays_build_no_tape(self):
        rng = rng_for(334)
        lifted, query_weight, key_weight = dependency_inputs(rng, (2, 3, 4, 4))
        out = estimator.dynamic_dependency(lifted, query_weight, key_weight, heads=2)
        assert type(out) is np.ndarray
        tracked = estimator.dynamic_dependency(
            lifted, Tensor(query_weight, requires_grad=True), key_weight, heads=2
        )
        np.testing.assert_array_equal(tracked.data, out)


class TestStaticDependency:
    def test_identity_prior_rows_softmaxed(self):
        prior = SpatialPrior.initialize(4)
        dep = np.asarray(estimator.static_dependency(prior))
        np.testing.assert_allclose(dep.sum(axis=-1), 1.0, atol=1e-12)
        # diagonal logits of 1 versus 0 elsewhere: diagonal entries dominate
        off = dep[~np.eye(4, dtype=bool)]
        assert (np.diag(dep) > off.max()).all()
        np.testing.assert_allclose(np.diag(dep), np.diag(dep)[0], atol=1e-12)


class TestFuseDependencies:
    def test_zero_gate_is_even_blend(self):
        rng = rng_for(304)
        node = rng.uniform(0, 1, (3, 3))
        struct = rng.uniform(0, 1, (3, 3))
        fused = np.asarray(
            estimator.fuse_dependencies(node, struct, FusionGate.initialize())
        )
        np.testing.assert_allclose(fused, 0.5 * node + 0.5 * struct, atol=1e-12)

    def test_saturated_gate_selects_node_side(self):
        gate = FusionGate(
            node_weight=np.array(50.0), struct_weight=np.array(50.0), bias=np.array(50.0)
        )
        node = np.full((2, 2), 0.25)
        struct = np.full((2, 2), 0.75)
        fused = np.asarray(estimator.fuse_dependencies(node, struct, gate))
        np.testing.assert_allclose(fused, node, atol=1e-9)

    def test_blend_stays_between_inputs(self):
        rng = rng_for(305)
        node = rng.uniform(0, 1, (4, 4))
        struct = rng.uniform(0, 1, (4, 4))
        gate = FusionGate(
            node_weight=np.array(rng.standard_normal()),
            struct_weight=np.array(rng.standard_normal()),
            bias=np.array(rng.standard_normal()),
        )
        fused = np.asarray(estimator.fuse_dependencies(node, struct, gate))
        lo = np.minimum(node, struct) - 1e-12
        hi = np.maximum(node, struct) + 1e-12
        assert ((fused >= lo) & (fused <= hi)).all()


class TestRegularizeDependency:
    def test_output_symmetric_nonnegative_row_normalized(self):
        rng = rng_for(306)
        raw = rng.standard_normal((5, 5)) * 3
        out = np.asarray(estimator.regularize_dependency(raw))
        assert (out >= 0).all()
        sums = out.sum(axis=-1)
        # rows with any surviving mass normalize to 1 (up to the 1e-8 guard)
        alive = sums > 0.5
        np.testing.assert_allclose(sums[alive], 1.0, atol=1e-6)

    def test_negative_half_discarded(self):
        raw = np.array([[-4.0, 2.0], [2.0, -4.0]])
        # symmetrized matrix equals the input; relu kills the diagonal
        out = np.asarray(estimator.regularize_dependency(raw))
        np.testing.assert_allclose(np.diag(out), 0.0, atol=1e-12)
        np.testing.assert_allclose(out[0, 1], 1.0, atol=1e-6)


class TestEnhanceFeatures:
    def test_zero_blend_is_bitwise_identity(self):
        rng = rng_for(307)
        lifted = rng.standard_normal((2, 3, 4, 5))
        dep = rng.uniform(0, 1, (2, 3, 3))
        out = np.asarray(estimator.enhance_features(lifted, dep, np.zeros(())))
        np.testing.assert_array_equal(out, lifted)

    def test_full_blend_is_neighborhood_average(self):
        rng = rng_for(308)
        lifted = rng.standard_normal((1, 3, 2, 2))
        dep = rng.uniform(0, 1, (1, 3, 3))
        out = np.asarray(estimator.enhance_features(lifted, dep, np.ones(())))
        expected = np.einsum("bnm,bmtc->bntc", dep, lifted)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_identity_dependency_is_noop_at_any_blend(self):
        rng = rng_for(309)
        lifted = rng.standard_normal((3, 4, 5))
        out = np.asarray(
            estimator.enhance_features(lifted, np.eye(3), np.array(0.37))
        )
        np.testing.assert_allclose(out, lifted, atol=1e-12)


# ------------------------------------------------------------- conv backbone


def oracle_causal_conv(x, weight, bias, dilation):
    """Quadruple-loop dilated causal convolution (independent reference)."""
    batch, regions, days, c_in = x.shape
    taps, _, c_out = weight.shape
    out = np.zeros((batch, regions, days, c_out))
    for b in range(batch):
        for n in range(regions):
            for t in range(days):
                for k in range(taps):
                    # tap k reads (taps - 1 - k) * dilation steps into the past
                    back = (taps - 1 - k) * dilation
                    src = t - back
                    if src < 0:
                        continue
                    out[b, n, t] += x[b, n, src] @ weight[k]
                out[b, n, t] += bias
    return out


def kernel_causal_conv(x, weight, bias, dilation, kernel_set=None):
    """Left-pad the time axis and run the kernel set's convolution."""
    pad = (weight.shape[0] - 1) * dilation
    xpad = np.pad(x, ((0, 0), (0, 0), (pad, 0), (0, 0)))
    return (kernel_set or kernels.active()).conv_fwd(xpad, weight, bias, dilation)


class TestDilatedCausalConv:
    """The kernel convolution that every backbone layer runs."""

    @on_kernel_set
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_matches_loop_oracle(self, kernel_set, dilation):
        rng = rng_for(310 + dilation)
        x = rng.standard_normal((2, 3, 8, 4))
        weight = rng.standard_normal((2, 4, 5))
        bias = rng.standard_normal(5)
        out = kernel_causal_conv(x, weight, bias, dilation, kernel_set)
        want = oracle_causal_conv(x, weight, bias, dilation)
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_causal_no_future_leakage(self):
        rng = rng_for(314)
        x = rng.standard_normal((1, 2, 10, 3))
        weight = rng.standard_normal((2, 3, 3))
        bias = np.zeros(3)
        base = kernel_causal_conv(x, weight, bias, 2)
        bumped = x.copy()
        bumped[:, :, 6:, :] += 100.0  # perturb the future only
        after = kernel_causal_conv(bumped, weight, bias, 2)
        np.testing.assert_array_equal(base[:, :, :6, :], after[:, :, :6, :])
        assert not np.allclose(base[:, :, 6:, :], after[:, :, 6:, :])

    def test_length_preserved(self):
        x = np.zeros((1, 1, 7, 2))
        out = kernel_causal_conv(x, np.zeros((2, 2, 4)), np.zeros(4), dilation=3)
        assert out.shape == (1, 1, 7, 4)

    @on_kernel_set
    @pytest.mark.parametrize(
        "batch,regions,taps,dilation",
        [
            pytest.param(1, 2, 2, 2, id="b1-n2-k2-d2"),
            pytest.param(2, 3, 2, 1, id="b2-n3-k2-d1"),
            pytest.param(3, 2, 3, 2, id="b3-n2-k3-d2"),
            pytest.param(2, 2, 2, 4, id="b2-n2-k2-d4"),
            # (taps - 1) * dilation >= days: early taps read only padding
            pytest.param(2, 3, 2, 8, id="b2-n3-k2-d8"),
            pytest.param(2, 2, 3, 4, id="b2-n2-k3-d4"),
        ],
    )
    def test_gradients_match_finite_differences(
        self, batch, regions, taps, dilation, kernel_set
    ):
        rng = rng_for(315)
        days = 6
        x = rng.standard_normal((batch, regions, days, 3))
        weight = rng.standard_normal((taps, 3, 2))
        bias = rng.standard_normal(2)
        proj = rng.standard_normal((batch, regions, days, 2))

        def loss(xa, wa, ba):
            out = oracle_causal_conv(xa, wa, ba, dilation)
            return float((out * proj).sum())

        pad = (taps - 1) * dilation
        xpad = np.pad(x, ((0, 0), (0, 0), (pad, 0), (0, 0)))
        g_xpad, g_w, g_b = kernel_set.conv_bwd(proj, xpad, weight, dilation)
        g_x = g_xpad[:, :, pad:, :]

        # contraction oracle for the weight gradient: tap k sees the
        # padded input shifted by k * dilation against the upstream grad
        want_w = np.stack(
            [
                np.einsum(
                    "bnti,bnto->io",
                    xpad[:, :, k * dilation : k * dilation + days, :],
                    proj,
                )
                for k in range(taps)
            ]
        )
        np.testing.assert_allclose(g_w, want_w, rtol=1e-12, atol=1e-12)

        for grad, array in ((g_x, x), (g_w, weight), (g_b, bias)):
            flat = array.ravel()
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + 1e-6
                hi = loss(x, weight, bias)
                flat[k] = keep - 1e-6
                lo = loss(x, weight, bias)
                flat[k] = keep
                numeric = (hi - lo) / 2e-6
                analytic = grad.ravel()[k]
                assert abs(numeric - analytic) < 5e-5 * max(
                    1.0, abs(numeric)
                )


class TestBackbone:
    def test_receptive_field_formula(self):
        config = BackboneConfig(kernel_size=2, dilations=(1, 2, 4, 8))
        assert config.receptive_field == 16
        config = BackboneConfig(kernel_size=3, dilations=(1, 2))
        assert config.receptive_field == 7

    def test_window_must_fit_receptive_field(self):
        config = BackboneConfig(kernel_size=2, dilations=(1, 2))  # field = 4
        with pytest.raises(ValidationError, match="receptive field"):
            Backbone.initialize(config, lifted_channels=4, t_in=14, t_out=4, rng=rng_for(316))

    def test_output_shape(self):
        rng = rng_for(317)
        config = BackboneConfig(
            hidden_dim=6, skip_dim=5, output_dim=7, kernel_size=2, dilations=(1, 2, 4)
        )
        backbone = Backbone.initialize(config, lifted_channels=4, t_in=8, t_out=3, rng=rng)
        features = rng.standard_normal((2, 4, 8, 4))
        adj = rng.uniform(0, 1, (2, 4, 4))
        out = np.asarray(backbone(features, adj))
        assert out.shape == (2, 4, 3, 7)

    def test_single_instance_squeezed(self):
        rng = rng_for(318)
        config = BackboneConfig(
            hidden_dim=4, skip_dim=4, output_dim=4, kernel_size=2, dilations=(1, 2, 4)
        )
        backbone = Backbone.initialize(config, lifted_channels=3, t_in=8, t_out=2, rng=rng)
        out = np.asarray(backbone(rng.standard_normal((3, 8, 3)), np.eye(3)))
        assert out.shape == (3, 2, 4)

    def test_wrong_window_length_rejected(self):
        rng = rng_for(319)
        config = BackboneConfig(dilations=(1, 2, 4))
        backbone = Backbone.initialize(config, lifted_channels=3, t_in=8, t_out=2, rng=rng)
        with pytest.raises(DimensionMismatchError, match="8-day"):
            backbone(rng.standard_normal((1, 3, 9, 3)), np.eye(3))

    def test_adjacency_sign_irrelevant_after_normalization(self):
        # the backbone mixes over |A| row-normalized, so flipping signs of
        # the coupling matrix leaves the output unchanged
        rng = rng_for(320)
        config = BackboneConfig(
            hidden_dim=4, skip_dim=4, output_dim=4, kernel_size=2, dilations=(1, 2, 4)
        )
        backbone = Backbone.initialize(config, lifted_channels=3, t_in=8, t_out=2, rng=rng)
        features = rng.standard_normal((1, 3, 8, 3))
        adj = rng.standard_normal((1, 3, 3))
        out_pos = np.asarray(backbone(features, adj))
        out_neg = np.asarray(backbone(features, -adj))
        np.testing.assert_allclose(out_pos, out_neg, atol=1e-12)


def composed_causal_conv(x, weight, bias, dilation):
    """The dilated causal convolution from generic tape operations."""
    taps, days = ad.as_data(weight).shape[0], ad.as_data(x).shape[2]
    xpad = ad.pad_axis(x, 2, (taps - 1) * dilation)
    out = bias
    for k in range(taps):
        out = out + ad.matmul(xpad[:, :, k * dilation : k * dilation + days, :], weight[k])
    return out


def composed_backbone(backbone, features, adjacency):
    """The backbone built from generic tape operations (reference)."""
    squeeze = ad.as_data(features).ndim == 3
    if squeeze:
        features = ad.reshape(features, (1, *ad.as_data(features).shape))
        if ad.as_data(adjacency).ndim == 2:
            adjacency = ad.reshape(adjacency, (1, *ad.as_data(adjacency).shape))
    batch, regions, days, _ = ad.as_data(features).shape
    p, hid = backbone.params, backbone.config.hidden_dim
    magnitude = ad.absolute(adjacency)
    support = magnitude / (ad.summation(magnitude, axis=-1, keepdims=True) + 1e-8)
    x = ad.matmul(features, p["input_weight"]) + p["input_bias"]
    skip_total = None
    for index, dilation in enumerate(backbone.config.dilations):
        tag = f"layer{index}_"
        filt = composed_causal_conv(
            x, p[tag + "filter_weight"], p[tag + "filter_bias"], dilation
        )
        gate = composed_causal_conv(
            x, p[tag + "gate_weight"], p[tag + "gate_bias"], dilation
        )
        h = ad.tanh(filt) * ad.sigmoid(gate)
        contribution = ad.matmul(h, p[tag + "skip_weight"])
        skip_total = contribution if skip_total is None else skip_total + contribution
        flat = ad.reshape(h, (batch, regions, days * hid))
        mixed = ad.reshape(ad.matmul(support, flat), (batch, regions, days, hid))
        x = x + (
            ad.matmul(mixed, p[tag + "neighbor_weight"])
            + ad.matmul(h, p[tag + "self_weight"])
            + p[tag + "mix_bias"]
        )
    read = ad.relu(ad.matmul(ad.relu(skip_total), p["end_weight"]) + p["end_bias"])
    mapped = ad.matmul(ad.swapaxes(read, 2, 3), p["time_weight"]) + p["time_bias"]
    latent = ad.swapaxes(mapped, 2, 3)
    if squeeze:
        latent = ad.reshape(latent, ad.as_data(latent).shape[1:])
    return latent


def backbone_inputs(rng, config, shape, t_out):
    """A backbone with every parameter (biases too) drawn away from zero, plus
    features and an adjacency with negative entries, exact zeros and one
    all-zero row (only the 1e-8 guard keeps its normalization finite)."""
    *lead, regions, days, channels = shape
    backbone = Backbone.initialize(config, channels, days, t_out, rng)
    for name, value in backbone.params.items():
        backbone.params[name] = value + 0.3 * rng.standard_normal(value.shape)
    features = rng.standard_normal(shape)
    adjacency = rng.standard_normal((*lead, regions, regions))
    adjacency[..., 0, 1] = 0.0
    (adjacency[-1] if lead else adjacency)[1, :] = 0.0
    return backbone, features, adjacency


def inert_params(config):
    """The last layer's residual-mix parameters, which nothing downstream reads."""
    last = len(config.dilations) - 1
    return {f"layer{last}_{name}" for name in ("neighbor_weight", "self_weight", "mix_bias")}


def tracked_backbone_pass(build, backbone, features, adjacency, upstream):
    """Output and the gradients of features, adjacency and every parameter."""
    params = {
        name: Tensor(value.copy(), requires_grad=True)
        for name, value in backbone.params.items()
    }
    copy = Backbone(backbone.config, backbone.t_in, backbone.t_out, params)
    inputs = [Tensor(a.copy(), requires_grad=True) for a in (features, adjacency)]
    out = build(copy, *inputs)
    (out * upstream).sum().backward()
    grads = {"features": inputs[0].grad, "adjacency": inputs[1].grad}
    grads.update({name: tensor.grad for name, tensor in params.items()})
    return out.data, grads


class TestFusedBackbone:
    """The fused backbone node against central differences and against the
    same stack composed from generic tape operations."""

    @pytest.mark.parametrize("shape", [(2, 3, 4, 2), (3, 4, 2)], ids=["batched", "squeezed"])
    def test_gradients_match_finite_differences(self, shape):
        rng = rng_for(340)
        config = BackboneConfig(
            hidden_dim=3, skip_dim=2, output_dim=2, kernel_size=2, dilations=(1, 2)
        )
        backbone, features, adjacency = backbone_inputs(rng, config, shape, t_out=2)
        upstream = rng.standard_normal((*shape[:-2], 2, 2))
        _, grads = tracked_backbone_pass(
            Backbone.__call__, backbone, features, adjacency, upstream
        )
        inert = inert_params(config)
        arrays = {"features": features, "adjacency": adjacency, **backbone.params}

        def loss() -> float:
            return float((backbone(features, adjacency) * upstream).sum())

        for name, array in arrays.items():
            numeric = np.empty_like(array)
            flat, slope = array.reshape(-1), numeric.reshape(-1)
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + 1e-6
                hi = loss()
                flat[k] = keep - 1e-6
                lo = loss()
                flat[k] = keep
                slope[k] = (hi - lo) / 2e-6
            if name in inert:
                assert grads[name] is None, name
                np.testing.assert_array_equal(numeric, 0.0)
            else:
                np.testing.assert_allclose(
                    grads[name], numeric, rtol=1e-6, atol=1e-8, err_msg=name
                )

    @pytest.mark.parametrize(
        "config",
        [
            # (K - 1) * d >= T for d = 8: the last layer's first tap reads padding
            BackboneConfig(
                hidden_dim=4, skip_dim=6, output_dim=3, kernel_size=2, dilations=(1, 2, 4, 8)
            ),
            BackboneConfig(
                hidden_dim=5, skip_dim=3, output_dim=2, kernel_size=3, dilations=(1, 2, 4)
            ),
        ],
        ids=["k2-d8", "k3-d4"],
    )
    @pytest.mark.parametrize("shape", [(3, 4, 8, 3), (4, 8, 3)], ids=["batched", "squeezed"])
    def test_matches_composed_reference(self, config, shape):
        rng = rng_for(341)
        backbone, features, adjacency = backbone_inputs(rng, config, shape, t_out=5)
        upstream = rng.standard_normal((*shape[:-2], 5, config.output_dim))
        fused_out, fused = tracked_backbone_pass(
            Backbone.__call__, backbone, features, adjacency, upstream
        )
        want_out, want = tracked_backbone_pass(
            composed_backbone, backbone, features, adjacency, upstream
        )
        np.testing.assert_allclose(fused_out, want_out, rtol=1e-12, atol=1e-12)
        inert = inert_params(config)
        assert {name for name, grad in want.items() if grad is None} == inert
        for name, grad in want.items():
            if grad is None:
                assert fused[name] is None, name
            else:
                np.testing.assert_allclose(
                    fused[name], grad, rtol=1e-12, atol=1e-12, err_msg=name
                )

    def test_plain_arrays_build_no_tape(self, small_model):
        rng = rng_for(342)
        backbone = small_model.backbone
        channels = small_model.config.lifted_channels
        features = rng.standard_normal((2, 3, small_model.config.t_in, channels))
        adjacency = rng.uniform(0, 1, (2, 3, 3))
        plain = Backbone(
            backbone.config,
            backbone.t_in,
            backbone.t_out,
            {name: value.data for name, value in backbone.params.items()},
        )
        out = plain(features, adjacency)
        assert type(out) is np.ndarray
        tracked = backbone(features, adjacency)
        assert tracked.requires_grad and tracked._parents
        np.testing.assert_array_equal(tracked.data, out)
        with small_model.inference():
            quiet = backbone(Tensor(features), adjacency)
        assert not quiet.requires_grad
        assert quiet._parents == () and quiet._backward is None
        np.testing.assert_array_equal(quiet.data, out)


class TestParameterHeads:
    def test_outputs_strictly_inside_unit_interval(self):
        rng = rng_for(321)
        heads = ParameterHeads.initialize(6, rng)
        latent = rng.standard_normal((2, 3, 4, 6)) * 3
        beta, gamma = estimator.estimate_params(latent, heads)
        for rates in (np.asarray(beta), np.asarray(gamma)):
            assert rates.shape == (2, 3, 4)
            assert (rates > 0).all() and (rates < 1).all()

    def test_zero_latent_reads_bias(self):
        rng = rng_for(322)
        heads = ParameterHeads.initialize(5, rng)
        beta, gamma = estimator.estimate_params(np.zeros((1, 2, 5)), heads)
        sigmoid = lambda v: 1.0 / (1.0 + np.exp(-v))
        np.testing.assert_allclose(
            np.asarray(beta),
            sigmoid(float(np.asarray(heads.beta_bias)[0])),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            np.asarray(gamma),
            sigmoid(float(np.asarray(heads.gamma_bias)[0])),
            atol=1e-12,
        )

    def test_initial_recovery_rate_below_infection_rate(self):
        # fresh heads start in the plausible regime: recovery slower than
        # transmission, both well inside (0, 1)
        heads = ParameterHeads.initialize(4, rng_for(323))
        beta, gamma = estimator.estimate_params(np.zeros((1, 1, 4)), heads)
        assert 0.05 < float(np.asarray(gamma)[0, 0]) < float(np.asarray(beta)[0, 0]) < 0.5

"""Rate-estimation path: feature lift, dependency construction, causal
convolution backbone, and the sigmoid read-out heads."""

from __future__ import annotations

import numpy as np
import pytest

from epicast import adjacency, datasets, estimator, kernels, pipeline
from epicast import autodiff as ad
from epicast.autodiff import Tensor
from epicast.domain import ConfigRangeError, DimensionMismatchError
from epicast.estimator import Backbone, BackboneConfig
from epicast.pipeline import ForecastModel, ModelConfig

from conftest import initial_group, pad_axis, relu, rng_for, small_model_config, tanh


class TestLiftFeatures:
    def test_affine_map(self):
        rng = rng_for(300)
        obs = rng.standard_normal((2, 3, 4, 5))
        weight = rng.standard_normal((5, 7))
        bias = rng.standard_normal(7)
        out = estimator.lift_features(obs, Tensor(weight), Tensor(bias))
        np.testing.assert_allclose(out.data, obs @ weight + bias, atol=1e-12)


class TestDynamicDependency:
    def test_rows_stochastic(self):
        rng = rng_for(301)
        lifted, qw, kw = (
            Tensor(rng.standard_normal(shape)) for shape in ((2, 4, 6, 8), (8, 8), (8, 8))
        )
        dep = exact_dependency(lifted, qw, kw, heads=4).data
        assert dep.shape == (2, 4, 4)
        np.testing.assert_allclose(dep.sum(axis=-1), 1.0, atol=1e-10)
        assert (dep >= 0).all()

    def test_head_divisibility_enforced(self):
        rng = rng_for(303)
        lifted = Tensor(rng.standard_normal((2, 3, 4, 6)))
        with pytest.raises(DimensionMismatchError, match="heads"):
            estimator.dynamic_dependency(
                lifted, Tensor(np.eye(6)), Tensor(np.eye(6)), heads=4
            )


def exact_dependency(lifted, query_weight, key_weight, heads):
    """The fused dependency on its float64 route: the exact oracles need
    float64 arithmetic."""
    return estimator.dynamic_dependency(
        lifted, query_weight, key_weight, heads, dtype=np.float64
    )


def composed_dependency(lifted, query_weight, key_weight, heads):
    """The dependency built from generic tape operations (reference)."""
    batch, regions, days, channels = lifted.shape
    head_dim = channels // heads

    def split_heads(projected):
        # (B, N, T, H, D) -> (B, H, T, N, D)
        return projected.reshape(batch, regions, days, heads, head_dim).swapaxes(1, 3)

    query = split_heads(lifted @ query_weight)
    key = split_heads(lifted @ key_weight)
    scores = (query @ key.swapaxes(-1, -2)) / np.sqrt(head_dim)
    return ad.softmax(scores, axis=-1).mean(axis=(1, 2))


def max_raw_score(lifted, query_weight, key_weight, heads):
    batch, regions, days, channels = lifted.shape
    head_dim = channels // heads
    q = (lifted @ query_weight).reshape(batch, regions, days, heads, head_dim)
    k = (lifted @ key_weight).reshape(batch, regions, days, heads, head_dim)
    return (np.einsum("bnthd,bmthd->bhtnm", q, k) / np.sqrt(head_dim)).max()


def float32_tolerance(lifted, query_weight, key_weight, heads):
    """The error, relative to an array's largest entry, that float32 rounding
    (unit u = 2^-24) allows the fused dependency's output and gradients.

    An inner product of n terms rounds to within n*u of the sum of its terms'
    magnitudes (Higham, "Accuracy and Stability of Numerical Algorithms",
    section 3.1), and the errors of chained products add.  A shifted score,
    q.k / sqrt(d) minus the row's bound, comes from products over C and
    d + 1 terms whose magnitudes sum to at most 2S, S the largest
    Cauchy-Schwarz bound |q_i| max_j |k_j| / sqrt(d); exp turns that
    absolute error into a relative one.  Then come the row sums (N terms)
    and the mean over heads and days (H*T); back, the row products (N), the
    K=2 factors, the products with keys and queries (N), the channel sum of
    the features' gradient (C) and the weights' sum over all B*N*T rows."""
    batch, regions, days, channels = lifted.shape
    head_dim = channels // heads

    def largest_head_norm(weight):
        projected = (lifted @ weight).reshape(batch, regions, days, heads, head_dim)
        return np.linalg.norm(projected, axis=-1).max()

    bound = largest_head_norm(query_weight) * largest_head_norm(key_weight) / np.sqrt(head_dim)
    score = (channels + head_dim + 1) * 2 * bound + 1
    forward = score + regions + heads * days
    backward = 3 * regions + 2 + channels + batch * regions * days
    return (forward + backward) * 2.0**-24


def dependency_inputs(rng, shape, offset=0.0):
    lifted = rng.standard_normal(shape) + offset
    channels = shape[-1]
    query_weight = np.eye(channels) + 0.3 * rng.standard_normal((channels, channels))
    key_weight = np.eye(channels) + 0.3 * rng.standard_normal((channels, channels))
    return lifted, query_weight, key_weight


def dependency_pass(build, arrays, upstream, heads):
    """Output and the gradients of the features and both weights."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors, heads=heads)
    out.backward(upstream)
    return [out.data] + [t.grad for t in tensors]


def overshot_bound_inputs(monkeypatch, itemsize):
    """Five batch elements in blocks of two (2, 2 and 1) at ``itemsize`` bytes
    a float.  In the last element every key opposes every query, so each
    row's max lies far below the Cauchy-Schwarz bound and exp of the
    bound-shifted scores underflows.  Returns the inputs, an upstream
    gradient, the head count and the list that records the size of every
    block recomputed with the exact row max."""
    batch, regions, days, channels, heads = 5, 4, 6, 8, 2
    monkeypatch.setattr(
        estimator, "_DEPENDENCY_BLOCK_BYTES", 2 * heads * days * regions * regions * itemsize
    )
    exact = []
    recompute = estimator._exp_shifted_by_row_max

    def counted(block, *rest):
        exact.append(block.shape[0])
        recompute(block, *rest)

    monkeypatch.setattr(estimator, "_exp_shifted_by_row_max", counted)
    rng = rng_for(336)
    lifted, query_weight, key_weight = dependency_inputs(rng, (batch, regions, days, channels))
    lifted[-1] = 20.0 + rng.standard_normal((regions, days, channels))
    upstream = rng.standard_normal((batch, regions, regions))
    return (lifted, query_weight, -key_weight), upstream, heads, exact


class TestFusedDependencyGradients:
    """The fused dependency node against central differences and against the
    same map composed from generic tape operations."""

    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("shape", [(2, 3, 4, 4), (1, 3, 4, 4)], ids=["batched", "one-element"])
    def test_gradients_match_finite_differences(self, shape, heads):
        rng = rng_for(320 + heads)
        arrays = dependency_inputs(rng, shape)
        regions = shape[1]
        weights = rng.standard_normal((shape[0], regions, regions))

        def loss_of(*values):
            out = exact_dependency(*map(Tensor, values), heads=heads)
            return float((out.data * weights).sum())

        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = exact_dependency(*tensors, heads=heads)
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
        results = [
            dependency_pass(build, arrays, upstream, heads)
            for build in (exact_dependency, composed_dependency)
        ]
        for fused, reference in zip(*results):
            assert np.isfinite(fused).all()
            np.testing.assert_allclose(fused, reference, rtol=1e-12, atol=1e-12)

    def test_blocks_with_a_ragged_tail_match_composed_reference(self, monkeypatch):
        # blocks of two batch elements: 5 elements make blocks of 2, 2 and 1
        batch, regions, days, channels, heads = 5, 4, 6, 8, 2
        monkeypatch.setattr(
            estimator, "_DEPENDENCY_BLOCK_BYTES", 2 * heads * days * regions * regions * 8
        )
        rng = rng_for(335)
        arrays = dependency_inputs(rng, (batch, regions, days, channels))
        upstream = rng.standard_normal((batch, regions, regions))
        results = [
            dependency_pass(build, arrays, upstream, heads)
            for build in (exact_dependency, composed_dependency)
        ]
        for fused, reference in zip(*results):
            np.testing.assert_allclose(fused, reference, rtol=1e-12, atol=1e-12)

    def test_block_with_an_overshot_bound_matches_composed_reference(self, monkeypatch):
        # only the last block, of one element, is recomputed with the exact row max
        arrays, upstream, heads, exact = overshot_bound_inputs(monkeypatch, itemsize=8)
        results = [
            dependency_pass(build, arrays, upstream, heads)
            for build in (exact_dependency, composed_dependency)
        ]
        assert exact == [1]
        for fused, reference in zip(*results):
            assert np.isfinite(fused).all()
            np.testing.assert_allclose(fused, reference, rtol=1e-12, atol=1e-12)

    def test_constant_inputs_build_no_tape(self):
        rng = rng_for(334)
        lifted, query_weight, key_weight = map(Tensor, dependency_inputs(rng, (2, 3, 4, 4)))
        out = estimator.dynamic_dependency(lifted, query_weight, key_weight, heads=2)
        assert not out.requires_grad and out._backward is None
        tracked = estimator.dynamic_dependency(
            lifted, Tensor(query_weight.data, requires_grad=True), key_weight, heads=2
        )
        assert tracked.requires_grad
        np.testing.assert_array_equal(tracked.data, out.data)


class TestFloat32Dependency:
    """The fused dependency's default float32 route against its float64 one."""

    @pytest.mark.parametrize(
        "shape", [(32, 8, 14, 8), (8, 64, 14, 8)], ids=["train-regional", "train-wide"]
    )
    def test_float32_node_matches_float64_node(self, shape):
        rng = rng_for(337)
        arrays = dependency_inputs(rng, shape)
        upstream = rng.standard_normal((shape[0], shape[1], shape[1]))
        got = dependency_pass(estimator.dynamic_dependency, arrays, upstream, heads=4)
        want = dependency_pass(exact_dependency, arrays, upstream, heads=4)
        tolerance = float32_tolerance(*arrays, heads=4)
        names = ("dependency", "lifted", "query_weight", "key_weight")
        for name, value, reference in zip(names, got, want):
            scale = np.abs(reference).max()
            assert np.abs(value - reference).max() <= tolerance * scale, name

    def test_block_with_an_overshot_bound_is_recomputed_once(self, monkeypatch):
        # float32 blocks of the same two elements: only the last block falls
        # below float32's row-sum floor
        arrays, upstream, heads, exact = overshot_bound_inputs(monkeypatch, itemsize=4)
        got = dependency_pass(estimator.dynamic_dependency, arrays, upstream, heads)
        assert exact == [1]
        want = dependency_pass(composed_dependency, arrays, upstream, heads)
        tolerance = float32_tolerance(*arrays, heads=heads)
        for value, reference in zip(got, want):
            assert np.isfinite(value).all()
            assert np.abs(value - reference).max() <= tolerance * np.abs(reference).max()

    def test_output_and_gradients_are_float64(self):
        rng = rng_for(338)
        arrays = dependency_inputs(rng, (2, 3, 4, 4))
        upstream = rng.standard_normal((2, 3, 3))
        results = dependency_pass(estimator.dynamic_dependency, arrays, upstream, heads=2)
        assert [value.dtype for value in results] == [np.float64] * 4


# The SPE tail composed from generic tape operations around the attention
# node: the layers ``estimator.spatial_enhancement`` fuses, and its bitwise
# oracle.


def static_dependency(prior):
    """Row-softmax the static prior logits into a row-stochastic matrix."""
    return ad.softmax(prior, axis=-1)


def fuse_dependencies(node_adj, struct_adj, gate):
    """Convex per-entry blend of the dynamic and static maps, opened by the
    entrywise affine ``gate`` through a sigmoid."""
    logits = (
        gate["node_weight"] * node_adj + gate["struct_weight"] * struct_adj + gate["bias"]
    )
    opening = ad.sigmoid(logits)
    return opening * node_adj + (1.0 - opening) * struct_adj


def regularize_dependency(fused):
    """Symmetrize, clamp at zero, then row-normalize (guarded by 1e-8)."""
    symmetric = (fused + fused.swapaxes(-1, -2)) * 0.5
    rectified = relu(symmetric)
    return rectified / (rectified.sum(axis=-1, keepdims=True) + 1e-8)


def enhance_features(lifted, dependency, blend):
    """Blend features with their dependency-weighted neighborhood average."""
    batch, regions, days, channels = lifted.shape
    flat = lifted.reshape(batch, regions, days * channels)
    mixed = (dependency @ flat).reshape(batch, regions, days, channels)
    return (1.0 - blend) * lifted + blend * mixed


def composed_spatial_enhancement(
    lifted, query_weight, key_weight, prior, gate, blend, heads, dtype=np.float32
):
    """The SPE branch as the forward composed it layer by layer."""
    node_adj = estimator.dynamic_dependency(lifted, query_weight, key_weight, heads, dtype=dtype)
    fused = fuse_dependencies(node_adj, static_dependency(prior), gate)
    return enhance_features(lifted, regularize_dependency(fused), blend)


class TestStaticDependency:
    def test_identity_prior_rows_softmaxed(self):
        dep = static_dependency(Tensor(np.eye(4))).data
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
        gate = initial_group("gate")
        fused = fuse_dependencies(Tensor(node), Tensor(struct), gate).data
        np.testing.assert_allclose(fused, 0.5 * node + 0.5 * struct, atol=1e-12)

    def test_saturated_gate_selects_node_side(self):
        gate = dict.fromkeys(("node_weight", "struct_weight", "bias"), Tensor(np.array(50.0)))
        node = np.full((2, 2), 0.25)
        struct = np.full((2, 2), 0.75)
        fused = fuse_dependencies(Tensor(node), Tensor(struct), gate).data
        np.testing.assert_allclose(fused, node, atol=1e-9)

    def test_blend_stays_between_inputs(self):
        rng = rng_for(305)
        node = rng.uniform(0, 1, (4, 4))
        struct = rng.uniform(0, 1, (4, 4))
        gate = {
            name: Tensor(np.array(rng.standard_normal()))
            for name in ("node_weight", "struct_weight", "bias")
        }
        fused = fuse_dependencies(Tensor(node), Tensor(struct), gate).data
        lo = np.minimum(node, struct) - 1e-12
        hi = np.maximum(node, struct) + 1e-12
        assert ((fused >= lo) & (fused <= hi)).all()


class TestRegularizeDependency:
    def test_output_symmetric_nonnegative_row_normalized(self):
        rng = rng_for(306)
        raw = rng.standard_normal((5, 5)) * 3
        out = regularize_dependency(Tensor(raw)).data
        assert (out >= 0).all()
        sums = out.sum(axis=-1)
        # rows with any surviving mass normalize to 1 (up to the 1e-8 guard)
        alive = sums > 0.5
        np.testing.assert_allclose(sums[alive], 1.0, atol=1e-6)

    def test_negative_half_discarded(self):
        raw = np.array([[-4.0, 2.0], [2.0, -4.0]])
        # symmetrized matrix equals the input; relu kills the diagonal
        out = regularize_dependency(Tensor(raw)).data
        np.testing.assert_allclose(np.diag(out), 0.0, atol=1e-12)
        np.testing.assert_allclose(out[0, 1], 1.0, atol=1e-6)


class TestEnhanceFeatures:
    def test_zero_blend_is_bitwise_identity(self):
        rng = rng_for(307)
        lifted = rng.standard_normal((2, 3, 4, 5))
        dep = rng.uniform(0, 1, (2, 3, 3))
        out = enhance_features(Tensor(lifted), Tensor(dep), Tensor(np.zeros(()))).data
        np.testing.assert_array_equal(out, lifted)

    def test_full_blend_is_neighborhood_average(self):
        rng = rng_for(308)
        lifted = rng.standard_normal((1, 3, 2, 2))
        dep = rng.uniform(0, 1, (1, 3, 3))
        out = enhance_features(Tensor(lifted), Tensor(dep), Tensor(np.ones(()))).data
        expected = np.einsum("bnm,bmtc->bntc", dep, lifted)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_identity_dependency_is_noop_at_any_blend(self):
        rng = rng_for(309)
        lifted = rng.standard_normal((1, 3, 4, 5))
        out = enhance_features(
            Tensor(lifted), Tensor(np.eye(3)[None]), Tensor(np.array(0.37))
        ).data
        np.testing.assert_allclose(out, lifted, atol=1e-12)


SPE_PARENTS = (
    "lifted", "query_weight", "key_weight", "prior",
    "node_weight", "struct_weight", "bias", "blend",
)
SPE_DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])


def spe_inputs(rng, batch, regions, blend=0.37, days=6, channels=8):
    """Arrays for the SPE node's parents, keyed as in ``SPE_PARENTS``."""
    lifted, query_weight, key_weight = dependency_inputs(rng, (batch, regions, days, channels))
    node_weight, struct_weight, bias = rng.standard_normal(3)
    return {
        "lifted": lifted, "query_weight": query_weight, "key_weight": key_weight,
        "prior": np.eye(regions) + rng.standard_normal((regions, regions)),
        "node_weight": np.array(node_weight), "struct_weight": np.array(struct_weight),
        "bias": np.array(bias), "blend": np.array(blend),
    }


def spe_upstream(rng, shape):
    """An upstream gradient holding exact zeros of both signs."""
    upstream = rng.standard_normal(shape)
    flat = upstream.reshape(-1)
    flat[::5] = 0.0
    flat[1::7] = -0.0
    return upstream


def spe_pass(build, arrays, upstream, tracked=SPE_PARENTS, dtype=np.float64, heads=2):
    """The output and each parent's gradient, None for a parent not in ``tracked``."""
    tensors = {
        name: Tensor(value.copy(), requires_grad=name in tracked)
        for name, value in arrays.items()
    }
    gate = {name: tensors[name] for name in ("node_weight", "struct_weight", "bias")}
    out = build(
        tensors["lifted"], tensors["query_weight"], tensors["key_weight"], tensors["prior"],
        gate, tensors["blend"], heads, dtype=dtype,
    )
    out.backward(upstream)
    return {"out": out.data, **{name: tensor.grad for name, tensor in tensors.items()}}


def assert_node_matches_composed_tape(arrays, upstream, **options):
    """The fused node and the composed tape give the same bytes, output and gradients."""
    got = spe_pass(estimator.spatial_enhancement, arrays, upstream, **options)
    want = spe_pass(composed_spatial_enhancement, arrays, upstream, **options)
    for name, reference in want.items():
        value = got[name]
        if reference is None:
            assert value is None, name
            continue
        assert (value.dtype, value.shape) == (reference.dtype, reference.shape), name
        assert value.tobytes() == reference.tobytes(), name
    return got


class TestFusedSpatialEnhancement:
    """The fused SPE node against the layers it fuses, composed on the
    generic tape: the same bytes on either compute dtype's route."""

    @SPE_DTYPES
    @pytest.mark.parametrize("blend", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("regions", [1, 2, 8])
    def test_matches_composed_tape_bitwise(self, regions, batch, blend, dtype):
        rng = rng_for(350 + 10 * regions + batch)
        arrays = spe_inputs(rng, batch, regions, blend)
        upstream = spe_upstream(rng, arrays["lifted"].shape)
        got = assert_node_matches_composed_tape(arrays, upstream, dtype=dtype)
        if blend == 0.0:
            assert got["out"].tobytes() == arrays["lifted"].tobytes()

    @SPE_DTYPES
    @pytest.mark.parametrize("tracked", SPE_PARENTS)
    def test_each_parent_alone_matches_composed_tape_bitwise(self, tracked, dtype):
        rng = rng_for(351)
        arrays = spe_inputs(rng, 3, 4)
        upstream = spe_upstream(rng, arrays["lifted"].shape)
        got = assert_node_matches_composed_tape(arrays, upstream, tracked=(tracked,), dtype=dtype)
        assert [name for name in SPE_PARENTS if got[name] is not None] == [tracked]

    @SPE_DTYPES
    @pytest.mark.parametrize("bias", [800.0, -800.0], ids=["open", "shut"])
    def test_saturated_gate_and_clamped_entries_match_composed_tape_bitwise(self, bias, dtype):
        # the opening is exactly 1 or 0, so its sigmoid passes no gradient;
        # the prior's softmax is exactly the identity, so with the gate shut
        # the fused map is too, and the clamp at zero takes every entry off
        # the diagonal
        rng = rng_for(352)
        arrays = spe_inputs(rng, 3, 5)
        arrays["bias"] = np.array(bias)
        arrays["prior"] = np.where(np.eye(5) > 0, 0.0, -1000.0)
        upstream = spe_upstream(rng, arrays["lifted"].shape)
        assert_node_matches_composed_tape(arrays, upstream, dtype=dtype)

    @SPE_DTYPES
    def test_blocks_with_a_ragged_tail_match_composed_tape_bitwise(self, monkeypatch, dtype):
        # forward blocks of two batch elements: 5 elements make blocks of 2, 2
        # and 1; the backward's blocks hold one element
        rng = rng_for(353)
        arrays = spe_inputs(rng, 5, 4)
        heads, days, regions = 2, 6, 4
        itemsize = np.dtype(dtype).itemsize
        monkeypatch.setattr(
            estimator, "_DEPENDENCY_BLOCK_BYTES", 2 * heads * days * regions * regions * itemsize
        )
        upstream = spe_upstream(rng, arrays["lifted"].shape)
        assert_node_matches_composed_tape(arrays, upstream, dtype=dtype, heads=heads)

    @SPE_DTYPES
    def test_block_with_an_overshot_bound_matches_composed_tape_bitwise(self, monkeypatch, dtype):
        itemsize = np.dtype(dtype).itemsize
        (lifted, query_weight, key_weight), _, heads, exact = overshot_bound_inputs(
            monkeypatch, itemsize
        )
        rng = rng_for(354)
        arrays = spe_inputs(rng, *lifted.shape[:2])
        arrays.update(lifted=lifted, query_weight=query_weight, key_weight=key_weight)
        upstream = spe_upstream(rng, lifted.shape)
        assert_node_matches_composed_tape(arrays, upstream, dtype=dtype, heads=heads)
        # the last block, of one element, is recomputed once by each build
        assert exact == [1, 1]

    def test_constant_inputs_build_no_tape(self):
        rng = rng_for(355)
        arrays = spe_inputs(rng, 2, 3)
        tensors = {name: Tensor(value) for name, value in arrays.items()}
        gate = {name: tensors[name] for name in ("node_weight", "struct_weight", "bias")}
        out = estimator.spatial_enhancement(
            tensors["lifted"], tensors["query_weight"], tensors["key_weight"],
            tensors["prior"], gate, tensors["blend"], heads=2,
        )
        assert not out.requires_grad and out._backward is None


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


def swap_major(array):
    """(B, N, T, C) as (B, T, N, C), or back: the kernels take time-major rows."""
    return np.ascontiguousarray(np.swapaxes(array, 1, 2))


def kernel_causal_conv(x, weight, bias, dilation):
    """The kernel set's convolution of region-major ``x``, region-major."""
    return swap_major(kernels.active().conv_fwd(swap_major(x), weight, bias, dilation))


class TestDilatedCausalConv:
    """The kernel convolution that every backbone layer runs."""

    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_matches_loop_oracle(self, dilation):
        rng = rng_for(310 + dilation)
        x = rng.standard_normal((2, 3, 8, 4))
        weight = rng.standard_normal((2, 4, 5))
        bias = rng.standard_normal(5)
        out = kernel_causal_conv(x, weight, bias, dilation)
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
    def test_gradients_match_finite_differences(self, batch, regions, taps, dilation):
        kernel_set = kernels.active()
        rng = rng_for(315)
        days = 6
        x = rng.standard_normal((batch, regions, days, 3))
        weight = rng.standard_normal((taps, 3, 2))
        bias = rng.standard_normal(2)
        proj = rng.standard_normal((batch, regions, days, 2))

        def loss(xa, wa, ba):
            out = oracle_causal_conv(xa, wa, ba, dilation)
            return float((out * proj).sum())

        g_x, g_w, g_b = kernel_set.conv_bwd(swap_major(proj), swap_major(x), weight, dilation)
        # given a buffer, the kernel adds the input gradient into it
        start = rng.standard_normal(g_x.shape)
        into = start.copy()
        assert kernel_set.conv_bwd(
            swap_major(proj), swap_major(x), weight, dilation, g_x=into
        )[0] is into
        np.testing.assert_allclose(into, start + g_x, rtol=1e-12, atol=1e-12)
        g_x = swap_major(g_x)

        # contraction oracle for the weight gradient: tap k sees the
        # zero-padded input shifted by k * dilation against the upstream grad
        pad = (taps - 1) * dilation
        xpad = np.pad(x, ((0, 0), (0, 0), (pad, 0), (0, 0)))
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

    def test_float32_blocks_stay_float32(self):
        # a default-dtype temporary silently upcasts: float64 ones in the
        # bias gradient's GEMV make g_b float64.  (The forward's bias row is
        # added in place, which casts back to float32, so a float64 row shows
        # only in the time: it made that add about 9x slower.)
        rng = rng_for(316)
        x = rng.standard_normal((2, 6, 3, 4)).astype(np.float32)
        g = rng.standard_normal((2, 6, 3, 5)).astype(np.float32)
        weight = rng.standard_normal((2, 4, 5)).astype(np.float32)
        bias = rng.standard_normal(5).astype(np.float32)
        kernel_set = kernels.active()
        out = kernel_set.conv_fwd(x, weight, bias, 2)
        g_x, g_w, g_b = kernel_set.conv_bwd(g, x, weight, 2)
        for name, array in {"out": out, "g_x": g_x, "g_w": g_w, "g_b": g_b}.items():
            assert array.dtype == np.float32, name


def fresh_backbone(config, channels, days, t_out, seed=0, dtype=np.float32):
    """A backbone over a fresh model's initial ``backbone.*`` parameters."""
    params = initial_group(
        "backbone", seed=seed, t_in=days, t_out=t_out, lifted_channels=channels,
        attention_heads=1, pattern_window=1, backbone=config,
    )
    return Backbone(config, days, t_out, params, dtype=dtype)


class TestBackbone:
    def test_receptive_field_formula(self):
        config = BackboneConfig(kernel_size=2, dilations=(1, 2, 4, 8))
        assert config.receptive_field == 16
        config = BackboneConfig(kernel_size=3, dilations=(1, 2))
        assert config.receptive_field == 7

    def test_window_must_fit_receptive_field(self):
        config = BackboneConfig(kernel_size=2, dilations=(1, 2))  # field = 4
        with pytest.raises(ConfigRangeError, match="receptive field") as raised:
            small_model_config(t_in=14, backbone=config)
        assert raised.value.field == "backbone.dilations"

    def test_output_shape(self):
        rng = rng_for(317)
        config = BackboneConfig(
            hidden_dim=6, skip_dim=5, output_dim=7, kernel_size=2, dilations=(1, 2, 4)
        )
        backbone = fresh_backbone(config, channels=4, days=8, t_out=3)
        features = Tensor(rng.standard_normal((2, 4, 8, 4)))
        adj = Tensor(rng.uniform(0, 1, (2, 4, 4)))
        assert backbone(features, adj).shape == (2, 4, 3, 7)

    def test_empty_batch_keeps_its_shape(self):
        config = BackboneConfig(dilations=(1, 2, 4))
        backbone = fresh_backbone(config, channels=4, days=8, t_out=2)
        empty = Tensor(np.zeros((0, 3, 8, 4)))
        assert backbone(empty, Tensor(np.zeros((0, 3, 3)))).shape == (0, 3, 2, 16)
        identity = Tensor(np.eye(4))
        dep = estimator.dynamic_dependency(empty, identity, identity, heads=2)
        assert dep.shape == (0, 3, 3)

    def test_wrong_window_length_rejected(self):
        rng = rng_for(319)
        config = BackboneConfig(dilations=(1, 2, 4))
        backbone = fresh_backbone(config, channels=3, days=8, t_out=2)
        with pytest.raises(DimensionMismatchError, match="8-day"):
            backbone(Tensor(rng.standard_normal((1, 3, 9, 3))), Tensor(np.eye(3)[None]))

    def test_adjacency_sign_irrelevant_after_normalization(self):
        # the backbone mixes over |A| row-normalized, so flipping signs of
        # the coupling matrix leaves the output unchanged
        rng = rng_for(320)
        config = BackboneConfig(
            hidden_dim=4, skip_dim=4, output_dim=4, kernel_size=2, dilations=(1, 2, 4)
        )
        backbone = fresh_backbone(config, channels=3, days=8, t_out=2)
        features = Tensor(rng.standard_normal((1, 3, 8, 3)))
        adj = rng.standard_normal((1, 3, 3))
        out_pos = backbone(features, Tensor(adj)).data
        out_neg = backbone(features, Tensor(-adj)).data
        np.testing.assert_allclose(out_pos, out_neg, atol=1e-12)

    def test_float32_node_returns_float64(self):
        # the node computes in float32 and hands float64 to everything
        # outside it: the latent and the input gradients
        rng = rng_for(324)
        config = BackboneConfig(
            hidden_dim=4, skip_dim=4, output_dim=3, kernel_size=2, dilations=(1, 2, 4)
        )
        backbone = fresh_backbone(config, channels=3, days=8, t_out=2)
        assert backbone.dtype == np.float32
        features = rng.standard_normal((2, 3, 8, 3))
        adjacency = rng.standard_normal((2, 3, 3))
        latent = backbone(Tensor(features), Tensor(adjacency))
        assert latent.data.dtype == np.float64
        inputs = [Tensor(a, requires_grad=True) for a in (features, adjacency)]
        tracked = backbone(*inputs)
        assert tracked.data.dtype == np.float64
        tracked.sum().backward()
        assert [t.grad.dtype for t in inputs] == [np.float64, np.float64]

    def test_float32_node_hands_parameter_gradients_over_in_float64(self):
        # a parameter held as a plain Tensor, outside a Parameters table,
        # gets a float64 gradient as a table leaf does
        rng = rng_for(325)
        config = BackboneConfig(
            hidden_dim=4, skip_dim=4, output_dim=3, kernel_size=2, dilations=(1, 2, 4)
        )
        backbone = fresh_backbone(config, channels=3, days=8, t_out=2)
        features = rng.standard_normal((2, 3, 8, 3))
        adjacency = rng.standard_normal((2, 3, 3))
        upstream = rng.standard_normal((2, 3, 2, 3))
        _, grads = tracked_backbone_pass(
            Backbone.__call__, backbone, features, adjacency, upstream
        )
        inert = inert_params(config)
        dtypes = {name: grad.dtype for name, grad in grads.items() if name not in inert}
        assert dtypes == dict.fromkeys(dtypes, np.float64)


def composed_causal_conv(x, weight, bias, dilation):
    """The dilated causal convolution from generic tape operations."""
    taps, days = weight.shape[0], x.shape[2]
    xpad = pad_axis(x, 2, (taps - 1) * dilation)
    out = bias
    for k in range(taps):
        out = out + xpad[:, :, k * dilation : k * dilation + days, :] @ weight[k]
    return out


def composed_backbone(backbone, features, adjacency):
    """The backbone built from generic tape operations (reference)."""
    batch, regions, days, _ = features.shape
    p, hid = backbone.params, backbone.config.hidden_dim
    magnitude = ad.absolute(adjacency)
    support = magnitude / (magnitude.sum(axis=-1, keepdims=True) + 1e-8)
    x = features @ p["input_weight"] + p["input_bias"]
    skip_total = None
    for index, dilation in enumerate(backbone.config.dilations):
        tag = f"layer{index}_"
        filt = composed_causal_conv(
            x, p[tag + "filter_weight"], p[tag + "filter_bias"], dilation
        )
        gate = composed_causal_conv(
            x, p[tag + "gate_weight"], p[tag + "gate_bias"], dilation
        )
        h = tanh(filt) * ad.sigmoid(gate)
        contribution = h @ p[tag + "skip_weight"]
        skip_total = contribution if skip_total is None else skip_total + contribution
        flat = h.reshape(batch, regions, days * hid)
        mixed = (support @ flat).reshape(batch, regions, days, hid)
        x = x + (
            mixed @ p[tag + "neighbor_weight"] + h @ p[tag + "self_weight"] + p[tag + "mix_bias"]
        )
    read = relu(relu(skip_total) @ p["end_weight"] + p["end_bias"])
    mapped = read.swapaxes(2, 3) @ p["time_weight"] + p["time_bias"]
    return mapped.swapaxes(2, 3)


def backbone_inputs(rng, config, shape, t_out, dtype=np.float64):
    """A backbone with every parameter (biases too) drawn away from zero, plus
    features and an adjacency with negative entries, exact zeros and one
    all-zero row (only the 1e-8 guard keeps its normalization finite).  It
    computes in float64 unless ``dtype`` says otherwise: the exact oracles
    need float64 arithmetic."""
    batch, regions, days, channels = shape
    seed = int(rng.integers(1 << 30))
    backbone = fresh_backbone(config, channels, days, t_out, seed=seed, dtype=dtype)
    for value in backbone.params.values():
        value.data += 0.3 * rng.standard_normal(value.shape)
    features = rng.standard_normal(shape)
    adjacency = rng.standard_normal((batch, regions, regions))
    adjacency[..., 0, 1] = 0.0
    adjacency[-1, 1, :] = 0.0
    return backbone, features, adjacency


def inert_params(config):
    """The last layer's residual-mix parameters, which nothing downstream reads."""
    last = len(config.dilations) - 1
    return {f"layer{last}_{name}" for name in ("neighbor_weight", "self_weight", "mix_bias")}


def tracked_backbone_pass(build, backbone, features, adjacency, upstream):
    """Output and the gradients of features, adjacency and every parameter."""
    params = {
        name: Tensor(value.data.copy(), requires_grad=True)
        for name, value in backbone.params.items()
    }
    copy = Backbone(backbone.config, backbone.t_in, backbone.t_out, params, dtype=backbone.dtype)
    inputs = [Tensor(a.copy(), requires_grad=True) for a in (features, adjacency)]
    out = build(copy, *inputs)
    (out * upstream).sum().backward()
    grads = {"features": inputs[0].grad, "adjacency": inputs[1].grad}
    grads.update({name: tensor.grad for name, tensor in params.items()})
    return out.data, grads


class TestFusedBackbone:
    """The fused backbone node against central differences and against the
    same stack composed from generic tape operations."""

    @pytest.mark.parametrize("shape", [(2, 3, 4, 2), (1, 3, 4, 2)], ids=["batched", "one-element"])
    def test_gradients_match_finite_differences(self, shape):
        rng = rng_for(340)
        config = BackboneConfig(
            hidden_dim=3, skip_dim=2, output_dim=2, kernel_size=2, dilations=(1, 2)
        )
        backbone, features, adjacency = backbone_inputs(rng, config, shape, t_out=2)
        upstream = rng.standard_normal((*shape[:2], 2, 2))
        _, grads = tracked_backbone_pass(
            Backbone.__call__, backbone, features, adjacency, upstream
        )
        inert = inert_params(config)
        arrays = {
            "features": features, "adjacency": adjacency,
            **{name: value.data for name, value in backbone.params.items()},
        }

        def loss() -> float:
            return float((backbone(Tensor(features), Tensor(adjacency)).data * upstream).sum())

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
            # (K - 1) * d = 16 >= 2T: both early taps of the last layer read padding
            BackboneConfig(
                hidden_dim=3, skip_dim=4, output_dim=2, kernel_size=3, dilations=(1, 8)
            ),
        ],
        ids=["k2-d8", "k3-d4", "k3-d8"],
    )
    @pytest.mark.parametrize("shape", [(3, 4, 8, 3), (1, 4, 8, 3)], ids=["batched", "one-element"])
    def test_matches_composed_reference(self, config, shape):
        rng = rng_for(341)
        backbone, features, adjacency = backbone_inputs(rng, config, shape, t_out=5)
        upstream = rng.standard_normal((*shape[:2], 5, config.output_dim))
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

    @pytest.mark.parametrize(
        "shape", [(32, 8, 14, 8), (1, 8, 14, 8)], ids=["batched", "one-element"]
    )
    def test_float32_node_matches_float64_node(self, shape):
        # The default stack at the acceptance world's shape (B=32, N=8,
        # T=14, 8 lifted channels).  Tolerance from float32 rounding, unit
        # u = 2^-24: an inner product of n terms rounds to within n*u of the
        # sum of its terms' magnitudes (Higham, "Accuracy and Stability of
        # Numerical Algorithms", section 3.1), and the errors of chained
        # products add.  The longest chain runs forward through the input
        # map (C terms), each layer's convolution (K*hidden), mixing (N) and
        # neighbor and self maps (2*hidden), the readout (skip) and the time
        # map (T); then back along the same chain, ending in a weight
        # gradient's sum over the T*N rows of each of the B batch elements.
        # So every array is held to n*u of its largest entry, n the total.
        rng = rng_for(343)
        config = BackboneConfig()
        batch, regions, days, channels = shape
        hid, layers = config.hidden_dim, len(config.dilations)
        forward = (
            channels + layers * (config.kernel_size * hid + regions + 2 * hid)
            + config.skip_dim + days
        )
        tolerance = (2 * forward + days * regions + batch) * 2.0**-24
        exact, features, adjacency = backbone_inputs(rng, config, shape, t_out=14)
        upstream = rng.standard_normal((batch, regions, 14, config.output_dim))
        single = Backbone(config, days, 14, exact.params, dtype=np.float32)
        want_out, want = tracked_backbone_pass(
            Backbone.__call__, exact, features, adjacency, upstream
        )
        out, got = tracked_backbone_pass(
            Backbone.__call__, single, features, adjacency, upstream
        )
        arrays = {"latent": (out, want_out)}
        arrays.update({name: (got[name], grad) for name, grad in want.items()})
        for name, (value, reference) in arrays.items():
            if reference is None:  # an inert parameter
                assert value is None, name
                continue
            scale = np.abs(reference).max()
            assert np.abs(value - reference).max() <= tolerance * scale, name

    def test_constant_inputs_build_no_tape(self, small_model):
        rng = rng_for(342)
        config = small_model.config
        leaves = small_model.parameters().group("backbone")
        backbone = Backbone(config.backbone, config.t_in, config.t_out, leaves)
        features = Tensor(rng.standard_normal((2, 3, config.t_in, config.lifted_channels)))
        adjacency = Tensor(rng.uniform(0, 1, (2, 3, 3)))
        constant = Backbone(
            config.backbone,
            config.t_in,
            config.t_out,
            {name: Tensor(value.data) for name, value in leaves.items()},
        )
        out = constant(features, adjacency)
        assert not out.requires_grad and out._backward is None
        tracked = backbone(features, adjacency)
        assert tracked.requires_grad and tracked._parents
        np.testing.assert_array_equal(tracked.data, out.data)
        with small_model.inference():
            quiet = backbone(features, adjacency)
        assert not quiet.requires_grad
        assert quiet._parents == () and quiet._backward is None
        np.testing.assert_array_equal(quiet.data, out.data)


def tape_nodes(result) -> int:
    """Recorded operations reachable from a forward result's tracked tensors,
    counted as the benchmark's tracer counts them."""
    stack = [value for value in vars(result).values() if getattr(value, "requires_grad", False)]
    seen, nodes = set(), 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes += node._backward is not None
            stack.extend(node._parents)
    return nodes


# Every layer the forward calls, as (owner, attribute) for monkeypatching.
MODEL_LAYERS = (
    *[(adjacency, name) for name in (
        "forecast_mobility", "pool_mobility", "retrieve_representation",
        "case_adjacency", "compose_adjacency",
    )],
    *[(estimator, name) for name in (
        "lift_features", "spatial_enhancement", "estimate_params",
    )],
    (Backbone, "__call__"),
    (pipeline, "suppress_beta"),
)


class TestTapeSize:
    @pytest.fixture(scope="class")
    def acceptance_step(self):
        """The acceptance world (N=8) at batch 32 with a default model."""
        config = ModelConfig()
        world = datasets.generate_synthetic(datasets.SyntheticScenario())
        windows = datasets.windowize(world, config.t_in, config.t_out)
        model = ForecastModel(config, len(windows.regions), seed=2024)
        model.set_scaler(*datasets.channel_scaler(windows))
        return model, windows.batch(np.arange(32))

    def test_train_regional_step_records_37_nodes(self, acceptance_step):
        # as a training step sees it; each fused node is one tape node
        # however it works inside, and the SPE node's attention core is none
        model, batch = acceptance_step
        assert tape_nodes(model.forward(batch, training=True)) == 37

    def test_inference_forward_records_none(self, acceptance_step):
        model, batch = acceptance_step
        with model.inference():
            result = model.forward(batch)
        assert tape_nodes(result) == 0
        tensors = [value for value in vars(result).values() if isinstance(value, Tensor)]
        assert tensors and not any(t.requires_grad or t._parents for t in tensors)

    def test_every_layer_returns_a_tensor(self, small_model, small_windows, monkeypatch):
        returned = {}
        for owner, name in MODEL_LAYERS:
            def recording(*args, _layer=getattr(owner, name), _name=name, **kwargs):
                returned[_name] = _layer(*args, **kwargs)
                return returned[_name]

            monkeypatch.setattr(owner, name, recording)
        small_model.forward(small_windows.batch(np.arange(2)), training=True)
        assert set(returned) == {name for _, name in MODEL_LAYERS}
        for name, out in returned.items():
            outputs = out if isinstance(out, tuple) else (out,)
            assert all(type(value) is Tensor for value in outputs), name


class TestParameterHeads:
    """The read-out heads over a fresh model's ``heads.*`` (latent dim 8)."""

    def test_outputs_strictly_inside_unit_interval(self):
        rng = rng_for(321)
        heads = initial_group("heads", seed=321)
        latent = Tensor(rng.standard_normal((2, 3, 4, 8)) * 3)
        beta, gamma = estimator.estimate_params(latent, heads)
        for rates in (beta.data, gamma.data):
            assert rates.shape == (2, 3, 4)
            assert (rates > 0).all() and (rates < 1).all()

    def test_zero_latent_reads_bias(self):
        heads = initial_group("heads", seed=322)
        beta, gamma = estimator.estimate_params(Tensor(np.zeros((1, 2, 8))), heads)
        sigmoid = lambda v: 1.0 / (1.0 + np.exp(-v))
        np.testing.assert_allclose(
            beta.data,
            sigmoid(float(heads["beta_bias"].data[0])),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            gamma.data,
            sigmoid(float(heads["gamma_bias"].data[0])),
            atol=1e-12,
        )

    def test_initial_recovery_rate_below_infection_rate(self):
        # fresh heads start in the plausible regime: recovery slower than
        # transmission, both well inside (0, 1)
        heads = initial_group("heads", seed=323)
        beta, gamma = estimator.estimate_params(Tensor(np.zeros((1, 1, 8))), heads)
        assert 0.05 < float(gamma.data[0, 0]) < float(beta.data[0, 0]) < 0.5

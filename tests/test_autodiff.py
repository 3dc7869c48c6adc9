"""Gradient oracles for the reverse-mode engine.

Every differentiable operation is checked against central finite
differences on randomized dense inputs, including broadcast shapes, and the
graph engine is exercised on shared subexpressions, diamonds, and custom
fused operations.  The walk that frees the graph as it goes is checked
against the walk that keeps every gradient, bit for bit, on a training step.
"""

from __future__ import annotations

import functools
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from epicast import autodiff as ad
from epicast import cli, datasets, training
from epicast.autodiff import Parameters, Tensor
from epicast.pipeline import ForecastModel

from conftest import pad_axis, relu, rng_for, tanh

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def numeric_gradient(fn, arrays, index, step=1e-6):
    """Central-difference gradient of scalar ``fn(*arrays)`` w.r.t. one input."""
    base = [np.array(a, dtype=np.float64) for a in arrays]
    grad = np.zeros_like(base[index])
    flat = grad.ravel()
    probe = base[index].ravel()
    for k in range(probe.size):
        keep = probe[k]
        probe[k] = keep + step
        hi = fn(*base)
        probe[k] = keep - step
        lo = fn(*base)
        probe[k] = keep
        flat[k] = (hi - lo) / (2.0 * step)
    return grad


def check_op(build, shapes, tag, tol=5e-6, low=-2.0, high=2.0):
    """Compare analytic and numeric gradients of ``build`` on random inputs.

    ``build`` maps one Tensor per shape to a scalar Tensor; a fixed random
    projection densifies vector outputs.  The numeric path feeds it constant
    Tensors.
    """
    rng = rng_for(tag)
    arrays = [rng.uniform(low, high, size=shape) for shape in shapes]

    def scalar_fn(*raw):
        return build(*[Tensor(a) for a in raw]).item()

    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    assert isinstance(out, Tensor)
    out.backward()
    for index, tensor in enumerate(tensors):
        numeric = numeric_gradient(scalar_fn, arrays, index)
        analytic = tensor.grad
        assert analytic is not None, f"input {index} received no gradient"
        assert analytic.shape == arrays[index].shape
        scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1.0)
        np.testing.assert_allclose(
            analytic, numeric, atol=tol * scale, rtol=0,
            err_msg=f"input {index} of {build.__name__}",
        )


def project(value: Tensor, tag) -> Tensor:
    """Reduce any-shaped op output to a scalar with fixed random weights."""
    weights = rng_for(10_000 + tag).standard_normal(value.shape)
    return (value * weights).sum()


# ------------------------------------------------------------- arithmetic ops


class TestArithmetic:
    def test_add_broadcast(self):
        def build(a, b):
            return project(a + b, 1)

        check_op(build, [(3, 1, 4), (5, 1)], tag=1)

    def test_radd_scalar(self):
        def build(a):
            return project(2.5 + a, 2)

        check_op(build, [(4, 3)], tag=2)

    def test_sub_broadcast(self):
        def build(a, b):
            return project(a - b, 3)

        check_op(build, [(2, 4), (4,)], tag=3)

    def test_rsub(self):
        def build(a):
            return project(1.5 - a, 4)

        check_op(build, [(3, 2)], tag=4)

    @pytest.mark.parametrize("shapes", [[(3, 4), (3, 1)], [(3, 1), (3, 4)]])
    def test_mul_broadcast(self, shapes):
        def build(a, b):
            return project(a * b, 5)

        check_op(build, shapes, tag=5)

    # equal shapes, then a denominator broadcast along the rows, then both
    # operands broadcast against each other
    @pytest.mark.parametrize("shapes", [[(3, 3), (3, 3)], [(2, 3), (3,)], [(3, 1), (1, 4)]])
    def test_div(self, shapes):
        # keep denominators bounded away from zero
        def build(a, b):
            return project(a / (b * b + 0.5), 6)

        check_op(build, shapes, tag=6)

    def test_matmul_2d(self):
        def build(a, b):
            return project(a @ b, 10)

        check_op(build, [(3, 4), (4, 2)], tag=10)

    def test_matmul_batched(self):
        def build(a, b):
            return project(a @ b, 11)

        check_op(build, [(2, 3, 4), (2, 4, 5)], tag=11)

    def test_matmul_broadcast_left(self):
        def build(a, b):
            return project(a @ b, 12)

        # a 2-D right operand takes the flattened weight-gradient GEMM (the
        # model's (B, N, T, C) @ (C, C') lift); a 3-D one the general path
        for shapes in ([(5, 3, 4), (4, 2)], [(2, 3, 5, 4), (4, 2)], [(5, 3, 4), (1, 4, 2)]):
            check_op(build, shapes, tag=12)

    @pytest.mark.parametrize("left", [(7, 16), (5, 3, 16), (4, 3, 5, 16)])
    def test_one_column_left_gradient_is_the_gemm_bitwise(self, left):
        # the rate heads' (d, 1) weights take a broadcast product in place
        # of g @ b.T; zeros of both signs in g and b check the zero's sign
        rng = rng_for(14)
        a = Tensor(rng.standard_normal(left), requires_grad=True)
        b = Tensor(rng.standard_normal((16, 1)), requires_grad=True)
        b.data[[3, 5], 0] = [0.0, -0.0]
        upstream = rng.standard_normal(left[:-1] + (1,))
        upstream.flat[::4] = 0.0
        upstream.flat[1::4] = -0.0
        (a @ b).backward(upstream)
        want = upstream @ np.ascontiguousarray(b.data.T)
        assert a.grad.tobytes() == want.tobytes()
        check_op(lambda a, b: project(a @ b, 14), [left[:-1] + (4,), (4, 1)], tag=14)

    def test_rmatmul_lifts_an_ndarray_left_operand(self):
        rng = rng_for(13)
        left = rng.standard_normal((5, 3, 4))
        right = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        lifted = Tensor(right.data.copy(), requires_grad=True)
        out = left @ right
        assert isinstance(out, Tensor)
        reference = Tensor(left) @ lifted
        assert out.data.tobytes() == reference.data.tobytes()
        upstream = rng.standard_normal(out.shape)
        out.backward(upstream)
        reference.backward(upstream)
        assert right.grad.tobytes() == lifted.grad.tobytes()


# ------------------------------------------------------------ elementwise ops


class TestElementwise:
    @pytest.mark.parametrize(
        "name,fn,low,high",
        [
            ("exp", ad.exp, -2.0, 2.0),
            ("tanh", tanh, -3.0, 3.0),
            ("sigmoid", ad.sigmoid, -4.0, 4.0),
            ("absolute", ad.absolute, 0.1, 2.0),
        ],
    )
    def test_unary(self, name, fn, low, high):
        def build(a):
            return project(fn(a), hash(name) % 1000)

        check_op(build, [(3, 4)], tag=hash(name) % 1000, low=low, high=high)

    def test_sigmoid_matches_masked_formula_bitwise(self):
        x = np.array(
            [-800.0, -745.0, -1e-300, -0.0, 0.0, 1e-300, 37.0, 745.0, 800.0, np.nan]
        )
        # the two-branch formula, each branch evaluated only where it is stable
        want = np.empty_like(x)
        positive = x >= 0
        with np.errstate(under="ignore"):
            want[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
            grown = np.exp(x[~positive])
        want[~positive] = grown / (1.0 + grown)
        with np.errstate(all="raise"):
            got = ad._sigmoid_np(x)
        assert got.tobytes() == want.tobytes()

    def test_relu_away_from_kink(self):
        rng = rng_for(20)
        signs = np.sign(rng.standard_normal((4, 5)))

        def build(a):
            return project(relu(a * signs + signs), 20)

        # inputs in [0.5, 1.5] keep every pre-activation at least 1 from zero
        check_op(build, [(4, 5)], tag=20, low=0.5, high=1.5)

    def test_softmax_rows(self):
        def build(a):
            return project(ad.softmax(a, axis=-1), 22)

        check_op(build, [(3, 5)], tag=22, low=-3.0, high=3.0)

    def test_softmax_middle_axis(self):
        def build(a):
            return project(ad.softmax(a, axis=1), 23)

        check_op(build, [(2, 4, 3)], tag=23)

    def test_softmax_rows_sum_to_one(self):
        rng = rng_for(24)
        x = Tensor(rng.standard_normal((6, 7)) * 5)
        rows = ad.softmax(x, axis=-1).data
        np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-12)
        assert (rows >= 0).all()

    def test_softmax_shift_invariance(self):
        rng = rng_for(25)
        x = rng.standard_normal((4, 4))
        np.testing.assert_allclose(
            ad.softmax(Tensor(x)).data, ad.softmax(Tensor(x + 1000.0)).data, atol=1e-12
        )


# ------------------------------------------------------------------ shape ops


class TestShapeOps:
    def test_reshape(self):
        def build(a):
            return project(a.reshape(6, 2), 30)

        check_op(build, [(3, 4)], tag=30)

    def test_swapaxes(self):
        def build(a):
            return project(a.swapaxes(0, 2), 32)

        check_op(build, [(2, 3, 4)], tag=32)

    def test_getitem(self):
        def build(a):
            return project(a[1:, ::2], 33)

        check_op(build, [(4, 6)], tag=33)

    def test_getitem_scatter_accumulates(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        (a[1] + a[1] + a[2]).backward()
        np.testing.assert_array_equal(a.grad, [0.0, 2.0, 1.0, 0.0])
        # repeated fancy indices add up instead of overwriting each other
        x = Tensor(np.arange(3.0), requires_grad=True)
        x[[0, 0, 1]].sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0, 1.0, 0.0])

    def test_sum_axis_keepdims(self):
        def build(a):
            return project(a.sum(axis=1, keepdims=True), 34)

        check_op(build, [(3, 4, 2)], tag=34)

    def test_sum_multi_axis(self):
        def build(a):
            return project(a.sum(axis=(0, 2)), 35)

        check_op(build, [(3, 4, 2)], tag=35)

    def test_mean_axis(self):
        def build(a):
            return project(a.mean(axis=0), 36)

        check_op(build, [(5, 3)], tag=36)

    def test_mean_all(self):
        def build(a):
            return a.mean()

        check_op(build, [(4, 4)], tag=37)

    def test_pad_axis(self):
        def build(a):
            return project(pad_axis(a, axis=1, before=2, after=1), 38)

        check_op(build, [(2, 3)], tag=38)


# -------------------------------------------------------------- unbroadcast


class TestUnbroadcast:
    def test_extra_leading_axes_summed(self):
        g = np.ones((5, 3, 4))
        out = ad.unbroadcast(g, (3, 4))
        np.testing.assert_array_equal(out, np.full((3, 4), 5.0))

    def test_size_one_axes_summed_with_keepdims(self):
        g = np.arange(12.0).reshape(3, 4)
        out = ad.unbroadcast(g, (3, 1))
        np.testing.assert_array_equal(out, g.sum(axis=1, keepdims=True))

    def test_mixed(self):
        g = np.ones((2, 3, 4))
        out = ad.unbroadcast(g, (1, 4))
        assert out.shape == (1, 4)
        np.testing.assert_array_equal(out, np.full((1, 4), 6.0))

    def test_already_matching(self):
        g = np.arange(6.0).reshape(2, 3)
        assert ad.unbroadcast(g, (2, 3)) is g


# ------------------------------------------------------------------- engine


class TestGraphEngine:
    def test_shared_subexpression_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x * x  # dy/dx = 4x = 12
        y.backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        a = x * 3.0
        b = x + 1.0
        y = a * b  # y = 3x(x+1), dy/dx = 6x + 3 = 15
        y.backward()
        np.testing.assert_allclose(x.grad, [15.0])

    def test_deep_chain_iterative_traversal(self):
        # a graph far deeper than the default recursion limit
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 0.0
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_backward_seed(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (x * 2.0).backward(np.array([10.0, 100.0]))
        np.testing.assert_allclose(x.grad, [20.0, 200.0])

    def test_backward_seed_shape_mismatch(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 1.0).backward(np.zeros(2))

    def test_no_grad_leaves_untouched(self):
        x = Tensor(np.ones(2), requires_grad=True)
        c = Tensor(np.ones(2), requires_grad=False)
        (x * c).sum().backward()
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [1.0, 1.0])

    def test_zero_grad_and_reaccumulate(self):
        x = Tensor(np.array([4.0]), requires_grad=True)
        (x * x).backward()
        x.zero_grad()
        assert x.grad is None
        (x * 3.0).backward()
        np.testing.assert_allclose(x.grad, [3.0])

    def test_basic_properties(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6
        assert Tensor(np.array(7.0)).item() == 7.0

    def test_numpy_defers_to_tensor(self):
        # the engine claims operator dispatch away from ndarray
        assert Tensor.__array_ufunc__ is None
        x = Tensor(np.ones(3), requires_grad=True)
        out = np.ones(3) + x
        assert isinstance(out, Tensor)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(3))

    def test_make_op_custom_fused(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)

        def backward(g):
            x._accumulate(3.0 * g)

        y = ad.make_op(3.0 * x.data + 1.0, (x,), backward)
        loss = (y * y).sum()
        loss.backward()
        # d/dx sum((3x+1)^2) = 6(3x+1)
        np.testing.assert_allclose(x.grad, 6.0 * (3.0 * x.data + 1.0))

    def test_gradient_of_composite_expression(self):
        def build(a, b):
            return (tanh(a @ b) * ad.sigmoid(a @ b)).sum()

        check_op(build, [(3, 4), (4, 2)], tag=50)

    def test_an_upstream_array_held_by_two_parents_is_not_added_into(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        y = Tensor(np.zeros(3), requires_grad=True)

        def backward(g):
            shared = 2.0 * g  # one array, handed to both parents as it is
            x._accumulate(shared)
            y._accumulate(shared)
            x._accumulate(np.ones(3))
            x._accumulate(np.ones(3))

        ad.make_op(np.zeros(3), (x, y), backward).backward()
        np.testing.assert_array_equal(x.grad, [4.0, 4.0, 4.0])
        np.testing.assert_array_equal(y.grad, [2.0, 2.0, 2.0])

    def test_a_copied_gradient_is_added_into_in_place(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        upstream = np.arange(12.0).reshape(3, 4)
        buffers = []

        def backward(g):
            x._accumulate(upstream[1:, :3])  # a view: its first write copies
            buffers.append(x.grad)
            x._accumulate(g)
            buffers.append(x.grad)

        ad.make_op(np.zeros((2, 3)), (x,), backward).backward()
        assert buffers[0] is buffers[1] is x.grad
        np.testing.assert_array_equal(x.grad, upstream[1:, :3] + 1.0)
        np.testing.assert_array_equal(upstream, np.arange(12.0).reshape(3, 4))

    def test_a_fresh_view_is_taken_over_without_a_copy(self):
        # a backward that made a buffer for one parent alone hands it a view
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        made = np.arange(6.0).reshape(3, 2)
        view = made.T  # (2, 3), not C-ordered

        def backward(g):
            x._accumulate(view, fresh=True)
            x._accumulate(g)

        ad.make_op(np.zeros((2, 3)), (x,), backward).backward()
        assert x.grad is view  # kept, layout and all, and added into in place
        np.testing.assert_array_equal(made, np.arange(6.0).reshape(3, 2) + 1.0)

    @pytest.mark.parametrize("held", ["leaf", "owned", "borrowed"])
    @pytest.mark.parametrize("axis,keepdims", [((1, 3), False), (2, True), (None, False)])
    def test_sum_backward_into_a_held_gradient_equals_the_spread_path(
        self, held, axis, keepdims
    ):
        # the spread path: g broadcast into a new buffer of the operand's
        # layout, which is then added to the gradient the operand holds
        rng = rng_for(60)
        data = rng.standard_normal((2, 4, 3, 5)).transpose(0, 2, 1, 3)  # not C-ordered
        earlier = rng.standard_normal(data.shape)
        table = Parameters({"x": data})
        a = table["x"] if held == "leaf" else Tensor(data, requires_grad=True)
        total = a.sum(axis=axis, keepdims=keepdims)
        g = rng.standard_normal(total.shape)
        if held == "owned":
            a._accumulate(earlier[...])  # a view: copied, so the buffer is a's
            assert a._owns_grad
        else:
            a._accumulate(earlier)  # a leaf copies it into its slot; else it is borrowed
        spread = np.empty_like(data)
        spread[...] = g if keepdims or axis is None else np.expand_dims(g, axis)
        want = earlier + spread
        before = earlier.copy()
        total._backward(g)
        assert a.grad.tobytes() == want.tobytes()
        assert earlier.tobytes() == before.tobytes()  # a borrowed gradient is not added into
        if held == "leaf":
            assert a.grad is table["x"]._slot
            assert table.grad.tobytes() == want.tobytes()

    def test_sum_backward_first_write_is_an_owned_spread_of_the_operand_layout(self):
        data = np.arange(24.0).reshape(2, 3, 4).transpose(2, 0, 1)
        a = Tensor(data, requires_grad=True)
        total = a.sum(axis=1)
        g = np.arange(12.0).reshape(4, 3)
        total._backward(g)
        assert a.grad.strides == np.empty_like(data).strides
        assert a.grad.tobytes() == np.broadcast_to(g[:, None, :], data.shape).tobytes()
        assert a._owns_grad  # a later write adds into it in place
        buffer = a.grad
        total._backward(g)
        assert a.grad is buffer
        assert a.grad.tobytes() == (2.0 * np.broadcast_to(g[:, None, :], data.shape)).tobytes()


class TestParameterTable:
    """``Parameters``: leaves viewing one flat data and one flat grad buffer."""

    def table(self):
        rng = rng_for(60)
        return Parameters(
            {"w": rng.standard_normal((2, 3)), "b": rng.standard_normal(3), "s": 0.5}
        )

    def test_leaves_are_views_of_the_flat_data(self):
        params = self.table()
        assert params.data.shape == params.grad.shape == (10,)
        assert [leaf.shape for leaf in params.values()] == [(2, 3), (3,), ()]
        np.testing.assert_array_equal(
            params.data, np.concatenate([leaf.data.ravel() for leaf in params.values()])
        )
        params.data[:] = np.arange(10.0)
        np.testing.assert_array_equal(params["b"].data, [6.0, 7.0, 8.0])
        assert float(params["s"].data) == 9.0
        assert all(leaf.grad is None and leaf.requires_grad for leaf in params.values())
        assert not params.grad.any()

    def test_first_gradient_becomes_a_view_then_adds_in_place(self):
        params = self.table()
        w, b = params["w"], params["b"]
        (w * 2.0).sum().backward()
        assert params["b"].grad is None
        assert np.shares_memory(w.grad, params.grad)
        slot = w.grad
        (w * 3.0 + b).sum().backward()
        assert w.grad is slot
        np.testing.assert_array_equal(w.grad, np.full((2, 3), 5.0))
        np.testing.assert_array_equal(params.grad[:6], np.full(6, 5.0))
        np.testing.assert_array_equal(params.grad[6:], [2.0, 2.0, 2.0, 0.0])

    def test_group_holds_the_tables_own_leaves_in_table_order(self):
        params = Parameters({
            "heads.w": np.ones((2, 1)), "lift.w": np.ones(2),
            "heads.b": np.zeros(1), "head.x": np.zeros(1), "a.b.c": np.zeros(1),
        })
        heads = params.group("heads")
        assert list(heads) == ["w", "b"]
        assert heads["w"] is params["heads.w"] and heads["b"] is params["heads.b"]
        assert params.group("a") == {"b.c": params["a.b.c"]}
        assert params.group("a.b") == {"c": params["a.b.c"]}
        assert params.group("head.x") == params.group("missing") == {}

    def test_a_table_over_a_buffer_equals_one_built_from_arrays(self):
        arrays = {
            "heads.w": np.arange(2.0).reshape(2, 1), "a.b.c": np.array([2.0]),
            "a.b": np.arange(3.0, 9.0).reshape(3, 2), "heads.b": np.array(9.0), "x": np.ones(1),
        }
        built = Parameters(arrays)
        data = built.data.copy()
        over = Parameters.over(data, [(name, value.shape) for name, value in arrays.items()])
        assert over.data is data and over.grad.shape == data.shape and not over.grad.any()
        assert list(over) == list(built)
        for name, leaf in over.items():
            assert leaf.data.tobytes() == built[name].data.tobytes()
            assert leaf.shape == built[name].shape and np.shares_memory(leaf.data, data)
            assert np.shares_memory(leaf._slot, over.grad) and leaf.name == name
        groups = {prefix: list(group) for prefix, group in built._groups.items()}
        assert groups == {"heads": ["w", "b"], "a": ["b.c", "b"], "a.b": ["c"]}
        assert {prefix: list(group) for prefix, group in over._groups.items()} == groups
        assert over.group("a") == {"b.c": over["a.b.c"], "b": over["a.b"]}
        assert over.group("a.b") == {"c": over["a.b.c"]}

    def test_an_edited_group_does_not_change_the_next(self):
        params = Parameters({"g.w": np.ones(2), "g.b": np.zeros(2)})
        first = params.group("g")
        first["w"] = Tensor(np.zeros(2))
        del first["b"]
        again = params.group("g")
        assert again is not first
        assert again == {"w": params["g.w"], "b": params["g.b"]}

    def test_zero_grad_clears_every_leaf_and_the_flat_gradient(self):
        params = self.table()
        sum((leaf * 1.5).sum() for leaf in params.values()).backward()
        assert params.grad.all()
        params.zero_grad()
        assert all(leaf.grad is None for leaf in params.values())
        assert not params.grad.any()

    def test_leaf_zero_grad_zeroes_only_its_slice(self):
        params = self.table()
        sum((leaf * 1.5).sum() for leaf in params.values()).backward()
        params["b"].zero_grad()
        assert params["b"].grad is None
        np.testing.assert_array_equal(params.grad, [1.5] * 6 + [0.0] * 3 + [1.5])


# ------------------------------------------------------------- freed graph


def topological(root: Tensor) -> list[Tensor]:
    """Every node reachable from ``root``, parents before children."""
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def keeping_backward(root: Tensor) -> None:
    """The walk that frees nothing: every node keeps its grad (the oracle)."""
    order = topological(root)
    root._accumulate(np.ones_like(root.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def acceptance_step_gradients(walk) -> tuple[dict, list[Tensor]]:
    """One B=32 step on the acceptance world, walked by ``walk``.

    Returns every parameter's gradient and the step's non-leaf nodes.
    """
    payload = cli.load_config(CONFIG_DIR / "acceptance.yaml")
    config = cli.model_config_from(payload)
    world = datasets.generate_synthetic(cli.scenario_from(payload))
    train_split, _, _ = datasets.chronological_split(world)
    windows = datasets.windowize(train_split, config.t_in, config.t_out)
    seed = cli.train_config_from(payload).seed
    model = ForecastModel(config, world.n_regions, seed=seed)
    model.set_scaler(*datasets.channel_scaler(windows))
    batch = windows.batch(np.arange(32))
    loss = training.mae_loss(model.forward(batch, training=True).cases, batch.targets)
    intermediates = [node for node in topological(loss) if node._backward is not None]
    walk(loss)
    grads = {name: p.grad for name, p in model.parameters().items()}
    return grads, intermediates


class TestFreedGraph:
    def test_second_backward_on_the_same_root_raises(self):
        x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
        loss = (ad.exp(x) * 2.0).sum()
        loss.backward()
        first, kept = x.grad, x.grad.copy()
        with pytest.raises(RuntimeError, match="graph already freed by backward"):
            loss.backward()
        assert x.grad is first
        np.testing.assert_array_equal(x.grad, kept)

    def test_backward_through_a_freed_intermediate_raises(self):
        x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
        hidden = tanh(x * 3.0)
        hidden.sum().backward()
        first, kept = x.grad, x.grad.copy()
        with pytest.raises(RuntimeError, match="graph already freed by backward"):
            (hidden * 2.0).sum().backward()
        assert x.grad is first
        np.testing.assert_array_equal(x.grad, kept)

    def test_acceptance_step_gradients_match_the_keeping_walk_bitwise(self):
        want, _ = acceptance_step_gradients(keeping_backward)
        got, intermediates = acceptance_step_gradients(Tensor.backward)
        assert got.keys() == want.keys()
        # only the last backbone layer's residual mix, whose output nothing reads
        inert = {
            f"backbone.layer3_{name}"
            for name in ("neighbor_weight", "self_weight", "mix_bias")
        }
        assert {name for name, grad in want.items() if grad is None} == inert
        for name in want:
            if want[name] is None:
                assert got[name] is None, name
            else:
                assert np.array_equal(got[name], want[name]), name
        assert intermediates
        for node in intermediates:
            assert node.grad is None and node._parents == ()

    def test_nodes_run_backward_in_the_oracle_order(self):
        # the walk never visits leaves or constants, but every node with a
        # backward keeps its place, so every gradient adds up in one order
        ran, expected = [], []

        def logged(node, backward, g):
            ran.append(node)
            backward(g)

        def walk(loss):
            expected.extend(n for n in topological(loss) if n._backward is not None)
            for node in expected:
                node._backward = functools.partial(logged, node, node._backward)
            loss.backward()

        acceptance_step_gradients(walk)
        called = set(map(id, ran))
        assert len(ran) > 30
        assert ran == [node for node in reversed(expected) if id(node) in called]

    def test_backward_of_a_long_chain_holds_a_few_buffers(self):
        x = Tensor(np.ones(1 << 17), requires_grad=True)  # 1 MB
        y = x
        for _ in range(40):
            y = y * 1.0001
        loss = y.sum()
        tracemalloc.start()
        try:
            loss.backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * x.data.nbytes, f"backward peaked at {peak / 2**20:.1f} MB"


class TestHeapResidency:
    def test_missing_libc_is_a_no_op(self):
        def no_libc(name):
            raise OSError(f"{name}: cannot open shared object file")

        assert ad._keep_heap_resident(no_libc) is False

    def test_libc_without_mallopt_is_a_no_op(self):
        assert ad._keep_heap_resident(lambda name: types.SimpleNamespace()) is False

    def test_sets_the_trim_and_mmap_thresholds(self):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        libc = types.SimpleNamespace(mallopt=mallopt)
        assert ad._keep_heap_resident(lambda name: libc) is True
        assert calls == [(-1, 256 << 20), (-3, 32 << 20)]

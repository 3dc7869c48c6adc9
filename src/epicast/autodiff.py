"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a float64 ndarray and records the operation that produced
it.  ``Tensor.backward()`` walks the recorded graph once in reverse
topological order and accumulates ``grad`` arrays on every tensor built with
``requires_grad=True``.  Results of operations whose inputs carry no gradient
requirement are plain constants (no tape entry), so mixing learnable tensors
with large constant data stays cheap.

One ``backward()`` walks a graph: each intermediate node it leaves drops its
gradient, parents and backward closure, so the walk holds a few buffers, not
one per node.  Leaves keep ``grad``; walking a freed node again raises
``RuntimeError``.  Importing the module sets glibc's heap trim threshold to
256 MB and its mmap threshold to 32 MB, so buffers freed mid-walk stay in the
heap for the next step instead of going back to the OS to be faulted in again.

Broadcasting follows numpy semantics; gradients flowing back through a
broadcast are summed down to the original operand shape.

The module-level helpers (``exp``, ``sigmoid``, ``softmax``, ...) take a
Tensor and return one; an ndarray operand of a Tensor operator, on either
side (``@`` included), is lifted to a constant.  A model's parameters live
in one ``Parameters`` table over flat data and gradient buffers.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Parameters",
    "Tensor",
    "absolute",
    "as_data",
    "exp",
    "pad_axis",
    "relu",
    "sigmoid",
    "softmax",
    "tanh",
]


def _keep_heap_resident(load_library=ctypes.CDLL) -> bool:
    """Keep freed buffers in glibc's heap; False without glibc's ``mallopt``."""
    try:
        mallopt = load_library("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    return True


_keep_heap_resident()


def _freed(grad: np.ndarray) -> None:
    raise RuntimeError("graph already freed by backward()")


def _asarray(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` after a numpy-style broadcast."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        tail = grad.shape[extra:]
        width = int(np.prod(tail))
        if width > 1:
            # the leading axes as one GEMV: numpy's axis-0 reduction over
            # many short rows is several times slower
            lead = grad.size // width
            grad = (np.ones(lead) @ grad.reshape(lead, width)).reshape(tail)
        else:
            # a BLAS product with one output splits its sum across threads,
            # so its rounding would follow the thread count; numpy's does not
            grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name", "_owns_grad")

    # Keep numpy from consuming us in mixed expressions; python then falls
    # back to our reflected dunders.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self.name = name

    # ------------------------------------------------------------------ basics

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor{label}(shape={self.data.shape}{flag})"

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        # another node may hold ``grad``: only a buffer made here, or one the
        # caller made for this tensor alone (``fresh``), is added into
        if self.grad is None:
            copy = grad.base is not None and not fresh
            # order="K" keeps a view's layout, e.g. the time-major flows
            self.grad = grad.copy(order="K") if copy else grad
            self._owns_grad = copy or fresh
        elif self._owns_grad:
            self.grad += grad
        else:
            self.grad = self.grad + grad
            self._owns_grad = True

    # ------------------------------------------------------------ graph engine

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (seed defaults to ones); frees the graph."""
        if seed is None:
            seed = np.ones_like(self.data)
        else:
            seed = _asarray(seed)
            if seed.shape != self.data.shape:
                raise ValueError(
                    f"seed shape {seed.shape} does not match tensor shape {self.data.shape}"
                )
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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
        self._accumulate(seed)
        for node in reversed(order):
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad, node._parents, node._backward = None, (), _freed

    # ------------------------------------------------------------- arithmetic

    def __add__(self, other):
        other = _lift(other)
        out_data = self.data + other.data
        a, b = self, other

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(unbroadcast(g, b.data.shape))

        return _from_op(out_data, (a, b), backward)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        out_data = self.data - other.data
        a, b = self, other

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(unbroadcast(-g, b.data.shape))

        return _from_op(out_data, (a, b), backward)

    def __rsub__(self, other):
        return _lift(other).__sub__(self)

    def __mul__(self, other):
        other = _lift(other)
        out_data = self.data * other.data
        a, b = self, other

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(unbroadcast(g * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(unbroadcast(g * a.data, b.data.shape))

        return _from_op(out_data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        out_data = self.data / other.data
        a, b = self, other

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(unbroadcast(g / b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

        return _from_op(out_data, (a, b), backward)

    def __matmul__(self, other):
        other = _lift(other)
        a, b = self, other
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise ValueError("matmul requires operands with at least 2 dimensions")
        out_data = a.data @ b.data

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                if b.data.ndim == 2:
                    # a contiguous transpose: BLAS's transposed-operand path is slower
                    ga = g @ np.ascontiguousarray(b.data.T)
                else:
                    ga = g @ np.swapaxes(b.data, -1, -2)
                a._accumulate(unbroadcast(ga, a.data.shape))
            if b.requires_grad:
                if b.data.ndim == 2:
                    # One GEMM over all batch rows, not a batched product plus unbroadcast.
                    gb = a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1])
                else:
                    gb = unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
                b._accumulate(gb)

        return _from_op(out_data, (a, b), backward)

    def __rmatmul__(self, other):
        return _lift(other).__matmul__(self)

    # ----------------------------------------------------------- shape changes

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        out_data = a.data.reshape(shape)

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(g.reshape(a.data.shape))

        return _from_op(out_data, (a,), backward)

    def transpose(self, axes: Sequence[int]):
        a = self
        axes = tuple(axes)
        inverse = tuple(int(i) for i in np.argsort(axes))
        out_data = a.data.transpose(axes)

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(g.transpose(inverse))

        return _from_op(out_data, (a,), backward)

    def swapaxes(self, axis1: int, axis2: int):
        a = self
        out_data = np.swapaxes(a.data, axis1, axis2)

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(np.swapaxes(g, axis1, axis2))

        return _from_op(out_data, (a,), backward)

    def __getitem__(self, index):
        a = self
        out_data = a.data[index]

        def backward(g: np.ndarray) -> None:
            if a.requires_grad:
                buffer = np.zeros_like(a.data)
                np.add.at(buffer, index, g)
                a._accumulate(buffer)

        return _from_op(out_data, (a,), backward)

    # -------------------------------------------------------------- reductions

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if not a.requires_grad:
                return
            grad = g
            if not keepdims and axis is not None:
                grad = np.expand_dims(grad, axis)
            spread = np.empty_like(a.data)  # keeps a's layout, e.g. the time-major flows
            spread[...] = grad
            a._accumulate(spread)

        return _from_op(out_data, (a,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.data.size if axis is None else _axis_count(self.data.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)


class _Leaf(Tensor):
    """A table parameter; ``_slot`` is its slice of the table's ``grad``."""

    __slots__ = ("_slot",)

    def zero_grad(self) -> None:
        self._slot.fill(0.0)
        self.grad = None

    def _accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        if self.grad is None:
            self._slot[...] = grad
            self.grad = self._slot
        else:
            self.grad += grad


class Parameters(dict):
    """An ordered ``name -> Tensor`` table over flat ``data`` and ``grad`` buffers.

    Each leaf's ``data`` is a view into ``data``.  The backward's first write
    of a leaf's gradient copies it into the leaf's slice of ``grad``, which
    becomes the leaf's ``grad``; later writes add into it in place.  So
    ``grad`` holds every gradient, with zeros where a leaf's ``grad`` is None.
    A leaf's ``grad`` is never rebound from outside, and its ``data`` is only
    written in place; ``zero_grad``, of the table or of a leaf, also zeroes
    the slice.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        super().__init__()
        arrays = {name: _asarray(value) for name, value in arrays.items()}
        self.data = np.concatenate([value.ravel() for value in arrays.values()])
        self.grad = np.zeros_like(self.data)
        offset = 0
        for name, value in arrays.items():
            end = offset + value.size
            leaf = self[name] = _Leaf(
                self.data[offset:end].reshape(value.shape), requires_grad=True, name=name
            )
            leaf._slot = self.grad[offset:end].reshape(value.shape)
            offset = end

    def zero_grad(self) -> None:
        self.grad.fill(0.0)
        for leaf in self.values():
            leaf.grad = None

    def group(self, prefix: str) -> dict[str, Tensor]:
        """The leaves named ``prefix.<short>``, keyed by short name, in order."""
        head = prefix + "."
        return {
            name[len(head) :]: leaf for name, leaf in self.items() if name.startswith(head)
        }


def _axis_count(shape: tuple[int, ...], axis) -> int:
    if isinstance(axis, int):
        axis = (axis,)
    count = 1
    for ax in axis:
        count *= shape[ax]
    return count


def _lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _from_op(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    backward: Callable[[np.ndarray], None],
) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.name = None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def make_op(
    data: np.ndarray,
    parents: Sequence[Tensor],
    backward: Callable[[np.ndarray], None],
) -> Tensor:
    """Public hook for fused custom operations (see the kernel modules)."""
    return _from_op(_asarray(data), tuple(parents), backward)


def as_data(value) -> np.ndarray:
    """The raw ndarray behind either a Tensor or an array-like."""
    return value.data if isinstance(value, Tensor) else _asarray(value)


# ------------------------------------------------------------------ elementwise


def _unary(a: Tensor, fn_np, make_grad) -> Tensor:
    out_data = fn_np(a.data)
    grad_fn = make_grad(a.data, out_data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g * grad_fn())

    return _from_op(out_data, (a,), backward)


def exp(value: Tensor) -> Tensor:
    return _unary(value, np.exp, lambda x, out: lambda: out)


def tanh(value: Tensor) -> Tensor:
    return _unary(value, np.tanh, lambda x, out: lambda: 1.0 - out * out)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) cannot overflow; min(x, -x) is -|x| but keeps a NaN's sign bit.
    with np.errstate(under="ignore"):
        e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(value: Tensor) -> Tensor:
    return _unary(value, _sigmoid_np, lambda x, out: lambda: out * (1.0 - out))


def relu(value: Tensor) -> Tensor:
    return _unary(
        value,
        lambda x: np.maximum(x, 0.0),
        lambda x, out: lambda: (out > 0.0).astype(np.float64),
    )


def absolute(value: Tensor) -> Tensor:
    return _unary(value, np.abs, lambda x, out: lambda: np.sign(x))


def softmax(value: Tensor, axis: int = -1) -> Tensor:
    """Row-stochastic softmax along ``axis`` (max-shifted for stability)."""
    shifted = value - np.max(value.data, axis=axis, keepdims=True)
    grown = exp(shifted)
    return grown / grown.sum(axis=axis, keepdims=True)


def pad_axis(a: Tensor, axis: int, before: int, after: int = 0) -> Tensor:
    """Zero-pad one axis (used for causal left-padding of the time axis)."""
    widths = [(0, 0)] * a.data.ndim
    widths[axis] = (before, after)
    out_data = np.pad(a.data, widths)
    slicer = [slice(None)] * a.data.ndim
    slicer[axis] = slice(before, before + a.data.shape[axis])
    slicer = tuple(slicer)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g[slicer])

    return _from_op(out_data, (a,), backward)

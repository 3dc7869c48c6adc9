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

The engine offers only the operations a forward or backward of the model
records: arithmetic, ``@``, ``reshape``, ``swapaxes``, indexing (the
curriculum's horizon cut), ``sum`` and ``mean``, and the module-level
helpers ``exp``, ``sigmoid``, ``absolute`` and ``softmax``, each
of which takes a Tensor and returns one.  Broadcasting follows numpy.  Each
generic operation is recorded by ``_record`` with one gradient function per
parent; its one backward skips the parents that need no gradient and sums
the others' gradients down from a broadcast to the parent's shape.  Only
``sum`` and ``make_op`` build their own backward: the model's fused nodes
(the mobility forecast, the SPE branch, the backbone and the
rollout) record themselves through ``make_op``.  An ndarray operand of a
Tensor operator, on either side (``@`` included), is lifted to a constant.
A model's parameters live in one ``Parameters`` table over flat data and
gradient buffers.
"""

from __future__ import annotations

import ctypes
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Parameters",
    "Tensor",
    "absolute",
    "as_data",
    "exp",
    "sigmoid",
    "softmax",
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
        # post-order of the nodes with a backward: one goes back above its
        # parents and is placed when it comes up again; its copies below are stale
        order: list[Tensor] = []
        placed: dict[Tensor, bool] = {}
        stack = [self]
        while stack:
            node = stack.pop()
            state = placed.get(node)
            if state is None:
                placed[node] = False
                stack.append(node)
                for parent in node._parents:
                    if parent._backward is not None and parent not in placed:
                        stack.append(parent)
            elif not state:
                placed[node] = True
                order.append(node)
        self._accumulate(seed)
        for node in reversed(order):
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad, node._parents, node._backward = None, (), _freed

    # ------------------------------------------------------------- arithmetic

    def __add__(self, other):
        other = _lift(other)
        return _record(self.data + other.data, (self, other), (lambda g: g, lambda g: g))

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        return _record(self.data - other.data, (self, other), (lambda g: g, lambda g: -g))

    def __rsub__(self, other):
        return _lift(other).__sub__(self)

    def __mul__(self, other):
        a, b = self, _lift(other)
        return _record(a.data * b.data, (a, b), (lambda g: g * b.data, lambda g: g * a.data))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, _lift(other)
        return _record(
            a.data / b.data,
            (a, b),
            (lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data)),
        )

    def __matmul__(self, other):
        a, b = self, _lift(other)
        if a.data.ndim < 2 or b.data.ndim < 2:
            raise ValueError("matmul requires operands with at least 2 dimensions")

        def grad_a(g: np.ndarray) -> np.ndarray:
            if b.data.ndim == 2 and b.data.shape[1] == 1:
                # a one-column b (the rate heads): with inner size 1 the
                # product has no sum, so a broadcast product has its bits
                # without one tiny GEMM per stacked matrix of g; adding
                # +0.0 turns a -0.0 product into the GEMM's +0.0
                ga = g * b.data.T
                ga += 0.0
                return ga
            if b.data.ndim == 2:
                # a contiguous transpose: BLAS's transposed-operand path is slower
                return g @ np.ascontiguousarray(b.data.T)
            return g @ np.swapaxes(b.data, -1, -2)

        def grad_b(g: np.ndarray) -> np.ndarray:
            if b.data.ndim == 2:
                # One GEMM over all batch rows, not a batched product plus unbroadcast.
                return a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            return np.swapaxes(a.data, -1, -2) @ g

        return _record(a.data @ b.data, (a, b), (grad_a, grad_b))

    def __rmatmul__(self, other):
        return _lift(other).__matmul__(self)

    # ----------------------------------------------------------- shape changes

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _record(self.data.reshape(shape), (self,), (lambda g: g.reshape(self.data.shape),))

    def swapaxes(self, axis1: int, axis2: int):
        return _record(
            np.swapaxes(self.data, axis1, axis2),
            (self,),
            (lambda g: np.swapaxes(g, axis1, axis2),),
        )

    def __getitem__(self, index):
        def scatter(g: np.ndarray) -> np.ndarray:
            buffer = np.zeros_like(self.data)
            np.add.at(buffer, index, g)
            return buffer

        return _record(self.data[index], (self,), (scatter,))

    # -------------------------------------------------------------- reductions

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        out_data = a.data.sum(axis=axis, keepdims=keepdims)

        # its own backward, not _record's: it spreads into a's layout, or adds
        # straight into a gradient already held, and hands over a fresh buffer
        def backward(g: np.ndarray) -> None:
            if not a.requires_grad:
                return
            grad = g
            if not keepdims and axis is not None:
                grad = np.expand_dims(grad, axis)
            if a.grad is not None:
                # broadcast into the gradient held, no spread buffer; cast
                # first, as the spread's assignment would
                a._accumulate(grad.astype(a.data.dtype, copy=False))
                return
            spread = np.empty_like(a.data)  # keeps a's layout, e.g. the time-major flows
            spread[...] = grad
            a._accumulate(spread, fresh=True)

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
    the slice.  The names are fixed when the table is built, so each
    ``group`` is worked out then, once.  Built from ``arrays``, a table
    concatenates them into a new ``data``; ``over`` takes ``data`` as it is.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        arrays = {name: _asarray(value) for name, value in arrays.items()}
        flat = np.concatenate([value.ravel() for value in arrays.values()])
        self._bind(flat, [(name, value.shape) for name, value in arrays.items()])

    @classmethod
    def over(cls, data: np.ndarray, entries) -> Parameters:
        """A table over ``data``, a flat float64 buffer, in ``(name, shape, ...)`` entries."""
        table = cls.__new__(cls)
        table._bind(data, entries)
        return table

    def _bind(self, data: np.ndarray, entries) -> None:
        self.data, self.grad, self._groups = data, np.zeros_like(data), {}
        offset = 0
        for name, shape, *_ in entries:
            end = offset + math.prod(shape)
            leaf = self[name] = _Leaf(data[offset:end].reshape(shape), True, name)
            leaf._slot = self.grad[offset:end].reshape(shape)
            offset = end
            cut = name.find(".")
            while cut >= 0:
                self._groups.setdefault(name[:cut], {})[name[cut + 1 :]] = leaf
                cut = name.find(".", cut + 1)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)
        for leaf in self.values():
            leaf.grad = None

    def group(self, prefix: str) -> dict[str, Tensor]:
        """The leaves named ``prefix.<short>``, keyed by short name, in
        order: a new dict each call, so a caller may edit it."""
        return dict(self._groups.get(prefix, {}))


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


def _record(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    grads: tuple[Callable[[np.ndarray], np.ndarray], ...],
) -> Tensor:
    """Record a generic op: ``grads[k](g)`` maps the output gradient ``g`` to
    parent ``k``'s gradient, in the output's shape or in the parent's."""

    def backward(g: np.ndarray) -> None:
        for parent, grad in zip(parents, grads):
            if parent.requires_grad:
                parent._accumulate(unbroadcast(grad(g), parent.data.shape))

    return _from_op(data, parents, backward)


def make_op(
    data: np.ndarray,
    parents: Sequence[Tensor],
    backward: Callable[[np.ndarray], None],
) -> Tensor:
    """Public hook for fused custom operations (see the kernel modules)."""
    # not _record: a fused node's one backward shares work across its parents
    return _from_op(_asarray(data), tuple(parents), backward)


def as_data(value) -> np.ndarray:
    """The raw ndarray behind either a Tensor or an array-like."""
    return value.data if isinstance(value, Tensor) else _asarray(value)


# ------------------------------------------------------------------ elementwise


def exp(value: Tensor) -> Tensor:
    out = np.exp(value.data)
    return _record(out, (value,), (lambda g: g * out,))


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) cannot overflow; min(x, -x) is -|x| but keeps a NaN's sign bit.
    with np.errstate(under="ignore"):
        e = np.exp(np.minimum(x, -x))
    denominator = 1.0 + e
    return np.where(x >= 0, 1.0 / denominator, e / denominator)


def sigmoid(value: Tensor) -> Tensor:
    out = _sigmoid_np(value.data)
    return _record(out, (value,), (lambda g: g * (out * (1.0 - out)),))


def absolute(value: Tensor) -> Tensor:
    x = value.data
    return _record(np.abs(x), (value,), (lambda g: g * np.sign(x),))


def softmax(value: Tensor, axis: int = -1) -> Tensor:
    """Row-stochastic softmax along ``axis`` (max-shifted for stability)."""
    shifted = value - np.max(value.data, axis=axis, keepdims=True)
    grown = exp(shifted)
    return grown / grown.sum(axis=axis, keepdims=True)

"""Minimal reverse-mode autodiff engine over float64 numpy arrays.

Every differentiable operation builds a dynamic tape: each result tensor
keeps references to its parents plus a closure computing parent gradients
from its own. ``backward`` walks the tape once in reverse topological
order and accumulates gradients on the leaf tensors. A coarse op, such as
the denoiser in ``diffusion``, builds one node with ``_node`` and a
hand-written backward over all its parents; ``gradcheck_suite`` audits it.

``finite_diff_grad`` is the independent oracle used throughout the test
suite; it never touches the tape.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Callable, Sequence

import numpy as np

from .checkpoint import CheckpointError


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (pure forward evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 array with an optional gradient buffer and tape linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[np.ndarray], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """A view of the same values with no tape attachment."""
        out = Tensor(self.data)
        return out

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class ParamGroup:
    """Dataclass mixin for a group of trainable tensors, one per field.

    The field order is the order of ``tensors()``, of ``arrays()`` and so of
    the optimizer state and the checkpoint layout.
    """

    def tensors(self) -> list[Tensor]:
        return [getattr(self, f.name) for f in dataclasses.fields(self)]

    def arrays(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name).data for f in dataclasses.fields(self)}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], like: "ParamGroup"):
        """Trainable tensors from ``arrays()`` output, each shaped as in ``like``.

        Wrong array names and shapes raise CheckpointError.
        """
        names = [f.name for f in dataclasses.fields(cls)]
        missing = [name for name in names if name not in arrays]
        unknown = sorted(set(arrays) - set(names))
        if missing or unknown:
            raise CheckpointError(f"{cls.__name__}: missing arrays {missing}, unknown arrays {unknown}")
        shapes = {name: arr.shape for name, arr in like.arrays().items()}
        for name, arr in arrays.items():
            if arr.shape != shapes.get(name):
                raise CheckpointError(f"{cls.__name__}: array {name} has shape {arr.shape}, "
                                      f"expected {shapes.get(name)}")
        return cls(**{name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()})


def _node(data: np.ndarray, parents: Sequence[Tensor], grad_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    return out


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    # row-broadcast case: (n, D) gradient onto (D,) operand
    return g.sum(axis=0)


def _check_addlike(a: Tensor, b: Tensor, opname: str) -> None:
    if a.shape == b.shape:
        return
    if b.shape == () or a.shape == ():
        return
    if a.data.ndim == 2 and b.shape == (a.shape[1],):
        return
    raise ShapeError(f"{opname}: incompatible shapes {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_addlike(a, b, "add")

    def grad_fn(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return _node(a.data + b.data, (a, b), grad_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_addlike(a, b, "sub")

    def grad_fn(g):
        return _reduce_to(g, a.shape), _reduce_to(-g, b.shape)

    return _node(a.data - b.data, (a, b), grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; one operand may be scalar or a broadcast row."""
    _check_addlike(a, b, "mul")
    ad, bd = a.data, b.data

    def grad_fn(g):
        return _reduce_to(g * bd, a.shape), _reduce_to(g * ad, b.shape)

    return _node(ad * bd, (a, b), grad_fn)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def grad_fn(g):
        return (g * c,)

    return _node(a.data * c, (a,), grad_fn)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul requires 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ for {a.shape} x {b.shape}")
    ad, bd = a.data, b.data

    def grad_fn(g):
        return g @ bd.T, ad.T @ g

    return _node(ad @ bd, (a, b), grad_fn)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose requires a 2-D tensor, got {a.shape}")

    def grad_fn(g):
        return (g.T,)

    return _node(a.data.T.copy(), (a,), grad_fn)


def relu(a: Tensor) -> Tensor:
    # Subgradient at 0 is 0.
    mask = a.data > 0

    def grad_fn(g):
        return (g * mask,)

    return _node(np.where(mask, a.data, 0.0), (a,), grad_fn)


def tensor_sum(a: Tensor) -> Tensor:
    def grad_fn(g):
        return (np.full(a.shape, float(g)),)

    return _node(np.asarray(a.data.sum()), (a,), grad_fn)


def tensor_mean(a: Tensor) -> Tensor:
    n = a.data.size

    def grad_fn(g):
        return (np.full(a.shape, float(g) / n),)

    return _node(np.asarray(a.data.mean()), (a,), grad_fn)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse

    def grad_fn(g):
        return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)

    return _node(y, (a,), grad_fn)


def row_l2_distance(a: Tensor, b: Tensor) -> Tensor:
    """Per-row Euclidean distance between two (n, D) tensors -> (n,)."""
    if a.shape != b.shape or a.data.ndim != 2:
        raise ShapeError(f"row_l2_distance: need matching 2-D shapes, got {a.shape} vs {b.shape}")
    diff = a.data - b.data
    d = np.sqrt((diff * diff).sum(axis=1))

    def grad_fn(g):
        safe = np.where(d > 0, d, 1.0)
        u = diff / safe[:, None] * np.where(d > 0, g, 0.0)[:, None]
        return u, -u

    return _node(d, (a, b), grad_fn)


def normalize(a: Tensor, axis: int = -1) -> Tensor:
    """Scale rows (along ``axis``) to unit L2 norm. Rejects zero-norm input."""
    n = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True))
    if np.any(n < 1e-12):
        raise ValueError("normalize: input has (near-)zero norm")
    y = a.data / n

    def grad_fn(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - y * dot) / n,)

    return _node(y, (a,), grad_fn)


def pick_rows(a: Tensor, indices) -> Tensor:
    """Select one column per row: out[i] = a[i, indices[i]]."""
    idx = np.asarray(indices, dtype=np.int64)
    if a.data.ndim != 2:
        raise ShapeError(f"pick_rows: input must be 2-D, got {a.shape}")
    n, k = a.shape
    if idx.shape != (n,) or np.any(idx < 0) or np.any(idx >= k):
        raise ShapeError("pick_rows: indices out of range")
    rows = np.arange(n)

    def grad_fn(g):
        ga = np.zeros_like(a.data)
        ga[rows, idx] = g
        return (ga,)

    return _node(a.data[rows, idx], (a,), grad_fn)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf tensor reachable from ``loss``.

    Gradients accumulate (+=) into existing buffers; call ``zero_grad``
    between passes for fresh values.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")

    # Iterative topological sort over the tape.
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is not None:
            for parent, pg in zip(node._parents, node._grad_fn(g)):
                if pg is None or not parent.requires_grad:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg
        elif node.requires_grad:
            node.grad = g.copy() if node.grad is None else node.grad + g


def finite_diff_grad(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> Tensor:
    """Central-difference gradient of scalar ``f`` at ``x`` (the oracle).

    Perturbs each coordinate of ``x`` in place and restores it; ``f`` is
    evaluated with the tape disabled.
    """
    base = x.data.copy()
    g = np.zeros_like(base)
    with no_grad():
        for idx in np.ndindex(base.shape):
            x.data[idx] = base[idx] + eps
            hi = float(f(x).data)
            x.data[idx] = base[idx] - eps
            lo = float(f(x).data)
            x.data[idx] = base[idx]
            g[idx] = (hi - lo) / (2.0 * eps)
    return Tensor(g)


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """L2 relative error between two gradient arrays."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    denom = max(na, nb)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b)) / denom

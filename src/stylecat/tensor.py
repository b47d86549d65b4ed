"""Minimal reverse-mode autodiff engine over float64 numpy arrays.

Every differentiable operation builds a dynamic tape: each result tensor
keeps references to its parents plus a closure computing parent gradients
from its own. ``backward`` walks the tape once in reverse topological
order and accumulates gradients on the leaf tensors.

Trainable tensors live in a ``ParamGroup``: their ``data`` and ``grad`` are
views of the group's two flat buffers, which ``backward`` adds into and
``train.Adam`` updates in place.

There are three generic ops: ``add`` (operands of one shape), ``scale`` and
``normalize``. Everything else is a coarse node, built with ``_node`` and a
hand-written backward over all its parents. Each training step records one
such node per objective: an encoder step one node over the four tensors of
its adapter (the objectives in ``losses``), a denoiser step the denoiser
and its loss in ``diffusion``. The single layers the encoder objectives are
made of (``encoders.adapt``, the cosine logits and each loss head) stay
nodes of their own, built from the same numpy pieces.
``train.gradcheck_suite`` audits the objectives and the layers against
central differences.

``finite_diff_grad``, the oracle of those audits and of the tests, never
touches the tape.
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

    def zero_grad(self) -> None:
        """Zero an existing gradient in place, so a view of a group's ``flat_grad`` stays one."""
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class ParamGroup:
    """Dataclass mixin for a group of trainable tensors, one per field.

    The field order is the order of ``tensors()``, of ``arrays()``, of the
    optimizer state and of the checkpoint layout. On construction the
    fields' values are copied, in that order, into one float64 buffer
    ``flat``, and a zeroed buffer ``flat_grad`` of the same length is made;
    each tensor's ``data`` and ``grad`` become views of its slice of the two.
    Write into ``data`` (``p.data[...] = x``), never rebind it: a rebound
    array is no longer part of ``flat``, so the optimizer no longer sees it.
    """

    def __post_init__(self):
        tensors = self.tensors()
        bounds = np.cumsum([0] + [p.size for p in tensors])
        self.flat = np.empty(bounds[-1])
        self.flat_grad = np.zeros(bounds[-1])
        for p, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            self.flat[lo:hi] = p.data.ravel()
            p.data = self.flat[lo:hi].reshape(p.shape)
            p.grad = self.flat_grad[lo:hi].reshape(p.shape)

    def zero_grad(self) -> None:
        self.flat_grad[:] = 0.0

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


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"add: operand shapes {a.shape} and {b.shape} differ")

    def grad_fn(g):
        return g, g

    return _node(a.data + b.data, (a, b), grad_fn)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def grad_fn(g):
        return (g * c,)

    return _node(a.data * c, (a,), grad_fn)


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x / norm, norm) with the L2 norm over the last axis; rejects zero-norm rows."""
    n = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    if (n < 1e-12).any():
        raise ValueError("normalize: input has (near-)zero norm")
    return x / n, n


def _unit_rows_grad(g: np.ndarray, y: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Gradient through ``y, n = _unit_rows(x)`` of ``g``, the gradient at ``y``."""
    dot = (g * y).sum(axis=-1, keepdims=True)
    return (g - y * dot) / n


def normalize(a: Tensor) -> Tensor:
    """Scale rows (the last axis) to unit L2 norm. Rejects zero-norm input."""
    y, n = _unit_rows(a.data)

    def grad_fn(g):
        return (_unit_rows_grad(g, y, n),)

    return _node(y, (a,), grad_fn)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf tensor reachable from ``loss``.

    Gradients accumulate in place (+=) into existing buffers, so a group
    tensor's ``grad`` stays a view of its group's ``flat_grad``; a free
    tensor without one gets a copy of its first gradient. Call
    ``zero_grad`` between passes for fresh values.
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
            if node.grad is None:
                node.grad = g.copy()
            else:
                node.grad += g


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
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return 0.0 if denom == 0.0 else float(np.linalg.norm(a - b)) / denom

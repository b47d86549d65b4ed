"""Minimal reverse-mode autodiff engine over float64 numpy arrays.

Every differentiable operation builds a dynamic tape: each result tensor
keeps references to its parents plus a closure computing parent gradients
from its own. ``backward`` walks the tape once in reverse topological
order and accumulates gradients on the leaf tensors.

Trainable tensors live in a ``ParamGroup``: their ``data`` and ``grad`` are
views of the group's two flat buffers, which ``backward`` (or a fused step),
``train.Adam`` and a checkpoint's ``load`` write in place. ``ParamGroup.stack``
lays groups of one layout end to end in one pair of buffers, with (k, …)
fields over them; the two adapters are stacked so.

A ``Tensor`` wraps only a trainable parameter or a node of the tape; the
frozen features of the backbone are plain arrays. There is one generic op,
``scale``. Everything else is a coarse node, built with ``_node`` and a
hand-written backward over all its parents. Every training step writes its
gradients into the ``flat_grad`` of the group it steps and returns its loss
as a float, so the training loops take no ``zero_grad`` or ``backward``. An
encoder step steps both adapters at once, over the stacked (2, …) tensors,
in one adapter pass. A labeled step (``losses.style_labeled_loss``) records
no node: it writes the four gradients into the stacked ``grad`` views.
A denoiser training step (``diffusion.ddpm_train_step``) records none
either: on its run's workspace, which holds and has checked the run's
points, it draws its batch and runs the denoiser, its loss and their
backward in one call and writes the nine gradients; ``diffusion.predict_noise``
records none. In the package the tape serves only the unlabeled step
(``losses.style_triplet_loss``), which zeroes both adapters' gradients and,
when a triplet of either kind of its batch is active, records one node over
the four stacked tensors and runs ``backward`` on it; ``losses.class_logits``,
a cosine node times ``scale``, is its one other user. The single-layer nodes
that the objectives are made of (the adapter, each loss head, the denoiser
forward and its loss, and an ``add`` of two tensors) are the tests'
references and live with the tests, built from the same numpy pieces.
``train.gradcheck_suite`` audits against central differences the
objectives that training steps and the denoiser's training step.

``finite_diff_grad``, the oracle of those audits and of the tests, never
touches the tape.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from typing import Callable, Sequence

import numpy as np


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

    __float__ = item

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
    Write into ``data`` (``p.data[...] = x``, or ``load`` for the whole
    group), never rebind it: a rebound array is no longer part of ``flat``,
    so the optimizer no longer sees it.
    """

    def __post_init__(self):
        size = sum(p.size for p in self.tensors())
        self._bind(np.empty(size), np.zeros(size))

    def _bind(self, flat: np.ndarray, flat_grad: np.ndarray) -> None:
        """Copy the tensors' values, in field order, into ``flat``, and make it and ``flat_grad`` the
        group's buffers, each tensor's ``data`` and ``grad`` views of its slice of them."""
        self.flat, self.flat_grad = flat, flat_grad
        tensors = self.tensors()
        bounds = np.cumsum([0] + [p.size for p in tensors])
        for p, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            flat[lo:hi] = p.data.ravel()
            p.data = flat[lo:hi].reshape(p.shape)
            p.grad = flat_grad[lo:hi].reshape(p.shape)

    @classmethod
    def stack(cls, *groups: "ParamGroup") -> "ParamGroup":
        """One group over ``groups``, each of ``cls`` with one set of shapes, whose fields gain a leading
        axis: a field of shape S becomes (len(groups), *S).

        Its ``flat`` and ``flat_grad`` hold the groups' buffers end to end, group-major, and its tensors'
        ``data`` and ``grad`` are strided views of them. Each group keeps its values and tensors, but its
        buffers become its contiguous part of the stacked ones, so a write through either is seen by the
        other, and an elementwise update of the stacked buffers (``train.Adam``) updates every group as
        its own update would. ShapeError for groups of two sets of shapes.
        """
        shapes = [p.shape for p in groups[0].tensors()]
        if any([p.shape for p in g.tensors()] != shapes for g in groups):
            raise ShapeError(f"{cls.__name__}.stack: the groups' tensors differ in shape")
        k, n = len(groups), groups[0].flat.size
        flat, flat_grad = np.empty(k * n), np.zeros(k * n)
        for i, g in enumerate(groups):
            g._bind(flat[i * n:(i + 1) * n], flat_grad[i * n:(i + 1) * n])
        stacked = cls.__new__(cls)  # no __init__: the fields are views of the groups' buffers, not copies
        stacked.flat, stacked.flat_grad = flat, flat_grad
        data, grad, lo = flat.reshape(k, n), flat_grad.reshape(k, n), 0
        for f, shape in zip(dataclasses.fields(cls), shapes):
            hi = lo + math.prod(shape)
            t = Tensor(data[:, lo:hi].reshape(k, *shape), requires_grad=True)
            t.grad, lo = grad[:, lo:hi].reshape(k, *shape), hi
            setattr(stacked, f.name, t)
        return stacked

    def zero_grad(self) -> None:
        self.flat_grad[:] = 0.0

    def tensors(self) -> list[Tensor]:
        return [getattr(self, f.name) for f in dataclasses.fields(self)]

    def arrays(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name).data for f in dataclasses.fields(self)}

    def load(self, arrays: dict[str, np.ndarray]) -> None:
        """Write ``arrays``, named and shaped as ``arrays()``, into the group's tensors in place.

        ValueError, before anything is written, on a missing or unknown name or a wrong shape.
        """
        own, what = self.arrays(), type(self).__name__
        missing = [name for name in own if name not in arrays]
        unknown = sorted(set(arrays) - set(own))
        if missing or unknown:
            raise ValueError(f"{what}: missing arrays {missing}, unknown arrays {unknown}")
        for name, arr in own.items():
            if arrays[name].shape != arr.shape:
                raise ValueError(f"{what}: array {name} has shape {arrays[name].shape}, expected {arr.shape}")
        for name, arr in own.items():
            arr[...] = arrays[name]


def _node(data: np.ndarray, parents: Sequence[Tensor], grad_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._grad_fn = grad_fn
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def grad_fn(g):
        return (g * c,)

    return _node(a.data * c, (a,), grad_fn)


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x / norm, norm) with the L2 norm over the last axis; ValueError for a row of norm below 1e-12."""
    n = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    if (n < 1e-12).any():
        raise ValueError("cannot scale a row of (near-)zero norm to unit length")
    return x / n, n


def _unit_rows_grad(g: np.ndarray, y: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Gradient through ``y, n = _unit_rows(x)`` of ``g``, the gradient at ``y``."""
    dot = (g * y).sum(axis=-1, keepdims=True)
    return (g - y * dot) / n


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


def finite_diff_grad(f: Callable[[Tensor], Tensor | float], x: Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``f``, a scalar tensor or a float, at ``x`` (the oracle), an
    array of ``x``'s shape.

    Perturbs each coordinate of ``x`` in place and restores it; ``f`` is
    evaluated under ``no_grad``, so it records no tape node, though a step
    that writes its gradients without the tape (``losses.style_labeled_loss``,
    ``diffusion.ddpm_train_step``) still writes them.
    """
    base = x.data.copy()
    g = np.zeros_like(base)
    with no_grad():
        for idx in np.ndindex(base.shape):
            x.data[idx] = base[idx] + eps
            hi = float(f(x))
            x.data[idx] = base[idx] - eps
            lo = float(f(x))
            x.data[idx] = base[idx]
            g[idx] = (hi - lo) / (2.0 * eps)
    return g


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """L2 relative error between two gradient arrays."""
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)))
    return 0.0 if denom == 0.0 else float(np.linalg.norm(a - b)) / denom

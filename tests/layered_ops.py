"""Single-layer tape nodes that only the tests differentiate through.

The program's training steps fold these layers into one backward per step,
which writes its gradients straight into ``flat_grad`` (``losses``, where a
labeled step steps both adapters at once and a triplet step walks one node;
``diffusion.ddpm_train_step``). Each op here wraps the
program's own numpy forward and hand-written backward as one node of
``stylecat.tensor``'s tape, so a composition of them is the bit reference of
the step that fuses them.
"""

import numpy as np

from stylecat import diffusion
from stylecat import tensor as T
from stylecat.encoders import AdapterParams, adapt_array
from stylecat.losses import _ce, _confusion, _hinge, _labels_array, _log_softmax, _log_softmax_grad, class_logits
from stylecat.tensor import Tensor


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape; ShapeError for operands of two shapes."""
    if a.shape != b.shape:
        raise T.ShapeError(f"add: operand shapes {a.shape} and {b.shape} differ")

    def grad_fn(g):
        return g, g

    return T._node(a.data + b.data, (a, b), grad_fn)


def adapt(f: Tensor, p: AdapterParams, split=None) -> Tensor:
    """(n, D) feature rows through one adapter, as one tape node over ``f`` and the adapter's tensors.
    With a row index ``split``, each parameter gradient sums one product per block of rows."""
    y, grad = adapt_array(f.data, p)
    return T._node(y, (f, p.w1, p.b1, p.w2, p.b2), lambda g: grad(g, f.requires_grad, split))


def take_rows(a: Tensor, rows) -> Tensor:
    """Rows ``rows`` (a slice) of an (n, D) tensor; one tape node, whose backward puts zeros elsewhere."""

    def grad_fn(g):
        out = np.zeros_like(a.data)
        out[rows] = g
        return (out,)

    return T._node(a.data[rows], (a,), grad_fn)


def ce_loss(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of softmax over (n, K) logits against n integer labels; one tape node."""
    y = _log_softmax(logits.data)
    value, grad = _ce(y, _labels_array(labels, logits.shape))
    return T._node(value, (logits,), lambda g: (_log_softmax_grad(grad(g), y),))


def confusion_loss(logits: Tensor, labels, mode: str) -> Tensor:
    """The adversarial term of ``losses._confusion`` for the opposing attribute; one tape node."""
    y = _log_softmax(logits.data)
    value, grad = _confusion(y, _labels_array(labels, logits.shape), mode)
    return T._node(value, (logits,), lambda g: (_log_softmax_grad(grad(g), y),))


def triplet_hinge(anchor: Tensor, positive: Tensor, negative: Tensor, margin: float) -> Tensor:
    """The triplet hinge of ``losses._hinge`` on (n, D) rows; one tape node, ``negative`` held constant."""
    value, grad, _ = _hinge(anchor.data, positive.data, negative.data, margin)
    return T._node(value, (anchor, positive), grad)


def prompt_logits(f_i: np.ndarray, bundle, kind: str, scale: float) -> tuple[Tensor, Tensor]:
    """The ``kind`` adapter's logits of image rows ``f_i`` against its own factor's prompts and against
    the other factor's: ``class_logits`` of the rows of one ``adapt`` pass over its own prompt rows
    stacked over the other kind's, whose parameter gradients sum one product per factor's rows.

    That pass and those logits are the GEMMs that the labeled step runs for the ``kind`` slice, with
    their rows in the same order, so the two agree bit for bit on every BLAS kernel; an ``adapt``
    pass per factor would run GEMMs of other row counts, whose sums some kernels order differently.
    """
    other = "category" if kind == "style" else "style"
    k = len(bundle.prompt_features[kind])
    protos = adapt(Tensor(np.concatenate([bundle.prompt_features[kind], bundle.prompt_features[other]])),
                   bundle.adapter(kind), split=k)
    f = Tensor(f_i)
    return (class_logits(f, take_rows(protos, np.s_[:k]), scale), class_logits(f, take_rows(protos, np.s_[k:]), scale))


def layered_labeled(f_i: np.ndarray, labels, bundle, cfg, kind: str) -> Tensor:
    """The ``kind`` labeled objective on image rows ``f_i`` as a composition of the single-layer ops:
    cross-entropy on the own factor plus lambda times the confusion term on the other, each over its
    ``prompt_logits``; with lambda == 0, the cross-entropy term alone."""
    other = "category" if kind == "style" else "style"
    lam = cfg.lambda1 if kind == "style" else cfg.lambda2
    own, opposing = prompt_logits(f_i, bundle, kind, cfg.logit_scale)
    base = ce_loss(own, labels[kind])
    if lam == 0:
        return base
    return add(base, T.scale(confusion_loss(opposing, labels[other], cfg.adversarial_mode), lam))


def predict_noise(params, z_t, t_idx, cond, cond_idx=None) -> Tensor:
    """``diffusion.predict_noise``'s layered form as one tape node over the nine ``DenoiserParams`` tensors.

    Takes n timesteps and, for a one-row condition only, a missing
    ``cond_idx`` for n zeros, as the program's form does; the backward is
    the training workspace's ``_grads``. That workspace holds the n points
    as its own and runs on a copy of the parameters, so that it writes
    their gradients into the copy's ``flat_grad``; n >= 1 finite points.
    """
    z = np.atleast_2d(np.asarray(z_t, dtype=np.float64))
    n, steps = z.shape[0], params.time_embed.shape[0]
    cond_idx = np.zeros(n, np.intp) if cond_idx is None and len(cond.tau_style) == 1 else cond_idx
    copy = diffusion.DenoiserParams.init(params.in_b.shape[0], steps)
    copy.load(params.arrays())
    layers = diffusion._TrainBuffers(diffusion.DiffusionSchedule.make(steps), copy, cond, z, cond_idx, n)
    layers.z[...] = z
    out = layers.forward(diffusion._check_rows(t_idx, n, steps, "t_idx"), layers.point_cond)

    def grad_fn(g):
        layers._grads(g)
        return [x.grad.copy() for x in copy.tensors()]

    return T._node(out, params.tensors(), grad_fn)


def noise_regression_loss(eps_hat: Tensor, eps: np.ndarray) -> Tensor:
    """Mean over the batch of the squared L2 error per point; one tape node. ShapeError for noise of
    another shape than the estimates."""
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != eps_hat.shape:
        raise T.ShapeError(f"noise of shape {eps.shape} for estimates of shape {eps_hat.shape}")
    diff = eps_hat.data - eps
    c = 1.0 / diff.shape[0]

    def grad_fn(g):
        gd = (float(g) * c) * diff
        return (gd + gd,)

    return T._node(np.asarray((diff * diff).sum()) * c, (eps_hat,), grad_fn)

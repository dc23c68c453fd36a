"""Sequential layer stack with reverse-mode gradients, in 64-bit floats.

Dense, stride-1 2-D convolution, ReLU, 2x2 max-pool and flatten layers
cover an MLP and a LeNet-scale CNN. Each layer has ``forward(p, x, i,
rows) -> (out, cache)`` and ``backward(p, cache, g, grads, need_dx,
rows)``, which fills ``grads`` (when not None) with its parameter
gradients and returns d(loss)/d(x) when ``need_dx``. ``forward`` runs the stack once and keeps
every cache; ``Tensor.backward`` walks it in reverse.

Two modes share the layers. Batch mode (training, evaluation) takes one
matrix product over all rows. Rows mode treats the leading axis as
independent samples and gives each row its own product, so every row's
bits equal those of that row run alone; one product over all rows would
change them. A single sample runs as one row of rows mode, and replays
are bit-identical (single-threaded numpy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


NON_FINITE_INPUT = "tensor rejected: non-finite entries"


class ShapeMismatch(ValueError):
    """Input/parameter shapes disagree; message names the offending layer."""


def _rowwise(a, w):
    """a @ w over a's last axis, each leading-axis row its own product."""
    out = np.matmul(np.ascontiguousarray(a).reshape(a.shape[0], -1, a.shape[-1]), w)
    return out.reshape(a.shape[:-1] + w.shape[1:])


@dataclass(frozen=True)
class Dense:
    """x @ W + b with x of shape (..., in_dim)."""

    in_dim: int
    out_dim: int

    def forward(self, p, x, i, rows):
        if x.shape[-1] != p["W"].shape[0]:
            raise ShapeMismatch(f"layer {i} (dense): input width {x.shape[-1]} "
                                f"!= weight rows {p['W'].shape[0]}")
        return (_rowwise(x, p["W"]) if rows else x @ p["W"]) + p["b"], x

    def backward(self, p, x, g, grads, need_dx, rows):
        if grads is not None:
            gm = g.reshape(-1, g.shape[-1])
            grads["W"] = x.reshape(-1, x.shape[-1]).T @ gm
            grads["b"] = gm.sum(axis=0)
        if not need_dx:
            return None
        return _rowwise(g, p["W"].T) if rows else g @ p["W"].T


@dataclass(frozen=True)
class Relu:
    def forward(self, p, x, i, rows):
        mask = x > 0.0
        return np.where(mask, x, 0.0), mask

    def backward(self, p, mask, g, grads, need_dx, rows):
        return g * mask


@dataclass(frozen=True)
class Conv2D:
    """Stride-1 2-D convolution; x (N,H,W,C), K (kh,kw,Cin,Cout), b (Cout,)."""

    kh: int
    kw: int
    in_ch: int
    out_ch: int
    padding: str = "valid"

    def forward(self, p, x, i, rows):
        kh, kw, cin, cout = p["K"].shape
        if x.ndim != 4 or x.shape[3] != cin:
            raise ShapeMismatch(f"layer {i} (conv2d): expected NHWC input with {cin} "
                                f"channels, got shape {x.shape}")
        if self.padding not in ("same", "valid"):
            raise ValueError(f"unknown padding {self.padding!r}")
        same = self.padding == "same"
        ph, pw = ((kh - 1) // 2, (kw - 1) // 2) if same else (0, 0)
        xp = np.pad(x, ((0, 0), (ph, kh - 1 - ph), (pw, kw - 1 - pw), (0, 0))) if same else x
        n, hp, wp, _ = xp.shape
        ho, wo = hp - kh + 1, wp - kw + 1
        if ho <= 0 or wo <= 0:
            raise ShapeMismatch(f"layer {i} (conv2d): kernel {kh}x{kw} larger than "
                                f"input {hp}x{wp}")
        out = np.broadcast_to(p["b"], (n, ho, wo, cout)).copy()
        for a, c in np.ndindex(kh, kw):
            xs, k = xp[:, a:a + ho, c:c + wo, :], p["K"][a, c]
            out += _rowwise(xs, k) if rows else np.tensordot(xs, k, axes=([3], [0]))
        return out, (xp, x.shape, ph, pw)

    def backward(self, p, cache, g, grads, need_dx, rows):
        (xp, shape, ph, pw), k = cache, p["K"]
        ho, wo = g.shape[1:3]
        if grads is not None:
            grads["K"] = np.zeros_like(k)
            for a, c in np.ndindex(k.shape[:2]):
                grads["K"][a, c] = np.tensordot(xp[:, a:a + ho, c:c + wo, :], g,
                                                axes=([0, 1, 2], [0, 1, 2]))
            grads["b"] = g.sum(axis=(0, 1, 2))
        if not need_dx:
            return None
        dxp = np.zeros_like(xp)
        for a, c in np.ndindex(k.shape[:2]):
            dxp[:, a:a + ho, c:c + wo, :] += (_rowwise(g, k[a, c].T) if rows else
                                              np.tensordot(g, k[a, c], axes=([3], [1])))
        return dxp[:, ph:ph + shape[1], pw:pw + shape[2], :]


@dataclass(frozen=True)
class MaxPool2:
    """2x2 max-pool, stride 2; odd trailing rows/cols dropped. A tie routes
    the gradient to the first position in row-major window order."""

    def forward(self, p, x, i, rows):
        if x.ndim != 4:
            raise ShapeMismatch(f"layer {i} (maxpool2): expected NHWC input, got {x.shape}")
        n, h, w, c = x.shape
        win = x[:, :h // 2 * 2, :w // 2 * 2, :].reshape(n, h // 2, 2, w // 2, 2, c)
        win = win.transpose(0, 1, 3, 2, 4, 5).reshape(n, h // 2, w // 2, 4, c)
        idx = win.argmax(axis=3)[:, :, :, None, :]
        return np.take_along_axis(win, idx, axis=3)[:, :, :, 0, :], (idx, x.shape)

    def backward(self, p, cache, g, grads, need_dx, rows):
        (idx, shape), (n, h2, w2, c) = cache, g.shape
        dwin = np.zeros((n, h2, w2, 4, c))
        np.put_along_axis(dwin, idx, g[:, :, :, None, :], axis=3)
        dx = np.zeros(shape)
        dwin = dwin.reshape(n, h2, w2, 2, 2, c).transpose(0, 1, 3, 2, 4, 5)
        dx[:, :h2 * 2, :w2 * 2, :] = dwin.reshape(n, h2 * 2, w2 * 2, c)
        return dx


@dataclass(frozen=True)
class Flatten:
    def forward(self, p, x, i, rows):
        if x.ndim < 2:
            raise ShapeMismatch(f"layer {i} (flatten): expected batched input, got {x.shape}")
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, p, shape, g, grads, need_dx, rows):
        return g.reshape(shape)


class Tensor:
    """Output of ``forward``: ``data`` plus each layer's cache. A single sample
    gets a leading axis of 1, which the logits (when 2-D) and the input
    gradient drop."""

    __slots__ = ("data", "_layers", "_params", "_caches", "_rows", "_single")

    def __init__(self, data, layers, params, caches, rows: bool, single: bool):
        self.data, self._layers, self._params = data, layers, params
        self._caches, self._rows, self._single = caches, rows, single

    def backward(self, g, wrt: str = "input"):
        """Backpropagate ``g`` = d(loss)/d(data) through the layers in reverse.
        ``wrt="input"`` returns d(loss)/d(x) shaped like x, ``"params"``
        per-layer dicts shaped like ``params``, ``"both"`` the pair."""
        if wrt not in ("input", "params", "both"):
            raise ValueError(f"wrt must be 'input', 'params' or 'both', got {wrt!r}")
        grads = None if wrt == "input" else [{} for _ in self._layers]
        if self._single and self.data.ndim == 1:
            g = g[None]
        for i in range(len(self._layers) - 1, -1, -1):
            g = self._layers[i].backward(self._params[i], self._caches[i], g,
                                         grads and grads[i], i > 0 or wrt != "params",
                                         self._rows)
        if wrt == "params":
            return grads
        g = g[0] if self._single else g
        return g if grads is None else (g, grads)


def forward(layers, params, x, rows: bool = False) -> Tensor:
    """Run the layer stack on x; the returned Tensor holds the logits.

    ``params`` is aligned with ``layers``: {"W","b"} for dense, {"K","b"}
    for conv, {} for the rest. x is one sample (a vector, or an (H,W,C)
    image for a stack that starts with an image layer) or a batch along
    the leading axis; ``rows=True`` runs the batch in rows mode. A
    non-finite x raises ValueError; parameters are unchecked, so a
    diverged model yields non-finite logits."""
    h = np.ascontiguousarray(x, dtype=np.float64)
    if not np.all(np.isfinite(h)):
        raise ValueError(NON_FINITE_INPUT)
    image_first = isinstance(layers[0], (Conv2D, MaxPool2, Flatten))
    single = not rows and h.ndim == (3 if image_first else 1)
    rows = rows or single
    h = h[None] if single else h
    caches = []
    for i, (layer, p) in enumerate(zip(layers, params)):
        h, cache = layer.forward(p, h, i, rows)
        caches.append(cache)
    return Tensor(h[0] if single and h.ndim == 2 else h, layers, params, caches, rows, single)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (plain numpy)."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _cross_entropy(logits, labels, reduction: str):
    """(softmax_cross_entropy, its logit gradient softmax - onehot), / N for mean."""
    z = logits.data if isinstance(logits, Tensor) else np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels)
    if np.any(y < 0) or np.any(y >= z.shape[-1]):
        raise ValueError(f"class index out of range [0,{z.shape[-1]}): {y}")
    if reduction not in ("mean", "sum", "none"):
        raise ValueError(f"unknown reduction {reduction!r}")
    zb, rows = (z[None, :] if z.ndim == 1 else z), (np.arange(y.size), y.reshape(-1))
    m = zb.max(axis=1, keepdims=True)
    per_sample = np.log(np.exp(zb - m).sum(axis=1)) + m[:, 0] - zb[rows]
    p = softmax(zb)
    p[rows] -= 1.0
    if reduction == "none":
        return per_sample, p.reshape(z.shape)
    if reduction == "sum":
        return per_sample.sum(), p.reshape(z.shape)
    p /= len(zb)
    return per_sample.mean(), p.reshape(z.shape)


def softmax_cross_entropy(logits, labels, reduction: str = "mean") -> np.float64:
    """Fused softmax + cross-entropy (log-sum-exp with max subtraction) of an
    array or ``forward`` output; ``labels`` has shape () or (N,) for N rows.
    ``reduction="none"`` gives the per-row losses."""
    return _cross_entropy(logits, labels, reduction)[0]


def _tv_rows(x: np.ndarray) -> np.ndarray:
    """Total variation of each (H,W,C) image in an (N,H,W,C) stack."""
    if x.ndim != 4:
        raise ShapeMismatch(f"tv_penalty: expected (H,W,C) or (N,H,W,C), got {x.shape}")
    n = len(x)
    return ((np.diff(x, axis=1) ** 2).reshape(n, -1).sum(axis=1)
            + (np.diff(x, axis=2) ** 2).reshape(n, -1).sum(axis=1))


def tv_penalty(x) -> np.float64:
    """Squared-difference total variation over horizontal and vertical neighbor
    pairs of (H,W,C) or (N,H,W,C) inputs; zero iff constant per channel."""
    x = np.asarray(x, dtype=np.float64)
    return _tv_rows(x[None] if x.ndim == 3 else x).sum()


def _tv_grad(x: np.ndarray) -> np.ndarray:
    xb = x[None] if x.ndim == 3 else x
    dh, dw, dx = np.diff(xb, axis=1), np.diff(xb, axis=2), np.zeros_like(xb)
    dx[:, 1:, :, :] += 2.0 * dh
    dx[:, :-1, :, :] -= 2.0 * dh
    dx[:, :, 1:, :] += 2.0 * dw
    dx[:, :, :-1, :] -= 2.0 * dw
    return dx.reshape(x.shape)


@dataclass
class GradientBundle:
    """Per-layer parameter gradients, shaped like the parameters."""

    param_grads: list


def _objective(layers, params, x, y, lam_l2, lam_tv):
    """Per-row loss_total of rows x with targets y, the rows-mode forward
    output, d(CE)/d(logits) and x as floats."""
    if lam_l2 < 0 or lam_tv < 0:
        raise ValueError("regularization weights must be non-negative")
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = forward(layers, params, x, rows=True)
    loss, dz = _cross_entropy(out.data, y, "none")
    if lam_l2 > 0.0:
        loss = loss + (x ** 2).reshape(len(x), -1).sum(axis=1) * lam_l2
    if lam_tv > 0.0:
        loss = loss + _tv_rows(x) * lam_tv
    return loss, out, dz, x


def loss_total(layers, params, x, y_target: int, lam_l2: float = 0.0,
               lam_tv: float = 0.0) -> np.float64:
    """CE(M(x), y_target) + lam_l2*||x||^2 + lam_tv*TV(x) for one sample."""
    return _objective(layers, params, np.asarray(x)[None], [y_target],
                      lam_l2, lam_tv)[0][0]


def loss_and_grad_input(layers, params, x, y, lam_l2: float = 0.0,
                        lam_tv: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Per-row ``loss_total`` and its gradient w.r.t. x for n independent
    rows x (n, ...) with targets y (n,), from one rows-mode forward pass."""
    loss, out, dz, x = _objective(layers, params, x, y, lam_l2, lam_tv)
    g = out.backward(dz)
    if lam_l2 > 0.0:
        g = g + 2.0 * x * lam_l2
    if lam_tv > 0.0:
        g = g + _tv_grad(x) * lam_tv
    return loss, g


def grad_input(layers, params, x, y_target: int, lam_l2: float = 0.0,
               lam_tv: float = 0.0) -> np.ndarray:
    """Gradient of loss_total w.r.t. the input, same shape as x."""
    return loss_and_grad_input(layers, params, np.asarray(x)[None], [y_target],
                               lam_l2, lam_tv)[1][0]


def grad_params(layers, params, batch_x, batch_y, reduction: str = "mean"
                ) -> tuple[GradientBundle, float]:
    """Mean-CE gradient over a batch w.r.t. every layer parameter."""
    out = forward(layers, params, batch_x)
    loss, dz = _cross_entropy(out.data, batch_y, reduction)
    return GradientBundle(param_grads=out.backward(dz, wrt="params")), loss.item()


def apply_update(params, grads, lr: float, direction: str = "descent"):
    """Elementwise SGD step; returns (new_params, deltas). descent: w - lr*g;
    ascent: w + lr*g. The per-layer deltas are what amnesiac ledgers record."""
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    if direction not in ("descent", "ascent"):
        raise ValueError(f"direction must be 'descent' or 'ascent', got {direction!r}")
    for p, g in zip(params, grads):
        if set(p) != set(g) or any(g[k].shape != w.shape for k, w in p.items()):
            raise ShapeMismatch(f"update shapes { {k: v.shape for k, v in g.items()} } "
                                f"!= param shapes { {k: v.shape for k, v in p.items()} }")
    step = (-1.0 if direction == "descent" else 1.0) * lr
    deltas = [{k: step * g[k] for k in p} for p, g in zip(params, grads)]
    return [{k: w + d[k] for k, w in p.items()} for p, d in zip(params, deltas)], deltas

"""Dense tensor ops for the model: activations, embedding, bidirectional GRU,
time pooling, layer normalization, dropout, and a finite-difference gradient
checker.

Every forward op has a matching hand-derived backward; the checker in
`finite_diff_check` is the safety net that keeps the two in sync. Ops are
pure functions over numpy arrays; f32 is the training precision, f64 the
verification precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

PAD_ID = 0
UNK_ID = 1
BOS_ID = 2
EOS_ID = 3


class NumericError(RuntimeError):
    """Raised when an op produces NaN/Inf or a contract is violated."""


def ensure_finite(name: str, x: np.ndarray) -> np.ndarray:
    if not np.isfinite(x).all():
        raise NumericError(f"nan-detected: non-finite values in {name}")
    return x


# ---------------------------------------------------------------------------
# activations


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) otherwise.

    exp(min(x, -x)) is the exponential of both branches and never
    overflows, so computing both branches over the whole array and selecting
    gives the masked two-branch form bit for bit, without its boolean
    indexing. (minimum returns x itself when x is NaN, so even a NaN keeps
    its sign bit, which exp(-|x|) would set.) The numerator is selected
    before the one division, which is the division the branch would do.
    """
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


ACTIVATIONS: dict[str, tuple[Callable[[np.ndarray], np.ndarray],
                             Callable[[np.ndarray, np.ndarray], np.ndarray]]] = {
    # name -> (phi, dphi(out, pre) evaluated from the forward output/preactivation)
    "tanh": (tanh, lambda out, pre: 1.0 - out * out),
    "sigmoid": (sigmoid, lambda out, pre: out * (1.0 - out)),
    "relu": (relu, lambda out, pre: (pre > 0).astype(pre.dtype)),
}


# ---------------------------------------------------------------------------
# embedding


def embed(ids: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Look up rows of the embedding table; row PAD_ID is held at zero."""
    if ids.min() < 0 or ids.max() >= table.shape[0]:
        raise NumericError(
            f"id-out-of-range: ids in [{ids.min()}, {ids.max()}] vs table {table.shape[0]}"
        )
    return table[ids]


def embed_backward(ids: np.ndarray, d_out: np.ndarray, vocab_size: int) -> np.ndarray:
    """Scatter-add of upstream gradients into table rows; pad row stays frozen.

    ids is (..., n, v): axes before the last two index graphs stacked on a
    group axis, and each graph gets its own (vocab_size, h) gradient, summed
    in the order of its own ids.
    """
    h = d_out.shape[-1]
    lead = ids.shape[:-2]
    grad = np.zeros((*lead, vocab_size, h), dtype=d_out.dtype)
    rows = ids.reshape(math.prod(lead), -1)
    if lead:
        rows = rows + (np.arange(rows.shape[0]) * vocab_size)[:, None]
    np.add.at(grad.reshape(-1, h), rows.reshape(-1), d_out.reshape(-1, h))
    grad[..., PAD_ID, :] = 0.0
    return grad


# ---------------------------------------------------------------------------
# layer normalization (per-row, eps inside the square root)

LN_EPS = 1e-5


@dataclass
class LayerNormCache:
    x_hat: np.ndarray
    inv_std: np.ndarray
    gain: np.ndarray


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, LayerNormCache]:
    mu = x.mean(axis=-1, keepdims=True)
    d = x - mu
    var = (d * d).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    x_hat = d * inv_std
    return gain * x_hat + bias, LayerNormCache(x_hat, inv_std, gain)


def layer_norm_backward(d_out: np.ndarray, cache: LayerNormCache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (dx, dgain, dbias).

    The parameter gradients sum over the rows (axis -2 of a 2-D or stacked
    input); axes before it index independent groups and keep their own sums.
    """
    x_hat, inv_std, gain = cache.x_hat, cache.inv_std, cache.gain
    rows = (*x_hat.shape[:-2], -1, x_hat.shape[-1])
    dgain = (d_out * x_hat).reshape(rows).sum(axis=-2)
    dbias = d_out.reshape(rows).sum(axis=-2)
    dxh = d_out * gain
    mean_dxh = dxh.mean(axis=-1, keepdims=True)
    mean_dxh_xh = (dxh * x_hat).mean(axis=-1, keepdims=True)
    dx = inv_std * (dxh - mean_dxh - x_hat * mean_dxh_xh)
    return dx, dgain, dbias


# ---------------------------------------------------------------------------
# time pooling over the token dimension


@dataclass
class PoolCache:
    mask: np.ndarray
    lengths: np.ndarray
    shape: tuple[int, ...]


def time_pool(x: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, PoolCache]:
    """Average (..., n, v, h) block states over real (unmasked) positions to (..., n, h)."""
    lengths = mask.sum(axis=-1)
    if (lengths == 0).any():
        raise NumericError("all-pad-node: a block has no real token positions")
    m = mask[..., None].astype(x.dtype)
    pooled = (x * m).sum(axis=-2) / lengths[..., None].astype(x.dtype)
    return pooled, PoolCache(mask, lengths, x.shape)


def time_pool_backward(d_out: np.ndarray, cache: PoolCache) -> np.ndarray:
    dx = np.zeros(cache.shape, dtype=d_out.dtype)
    scale = d_out / cache.lengths[..., None].astype(d_out.dtype)
    dx += scale[..., None, :] * cache.mask[..., None].astype(d_out.dtype)
    return dx


# ---------------------------------------------------------------------------
# dropout (inverted scaling; identity at eval)


def dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator,
                 dtype: np.dtype) -> np.ndarray:
    keep = (rng.random(shape) >= rate).astype(dtype)
    return keep / np.asarray(1.0 - rate, dtype=dtype)


# ---------------------------------------------------------------------------
# GRU (reset-before-candidate), vectorized across nodes
#
# Inputs are (..., n, v, h): axes before n stack graphs of one shape on a
# group axis. Every product is a stacked matmul over (n, h) items, so BLAS
# sees each graph's own operands and a stacked call gives each graph the bits
# of a call on that graph alone. A step runs its directions stacked on a
# leading axis, and the reset and update gates stacked on one more, so each
# operand takes one product for both gates and each item is still one
# gate's (n, h) @ (h, h) product of one graph and direction.


# parameter name suffixes, in the order gru_direction_backward unpacks them
_GRU_KEYS = ("Wr", "Ur", "br", "Wu", "Uu", "bu", "Wc", "Uc", "bc")


@functools.lru_cache(maxsize=16)
def _gru_names(prefix: str) -> tuple[str, ...]:
    return tuple(f"{prefix}_{k}" for k in _GRU_KEYS)


def _gru_weights(p: Mapping[str, np.ndarray], prefixes: tuple[str, ...],
                 group_axes: int) -> tuple[np.ndarray, ...]:
    """The weights in the argument order of _gru_step for the directions in
    `prefixes`, stacked on a direction axis and broadcast over `group_axes`
    group axes: [W_r, W_u], [U_r, U_u] and [b_r, b_u] stacked on a gate axis
    before it, then W_c, U_c and b_c."""
    names = [_gru_names(prefix) for prefix in prefixes]

    def stacked(i: int) -> np.ndarray:
        w = np.stack([p[ns[i]] for ns in names])
        return w.reshape(len(prefixes), *(1,) * (group_axes + 3 - w.ndim), *w.shape[1:])

    wr, ur, br, wu, uu, bu, wc, uc, bc = map(stacked, range(len(_GRU_KEYS)))
    return np.stack((wr, wu)), np.stack((ur, uu)), np.stack((br, bu)), wc, uc, bc


def _gru_step(x: np.ndarray, h_prev: np.ndarray, w_ru: np.ndarray, u_ru: np.ndarray,
              b_ru: np.ndarray, w_c: np.ndarray, u_c: np.ndarray,
              b_c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One step of (direction, ..., n, h) inputs and states; returns
    (h_new, r, u, c), with r and u views into one array of both gates."""
    pre = x @ w_ru
    pre += h_prev @ u_ru
    pre += b_ru
    r, u = sigmoid(pre)
    c = np.tanh(x @ w_c + (r * h_prev) @ u_c + b_c)
    h = (1.0 - u) * h_prev + u * c
    return h, r, u, c


def gru_cell(x: np.ndarray, h_prev: np.ndarray, p: Mapping[str, np.ndarray],
             prefix: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One GRU step: returns (h_new, r, u, c); the gate values feed the backward."""
    weights = _gru_weights(p, (prefix,), x.ndim - 2)
    return tuple(a[0] for a in _gru_step(x[None], h_prev[None], *weights))


def gru_direction_backward(d_out: np.ndarray, cache: BiGruCache, d: int,
                           p: Mapping[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """BPTT for direction d of the cache (0 forward, 1 backward); returns (dx,
    parameter grads), the grads per stacked graph."""
    *lead, n, v, _ = d_out.shape
    names = _gru_names(("gruf", "grub")[d])
    grads = {name: np.zeros((*lead, *p[name].shape), dtype=p[name].dtype) for name in names}
    g_wr, g_ur, g_br, g_wu, g_uu, g_bu, g_wc, g_uc, g_bc = (grads[name] for name in names)
    wr_t, ur_t, _, wu_t, uu_t, _, wc_t, uc_t, _ = (p[name].T for name in names)
    xs, ms = cache.xs[d], cache.ms[d]
    dx = np.zeros((*lead, n, v, xs.shape[-1]), dtype=d_out.dtype)
    dh_carry = np.zeros((*lead, n, ur_t.shape[1]), dtype=d_out.dtype)
    for s in reversed(range(v)):
        t = v - 1 - s if d else s  # the token position direction d reads at step s
        h_prev, r, u, c = (a[d] for a in cache.steps[s])
        m = ms[..., s, :]
        dh_new = (d_out[..., t, :] + dh_carry) * m
        dh_prev = dh_carry * (1.0 - m)
        du = dh_new * (c - h_prev)
        dc = dh_new * u
        one_minus_u = 1.0 - u
        dh_prev_cell = dh_new * one_minus_u
        dpre_c = dc * (1.0 - c * c)
        x_t = xs[..., s, :].swapaxes(-1, -2)
        h_prev_t = h_prev.swapaxes(-1, -2)
        g_wc += x_t @ dpre_c
        g_uc += (r * h_prev).swapaxes(-1, -2) @ dpre_c
        g_bc += dpre_c.sum(axis=-2)
        drh = dpre_c @ uc_t
        dr = drh * h_prev
        dh_prev_cell = dh_prev_cell + drh * r
        dxt = dpre_c @ wc_t
        dpre_u = du * u * one_minus_u
        g_wu += x_t @ dpre_u
        g_uu += h_prev_t @ dpre_u
        g_bu += dpre_u.sum(axis=-2)
        dxt += dpre_u @ wu_t
        dh_prev_cell = dh_prev_cell + dpre_u @ uu_t
        dpre_r = dr * r * (1.0 - r)
        g_wr += x_t @ dpre_r
        g_ur += h_prev_t @ dpre_r
        g_br += dpre_r.sum(axis=-2)
        dxt += dpre_r @ wr_t
        dh_prev_cell = dh_prev_cell + dpre_r @ ur_t
        dx[..., t, :] = dxt
        dh_carry = dh_prev + dh_prev_cell
    return dx, grads


@dataclass
class BiGruCache:
    """What the BiGRU backward reads. `xs`, `ms` and each entry of `steps`
    stack the two directions on a leading axis, each in its own step order:
    the inputs, the masks (a trailing axis of one) and each step's
    (h_prev, r, u, c)."""

    xs: np.ndarray
    ms: np.ndarray
    steps: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    concat: np.ndarray
    mask: np.ndarray


def bigru_forward(x: np.ndarray, params: Mapping[str, np.ndarray],
                  mask: np.ndarray) -> tuple[np.ndarray, BiGruCache]:
    """Bidirectional GRU over (..., n, v, h) inputs, mixed back to h per position.

    Masked positions pass the hidden state through unchanged, so the reversed
    pass walks exactly the real token prefix of each block. Output positions
    under the mask are zero.

    Both directions advance in one loop of v steps, stacked on a leading axis
    of two: at step s the forward direction reads token s and the backward
    one token v-1-s. The cache keeps the stacked arrays.
    """
    if mask.sum(axis=-1).min() == 0:
        raise NumericError("all-pad-node: a block has no real token positions")
    *lead, n, v, _ = x.shape
    xs = np.stack((x, x[..., ::-1, :]))
    masks = mask.astype(x.dtype)[..., None]
    ms = np.stack((masks, masks[..., ::-1, :]))
    carry = 1.0 - ms
    weights = _gru_weights(params, ("gruf", "grub"), len(lead))
    hdim = params["gruf_Ur"].shape[0]
    out = np.empty((2, *lead, n, v, hdim), dtype=x.dtype)
    h = np.zeros((2, *lead, n, hdim), dtype=x.dtype)
    steps = []
    for s in range(v):
        h_new, r, u, c = _gru_step(xs[..., s, :], h, *weights)
        steps.append((h, r, u, c))
        kept = np.multiply(ms[..., s, :], h_new, out=out[..., s, :])
        h = kept + carry[..., s, :] * h
    concat = np.concatenate((out[0], out[1, ..., ::-1, :]), axis=-1)
    mixed = concat @ params["mix_W"] + params["mix_b"]
    mixed = mixed * mask[..., None].astype(x.dtype)
    return mixed, BiGruCache(xs, ms, steps, concat, mask)


def bigru_backward(d_out: np.ndarray, cache: BiGruCache,
                   params: Mapping[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Returns (dx over the embedded input, grads for GRU and mixing params),
    the grads per stacked graph."""
    h = params["mix_b"].shape[0]
    lead = d_out.shape[:-3]
    d_mixed = d_out * cache.mask[..., None].astype(d_out.dtype)
    flat = d_mixed.reshape(*lead, -1, h)
    concat = cache.concat.reshape(*lead, -1, cache.concat.shape[-1])
    grads = {
        "mix_W": concat.swapaxes(-1, -2) @ flat,
        "mix_b": flat.sum(axis=-2),
    }
    d_concat = d_mixed @ params["mix_W"].T
    d_f = d_concat[..., : d_concat.shape[-1] // 2]
    d_b = d_concat[..., d_concat.shape[-1] // 2 :]
    dx, g_f = gru_direction_backward(d_f, cache, 0, params)
    dx_b, g_b = gru_direction_backward(d_b, cache, 1, params)
    dx += dx_b
    grads.update(g_f)
    grads.update(g_b)
    return dx, grads


# ---------------------------------------------------------------------------
# parameter store


@dataclass
class ParamStore:
    """Named parameters.

    `frozen` maps a parameter name to a boolean mask of entries excluded from
    updates and finite-difference probing (the pad embedding row).
    """

    params: dict[str, np.ndarray]
    frozen: dict[str, np.ndarray] = field(default_factory=dict)

    def copy(self) -> "ParamStore":
        return ParamStore(
            params={k: v.copy() for k, v in self.params.items()},
            frozen={k: v.copy() for k, v in self.frozen.items()},
        )


# ---------------------------------------------------------------------------
# finite differences


def finite_diff_check(
    loss_fn: Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]],
    params: Mapping[str, np.ndarray],
    eps: float = 1e-4,
    frozen: Mapping[str, np.ndarray] | None = None,
) -> dict[str, float]:
    """Compare analytic gradients against central finite differences.

    loss_fn takes a parameter dict and returns (loss, grads); it must be
    deterministic (any sampling frozen by seed). Returns the worst relative
    error |a - n| / max(|a|, |n|, 1e-8) per parameter. Frozen entries are
    skipped. Raises NumericError("nondeterministic-loss") when two
    evaluations at the same point disagree.
    """
    base = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    loss1, grads = loss_fn({k: v.copy() for k, v in base.items()})
    loss2, _ = loss_fn({k: v.copy() for k, v in base.items()})
    if loss1 != loss2:
        raise NumericError(f"nondeterministic-loss: {loss1!r} != {loss2!r}")
    worst: dict[str, float] = {}
    for name, value in base.items():
        skip = frozen.get(name) if frozen else None
        err = 0.0
        flat = value.reshape(-1)
        for i in range(flat.size):
            if skip is not None and skip.reshape(-1)[i]:
                continue
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = loss_fn({k: v.copy() for k, v in base.items()})
            flat[i] = orig - eps
            lm, _ = loss_fn({k: v.copy() for k, v in base.items()})
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            analytic = float(grads[name].reshape(-1)[i])
            denom = max(abs(analytic), abs(numeric), 1e-8)
            err = max(err, abs(analytic - numeric) / denom)
        worst[name] = err
    return worst

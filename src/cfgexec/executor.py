"""Neural control-flow executor: program states, Gumbel-softmax branch agent,
adjacency gating, and the state-transition cell whose fixed point the solver
finds.

One transition is: program state from the node matrix, an agent sample over
the nodes, a gated adjacency, then one message-passing step with the encoder
features injected. `JointStep` packages the composite map with its
vector-Jacobian products for the implicit backward pass.

The state path of the transition is linear, X' = A~^T X W + phi(U Omega + b):
the activation shapes the injected encoder features, not the propagated
state. A saturating activation on the state path multiplies every hop by
phi' < 1, so trained models lose a block's signal within two hops; here the
per-hop gain is set by the gated adjacency and W alone, which the
well-posedness projection bounds. The agent gate is the relaxed sample
divided by its largest entry, so the top block passes flow at full weight as
with a hard one-hot sample, and every gate lies in [0, 1]: the gated
Perron-Frobenius eigenvalue never exceeds that of the renormalized adjacency.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, fields

import numpy as np

from .nn import ACTIVATIONS, NumericError, sigmoid


STATE_FLOOR = 1e-6  # keeps log(s) and the 1/s gradient term finite under f32


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of each stacked matrix (the last two axes)."""
    return a.swapaxes(-1, -2)


def _top(z: np.ndarray) -> np.ndarray:
    """Flat indices into z of each row's argmax (its first largest entry)."""
    return z.argmax(axis=-1).reshape(-1) + np.arange(0, z.size, z.shape[-1])


def program_state(x: np.ndarray, w_s: np.ndarray) -> np.ndarray:
    """Per-node scalar program state: sigmoid of a linear read-out of X.

    Clamped away from exact zero: the sigmoid guarantees s > 0 only in exact
    arithmetic, and the agent's backward divides by s.
    """
    s = sigmoid((x @ w_s).reshape(x.shape[:-1]))
    return s.clip(STATE_FLOOR, 1.0)


def gumbel_softmax(s: np.ndarray, noise: np.ndarray, tau: float) -> np.ndarray:
    """Relaxed categorical sample z = softmax((log s + g) / tau) over the last axis.

    `noise` holds standard Gumbel draws.
    """
    logits = (np.log(s) + noise) / tau
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def agent_gate(z: np.ndarray, hard: bool) -> np.ndarray:
    """Applied gate from a relaxed sample: one-hot at argmax z when hard, else
    z scaled so its largest entry is 1.

    Both forms select the same top block at full weight; the soft form keeps
    the relative preference of the others. Hard mode takes its gradient
    through the soft form (straight-through, see `JointStep._agent_dpre`).
    """
    if hard:
        a = np.zeros_like(z)
        a.reshape(-1)[_top(z)] = 1.0
        return a
    return z / z.max(axis=-1, keepdims=True)


def gate_adjacency(a_hat: np.ndarray, a: np.ndarray, gate_axis: str = "recv") -> np.ndarray:
    """Scale the renormalized adjacency by the agent vector.

    "recv": column j is scaled by a_j, so flow only enters selected nodes.
    "send": row i is scaled by a_i (ablation switch).
    """
    if gate_axis == "recv":
        return a_hat * a[..., None, :]
    if gate_axis == "send":
        return a_hat * a[..., :, None]
    raise ValueError(f"unknown gate_axis {gate_axis!r}")


@dataclass
class StepCache:
    """Forward values of one composite transition, kept for its VJP."""

    x: np.ndarray
    s: np.ndarray
    z: np.ndarray
    a: np.ndarray
    q: np.ndarray
    x_next: np.ndarray

    def take(self, i: int) -> "StepCache":
        """The cache of stacked graph i."""
        return StepCache(*(getattr(self, f.name)[i] for f in fields(self)))

    @functools.cached_property
    def agent_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The agent VJP's factors that do not depend on the cotangent, kept
        across an adjoint solve's steps: each graph's largest z, its flat
        index into z, its square, and 1 - s."""
        z_top = self.z.max(axis=-1, keepdims=True)
        return z_top, _top(self.z), z_top * z_top, 1.0 - self.s


@dataclass
class JointStep:
    """The composite map X -> gate(agent(X)) message passing + phi(U Omega + b).

    This is the package's only transition. Gumbel noise is a fixed vector for
    the lifetime of the step object, which makes the map deterministic and its
    fixed point well-defined. The injected term does not depend on X and is
    computed once.

    The graph arrays (a_hat (n, n), u (n, h), noise (n,)) may carry leading
    axes that stack graphs of one shape; the weights are shared. Every op acts
    per graph: stacked matmuls over each graph's own matrices, reductions
    along a per-graph axis, and `np.vecdot` for the agent's inner products,
    so a stacked step gives each graph the bits of a step on that graph alone.
    """

    a_hat: np.ndarray
    u: np.ndarray
    w_s: np.ndarray
    w: np.ndarray
    omega: np.ndarray
    bias: np.ndarray
    noise: np.ndarray
    tau: float
    hard: bool = False
    phi: str = "tanh"
    gate_axis: str = "recv"

    def __post_init__(self) -> None:
        act, dact = ACTIVATIONS[self.phi]
        inj_pre = self.u @ self.omega + self.bias
        self.inj = act(inj_pre)
        self.inj_grad = dact(self.inj, inj_pre)

    def with_noise(self, noise: np.ndarray) -> "JointStep":
        """The same map under another noise draw, sharing the injected term,
        which does not depend on the noise."""
        step = copy.copy(self)
        step.noise = noise
        return step

    def take(self, i: int) -> "JointStep":
        """The map of stacked graph i alone, sharing the weights and slicing
        the injected term. A stacked solve maps the whole stack and holds a
        stopped graph at its result (see `solver.anderson`), so only one
        graph's view of a group needs this."""
        step = copy.copy(self)
        for name in ("a_hat", "u", "noise", "inj", "inj_grad"):
            setattr(step, name, getattr(self, name)[i])
        return step

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, StepCache]:
        x_next, *values = self._step(x)
        return x_next, StepCache(x, *values, x_next)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._step(x)[0]

    def _step(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """(x_next, s, z, a, q): the transition and the values its VJP reads."""
        s = program_state(x, self.w_s)
        z = gumbel_softmax(s, self.noise, self.tau)
        a = agent_gate(z, self.hard)
        if self.gate_axis == "recv":
            q = _t(self.a_hat) @ x
            gated = a[..., None] * q
        else:
            q = _t(self.a_hat) @ (a[..., None] * x)
            gated = q
        x_next = gated @ self.w + self.inj
        if not np.isfinite(x_next).all():
            raise NumericError("nan-detected: non-finite transition output")
        return x_next, s, z, a, q

    def _agent_dpre(self, cache: StepCache, da: np.ndarray) -> np.ndarray:
        """Backprop the agent path from da to the program state's read-out
        X w_s; it reaches X through w_s and w_s through X.

        The gradient is that of the soft gate z / max(z) in both modes; for a
        hard agent this is the straight-through estimate.
        """
        z, s = cache.z, cache.s
        z_top, top, z_top_sq, one_minus_s = cache.agent_terms
        dz = da / z_top
        dz.reshape(-1)[top] -= (np.vecdot(da, z)[..., None] / z_top_sq).reshape(-1)
        dlogits = z * (dz - np.vecdot(dz, z)[..., None])
        ds = dlogits / (self.tau * s)
        return ds * s * one_minus_s

    def vjp_x(self, cache: StepCache, v: np.ndarray) -> np.ndarray:
        """(dF/dX)^T v at the cached point, including the agent path."""
        dgated = v @ self.w.T
        if self.gate_axis == "recv":
            dq = cache.a[..., None] * dgated
            da = (dgated * cache.q).sum(axis=-1)
            dx = self.a_hat @ dq
        else:
            dax = self.a_hat @ dgated
            da = (dax * cache.x).sum(axis=-1)
            dx = cache.a[..., None] * dax
        return dx + self._agent_dpre(cache, da)[..., None] @ self.w_s.reshape(1, -1)

    def vjp_params(self, cache: StepCache, v: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of <v, F(X)> with respect to the step's parameters and U,
        one per stacked graph."""
        if self.gate_axis == "recv":
            gated = cache.a[..., None] * cache.q
        else:
            gated = cache.q
        dw = _t(gated) @ v
        dgated = v @ self.w.T
        if self.gate_axis == "recv":
            da = (dgated * cache.q).sum(axis=-1)
        else:
            dax = self.a_hat @ dgated
            da = (dax * cache.x).sum(axis=-1)
        dpre = self._agent_dpre(cache, da)
        dw_s = (_t(cache.x) @ dpre[..., None]).reshape(*dpre.shape[:-1], *self.w_s.shape)
        d_inj = v * self.inj_grad
        return {
            "W": dw,
            "Om": _t(self.u) @ d_inj,
            "cb": d_inj.sum(axis=-2),
            "ws": dw_s,
            "U": d_inj @ self.omega.T,
        }

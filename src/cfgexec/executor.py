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
from dataclasses import dataclass

import numpy as np

from .nn import ACTIVATIONS, NumericError, sigmoid


STATE_FLOOR = 1e-6  # keeps log(s) and the 1/s gradient term finite under f32


def program_state(x: np.ndarray, w_s: np.ndarray) -> np.ndarray:
    """Per-node scalar program state: sigmoid of a linear read-out of X.

    Clamped away from exact zero: the sigmoid guarantees s > 0 only in exact
    arithmetic, and the agent's backward divides by s.
    """
    s = sigmoid((x @ w_s).reshape(-1))
    return np.clip(s, STATE_FLOOR, 1.0)


def gumbel_softmax(s: np.ndarray, noise: np.ndarray, tau: float) -> np.ndarray:
    """Relaxed categorical sample z = softmax((log s + g) / tau).

    `noise` holds standard Gumbel draws.
    """
    logits = (np.log(s) + noise) / tau
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def one_hot(index: int, n: int, dtype: np.dtype) -> np.ndarray:
    a = np.zeros(n, dtype=dtype)
    a[index] = 1.0
    return a


def agent_gate(z: np.ndarray, hard: bool) -> np.ndarray:
    """Applied gate from a relaxed sample: one-hot at argmax z when hard, else
    z scaled so its largest entry is 1.

    Both forms select the same top block at full weight; the soft form keeps
    the relative preference of the others. Hard mode takes its gradient
    through the soft form (straight-through, see `JointStep._agent_dx`).
    """
    if hard:
        return one_hot(int(np.argmax(z)), z.shape[0], z.dtype)
    return z / z.max()


def gate_adjacency(a_hat: np.ndarray, a: np.ndarray, gate_axis: str = "recv") -> np.ndarray:
    """Scale the renormalized adjacency by the agent vector.

    "recv": column j is scaled by a_j, so flow only enters selected nodes.
    "send": row i is scaled by a_i (ablation switch).
    """
    if gate_axis == "recv":
        return a_hat * a[None, :]
    if gate_axis == "send":
        return a_hat * a[:, None]
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


@dataclass
class JointStep:
    """The composite map X -> gate(agent(X)) message passing + phi(U Omega + b).

    This is the package's only transition. Gumbel noise is a fixed vector for
    the lifetime of the step object, which makes the map deterministic and its
    fixed point well-defined. The injected term does not depend on X and is
    computed once.
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
        inj_pre = self.u @ self.omega + self.bias[None, :]
        self.inj = act(inj_pre)
        self.inj_grad = dact(self.inj, inj_pre)

    def with_noise(self, noise: np.ndarray) -> "JointStep":
        """The same map under another noise draw, sharing the injected term,
        which does not depend on the noise."""
        step = copy.copy(self)
        step.noise = noise
        return step

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, StepCache]:
        s = program_state(x, self.w_s)
        z = gumbel_softmax(s, self.noise, self.tau)
        a = agent_gate(z, self.hard)
        if self.gate_axis == "recv":
            q = self.a_hat.T @ x
            gated = a[:, None] * q
        else:
            q = self.a_hat.T @ (a[:, None] * x)
            gated = q
        x_next = gated @ self.w + self.inj
        if not np.isfinite(x_next).all():
            raise NumericError("nan-detected: non-finite transition output")
        return x_next, StepCache(x, s, z, a, q, x_next)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward_cached(x)[0]

    def _agent_dx(self, cache: StepCache, da: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Backprop the agent path: da -> (dX contribution, dW_s).

        The gradient is that of the soft gate z / max(z) in both modes; for a
        hard agent this is the straight-through estimate.
        """
        top = int(np.argmax(cache.z))
        z_top = cache.z[top]
        dz = da / z_top
        dz[top] -= float(da @ cache.z) / (z_top * z_top)
        dlogits = cache.z * (dz - float(dz @ cache.z))
        ds = dlogits / (self.tau * cache.s)
        dpre = ds * cache.s * (1.0 - cache.s)
        dx = dpre[:, None] @ self.w_s.reshape(1, -1)
        dw_s = (cache.x.T @ dpre).reshape(self.w_s.shape)
        return dx, dw_s

    def vjp_x(self, cache: StepCache, v: np.ndarray) -> np.ndarray:
        """(dF/dX)^T v at the cached point, including the agent path."""
        dgated = v @ self.w.T
        if self.gate_axis == "recv":
            dq = cache.a[:, None] * dgated
            da = (dgated * cache.q).sum(axis=1)
            dx = self.a_hat @ dq
        else:
            dax = self.a_hat @ dgated
            da = (dax * cache.x).sum(axis=1)
            dx = cache.a[:, None] * dax
        dx_agent, _ = self._agent_dx(cache, da)
        return dx + dx_agent

    def vjp_params(self, cache: StepCache, v: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of <v, F(X)> with respect to the step's parameters and U."""
        if self.gate_axis == "recv":
            gated = cache.a[:, None] * cache.q
        else:
            gated = cache.q
        dw = gated.T @ v
        dgated = v @ self.w.T
        if self.gate_axis == "recv":
            da = (dgated * cache.q).sum(axis=1)
        else:
            dax = self.a_hat @ dgated
            da = (dax * cache.x).sum(axis=1)
        _, dw_s = self._agent_dx(cache, da)
        d_inj = v * self.inj_grad
        return {
            "W": dw,
            "Om": self.u.T @ d_inj,
            "cb": d_inj.sum(axis=0),
            "ws": dw_s,
            "U": d_inj @ self.omega.T,
        }


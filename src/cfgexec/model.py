"""End-to-end model: token encoder, equilibrium solve over the executor's
joint transition, pooled prediction head, and the implicit-differentiation
backward pass.

The backward never retains solver iterates: it re-linearizes the transition
at the equilibrium, solves the adjoint fixed point with the same solver
budget, and pushes the resulting cotangent through the encoder. Retained
state is therefore independent of how many iterations the solver ran.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
import numpy as np

from .executor import JointStep, StepCache, gate_adjacency, gumbel_softmax, program_state
from .graphs import CfgGraph, renormalize
from .nn import (
    BiGruCache,
    LayerNormCache,
    ParamStore,
    PoolCache,
    bigru_backward,
    bigru_forward,
    dropout_mask,
    embed,
    embed_backward,
    ensure_finite,
    layer_norm,
    layer_norm_backward,
    sigmoid,
    softplus,
    time_pool,
    time_pool_backward,
)
from .solver import DivergenceError, SolverConfig, SolverResult, anderson, pf_eigenvalue


def derive_seed(*parts: object) -> int:
    """Stable 64-bit seed from a tuple of labels (platform-independent)."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass
class ModelConfig:
    """Architecture and solver settings shared by training and evaluation."""

    h: int = 64
    tau: float = 16.0
    agent_mode: str = "soft"
    phi: str = "tanh"
    pool: str = "avg"
    gate_axis: str = "recv"
    dropout: float = 0.5
    kappa: float = 0.9
    precision: str = "f32"
    v_max: int = 32
    solver: SolverConfig = field(default_factory=SolverConfig)

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64 if self.precision == "f64" else np.float32)


PARAM_SHAPES = {
    "ws": lambda h, v: (h, 1),
    "W": lambda h, v: (h, h),
    "Om": lambda h, v: (h, h),
    "cb": lambda h, v: (h,),
    "ln_g": lambda h, v: (h,),
    "ln_b": lambda h, v: (h,),
    "wp": lambda h, v: (h,),
}

_GRU_MATS = ("Wr", "Wu", "Wc", "Ur", "Uu", "Uc")
_GRU_VECS = ("br", "bu", "bc")


def init_model_params(config: ModelConfig, vocab_size: int, seed: int = 0) -> ParamStore:
    """Seeded parameter initialization; the pad embedding row is frozen at zero.

    Embeddings start larger than the dense layers so token contrasts survive
    the encoder and the solved transition with usable magnitude. The
    transition weight W starts near 0.7 I: a dense random W spends its
    ||W||_inf budget on feature mixing and carries a block's signal about
    two hops, while a diagonal W spends it on carrying each feature to the
    successor blocks. Its infinity norm (about 0.78) stays below kappa, and
    agent gates lie in [0, 1], so the initial transition is well-posed on
    every graph; the small dense part keeps features coupled.
    """
    rng = np.random.default_rng(derive_seed(seed, "init"))
    h = config.h
    dtype = config.dtype
    scale = 0.1
    params: dict[str, np.ndarray] = {}
    params["emb"] = (rng.normal(size=(vocab_size, h)) * 0.4).astype(dtype)
    params["emb"][0] = 0.0
    for prefix in ("gruf", "grub"):
        for name in _GRU_MATS:
            params[f"{prefix}_{name}"] = (rng.normal(size=(h, h)) * scale).astype(dtype)
        for name in _GRU_VECS:
            params[f"{prefix}_{name}"] = np.zeros(h, dtype=dtype)
    params["mix_W"] = (rng.normal(size=(2 * h, h)) * scale).astype(dtype)
    params["mix_b"] = np.zeros(h, dtype=dtype)
    for name, shape_fn in PARAM_SHAPES.items():
        if name == "ln_g":
            params[name] = np.ones(h, dtype=dtype)
        elif name == "ln_b":
            params[name] = np.zeros(h, dtype=dtype)
        elif name == "cb":
            # nonzero injection bias moves the activation off its linear
            # center, where feature interactions would otherwise vanish
            params[name] = (rng.normal(size=h) * 0.7).astype(dtype)
        elif name == "W":
            params[name] = (0.7 * np.eye(h) + rng.normal(size=(h, h)) * (0.1 / h)).astype(dtype)
        else:
            params[name] = (rng.normal(size=shape_fn(h, vocab_size)) * scale).astype(dtype)
    frozen_emb = np.zeros((vocab_size, h), dtype=bool)
    frozen_emb[0] = True
    return ParamStore(params=params, frozen={"emb": frozen_emb},
                      rng=np.random.default_rng(derive_seed(seed, "store")))


@dataclass(frozen=True, eq=False)
class GraphBundle:
    """A graph preprocessed for the model: padded ids, mask, and normalized adjacency."""

    graph: CfgGraph
    ids: np.ndarray
    mask: np.ndarray
    a_hat: np.ndarray
    lambda_hat: float

    @property
    def n(self) -> int:
        return self.ids.shape[0]

    @property
    def label(self) -> int | None:
        return self.graph.label


def prepare_graph(graph: CfgGraph, config: ModelConfig) -> GraphBundle:
    v = max(1, min(config.v_max, max(len(seq) for seq in graph.nodes)))
    ids = np.zeros((graph.n, v), dtype=np.int64)
    for i, seq in enumerate(graph.nodes):
        trunc = seq[:v]
        ids[i, : len(trunc)] = trunc
    norm = renormalize(graph.adjacency)
    return GraphBundle(
        graph=graph,
        ids=ids,
        mask=ids != 0,
        a_hat=norm.matrix.astype(config.dtype),
        lambda_hat=norm.pf_eigenvalue,
    )


@dataclass
class ForwardCache:
    """Everything the backward pass needs, linearized at the equilibrium."""

    bundle: GraphBundle
    config: ModelConfig
    mode: str
    gru: BiGruCache
    pool: PoolCache
    keep: np.ndarray | None
    step: JointStep
    step_cache: StepCache
    x_star: np.ndarray
    solver_result: SolverResult
    lambda_gated: float | None  # None in eval mode
    ln: LayerNormCache
    g_vec: np.ndarray
    logit: float
    termination: str

    def retained_floats(self) -> int:
        """Retained-activation accounting used by the memory-contract check."""
        total = 0
        for c in self.gru.fwd + self.gru.bwd:
            total += c.x.size + c.h_prev.size + c.r.size + c.u.size + c.c.size + c.mask.size
        total += self.gru.concat.size + self.gru.mask.size
        total += self.pool.mask.size + self.pool.lengths.size
        if self.pool.argmax is not None:
            total += self.pool.argmax.size
        if self.keep is not None:
            total += self.keep.size
        sc = self.step_cache
        total += sc.x.size + sc.s.size + sc.z.size + sc.a.size + sc.q.size + sc.x_next.size
        total += self.step.u.size + self.step.inj.size + self.step.inj_grad.size
        total += self.step.noise.size
        total += self.x_star.size + self.g_vec.size
        total += self.ln.x_hat.size + self.ln.inv_std.size
        total += len(self.solver_result.residuals)
        return total


def forward(bundle: GraphBundle, store: ParamStore, config: ModelConfig,
            mode: str = "eval", seed: int = 0,
            keep_residuals: bool = False) -> tuple[float, ForwardCache]:
    """Run the full pipeline for one graph; returns (logit, cache).

    The Gumbel noise vector is drawn once per call from the seeded stream and
    held fixed across solver iterations, so the transition is a deterministic
    map and the equilibrium is well-defined. Dropout applies only in train
    mode, after pooling. The cache keeps only the final solver residual
    unless keep_residuals asks for the per-iteration log, so its size does
    not depend on how many iterations the solve took. The gated PF
    eigenvalue, which only the training projection reads, is computed in
    train mode alone; eval caches hold None.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    p = store.params
    dtype = config.dtype
    x_emb = embed(bundle.ids, p["emb"])
    h_seq, gru_cache = bigru_forward(x_emb, p, bundle.mask)
    u0, pool_cache = time_pool(h_seq, config.pool, bundle.mask)
    keep = None
    if mode == "train" and config.dropout > 0.0:
        keep = dropout_mask(u0.shape, config.dropout,
                            np.random.default_rng(derive_seed(seed, "dropout")), dtype)
        u = u0 * keep
    else:
        u = u0
    ensure_finite("encoder output", u)
    noise = np.random.default_rng(derive_seed(seed, "gumbel")).gumbel(
        size=bundle.n).astype(dtype)
    step = JointStep(
        a_hat=bundle.a_hat, u=u, w_s=p["ws"], w=p["W"], omega=p["Om"], bias=p["cb"],
        noise=noise, tau=config.tau, hard=config.agent_mode == "hard",
        phi=config.phi, gate_axis=config.gate_axis,
    )
    tol = config.solver.resolve_tol(dtype)
    exits = bundle.graph.exits

    def exit_stop(x_new: np.ndarray, _it: int) -> str | None:
        if config.agent_mode != "hard":
            return None
        z = gumbel_softmax(program_state(x_new, p["ws"]), noise, config.tau)
        return "exit-reached" if int(np.argmax(z)) in exits else None

    result = anderson(step, u.copy(), config.solver, tol=tol, on_iterate=exit_stop)
    if not keep_residuals:
        result = replace(result, residuals=result.residuals[-1:])
    x_star = ensure_finite("equilibrium", result.x_star)
    _, step_cache = step.forward_cached(x_star)
    # training projects W against max(lambda_ref, lambda_hat), where
    # lambda_ref smooths the batch max of this estimate, so it sets the
    # projection radius whenever lambda_ref exceeds lambda_hat; a coarse
    # estimate keeps it cheap
    lambda_gated = None
    if mode == "train":
        lambda_gated = pf_eigenvalue(
            gate_adjacency(bundle.a_hat, step_cache.a, config.gate_axis),
            max_iter=80, tol=1e-6)
    pooled = x_star.mean(axis=0)
    g_vec, ln_cache = layer_norm(pooled, p["ln_g"], p["ln_b"])
    logit = float(p["wp"] @ g_vec)
    termination = "equilibrium" if result.converged else (result.stop_reason or "max-steps")
    cache = ForwardCache(
        bundle=bundle, config=config, mode=mode, gru=gru_cache, pool=pool_cache,
        keep=keep, step=step, step_cache=step_cache, x_star=x_star,
        solver_result=result, lambda_gated=lambda_gated, ln=ln_cache, g_vec=g_vec,
        logit=logit, termination=termination,
    )
    return logit, cache


def bce_with_logit(logit: float, label: int) -> float:
    """Numerically stable binary cross entropy: softplus(logit) - label * logit."""
    return float(softplus(np.asarray(logit, dtype=np.float64)) - label * logit)


def bce_grad(logit: float, label: int) -> float:
    return float(sigmoid(np.asarray(logit, dtype=np.float64)) - label)


def implicit_backward(cache: ForwardCache, dl_dxstar: np.ndarray,
                      store: ParamStore) -> dict[str, np.ndarray]:
    """Adjoint solve at the equilibrium, then parameter gradients.

    Solves v = dl_dxstar + (dF/dX)^T v with the forward solver budget and
    returns gradients for the transition parameters plus the encoder
    cotangent under key "U". No per-iteration forward state is consulted.
    """
    step, sc = cache.step, cache.step_cache
    tol = cache.config.solver.resolve_tol(dl_dxstar.dtype)

    def adjoint_map(v: np.ndarray) -> np.ndarray:
        return dl_dxstar + step.vjp_x(sc, v)

    try:
        res = anderson(adjoint_map, dl_dxstar.copy(), cache.config.solver, tol=tol)
    except DivergenceError as exc:
        raise DivergenceError(f"adjoint-divergence: {exc}") from exc
    return step.vjp_params(sc, res.x_star)


def model_backward(cache: ForwardCache, store: ParamStore,
                   label: int) -> tuple[float, dict[str, np.ndarray]]:
    """Full-model gradient for one labeled graph; returns (loss, grads)."""
    p = store.params
    n = cache.bundle.n
    loss = bce_with_logit(cache.logit, label)
    dlogit = bce_grad(cache.logit, label)
    grads: dict[str, np.ndarray] = {
        "wp": (dlogit * cache.g_vec).astype(p["wp"].dtype),
    }
    dg = (dlogit * p["wp"]).astype(cache.g_vec.dtype)
    dpool, dln_g, dln_b = layer_norm_backward(dg, cache.ln)
    grads["ln_g"] = dln_g
    grads["ln_b"] = dln_b
    dxstar = np.repeat((dpool / n)[None, :], n, axis=0)
    adj = implicit_backward(cache, dxstar, store)
    grads["W"] = adj["W"]
    grads["Om"] = adj["Om"]
    grads["cb"] = adj["cb"]
    grads["ws"] = adj["ws"]
    d_u = adj["U"]
    if cache.keep is not None:
        d_u = d_u * cache.keep
    d_hseq = time_pool_backward(d_u, cache.pool)
    d_emb_in, enc_grads = bigru_backward(d_hseq, cache.gru, p)
    grads.update(enc_grads)
    grads["emb"] = embed_backward(cache.bundle.ids, d_emb_in, p["emb"].shape[0])
    return loss, grads

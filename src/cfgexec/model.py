"""End-to-end model: token encoder, equilibrium solve over the executor's
joint transition, pooled prediction head, and the implicit-differentiation
backward pass.

The backward never retains solver iterates: it re-linearizes the transition
at the equilibrium, solves the adjoint fixed point with the same solver
budget, and pushes the resulting cotangent through the encoder. Retained
state is therefore independent of how many iterations the solver ran.

`forward` and `model_backward` take one graph or a group of graphs of one
`ids` shape, stacked on a leading axis. One graph is the group of one, and a
group gives each graph the bits it gets alone.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .executor import JointStep, StepCache, gate_adjacency, gumbel_softmax, program_state
from .graphs import CfgGraph, renormalize
from .nn import (
    ACTIVATIONS,
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
from .solver import (DivergenceError, SolverConfig, SolverResult, StackResult, anderson,
                     pf_eigenvalue)


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
    gate_axis: str = "recv"
    dropout: float = 0.5
    kappa: float = 0.9
    precision: str = "f32"
    v_max: int = 32
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        if self.h < 1:
            raise ValueError(f"h must be >= 1, got {self.h}")
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError(f"kappa must be in (0, 1), got {self.kappa}")
        if self.v_max < 1:
            raise ValueError(f"v_max must be >= 1, got {self.v_max}")
        for name, accepted in (("agent_mode", ("soft", "hard")),
                               ("phi", tuple(ACTIVATIONS)),
                               ("gate_axis", ("recv", "send")),
                               ("precision", ("f32", "f64"))):
            if getattr(self, name) not in accepted:
                raise ValueError(f"{name} must be one of {', '.join(accepted)}, "
                                 f"got {getattr(self, name)!r}")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64 if self.precision == "f64" else np.float32)


_GRU_MATS = ("Wr", "Wu", "Wc", "Ur", "Uu", "Uc")
_GRU_VECS = ("br", "bu", "bc")


def param_shapes(h: int, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """The shape of every parameter init_model_params creates, in its order."""
    shapes: dict[str, tuple[int, ...]] = {"emb": (vocab_size, h)}
    for prefix in ("gruf", "grub"):
        shapes.update({f"{prefix}_{name}": (h, h) for name in _GRU_MATS})
        shapes.update({f"{prefix}_{name}": (h,) for name in _GRU_VECS})
    shapes.update(mix_W=(2 * h, h), mix_b=(h,), ws=(h, 1), W=(h, h), Om=(h, h), cb=(h,),
                  ln_g=(h,), ln_b=(h,), wp=(h,))
    return shapes


PARAM_NAMES = tuple(param_shapes(1, 1))


def init_model_params(config: ModelConfig, vocab_size: int, seed: int = 0) -> ParamStore:
    """Seeded parameter initialization; the pad embedding row starts at zero.

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
    params["ws"] = (rng.normal(size=(h, 1)) * scale).astype(dtype)
    params["W"] = (0.7 * np.eye(h) + rng.normal(size=(h, h)) * (0.1 / h)).astype(dtype)
    params["Om"] = (rng.normal(size=(h, h)) * scale).astype(dtype)
    # nonzero injection bias moves the activation off its linear center, where
    # feature interactions would otherwise vanish
    params["cb"] = (rng.normal(size=h) * 0.7).astype(dtype)
    params["ln_g"] = np.ones(h, dtype=dtype)
    params["ln_b"] = np.zeros(h, dtype=dtype)
    params["wp"] = (rng.normal(size=h) * scale).astype(dtype)
    return ParamStore(params=params)


@dataclass(frozen=True, eq=False)
class GraphBundle:
    """A graph preprocessed for the model: padded ids, mask, and normalized adjacency."""

    graph: CfgGraph
    ids: np.ndarray
    mask: np.ndarray
    a_hat: np.ndarray

    @property
    def n(self) -> int:
        return self.ids.shape[0]

    @property
    def label(self) -> int | None:
        return self.graph.label


def _pf_by_size(sizes: Sequence[int], matrix: Callable[[int], np.ndarray],
                **kwargs) -> list[float]:
    """`pf_eigenvalue` of the (n, n) matrices `matrix(i)`, n = sizes[i], as
    one stacked call per n; every matrix gets the bits of its lone call. The
    matrices of one n are built and stacked only when their call runs."""
    by_size: dict[int, list[int]] = {}
    for i, n in enumerate(sizes):
        by_size.setdefault(n, []).append(i)
    out = [0.0] * len(sizes)
    for members in by_size.values():
        lams = pf_eigenvalue(_stack([matrix(i) for i in members]), **kwargs)
        for i, lam in zip(members, lams.tolist()):
            out[i] = lam
    return out


def lambda_hats(bundles: Sequence[GraphBundle]) -> list[float]:
    """Each bundle's lambda_hat, the PF eigenvalue of its f64 renormalized
    adjacency (not of the config-dtype `a_hat`), one stacked power iteration
    per graph size."""
    return _pf_by_size([b.n for b in bundles],
                       lambda i: renormalize(bundles[i].graph.adjacency))


def gated_eigenvalues(gated: Sequence[np.ndarray]) -> list[float]:
    """The gated PF estimate of each gated adjacency, one stacked power
    iteration per graph size. The estimate is coarse and cheap: training
    smooths a batch's max of it into lambda_ref."""
    return _pf_by_size([m.shape[-1] for m in gated], gated.__getitem__, max_iter=80, tol=1e-6)


def prepare_graph(graph: CfgGraph, config: ModelConfig) -> GraphBundle:
    v = max(1, min(config.v_max, max(len(seq) for seq in graph.nodes)))
    ids = np.zeros((graph.n, v), dtype=np.int64)
    for i, seq in enumerate(graph.nodes):
        trunc = seq[:v]
        ids[i, : len(trunc)] = trunc
    return GraphBundle(
        graph=graph,
        ids=ids,
        mask=ids != 0,
        a_hat=renormalize(graph.adjacency).astype(config.dtype),
    )


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """Arrays of one shape on a new leading group axis (one array as a view)."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


# The encoder tail and the head take one graph's arrays or a stacked group's.


def encoder_tail(h_seq: np.ndarray, mask: np.ndarray, config: ModelConfig, mode: str,
                 seeds: Sequence[int]) -> tuple[np.ndarray, PoolCache, np.ndarray | None]:
    """Block states from the BiGRU's token states: the mean over each block's
    real tokens, then, in train mode, dropout with each graph's mask drawn
    from its seed. Returns (states, pool cache, keep mask or None)."""
    u, pool = time_pool(h_seq, mask)
    if mode != "train" or config.dropout == 0.0:
        return u, pool, None
    keeps = [dropout_mask(u.shape[-2:], config.dropout,
                          np.random.default_rng(derive_seed(seed, "dropout")), config.dtype)
             for seed in seeds]
    keep = keeps[0] if u.ndim == 2 else _stack(keeps)
    return u * keep, pool, keep


def encoder_tail_backward(d_u: np.ndarray, pool: PoolCache,
                          keep: np.ndarray | None) -> np.ndarray:
    """The cotangent of the BiGRU's token states from that of the block states."""
    if keep is not None:
        d_u = d_u * keep
    return time_pool_backward(d_u, pool)


@dataclass
class HeadCache:
    logits: np.ndarray  # one per graph: 0-d for one graph's head, (G,) for a group's
    g_vec: np.ndarray
    ln: LayerNormCache
    n: int


def head(x: np.ndarray, p: Mapping[str, np.ndarray]) -> HeadCache:
    """The prediction head over node states: mean pooling, layer norm and the
    linear read-out. The logits are in the returned cache."""
    # one pooled row per graph, so the layer-norm gradients stay per graph
    pooled = x.mean(axis=-2, keepdims=True)
    g_vec, ln = layer_norm(pooled, p["ln_g"], p["ln_b"])
    # np.vecdot, not a (G, h) @ (h,) product, which BLAS sums in another order
    return HeadCache(np.vecdot(g_vec[..., 0, :], p["wp"]), g_vec, ln, x.shape[-2])


def head_backward(cache: HeadCache, labels: Sequence[int], p: Mapping[str, np.ndarray],
                  ) -> tuple[list[float], dict[str, np.ndarray], np.ndarray]:
    """Binary cross entropy against one label per graph; returns (losses, the
    head's gradients per graph, the cotangent of the node states)."""
    logits = np.ravel(cache.logits).tolist()
    losses = [bce_with_logit(logit, y) for logit, y in zip(logits, labels)]
    # a Python float times an f32 array is an f32 product, so the per-graph
    # factors are cast to the array's dtype first
    dlogit = np.array([bce_grad(logit, y) for logit, y in zip(logits, labels)],
                      dtype=cache.g_vec.dtype).reshape(*cache.logits.shape, 1, 1)
    grads = {"wp": (dlogit * cache.g_vec).astype(p["wp"].dtype)[..., 0, :]}
    dg = (dlogit * p["wp"]).astype(cache.g_vec.dtype)
    dpool, grads["ln_g"], grads["ln_b"] = layer_norm_backward(dg, cache.ln)
    return losses, grads, np.repeat(dpool / cache.n, cache.n, axis=-2)


@dataclass
class GroupCache:
    """Everything the backward pass needs for a group of graphs of one shape,
    stacked on a leading axis and linearized at the equilibrium.

    Per-graph values are lists in group order; `solve` holds each graph's
    `SolverResult` and the stacked fixed points. The linearization is
    computed on first read, so an eval forward never linearizes, traced or
    not. It uses the weights the forward ran with: `step` holds its
    own copy of them, so a read after an optimizer step gives the same bits.
    """

    bundles: list[GraphBundle]
    config: ModelConfig
    mode: str
    ids: np.ndarray
    gru: BiGruCache
    pool: PoolCache
    keep: np.ndarray | None
    step: JointStep
    solve: StackResult
    head: HeadCache
    selected: list[list[int]]  # argmax z at each solver iterate; empty unless keep_trace

    @property
    def x_star(self) -> np.ndarray:
        return self.solve.x_star

    @property
    def terminations(self) -> list[str]:
        """Why each graph's solve stopped: "equilibrium" when it converged."""
        return ["equilibrium" if r.converged else (r.stop_reason or "max-steps")
                for r in self.solve.results]

    @functools.cached_property
    def step_cache(self) -> StepCache:
        """The transition linearized at the equilibrium."""
        return self.step.forward_cached(self.x_star)[1]

    @property
    def gated_adjacency(self) -> np.ndarray:
        """Each graph's adjacency gated by the agent at the equilibrium, from
        which training estimates the gated PF eigenvalue."""
        return gate_adjacency(self.step.a_hat, self.step_cache.a, self.config.gate_axis)

    def retained_floats(self) -> int:
        """Retained-activation accounting used by the memory-contract check."""
        total = self.gru.xs.size + self.gru.ms.size
        total += sum(a.size for step in self.gru.steps for a in step)
        total += self.gru.concat.size + self.gru.mask.size
        total += self.pool.mask.size + self.pool.lengths.size
        if self.keep is not None:
            total += self.keep.size
        sc = self.step_cache
        total += sc.x.size + sc.s.size + sc.z.size + sc.a.size + sc.q.size + sc.x_next.size
        total += self.step.u.size + self.step.inj.size + self.step.inj_grad.size
        total += self.step.noise.size
        total += self.x_star.size + self.head.g_vec.size
        total += self.head.ln.x_hat.size + self.head.ln.inv_std.size
        total += sum(len(r.residuals) for r in self.solve.results)
        total += sum(len(sel) for sel in self.selected)
        return total


@dataclass(eq=False)
class ForwardCache:
    """One graph's forward: the view `forward` returns of its group of one."""

    group: GroupCache

    @property
    def bundle(self) -> GraphBundle:
        return self.group.bundles[0]

    @property
    def mode(self) -> str:
        return self.group.mode

    @property
    def keep(self) -> np.ndarray | None:
        return None if self.group.keep is None else self.group.keep[0]

    @functools.cached_property
    def step(self) -> JointStep:
        return self.group.step.take(0)

    @functools.cached_property
    def step_cache(self) -> StepCache:
        return self.group.step_cache.take(0)

    @property
    def x_star(self) -> np.ndarray:
        return self.group.x_star[0]

    @property
    def solver_result(self) -> SolverResult:
        return self.group.solve.results[0]

    @property
    def termination(self) -> str:
        return self.group.terminations[0]

    @property
    def selected(self) -> list[int]:
        return self.group.selected[0]

    def retained_floats(self) -> int:
        return self.group.retained_floats()


def forward(bundle: GraphBundle | Sequence[GraphBundle], store: ParamStore,
            config: ModelConfig, mode: str = "eval", seed: int | Sequence[int] = 0,
            keep_trace: bool = False, reuse: ForwardCache | GroupCache | None = None,
            ) -> tuple[float, ForwardCache] | tuple[list[float], GroupCache]:
    """Run the full pipeline for one graph; returns (logit, cache).

    Given a sequence of bundles of one `ids` shape and one seed per bundle,
    runs them as a group stacked on a leading axis and returns (logits,
    group cache). Every op acts per graph (stacked matmuls over each graph's
    own operands, reductions along per-graph axes), and each graph keeps its
    own noise, dropout, solver window and stop, so every graph gets the bits
    it gets alone; one graph is the group of one. The solve maps the whole
    group at every step: a graph that has stopped is held at its fixed point
    while the others run (see `solver.anderson`).

    The Gumbel noise vector is drawn once per call from the seeded stream and
    held fixed across solver iterations, so the transition is a deterministic
    map and the equilibrium is well-defined. Dropout applies only in train
    mode, after pooling. The cache keeps only the final solver residual
    unless keep_trace asks for the per-iteration log: every residual and the
    block the agent ranks first (argmax z) at each iterate. Without it the
    cache size does not depend on how many iterations the solve took. The
    cache linearizes the transition at the equilibrium on first read, with
    the weights of this call even after they change; the forward estimates
    no PF eigenvalue (training estimates a whole batch's at once).

    In eval mode the encoder output and the injected term depend on the
    bundle and the parameters but not on the seed. `reuse`, an eval cache of
    the same bundles under the same parameters and config (of either form),
    supplies both, so a forward under another noise draw runs only the agent
    and the solve.
    """
    if isinstance(reuse, ForwardCache):
        reuse = reuse.group
    if isinstance(bundle, GraphBundle):
        logits, group = _forward_group([bundle], store, config, mode, [seed], keep_trace, reuse)
        return logits[0], ForwardCache(group)
    return _forward_group(list(bundle), store, config, mode, list(seed), keep_trace, reuse)


def _forward_group(bundles: list[GraphBundle], store: ParamStore, config: ModelConfig,
                   mode: str, seeds: list[int], keep_trace: bool,
                   reuse: GroupCache | None) -> tuple[list[float], GroupCache]:
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if len(seeds) != len(bundles):
        raise ValueError(f"{len(bundles)} bundles need as many seeds, got {len(seeds)}")
    if len({b.ids.shape for b in bundles}) != 1:
        raise ValueError("a group needs at least one bundle, all of one ids shape")
    p = store.params
    noise = _stack([np.random.default_rng(derive_seed(seed, "gumbel")).gumbel(
        size=b.n).astype(config.dtype) for b, seed in zip(bundles, seeds)])
    if reuse is not None:
        if (mode != "eval" or reuse.mode != "eval" or len(reuse.bundles) != len(bundles)
                or any(a is not b for a, b in zip(reuse.bundles, bundles))):
            raise ValueError("reuse takes an eval cache of the same bundle, in eval mode")
        ids, gru_cache, pool_cache, keep = reuse.ids, reuse.gru, reuse.pool, None
        step = reuse.step.with_noise(noise)
    else:
        ids, mask = _stack([b.ids for b in bundles]), _stack([b.mask for b in bundles])
        x_emb = embed(ids, p["emb"])
        h_seq, gru_cache = bigru_forward(x_emb, p, mask)
        u, pool_cache, keep = encoder_tail(h_seq, mask, config, mode, seeds)
        ensure_finite("encoder output", u)
        # the weights are copied: the optimizer updates the store's arrays in
        # place, and the cache linearizes with them on first read
        step = JointStep(
            a_hat=_stack([b.a_hat for b in bundles]), u=u, w_s=np.copy(p["ws"]),
            w=np.copy(p["W"]), omega=p["Om"], bias=p["cb"], noise=noise, tau=config.tau,
            hard=config.agent_mode == "hard", phi=config.phi, gate_axis=config.gate_axis,
        )
    hard = config.agent_mode == "hard"
    selected: list[list[int]] = [[] for _ in bundles]

    def on_iterate(x_new: np.ndarray, _it: int, items: tuple[int, ...]) -> list[str | None]:
        z = gumbel_softmax(program_state(x_new, p["ws"]), noise, config.tau)
        tops = z.argmax(axis=-1).tolist()
        reasons: list[str | None] = []
        for i in items:
            if keep_trace:
                selected[i].append(tops[i])
            reasons.append("exit-reached" if hard and tops[i] in bundles[i].graph.exits else None)
        return reasons

    solve = anderson(step, step.u.copy(), config.solver,
                     on_iterate=on_iterate if hard or keep_trace else None, stacked=True)
    if not keep_trace:
        for r in solve.results:
            del r.residuals[:-1]
    head_cache = head(ensure_finite("equilibrium", solve.x_star), p)
    return head_cache.logits.tolist(), GroupCache(
        bundles=bundles, config=config, mode=mode, ids=ids, gru=gru_cache, pool=pool_cache,
        keep=keep, step=step, solve=solve, head=head_cache, selected=selected,
    )


def bce_with_logit(logit: float, label: int) -> float:
    """Numerically stable binary cross entropy: softplus(logit) - label * logit."""
    return float(softplus(np.asarray(logit, dtype=np.float64)) - label * logit)


def bce_grad(logit: float, label: int) -> float:
    return float(sigmoid(np.asarray(logit, dtype=np.float64)) - label)


def implicit_backward(cache: GroupCache, dl_dxstar: np.ndarray) -> dict[str, np.ndarray]:
    """Adjoint solve at the equilibrium, then parameter gradients.

    Solves v = dl_dxstar + (dF/dX)^T v per graph of the group with the
    forward solver budget and returns each graph's gradients for the
    transition parameters plus the encoder cotangent under key "U". No
    per-iteration forward state is consulted.
    """
    step, sc = cache.step, cache.step_cache
    try:
        res = anderson(lambda v: dl_dxstar + step.vjp_x(sc, v), dl_dxstar.copy(),
                       cache.config.solver, stacked=True)
    except DivergenceError as exc:
        raise DivergenceError(f"adjoint-divergence: {exc}") from exc
    return step.vjp_params(sc, res.x_star)


def model_backward(cache: ForwardCache | GroupCache, store: ParamStore,
                   label: int | Sequence[int]) -> tuple[float, dict[str, np.ndarray]] | \
        tuple[list[float], dict[str, np.ndarray]]:
    """Full-model gradient for one labeled graph; returns (loss, grads).

    Given a group's cache and one label per graph, returns (per-graph
    losses, grads), each grad stacked per graph on a leading axis.
    """
    if isinstance(cache, ForwardCache):
        losses, grads = _backward_group(cache.group, store, [label])
        return losses[0], {k: v[0] for k, v in grads.items()}
    return _backward_group(cache, store, list(label))


def _backward_group(cache: GroupCache, store: ParamStore,
                    labels: list[int]) -> tuple[list[float], dict[str, np.ndarray]]:
    if len(labels) != len(cache.bundles):
        raise ValueError(f"{len(cache.bundles)} graphs need as many labels, got {len(labels)}")
    p = store.params
    losses, grads, dxstar = head_backward(cache.head, labels, p)
    adj = implicit_backward(cache, dxstar)
    grads.update({name: adj[name] for name in ("W", "Om", "cb", "ws")})
    d_hseq = encoder_tail_backward(adj["U"], cache.pool, cache.keep)
    d_emb_in, enc_grads = bigru_backward(d_hseq, cache.gru, p)
    grads.update(enc_grads)
    grads["emb"] = embed_backward(cache.ids, d_emb_in, p["emb"].shape[0])
    return losses, grads

"""Independent reference implementations used as test oracles.

Everything here is deliberately written with different algorithms/structures
than the library code it checks: dense eigensolvers instead of power
iteration, bisection instead of sorting, an instruction-level interpreter
instead of the block builder, an explicitly unrolled backprop instead of
the adjoint solve, and a full pair recount per vocabulary merge instead of
incremental pair counts.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from cfgexec.baseline import gcn_forward_backward, init_gcn_params
from cfgexec.executor import JointStep
from cfgexec.metrics import compute_metrics
from cfgexec.model import bce_grad, bce_with_logit, derive_seed, prepare_graph
from cfgexec.nn import (
    BiGruCache,
    bigru_backward,
    bigru_forward,
    embed,
    embed_backward,
    layer_norm,
    layer_norm_backward,
    sigmoid,
    time_pool,
    time_pool_backward,
)
from cfgexec.solver import (
    ANDERSON_RIDGE,
    DIVERGENCE_LIMIT,
    DivergenceError,
    SolverConfig,
    SolverResult,
    anderson,
)
from cfgexec.training import AdamState, EpochRecord, adam_step
from cfgexec.vocab import RESERVED, Vocab, VocabError


def dense_spectral_radius(m: np.ndarray) -> float:
    """Spectral radius via the dense eigensolver."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(m, dtype=np.float64)))))


def pf_eigenvalue_reference(matrix: np.ndarray, max_iter: int = 1000,
                            tol: float = 1e-12) -> float:
    """Power iteration on |M| + I with two matrix-vector products per step:
    one for the next iterate and one for its Rayleigh quotient."""
    m = np.abs(np.asarray(matrix, dtype=np.float64))
    n = m.shape[0]
    if n == 0 or not m.any():
        return 0.0
    ms = m + np.eye(n)
    x = np.full(n, 1.0 / np.sqrt(n))
    lam = 0.0
    for _ in range(max_iter):
        y = ms @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        x = y / norm
        lam_new = float(x @ (ms @ x))
        if abs(lam_new - lam) < tol * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        lam = lam_new
    return max(lam - 1.0, 0.0)


def anderson_reference(f, x0, cfg: SolverConfig, tol=None, on_iterate=None) -> SolverResult:
    """Anderson acceleration with the window held as lists, stacked into an
    (N, k) matrix every step; the library keeps it in preallocated buffers
    and must give the same bits."""
    shape = np.asarray(x0).shape
    x = np.asarray(x0).ravel().copy()
    tol = cfg.resolve_tol(x.dtype) if tol is None else tol
    fxs: list[np.ndarray] = []
    gs: list[np.ndarray] = []
    residuals: list[float] = []
    fallback_steps: list[int] = []
    for it in range(1, cfg.max_iter + 1):
        fx = f(x.reshape(shape)).ravel()
        fxs.append(fx)
        gs.append(fx - x)
        if len(fxs) > cfg.m:
            fxs.pop(0)
            gs.pop(0)
        gap = float(np.linalg.norm(gs[-1]))
        res = float(gap / (np.linalg.norm(x) + 1e-12))
        residuals.append(res)
        if gap > DIVERGENCE_LIMIT or not np.isfinite(gap):
            raise DivergenceError(f"divergence: residual {gap:.3e} at iteration {it}")
        reason = None if on_iterate is None else on_iterate(fx.reshape(shape), it)
        if res < tol:
            return SolverResult(fx.reshape(shape), residuals, it, True, fallback_steps)
        if reason is not None:
            return SolverResult(fx.reshape(shape), residuals, it, False,
                                fallback_steps, stop_reason=reason)
        k = len(gs)
        if k == 1:
            x = fx.copy()
            continue
        G = np.stack(gs, axis=1).astype(np.float64)
        g_last = G[:, -1]
        D = G[:, :-1] - g_last[:, None]
        gram = D.T @ D
        lhs = gram + ANDERSON_RIDGE * (float(np.trace(gram)) / (k - 1)) * np.eye(k - 1)
        rhs = -(D.T @ g_last)
        try:
            beta = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            beta = None
        if beta is None or not np.isfinite(beta).all():
            fallback_steps.append(it)
            x = fx.copy()
        else:
            alpha = np.concatenate([beta, [1.0 - beta.sum()]]).astype(fx.dtype)
            x = np.stack(fxs, axis=1) @ alpha
    return SolverResult(x.reshape(shape), residuals, len(residuals), False, fallback_steps)


def sigmoid_reference(x: np.ndarray) -> np.ndarray:
    """Two-branch sigmoid by boolean masks: 1 / (1 + e^-x) where x >= 0,
    e^x / (1 + e^x) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def l1_projection_bisection(v: np.ndarray, radius: float) -> np.ndarray:
    """L1-ball projection by bisecting on the soft threshold."""
    v = np.asarray(v, dtype=np.float64)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    lo, hi = 0.0, a.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(a - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def pairwise_auc(scores, labels) -> float:
    """Brute-force Mann-Whitney concordance over all positive/negative pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def scalar_gru_cell(x, h_prev, wr, ur, br, wu, uu, bu, wc, uc, bc):
    """Single-feature GRU step written as straight-line scalar arithmetic."""
    import math

    r = 1.0 / (1.0 + math.exp(-(x * wr + h_prev * ur + br)))
    u = 1.0 / (1.0 + math.exp(-(x * wu + h_prev * uu + bu)))
    c = math.tanh(x * wc + r * h_prev * uc + bc)
    return (1.0 - u) * h_prev + u * c


def bigru_forward_reference(x: np.ndarray, params, mask: np.ndarray):
    """Bidirectional GRU run one direction after the other, each gate with its
    own two products, writing each state into its half of the concatenated
    output. The library advances both directions in one loop, stacked with
    the reset and update gates, and must give the same output and caches."""
    *lead, n, v, _ = x.shape
    h = params["gruf_Ur"].shape[0]
    masks = mask.astype(x.dtype)
    concat = np.empty((*x.shape[:-1], 2 * h), dtype=x.dtype)
    caches = []
    for prefix, half, steps in (("gruf", slice(None, h), range(v)),
                                ("grub", slice(h, None), range(v - 1, -1, -1))):
        wr, ur, br, wu, uu, bu, wc, uc, bc = (
            params[f"{prefix}_{k}"] for k in ("Wr", "Ur", "br", "Wu", "Uu", "bu", "Wc", "Uc", "bc"))
        state = np.zeros((*lead, n, h), dtype=x.dtype)
        direction = []
        for t in steps:
            m = masks[..., t, None]
            xt = x[..., t, :]
            r = sigmoid(xt @ wr + state @ ur + br)
            u = sigmoid(xt @ wu + state @ uu + bu)
            c = np.tanh(xt @ wc + (r * state) @ uc + bc)
            h_new = (1.0 - u) * state + u * c
            direction.append((xt, m, state, r, u, c))
            kept = m * h_new
            concat[..., t, half] = kept
            state = kept + (1.0 - m) * state
        caches.append(direction)
    mixed = concat @ params["mix_W"] + params["mix_b"]
    mixed = mixed * mask[..., None].astype(x.dtype)
    # the cache stacks the directions' inputs, masks and step values
    xs, ms = (np.stack([np.stack([step[k] for step in d], axis=-2) for d in caches])
              for k in (0, 1))
    steps = [tuple(np.stack((f[k], b[k])) for k in (2, 3, 4, 5)) for f, b in zip(*caches)]
    return mixed, BiGruCache(xs, ms, steps, concat, mask)


def interpret_cfg(lines: list[tuple[str, str]], labels: dict[str, int]):
    """Instruction-level CFG reference: mark leaders, then derive block edges.

    `lines` holds (mnemonic, operand) pairs for one function; `labels` maps a
    label name to the index of the instruction it precedes. Returns
    (blocks, edges) with blocks as index tuples.
    """
    n = len(lines)
    rets = {"ret", "retn", "retf", "iret", "iretd", "iretq"}
    jmps = {"jmp", "jmpq", "ljmp"}
    calls = {"call", "callq", "lcall"}

    def is_cond(m: str) -> bool:
        return m.startswith("j") and m not in jmps and 1 <= len(m) - 1 <= 4 and m.isalpha()

    # per-instruction successor sets
    succ: dict[int, set[int]] = {i: set() for i in range(n)}
    for i, (m, op) in enumerate(lines):
        if m in rets:
            continue
        if m in jmps:
            if op in labels and labels[op] < n:
                succ[i].add(labels[op])
            continue
        if is_cond(m):
            if op in labels and labels[op] < n:
                succ[i].add(labels[op])
            if i + 1 < n:
                succ[i].add(i + 1)
            continue
        if i + 1 < n:
            succ[i].add(i + 1)
    leaders = {0}
    for i, (m, op) in enumerate(lines):
        if m in rets or m in jmps or m in calls or is_cond(m):
            if i + 1 < n:
                leaders.add(i + 1)
    for idx in labels.values():
        if idx < n:
            leaders.add(idx)
    starts = sorted(leaders)
    block_of = {}
    blocks = []
    for bi, s in enumerate(starts):
        e = starts[bi + 1] if bi + 1 < len(starts) else n
        blocks.append(tuple(range(s, e)))
        for i in range(s, e):
            block_of[i] = bi
    edges = set()
    for bi, block in enumerate(blocks):
        last = block[-1]
        for j in succ[last]:
            if block_of[j] != bi:
                edges.add((bi, block_of[j]))
    return blocks, sorted(edges)


def unrolled_model_grads(bundle, store, config, seed: int, label: int, steps: int = 100):
    """Backprop through an explicitly unrolled transition stack.

    Runs the composite update `steps` times from X0 = U with the same frozen
    noise the solver path uses, keeps every intermediate cache, and walks the
    chain rule backward step by step. The X0 = U initialization path is
    included (it vanishes geometrically with depth).
    """
    p = store.params
    x_emb = embed(bundle.ids, p["emb"])
    h_seq, gru_cache = bigru_forward(x_emb, p, bundle.mask)
    u, pool_cache = time_pool(h_seq, bundle.mask)
    noise = np.random.default_rng(derive_seed(seed, "gumbel")).gumbel(
        size=bundle.n).astype(config.dtype)
    step = JointStep(a_hat=bundle.a_hat, u=u, w_s=p["ws"], w=p["W"], omega=p["Om"],
                     bias=p["cb"], noise=noise, tau=config.tau, hard=False,
                     phi=config.phi, gate_axis=config.gate_axis)
    x = u.copy()
    caches = []
    for _ in range(steps):
        x, cache = step.forward_cached(x)
        caches.append(cache)
    n = bundle.n
    pooled = x.mean(axis=0)
    g_vec, ln_cache = layer_norm(pooled, p["ln_g"], p["ln_b"])
    logit = float(p["wp"] @ g_vec)
    loss = bce_with_logit(logit, label)
    dlogit = bce_grad(logit, label)
    grads = {"wp": dlogit * g_vec}
    dg = dlogit * p["wp"]
    dpool, grads["ln_g"], grads["ln_b"] = layer_norm_backward(dg.astype(g_vec.dtype), ln_cache)
    v = np.repeat((dpool / n)[None, :], n, axis=0)
    acc = {k: None for k in ("W", "Om", "cb", "ws", "U")}
    for cache in reversed(caches):
        pg = step.vjp_params(cache, v)
        for k in acc:
            acc[k] = pg[k] if acc[k] is None else acc[k] + pg[k]
        v = step.vjp_x(cache, v)
    acc["U"] = acc["U"] + v  # initialization path
    for k in ("W", "Om", "cb", "ws"):
        grads[k] = acc[k]
    d_hseq = time_pool_backward(acc["U"], pool_cache)
    d_emb_in, enc_grads = bigru_backward(d_hseq, gru_cache, p)
    grads.update(enc_grads)
    grads["emb"] = embed_backward(bundle.ids, d_emb_in, p["emb"].shape[0])
    return loss, grads, float(np.abs(step(x) - x).max())


def entry_response_by_hop(bundle, step, x_star, eps: float = 1e-5,
                          tol: float = 1e-13) -> dict[int, float]:
    """Sensitivity of the equilibrium to the entry block's injected features.

    Central differences of re-solved equilibria, one per feature of U at the
    entry, so no transition VJP is involved. Returns, per directed hop
    distance d from the entry, the largest Frobenius norm of
    dX*_k / dU_entry over blocks k at distance d.
    """
    entry = bundle.graph.entry
    n, h = x_star.shape
    cfg = SolverConfig(max_iter=500, tol=tol)
    sens = np.zeros((n, h, h))
    for c in range(h):
        sides = []
        for sign in (1.0, -1.0):
            u = step.u.copy()
            u[entry, c] += sign * eps
            res = anderson(replace(step, u=u), x_star.copy(), cfg)
            assert res.converged
            sides.append(res.x_star)
        sens[:, :, c] = (sides[0] - sides[1]) / (2.0 * eps)
    dist = {entry: 0}
    queue = [entry]
    for i in queue:  # breadth-first over directed edges
        for j in map(int, np.nonzero(bundle.graph.adjacency[i])[0]):
            if j not in dist:
                dist[j] = dist[i] + 1
                queue.append(j)
    out: dict[int, float] = {}
    for k, d in dist.items():
        out[d] = max(out.get(d, 0.0), float(np.linalg.norm(sens[k])))
    return out


def max_param_rel_err(a: dict, b: dict) -> float:
    worst = 0.0
    for k in a:
        x = np.asarray(a[k], dtype=np.float64)
        y = np.asarray(b[k], dtype=np.float64)
        denom = np.maximum(np.maximum(np.abs(x), np.abs(y)), 1e-8)
        worst = max(worst, float(np.max(np.abs(x - y) / denom)))
    return worst


def train_gcn_reference(dataset, config, eval_dataset, layers: int = 2,
                        vocab_size: int | None = None):
    """The GCN baseline's training as a standalone loop of its own: shuffle,
    batches, f64 gradient sums in batch order, Adam, the eval pass, and a stop
    once an epoch's mean train loss falls below 0.02.

    Returns (store, eval history, best accuracy, best AUC, accuracy at the
    best AUC).
    """
    train_bundles = [prepare_graph(g, config) for g in dataset]
    eval_bundles = [prepare_graph(g, config) for g in eval_dataset]
    if vocab_size is None:
        vocab_size = 1 + max(max((max(seq) if seq else 0) for seq in g.nodes)
                             for g in list(dataset) + list(eval_dataset))
    store = init_gcn_params(config, vocab_size, layers, config.seed)
    adam = AdamState.init(store)
    history = []
    best_acc = best_auc = acc_at_best_auc = 0.0
    for epoch in range(1, config.epochs + 1):
        order = np.random.default_rng(derive_seed(config.seed, "shuffle", epoch)).permutation(
            len(train_bundles))
        losses = []
        for lo in range(0, len(order), config.batch_size):
            batch = [train_bundles[i] for i in order[lo : lo + config.batch_size]]
            summed = None
            for b in batch:
                seed = derive_seed(config.seed, "train", epoch, b.graph.id)
                _, loss, grads = gcn_forward_backward(b, store, config, layers, "train",
                                                      seed, b.label)
                losses.append(loss)
                if summed is None:
                    summed = {k: v.astype(np.float64) for k, v in grads.items()}
                else:
                    for k, v in grads.items():
                        summed[k] += v
            adam_step(store, {k: v / len(batch) for k, v in summed.items()}, config, adam)
        scores, labels, eval_losses = [], [], []
        for b in eval_bundles:
            logit, _, _ = gcn_forward_backward(b, store, config, layers, "eval",
                                               derive_seed(config.seed, "eval", b.graph.id),
                                               None)
            scores.append(float(sigmoid(np.asarray(logit, dtype=np.float64))))
            labels.append(b.label)
            eval_losses.append(bce_with_logit(logit, b.label))
        report = compute_metrics(np.array(scores), np.array(labels))
        history.append(EpochRecord(epoch, "eval", float(np.mean(eval_losses)), report))
        best_acc = max(best_acc, report.accuracy)
        if report.auc_defined and report.auc > best_auc:
            best_auc = report.auc
            acc_at_best_auc = report.accuracy
        if float(np.mean(losses)) < 0.02:
            break
    return store, history, best_acc, best_auc, acc_at_best_auc


def train_vocab_reference(corpus, target_size: int) -> Vocab:
    """Greedy pair-merge vocabulary that recounts every adjacent pair of every
    distinct token and rewrites every token at each merge: the loop
    `vocab.train_vocab` replaced with incremental pair counts."""
    tokens: dict[tuple[str, ...], int] = {}
    for tok in corpus:
        if not tok:
            continue
        key = tuple(tok)
        tokens[key] = tokens.get(key, 0) + 1
    charset = sorted({c for key in tokens for c in key})
    if target_size < len(charset) + len(RESERVED):
        raise VocabError(
            "target-size-too-small",
            f"need at least {len(charset) + len(RESERVED)} pieces, got {target_size}",
        )
    pieces: list[str] = list(RESERVED) + charset
    work = dict(tokens)
    while len(pieces) < target_size:
        counts: dict[tuple[str, str], int] = {}
        for key, freq in work.items():
            for i in range(len(key) - 1):
                pair = (key[i], key[i + 1])
                counts[pair] = counts.get(pair, 0) + freq
        fresh = [(pair, n) for pair, n in counts.items() if pair[0] + pair[1] not in pieces]
        if not fresh:
            break
        best = min(fresh, key=lambda kv: (-kv[1], kv[0]))[0]
        merged = best[0] + best[1]
        pieces.append(merged)
        new_work: dict[tuple[str, ...], int] = {}
        for key, freq in work.items():
            out: list[str] = []
            i = 0
            while i < len(key):
                if i + 1 < len(key) and key[i] == best[0] and key[i + 1] == best[1]:
                    out.append(merged)
                    i += 2
                else:
                    out.append(key[i])
                    i += 1
            new_key = tuple(out)
            new_work[new_key] = new_work.get(new_key, 0) + freq
        work = new_work
    return Vocab(pieces=tuple(pieces))

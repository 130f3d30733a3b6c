"""Fixed-depth GCN baseline for the receptive-field comparison.

Shares the token encoder, pooling, prediction head and training loop with
the equilibrium model but replaces the solved transition with a fixed stack
of ungated message-passing layers trained by ordinary backprop. With k layers
a node sees exactly its k-hop in-neighborhood, which is the property the
synthetic long-chain benchmark stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .graphs import CfgGraph
from .metrics import MetricsReport, compute_metrics
from .model import (
    GraphBundle,
    bce_grad,
    bce_with_logit,
    derive_seed,
    init_model_params,
    prepare_graph,
)
from .nn import (
    ACTIVATIONS,
    ParamStore,
    bigru_backward,
    bigru_forward,
    dropout_mask,
    embed,
    embed_backward,
    layer_norm,
    layer_norm_backward,
    sigmoid,
    time_pool,
    time_pool_backward,
)
from . import training
from .training import AdamState, EpochRecord, TrainConfig


def init_gcn_params(config: TrainConfig, vocab_size: int, layers: int, seed: int = 0) -> ParamStore:
    store = init_model_params(config, vocab_size, seed)
    rng = np.random.default_rng(derive_seed(seed, "gcn"))
    for name in ("ws", "W", "Om", "cb"):
        del store.params[name]
    h = config.h
    for layer in range(layers):
        store.params[f"gcn_W{layer}"] = (rng.normal(size=(h, h)) * 0.1).astype(config.dtype)
    return store


def gcn_forward_backward(bundle: GraphBundle, store: ParamStore, config: TrainConfig,
                         layers: int, mode: str, seed: int,
                         label: int | None) -> tuple[float, float | None, dict | None]:
    """One GCN pass; returns (logit, loss, grads). Grads only when label given.

    Layer update: X_{l+1} = phi(A_hat^T X_l W_l) with X_0 the pooled encoder
    output; then the usual layer-normalized mean pooling and linear head.
    """
    p = store.params
    act, dact = ACTIVATIONS[config.phi]
    x_emb = embed(bundle.ids, p["emb"])
    h_seq, gru_cache = bigru_forward(x_emb, p, bundle.mask)
    u0, pool_cache = time_pool(h_seq, config.pool, bundle.mask)
    keep = None
    if mode == "train" and config.dropout > 0.0:
        keep = dropout_mask(u0.shape, config.dropout,
                            np.random.default_rng(derive_seed(seed, "dropout")), config.dtype)
        x = u0 * keep
    else:
        x = u0
    layer_in: list[np.ndarray] = []
    layer_pre: list[np.ndarray] = []
    for layer in range(layers):
        layer_in.append(x)
        pre = (bundle.a_hat.T @ x) @ p[f"gcn_W{layer}"]
        layer_pre.append(pre)
        x = act(pre)
    pooled = x.mean(axis=0)
    g_vec, ln_cache = layer_norm(pooled, p["ln_g"], p["ln_b"])
    logit = float(p["wp"] @ g_vec)
    if label is None:
        return logit, None, None
    loss = bce_with_logit(logit, label)
    dlogit = bce_grad(logit, label)
    grads: dict[str, np.ndarray] = {"wp": (dlogit * g_vec).astype(p["wp"].dtype)}
    dg = (dlogit * p["wp"]).astype(g_vec.dtype)
    dpool, grads["ln_g"], grads["ln_b"] = layer_norm_backward(dg, ln_cache)
    dx = np.repeat((dpool / bundle.n)[None, :], bundle.n, axis=0)
    for layer in reversed(range(layers)):
        dpre = dx * dact(act(layer_pre[layer]), layer_pre[layer])
        grads[f"gcn_W{layer}"] = (bundle.a_hat.T @ layer_in[layer]).T @ dpre
        dx = bundle.a_hat @ (dpre @ p[f"gcn_W{layer}"].T)
    if keep is not None:
        dx = dx * keep
    d_hseq = time_pool_backward(dx, pool_cache)
    d_emb_in, enc_grads = bigru_backward(d_hseq, gru_cache, p)
    grads.update(enc_grads)
    grads["emb"] = embed_backward(bundle.ids, d_emb_in, p["emb"].shape[0])
    return logit, loss, grads


@dataclass
class GcnResult:
    store: ParamStore
    history: list[EpochRecord]  # the eval records, one per epoch
    best_accuracy: float
    best_auc: float
    acc_at_best_auc: float


class _GcnSteps:
    """The GCN's part of training.run_epochs: one gcn_forward_backward call
    per graph, each graph's gradients given before the next runs, and Adam."""

    def __init__(self, store: ParamStore, config: TrainConfig, layers: int) -> None:
        self.store, self.config, self.layers = store, config, layers
        self.adam = AdamState.init(store)

    def train_window(self, window: Sequence[GraphBundle], epoch: int) -> Iterator[tuple]:
        return (gcn_forward_backward(b, self.store, self.config, self.layers, "train",
                                     derive_seed(self.config.seed, "train", epoch, b.graph.id),
                                     b.label) for b in window)

    def step(self, members: np.ndarray, grads: dict[str, np.ndarray]) -> None:
        training.adam_step(self.store, grads, self.config, self.adam, lambda_pf_max=0.0)

    def eval_pass(self, bundles: Sequence[GraphBundle]) -> tuple[float, MetricsReport, list]:
        scores, labels, losses = [], [], []
        for b in bundles:
            logit, _, _ = gcn_forward_backward(
                b, self.store, self.config, self.layers, "eval",
                derive_seed(self.config.seed, "eval", b.graph.id), None)
            scores.append(float(sigmoid(np.asarray(logit, dtype=np.float64))))
            labels.append(b.label)
            losses.append(bce_with_logit(logit, b.label))
        return float(np.mean(losses)), compute_metrics(np.array(scores), np.array(labels)), scores


def train_gcn(dataset: Sequence[CfgGraph], config: TrainConfig,
              eval_dataset: Sequence[CfgGraph], layers: int = 2,
              vocab_size: int | None = None) -> GcnResult:
    """Train the baseline with ordinary backprop and Adam (no projection)
    through training.run_epochs, until an epoch's mean train loss falls below
    0.02 or config.epochs have run."""
    vocab_size = training.check_inputs(dataset, eval_dataset, vocab_size)
    train_bundles = [prepare_graph(g, config) for g in dataset]
    eval_bundles = [prepare_graph(g, config) for g in eval_dataset]
    steps = _GcnSteps(init_gcn_params(config, vocab_size, layers, config.seed), config, layers)
    history: list[EpochRecord] = []
    best_acc = best_auc = acc_at_best_auc = 0.0
    for rec_train, rec_eval in training.run_epochs(steps, train_bundles, eval_bundles, config):
        history.append(rec_eval)
        report = rec_eval.report
        best_acc = max(best_acc, report.accuracy)
        if report.auc_defined and report.auc > best_auc:
            best_auc, acc_at_best_auc = report.auc, report.accuracy
        if rec_train.loss < 0.02:
            break
    return GcnResult(store=steps.store, history=history, best_accuracy=best_acc,
                     best_auc=best_auc, acc_at_best_auc=acc_at_best_auc)

"""Fixed-depth GCN baseline for the receptive-field comparison.

Shares the token encoder, pooling, prediction head, training loop and eval
scoring with the equilibrium model but replaces the solved transition with a
fixed stack of ungated message-passing layers trained by ordinary backprop.
With k layers a node sees exactly its k-hop in-neighborhood, which is the
property the synthetic long-chain benchmark stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .graphs import CfgGraph
from .metrics import MetricsReport
from .model import (
    GraphBundle,
    derive_seed,
    encoder_tail,
    encoder_tail_backward,
    head,
    head_backward,
    init_model_params,
    prepare_graph,
)
from .nn import ACTIVATIONS, ParamStore, bigru_backward, bigru_forward, embed, embed_backward
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

    Layer update: X_{l+1} = phi(A_hat^T X_l W_l) with X_0 the encoder's block
    states; the encoder and the head are the equilibrium model's.
    """
    p = store.params
    act, dact = ACTIVATIONS[config.phi]
    x_emb = embed(bundle.ids, p["emb"])
    h_seq, gru_cache = bigru_forward(x_emb, p, bundle.mask)
    x, pool_cache, keep = encoder_tail(h_seq, bundle.mask, config, mode, [seed])
    layer_in: list[np.ndarray] = []
    layer_pre: list[np.ndarray] = []
    for layer in range(layers):
        layer_in.append(x)
        pre = (bundle.a_hat.T @ x) @ p[f"gcn_W{layer}"]
        layer_pre.append(pre)
        x = act(pre)
    head_cache = head(x, p)
    logit = float(head_cache.logits)
    if label is None:
        return logit, None, None
    (loss,), grads, dx = head_backward(head_cache, [label], p)
    for layer in reversed(range(layers)):
        dpre = dx * dact(act(layer_pre[layer]), layer_pre[layer])
        grads[f"gcn_W{layer}"] = (bundle.a_hat.T @ layer_in[layer]).T @ dpre
        dx = bundle.a_hat @ (dpre @ p[f"gcn_W{layer}"].T)
    d_hseq = encoder_tail_backward(dx, pool_cache, keep)
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

    def train_window(self, window: Sequence[GraphBundle], seeds: Sequence[int]) -> Iterator[tuple]:
        return (gcn_forward_backward(b, self.store, self.config, self.layers, "train", seed,
                                     b.label) for b, seed in zip(window, seeds))

    def step(self, members: np.ndarray, grads: dict[str, np.ndarray]) -> None:
        training.adam_step(self.store, grads, self.config, self.adam)

    def eval_pass(self, bundles: Sequence[GraphBundle]) -> tuple[float, MetricsReport, list]:
        # eval mode draws no dropout, so no graph needs a seed of its own
        return training.score_draws(bundles, [
            [gcn_forward_backward(b, self.store, self.config, self.layers, "eval", 0, None)[0]]
            for b in bundles])


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

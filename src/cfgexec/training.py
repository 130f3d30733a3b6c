"""Training loop: Adam with the well-posedness projection after every step,
per-epoch metrics logging, and bit-exact checkpointing.

Graphs in a batch are processed independently and their gradients averaged.
All randomness (shuffling, Gumbel noise, dropout) is derived statelessly from
(seed, epoch, graph id), which makes interrupted runs resume bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .graphs import CfgGraph, GraphValidationError
from .metrics import MetricsReport, compute_metrics
from .model import (
    GraphBundle,
    ModelConfig,
    bce_with_logit,
    derive_seed,
    forward,
    init_model_params,
    model_backward,
    prepare_graph,
)
from .nn import NumericError, ParamStore, sigmoid
from .solver import SolverConfig, project_wellposed

CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class TrainConfig(ModelConfig):
    """Model settings plus optimizer hyperparameters (defaults per the method)."""

    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 192
    epochs: int = 50
    seed: int = 0
    eval_noise_seeds: int = 1

    def __post_init__(self) -> None:
        for name in ("lr", "beta1", "beta2", "adam_eps", "batch_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    # smoothed batch-max gated PF eigenvalue; it sets the projection radius
    # whenever it exceeds the ungated bound lambda_hat
    lambda_ref: float = 0.0

    @classmethod
    def init(cls, store: ParamStore) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in store.params.items()},
            v={k: np.zeros_like(p) for k, p in store.params.items()},
        )

    def update_lambda(self, lambda_batch: float, decay: float = 0.9) -> float:
        """Smooth the per-batch max so one sharp agent draw cannot dominate the
        reported eigenvalue or, through it, the projection radius."""
        if self.lambda_ref <= 0.0:
            self.lambda_ref = lambda_batch
        else:
            self.lambda_ref = decay * self.lambda_ref + (1.0 - decay) * lambda_batch
        return self.lambda_ref


def adam_step(store: ParamStore, grads: Mapping[str, np.ndarray], config: TrainConfig,
              state: AdamState, lambda_pf_max: float) -> None:
    """Bias-corrected Adam update, then project W back into the well-posed set.

    lambda_pf_max bounds the Perron-Frobenius eigenvalue of every gated
    adjacency the updated W will be applied to; the projection keeps
    ||W||_inf <= kappa / lambda_pf_max so every graph's transition stays a
    contraction.
    """
    state.t += 1
    b1c = 1.0 - config.beta1 ** state.t
    b2c = 1.0 - config.beta2 ** state.t
    for name, p in store.params.items():
        g = grads[name].astype(p.dtype, copy=False)
        state.m[name] = config.beta1 * state.m[name] + (1.0 - config.beta1) * g
        state.v[name] = config.beta2 * state.v[name] + (1.0 - config.beta2) * (g * g)
        m_hat = state.m[name] / b1c
        v_hat = state.v[name] / b2c
        p -= (config.lr * m_hat / (np.sqrt(v_hat) + config.adam_eps)).astype(p.dtype)
    frozen = store.frozen.get("emb")
    if frozen is not None:
        store.params["emb"][frozen] = 0.0
    if "W" in store.params:
        store.params["W"] = project_wellposed(store.params["W"], lambda_pf_max, config.kappa)


# ---------------------------------------------------------------------------
# checkpointing: JSON manifest + flat little-endian binary blob


def save_checkpoint(path: str | Path, store: ParamStore, config: TrainConfig,
                    adam: AdamState, epoch: int) -> None:
    """Write `<path>.json` (manifest) and `<path>.bin` (tensor blob)."""
    base = Path(path)
    order: list[tuple[str, str, np.ndarray]] = []
    for name in sorted(store.params):
        order.append((name, "param", store.params[name]))
    for name in sorted(adam.m):
        order.append((name, "adam_m", adam.m[name]))
        order.append((name, "adam_v", adam.v[name]))
    dtype = "<f8" if config.precision == "f64" else "<f4"
    blob = bytearray()
    index = []
    for name, role, arr in order:
        flat = np.ascontiguousarray(arr, dtype=dtype).tobytes()
        index.append({"name": name, "role": role, "offset": len(blob),
                      "shape": list(arr.shape)})
        blob.extend(flat)
    cfg = asdict(config)
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": cfg,
        "epoch": epoch,
        "adam_t": adam.t,
        "lambda_ref": adam.lambda_ref,
        "rng": {"seed": config.seed},
        "dtype": dtype,
        "tensors": index,
    }
    base.with_suffix(".json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    base.with_suffix(".bin").write_bytes(bytes(blob))


def load_checkpoint(path: str | Path) -> tuple[ParamStore, TrainConfig, AdamState, int]:
    base = Path(path)
    manifest = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
    if manifest.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {manifest.get('format_version')!r}")
    blob = base.with_suffix(".bin").read_bytes()
    cfg_dict = dict(manifest["config"])
    cfg_dict["solver"] = SolverConfig(**cfg_dict["solver"])
    config = TrainConfig(**cfg_dict)
    dtype = np.dtype(manifest["dtype"])
    params: dict[str, np.ndarray] = {}
    adam_m: dict[str, np.ndarray] = {}
    adam_v: dict[str, np.ndarray] = {}
    for rec in manifest["tensors"]:
        shape = tuple(rec["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(blob, dtype=dtype, count=count,
                            offset=rec["offset"]).reshape(shape).copy()
        target = {"param": params, "adam_m": adam_m, "adam_v": adam_v}[rec["role"]]
        target[rec["name"]] = arr
    frozen = np.zeros(params["emb"].shape, dtype=bool)
    frozen[0] = True
    store = ParamStore(params=params, frozen={"emb": frozen},
                       rng=np.random.default_rng(derive_seed(config.seed, "store")))
    adam = AdamState(m=adam_m, v=adam_v, t=manifest["adam_t"],
                     lambda_ref=manifest.get("lambda_ref", 0.0))
    return store, config, adam, int(manifest["epoch"])


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochRecord:
    epoch: int
    split: str
    loss: float
    report: MetricsReport


@dataclass
class TrainResult:
    store: ParamStore
    best_store: ParamStore
    best_auc: float
    best_epoch: int
    history: list[EpochRecord]
    lambda_pf_max: float
    adam: AdamState
    last_epoch: int
    max_w_violation: float = -np.inf  # max over steps of ||W||_inf - kappa/lambda_ref


CSV_HEADER = "epoch,split,loss,accuracy,precision,recall,f1,auc"


def metrics_csv_rows(history: Sequence[EpochRecord]) -> list[str]:
    rows = [CSV_HEADER]
    for rec in history:
        r = rec.report
        vals = [rec.loss, r.accuracy, r.precision, r.recall, r.f1, r.auc]
        rows.append(",".join([str(rec.epoch), rec.split] + [f"{v:.10g}" for v in vals]))
    return rows


def write_metrics_csv(history: Sequence[EpochRecord], path: str | Path) -> None:
    Path(path).write_text("\n".join(metrics_csv_rows(history)) + "\n", encoding="utf-8")


def evaluate(bundles: Sequence[GraphBundle], store: ParamStore, config: TrainConfig,
             seed_tag: str = "eval", noise_seeds: int = 1) -> tuple[float, MetricsReport, list[float]]:
    """Eval-mode pass over a split; returns (mean loss, metrics, scores).

    noise_seeds > 1 averages scores over that many frozen agent-noise draws
    per graph, which tightens metrics without touching determinism (the
    seeds are derived from the config seed and graph id).
    """
    scores: list[float] = []
    labels: list[int] = []
    losses: list[float] = []
    for b in bundles:
        if b.label is None:
            raise GraphValidationError("label-missing", f"graph {b.graph.id!r} has no label")
        probs = []
        for k in range(noise_seeds):
            logit, _ = forward(b, store, config, mode="eval",
                               seed=derive_seed(config.seed, seed_tag, b.graph.id, k))
            probs.append(float(sigmoid(np.asarray(logit, dtype=np.float64))))
            if k == 0:
                losses.append(bce_with_logit(logit, b.label))
        scores.append(float(np.mean(probs)))
        labels.append(b.label)
    report = compute_metrics(np.array(scores), np.array(labels))
    return float(np.mean(losses)), report, scores


def train(
    dataset: Sequence[CfgGraph],
    config: TrainConfig,
    eval_dataset: Sequence[CfgGraph] | None = None,
    store: ParamStore | None = None,
    adam: AdamState | None = None,
    start_epoch: int = 0,
    vocab_size: int | None = None,
    early_stop: Callable[[EpochRecord], bool] | None = None,
    on_epoch: Callable[[EpochRecord], None] | None = None,
) -> TrainResult:
    """Train on labeled graphs; returns final and best-AUC parameters plus history.

    When eval_dataset is None the input is split 75/25 with the config seed.
    Passing store/adam/start_epoch continues an interrupted run exactly.
    """
    from .synth import split as split_dataset  # local import to avoid a cycle

    if not dataset:
        raise ValueError("empty-dataset")
    if eval_dataset is None:
        dataset, eval_dataset = split_dataset(dataset, 0.75, config.seed)
    for g in list(dataset) + list(eval_dataset):
        if g.label is None:
            raise GraphValidationError("label-missing", f"graph {g.id!r} has no label")
    train_bundles = [prepare_graph(g, config) for g in dataset]
    eval_bundles = [prepare_graph(g, config) for g in eval_dataset]
    if vocab_size is None:
        vocab_size = 1 + max(max((max(seq) if seq else 0) for seq in g.nodes)
                             for g in list(dataset) + list(eval_dataset))
    if store is None:
        store = init_model_params(config, vocab_size, config.seed)
    if adam is None:
        adam = AdamState.init(store)
    history: list[EpochRecord] = []
    best_auc = -np.inf
    best_epoch = -1
    best_store = store.copy()
    lambda_pf_max_seen = 0.0
    max_w_violation = -np.inf
    last_epoch = start_epoch
    for epoch in range(start_epoch + 1, config.epochs + 1):
        last_epoch = epoch
        order = np.random.default_rng(derive_seed(config.seed, "shuffle", epoch)).permutation(
            len(train_bundles))
        train_scores: list[float] = []
        train_labels: list[int] = []
        train_losses: list[float] = []
        for lo in range(0, len(order), config.batch_size):
            batch = [train_bundles[i] for i in order[lo : lo + config.batch_size]]
            summed: dict[str, np.ndarray] | None = None
            lambda_batch = 0.0
            for b in batch:
                seed = derive_seed(config.seed, "train", epoch, b.graph.id)
                logit, cache = forward(b, store, config, mode="train", seed=seed)
                loss, grads = model_backward(cache, store, b.label)
                if not np.isfinite(loss):
                    raise NumericError(f"nan-detected: loss for graph {b.graph.id!r}")
                train_losses.append(loss)
                train_scores.append(float(sigmoid(np.asarray(logit, dtype=np.float64))))
                train_labels.append(b.label)
                lambda_batch = max(lambda_batch, cache.lambda_gated)
                if summed is None:
                    summed = {k: v.astype(np.float64) for k, v in grads.items()}
                else:
                    for k, v in grads.items():
                        summed[k] += v
            mean_grads = {k: (v / len(batch)) for k, v in summed.items()}
            lambda_pf_max_seen = max(lambda_pf_max_seen, lambda_batch)
            lambda_ref = adam.update_lambda(lambda_batch)
            # Agent gates lie in [0, 1], so no gated eigenvalue exceeds the
            # ungated one (1 for a renormalized adjacency). Projecting against
            # it bounds ||W||_inf * lambda_gated by kappa on every graph and
            # agent draw, including the next batch's; the smoothed estimate
            # lags the draws it summarizes and the per-draw estimates are
            # coarse, so neither can.
            lambda_bound = max(b.lambda_hat for b in batch)
            adam_step(store, mean_grads, config, adam, max(lambda_ref, lambda_bound))
            w_inf = float(np.abs(store.params["W"]).sum(axis=1).max())
            max_w_violation = max(max_w_violation, w_inf - config.kappa / lambda_ref)
        train_report = compute_metrics(np.array(train_scores), np.array(train_labels))
        rec_train = EpochRecord(epoch, "train", float(np.mean(train_losses)), train_report)
        history.append(rec_train)
        eval_loss, eval_report, _ = evaluate(eval_bundles, store, config,
                                             noise_seeds=config.eval_noise_seeds)
        rec_eval = EpochRecord(epoch, "eval", eval_loss, eval_report)
        history.append(rec_eval)
        if on_epoch is not None:
            on_epoch(rec_eval)
        if eval_report.auc_defined and eval_report.auc > best_auc:
            best_auc = eval_report.auc
            best_epoch = epoch
            best_store = store.copy()
        if early_stop is not None and early_stop(rec_eval):
            break
    return TrainResult(store=store, best_store=best_store, best_auc=float(best_auc),
                       best_epoch=best_epoch, history=history,
                       lambda_pf_max=lambda_pf_max_seen, adam=adam, last_epoch=last_epoch,
                       max_w_violation=float(max_w_violation))

"""Training: the epoch loop that the equilibrium model and the GCN baseline
both run, Adam (followed by the equilibrium model's well-posedness projection),
per-epoch metrics logging, and bit-exact checkpointing.

Graphs in a batch are processed independently and their gradients averaged,
summed in batch order; graphs of one shape within a short window of the batch
run as one stacked group. All randomness (shuffling, Gumbel noise, dropout)
is derived statelessly from (seed, epoch, graph id), which makes interrupted
runs resume bit-identically.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .graphs import CfgGraph, GraphValidationError, InputFileError, read_text
from .metrics import MetricsReport, compute_metrics
from .model import (
    PARAM_NAMES,
    GraphBundle,
    ModelConfig,
    bce_with_logit,
    derive_seed,
    forward,
    gated_eigenvalues,
    init_model_params,
    lambda_hats,
    model_backward,
    param_shapes,
    prepare_graph,
)
from .nn import PAD_ID, NumericError, ParamStore, sigmoid
from .solver import ANDERSON_RIDGE, SolverConfig, project_wellposed

CHECKPOINT_FORMAT_VERSION = 1
# weight of the running lambda_ref against each new batch max
LAMBDA_DECAY = 0.9
# Adam's decay rates and denominator offset: the published defaults (Kingma & Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class CheckpointError(ValueError):
    """A checkpoint manifest or tensor blob that cannot be read back."""


@dataclass
class TrainConfig(ModelConfig):
    """Model settings plus optimizer hyperparameters (defaults per the method)."""

    lr: float = 0.01
    batch_size: int = 192
    epochs: int = 50
    seed: int = 0
    eval_noise_seeds: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if not math.isfinite(self.lr):
            raise ValueError(f"lr must be finite, got {self.lr}")
        for name in ("lr", "batch_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.eval_noise_seeds < 1:
            raise ValueError(f"eval_noise_seeds must be >= 1, got {self.eval_noise_seeds}")


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

    def update_lambda(self, lambda_batch: float) -> float:
        """Smooth the per-batch max so one sharp agent draw cannot dominate the
        reported eigenvalue or, through it, the projection radius."""
        if self.lambda_ref <= 0.0:
            self.lambda_ref = lambda_batch
        else:
            # the new value weighs 1.0 - 0.9 as computed, which is not the double 0.1
            self.lambda_ref = LAMBDA_DECAY * self.lambda_ref + (1.0 - LAMBDA_DECAY) * lambda_batch
        return self.lambda_ref


def adam_step(store: ParamStore, grads: Mapping[str, np.ndarray], config: TrainConfig,
              state: AdamState) -> None:
    """Bias-corrected Adam update of every parameter; the pad embedding row
    stays zero."""
    state.t += 1
    b1c = 1.0 - ADAM_BETA1 ** state.t
    b2c = 1.0 - ADAM_BETA2 ** state.t
    for name, p in store.params.items():
        g = grads[name].astype(p.dtype, copy=False)
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = state.m[name] / b1c
        v_hat = state.v[name] / b2c
        p -= (config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.dtype)
    store.params["emb"][PAD_ID] = 0.0


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


# Config keys of earlier checkpoints and the values now fixed; another value would
# run another model. Nothing read SolverConfig.kappa, so any value of it drops.
_RETIRED_CONFIG_KEYS = {"pool": "avg", "beta1": ADAM_BETA1, "beta2": ADAM_BETA2,
                        "adam_eps": ADAM_EPS, "solver.ridge": ANDERSON_RIDGE,
                        "solver.kappa": None}


def load_checkpoint(path: str | Path) -> tuple[ParamStore, TrainConfig, AdamState, int]:
    """Read a checkpoint back; raises CheckpointError when it cannot be used."""
    base = Path(path)
    try:
        manifest = json.loads(read_text(base.with_suffix(".json")))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint manifest is not valid JSON: {exc}") from exc
    except InputFileError as exc:
        raise CheckpointError(f"checkpoint manifest {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError("checkpoint manifest is not a JSON object")
    if manifest.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {manifest.get('format_version')!r}")
    missing = [k for k in ("config", "dtype", "epoch", "adam_t", "tensors") if k not in manifest]
    if missing:
        raise CheckpointError(f"checkpoint manifest lacks {', '.join(missing)}")
    blob = base.with_suffix(".bin").read_bytes()
    try:
        cfg_dict = dict(manifest["config"])
        solver = dict(cfg_dict["solver"])
        for key, fixed in _RETIRED_CONFIG_KEYS.items():
            section, _, name = key.rpartition(".")
            value = (solver if section else cfg_dict).pop(name, fixed)
            if fixed is not None and value != fixed:
                raise CheckpointError(f"checkpoint config {key} is {value!r}, but this "
                                      f"version fixes it at {fixed!r}")
        cfg_dict["solver"] = SolverConfig(**solver)
        config = TrainConfig(**cfg_dict)
        adam_t, epoch = int(manifest["adam_t"]), int(manifest["epoch"])
        lambda_ref = float(manifest.get("lambda_ref", 0.0))
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint config: {exc!r}") from exc
    if manifest["dtype"] not in ("<f4", "<f8"):
        raise CheckpointError(f"checkpoint dtype {manifest['dtype']!r} is not <f4 or <f8")
    dtype = np.dtype(manifest["dtype"])
    if not isinstance(manifest["tensors"], list):
        raise CheckpointError("checkpoint tensors is not a list")
    tensors: dict[str, dict[str, np.ndarray]] = {"param": {}, "adam_m": {}, "adam_v": {}}
    for rec in manifest["tensors"]:
        try:
            name, role, start = str(rec["name"]), str(rec["role"]), int(rec["offset"])
            shape = tuple(int(d) for d in rec["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint tensor record {rec!r}: {exc!r}") from exc
        if role not in tensors:
            raise CheckpointError(f"tensor {name!r} has unknown role {role!r}")
        if min(shape, default=0) < 0:
            raise CheckpointError(f"tensor {name!r} ({role}) has shape {shape}")
        count = math.prod(shape)
        end = start + count * dtype.itemsize
        if start < 0 or end > len(blob):
            raise CheckpointError(f"tensor {name!r} ({role}) spans bytes "
                                  f"{start}-{end}, outside the {len(blob)}-byte blob")
        tensors[role][name] = np.frombuffer(blob, dtype=dtype, count=count,
                                            offset=start).reshape(shape).copy()
    params = tensors["param"]
    absent = [name for name in PARAM_NAMES if name not in params]
    if absent:
        raise CheckpointError(f"checkpoint lacks parameters {', '.join(absent)}")
    emb = params["emb"].shape
    if len(emb) != 2 or emb[0] < 1:
        raise CheckpointError(f"checkpoint emb has shape {emb}, not (vocab_size, h)")
    # the shapes init_model_params gives for this h and vocabulary
    expected = param_shapes(config.h, emb[0])
    for role, found in tensors.items():
        if set(found) != set(expected):
            odd = sorted(set(found) ^ set(expected))
            raise CheckpointError(f"checkpoint {role} tensors differ from the parameters "
                                  f"in {', '.join(odd)}")
        for name, arr in found.items():
            if arr.shape != expected[name]:
                raise CheckpointError(f"tensor {name!r} ({role}) has shape {arr.shape}, "
                                      f"expected {expected[name]} for h={config.h}")
    adam = AdamState(m=tensors["adam_m"], v=tensors["adam_v"], t=adam_t, lambda_ref=lambda_ref)
    return ParamStore(params=params), config, adam, epoch


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


def score_draws(bundles: Sequence[GraphBundle], draws: Sequence[Sequence[float]],
                ) -> tuple[float, MetricsReport, list[float]]:
    """Both models' eval record from each graph's logits, one per draw:
    (mean first-draw loss, metrics, scores). A graph's score is the mean
    probability of its draws."""
    labels = [b.label for b in bundles]
    scores = [float(np.mean([float(sigmoid(np.asarray(logit, dtype=np.float64)))
                             for logit in logits])) for logits in draws]
    loss = float(np.mean([bce_with_logit(logits[0], y) for logits, y in zip(draws, labels)]))
    return loss, compute_metrics(np.array(scores), np.array(labels)), scores


def evaluate(bundles: Sequence[GraphBundle], store: ParamStore, config: TrainConfig,
             noise_seeds: int = 1, traces: list | None = None,
             ) -> tuple[float, MetricsReport, list[float]]:
    """Eval-mode pass over a split; returns `score_draws` of its logits.

    noise_seeds > 1 averages scores over that many frozen agent-noise draws
    per graph, which tightens metrics without touching determinism (the
    seeds are derived from the config seed and graph id). The draws share
    the first draw's encoder pass, which eval mode makes seed-independent.
    A list given as `traces` receives each graph's first-draw cache, run with
    keep_trace (which leaves the score's bits as they are).
    """
    if noise_seeds < 1:
        raise ValueError(f"noise_seeds must be >= 1, got {noise_seeds}")
    draws: list[list[float]] = []
    for b in bundles:
        if b.label is None:
            raise GraphValidationError("label-missing", f"graph {b.graph.id!r} has no label")
        logits = []
        first = None
        for k in range(noise_seeds):
            logit, cache = forward(b, store, config, mode="eval",
                                   seed=derive_seed(config.seed, "eval", b.graph.id, k),
                                   keep_trace=k == 0 and traces is not None, reuse=first)
            logits.append(logit)
            if k == 0:
                first = cache
        if traces is not None:
            traces.append(first)
        draws.append(logits)
    return score_draws(bundles, draws)


# Consecutive graphs of a batch that train together. Within a window, graphs
# of one ids shape run as one stacked group, largest group first, and each
# graph's gradients (about 270 KB at h = 64) go to the batch sum as soon as
# every earlier graph of the window has gone, so a window of distinct shapes
# holds one graph's gradients at a time. A group's caches and its backward's
# temporaries take about 680 KB per graph, and a window can be one group, so
# the window bounds the extra memory. Criterion 6's graphs come in three
# shapes, so a window of 20 puts 99.8% of them in a group of two or more, of
# 7.3 graphs on average (98.3% and 4.7 at 12). On train-c6, 20 read 6% more
# peak RSS than 12 for 11% more training throughput; 24 and 32 read 8% and
# 20% more peak RSS, near or past the benchmark's 10% bound.
GROUP_WINDOW = 20


def check_inputs(dataset: Sequence[CfgGraph], eval_dataset: Sequence[CfgGraph],
                 vocab_size: int | None) -> int:
    """Both models' input checks: non-empty training and eval sets and a label on
    every graph. Returns vocab_size, or one past the largest token id when it is None."""
    if not dataset:
        raise GraphValidationError("empty-dataset", "no training graphs")
    if not eval_dataset:
        raise GraphValidationError("empty-dataset", "no eval graphs")
    graphs = [*dataset, *eval_dataset]
    for g in graphs:
        if g.label is None:
            raise GraphValidationError("label-missing", f"graph {g.id!r} has no label")
    if vocab_size is None:
        vocab_size = 1 + max(max((max(seq) if seq else 0) for seq in g.nodes) for g in graphs)
    return vocab_size


def run_epochs(steps, train_bundles: Sequence[GraphBundle], eval_bundles: Sequence[GraphBundle],
               config: TrainConfig, start_epoch: int = 0) -> Iterator[tuple[EpochRecord, ...]]:
    """The epoch loop both models train with; yields each epoch's (train, eval)
    records. `steps.train_window(window, seeds)` gives (logit, loss, grads)
    per graph in window order, and each graph's loss is checked and its
    gradients summed and dropped before the next is asked for;
    `steps.step(members, grads)` takes one optimizer step per batch on its
    mean gradients (summed in f64 in batch order), and
    `steps.eval_pass(bundles)` returns what `score_draws` does."""
    for epoch in range(start_epoch + 1, config.epochs + 1):
        order = np.random.default_rng(derive_seed(config.seed, "shuffle", epoch)).permutation(
            len(train_bundles))
        logits, losses = [], []
        for lo in range(0, len(order), config.batch_size):
            members = order[lo : lo + config.batch_size]
            batch = [train_bundles[i] for i in members]
            summed: dict[str, np.ndarray] | None = None
            for wlo in range(0, len(batch), GROUP_WINDOW):
                window = batch[wlo : wlo + GROUP_WINDOW]
                seeds = [derive_seed(config.seed, "train", epoch, b.graph.id) for b in window]
                start = len(losses)
                # no zip or enumerate: their reused result tuple would hold a
                # graph's gradients while the window's next group runs
                for logit, loss, grads in steps.train_window(window, seeds):
                    if not np.isfinite(loss):
                        bad = window[len(losses) - start]
                        raise NumericError(f"nan-detected: loss for graph {bad.graph.id!r}")
                    logits.append(logit)
                    losses.append(loss)
                    if summed is None:
                        summed = {k: v.astype(np.float64) for k, v in grads.items()}
                    else:
                        for k in summed:
                            summed[k] += grads[k]
                    del grads  # summed, so the window's next group runs without it
            # the mean gradients die with the step, so the next batch does not hold them
            steps.step(members, {k: v / len(batch) for k, v in summed.items()})
        # one sigmoid over the epoch gives each graph's lone bits: the ops are elementwise
        scores = sigmoid(np.asarray(logits, dtype=np.float64))
        report = compute_metrics(scores, np.array([train_bundles[i].label for i in order]))
        rec_train = EpochRecord(epoch, "train", float(np.mean(losses)), report)
        yield rec_train, EpochRecord(epoch, "eval", *steps.eval_pass(eval_bundles)[:2])


class _EquilibriumSteps:
    """The equilibrium model's part of run_epochs: stacked groups per window,
    and Adam with the well-posedness projection per batch."""

    def __init__(self, train_bundles: Sequence[GraphBundle], store: ParamStore,
                 config: TrainConfig, adam: AdamState) -> None:
        self.store, self.config, self.adam = store, config, adam
        # every training graph's ungated PF eigenvalue, once per call
        self.lambda_hat = lambda_hats(train_bundles)
        self.gated: list[np.ndarray] = []  # the batch's gated adjacencies, held to its end
        self.lambda_pf_max = 0.0
        self.max_w_violation = -np.inf  # max over steps of ||W||_inf - kappa/lambda_ref

    def train_window(self, window: Sequence[GraphBundle], seeds: Sequence[int]) -> Iterator[tuple]:
        """Forward and backward of a window's graphs, grouped by ids shape,
        largest group first (ties in window order). Yields each graph's
        (logit, loss, grads) in window order as soon as every earlier graph
        has been yielded, and keeps no reference to it after, so a group's
        stacked arrays are freed once its last graph is summed."""
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, b in enumerate(window):
            groups.setdefault(b.ids.shape, []).append(i)
        done: dict[int, tuple] = {}
        released = 0
        # largest group first: it runs while no other graph's gradients are held
        for members in sorted(groups.values(), key=len, reverse=True):
            bundles = [window[i] for i in members]
            logits, cache = forward(bundles, self.store, self.config, mode="train",
                                    seed=[seeds[i] for i in members])
            losses, grads = model_backward(cache, self.store, [b.label for b in bundles])
            self.gated.extend(cache.gated_adjacency)
            del cache  # the next group's forward need not share memory with this one
            for j, i in enumerate(members):
                done[i] = (logits[j], losses[j], {k: v[j] for k, v in grads.items()})
            del grads  # the stacked arrays live on only in the members' views
            while released in done:
                yield done.pop(released)
                released += 1

    def step(self, members: np.ndarray, grads: Mapping[str, np.ndarray]) -> None:
        # the batch max of the gated estimates, which does not depend on their order
        lambda_batch = max([0.0, *gated_eigenvalues(self.gated)])
        self.gated = []
        self.lambda_pf_max = max(self.lambda_pf_max, lambda_batch)
        lambda_ref = self.adam.update_lambda(lambda_batch)
        # Agent gates lie in [0, 1], so no gated eigenvalue exceeds the
        # ungated one (1 for a renormalized adjacency). Projecting against
        # it bounds ||W||_inf * lambda_gated by kappa on every graph and
        # agent draw, including the next batch's; the smoothed estimate
        # lags the draws it summarizes and the per-draw estimates are
        # coarse, so neither can.
        lambda_bound = max(self.lambda_hat[i] for i in members)
        adam_step(self.store, grads, self.config, self.adam)
        self.store.params["W"] = project_wellposed(
            self.store.params["W"], max(lambda_ref, lambda_bound), self.config.kappa)
        w_inf = float(np.abs(self.store.params["W"]).sum(axis=1).max())
        self.max_w_violation = max(self.max_w_violation, w_inf - self.config.kappa / lambda_ref)

    def eval_pass(self, bundles: Sequence[GraphBundle]) -> tuple[float, MetricsReport, list]:
        return evaluate(bundles, self.store, self.config, noise_seeds=self.config.eval_noise_seeds)


def train(
    dataset: Sequence[CfgGraph],
    config: TrainConfig,
    eval_dataset: Sequence[CfgGraph],
    store: ParamStore | None = None,
    adam: AdamState | None = None,
    start_epoch: int = 0,
    vocab_size: int | None = None,
    early_stop: Callable[[EpochRecord], bool] | None = None,
) -> TrainResult:
    """Train on labeled graphs; returns final and best-AUC parameters plus history.

    Passing store/adam/start_epoch continues an interrupted run exactly.
    """
    vocab_size = check_inputs(dataset, eval_dataset, vocab_size)
    train_bundles = [prepare_graph(g, config) for g in dataset]
    eval_bundles = [prepare_graph(g, config) for g in eval_dataset]
    if store is None:
        store = init_model_params(config, vocab_size, config.seed)
    steps = _EquilibriumSteps(train_bundles, store, config,
                              AdamState.init(store) if adam is None else adam)
    history: list[EpochRecord] = []
    best_auc, best_epoch, best_store = -np.inf, -1, store.copy()
    for rec_train, rec_eval in run_epochs(steps, train_bundles, eval_bundles, config,
                                          start_epoch):
        history += [rec_train, rec_eval]
        if rec_eval.report.auc_defined and rec_eval.report.auc > best_auc:
            best_auc, best_epoch, best_store = rec_eval.report.auc, rec_eval.epoch, store.copy()
        if early_stop is not None and early_stop(rec_eval):
            break
    return TrainResult(store=store, best_store=best_store, best_auc=float(best_auc),
                       best_epoch=best_epoch, history=history,
                       lambda_pf_max=steps.lambda_pf_max, adam=steps.adam,
                       last_epoch=history[-1].epoch if history else start_epoch,
                       max_w_violation=float(steps.max_w_violation))

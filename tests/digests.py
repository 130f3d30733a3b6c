"""Bit-identity digests: sha256 of the outputs a pure speed change must keep.

    PYTHONPATH=src python3 tests/digests.py

Run it on two checkouts (say, a change and its parent) at the same BLAS
thread count and compare the printed lines; each is `<digest> <what>`. The
script imports only `cfgexec`, so it also runs against an older tree:
`PYTHONPATH=<other checkout>/src python3 tests/digests.py`. It is not a
pytest module (pytest collects `test_*.py` only) and takes about 12 s on
two CPUs.

What it hashes:
- 3 epochs of criterion 6's training run (its data, split and config): the
  final and best-AUC parameters, the metrics CSV rows, lambda_ref,
  lambda_pf_max, max_w_violation, and the best parameters' 8-seed eval loss
  and scores;
- a small f64 training run with 2 eval noise seeds: parameters, CSV rows,
  lambda_ref and lambda_pf_max;
- an f64 training run with the hard agent and send gates, on graphs of
  several shapes, whose batches span several training windows: parameters,
  CSV rows, lambda_ref and lambda_pf_max;
- eval-mode logits, fixed points and solver logs of 100 deep graphs (80-96
  one-token blocks) at initial parameters, for the soft and the hard agent;
- long blocks (19-32 token positions, 9-27 blocks per graph): eval-mode
  logits and fixed points at initial parameters, and a 1-epoch training
  run's parameters and CSV rows;
- a 2-epoch `train_gcn` run: its eval-loss history, final parameters, best
  accuracy, best AUC and accuracy at the best AUC;
- a small f64 `train_gcn` run whose 0.02 train-loss stop fires at epoch 109
  of 300: its eval history (losses and metrics) and final parameters.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple

import numpy as np

from cfgexec.baseline import train_gcn
from cfgexec.model import forward, init_model_params, prepare_graph
from cfgexec.synth import SyntheticSpec, generate_dataset, split
from cfgexec.training import TrainConfig, evaluate, metrics_csv_rows, train


def digest(*items) -> str:
    """sha256 over arrays (dtype, shape and bytes), floats, ints and strings."""
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, str):
            h.update(b"s" + item.encode())
        elif isinstance(item, (list, tuple)):
            h.update(b"l%d" % len(item))
            h.update(digest(*item).encode())
        else:
            a = np.ascontiguousarray(item)
            h.update(f"a{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def params_digest(store) -> str:
    return digest(*[x for k in sorted(store.params) for x in (k, store.params[k])])


def lambda_digests(what: str, result) -> dict[str, str]:
    return {f"{what} lambda_ref": digest(np.float64(result.adam.lambda_ref)),
            f"{what} lambda_pf_max": digest(np.float64(result.lambda_pf_max))}


def criterion6_epochs() -> dict[str, str]:
    spec = SyntheticSpec(n_graphs=1000, chain_length=8, seed=42)
    train_set, eval_set = split(generate_dataset(spec), 0.75, 42)
    cfg = TrainConfig(epochs=3, seed=0, tau=64.0, eval_noise_seeds=3)
    result = train(train_set, cfg, eval_set, vocab_size=spec.vocab_size)
    bundles = [prepare_graph(g, cfg) for g in eval_set]
    loss, _, scores = evaluate(bundles, result.best_store, cfg, noise_seeds=8)
    return {
        "c6 final params": params_digest(result.store),
        "c6 best params": params_digest(result.best_store),
        "c6 metrics csv": digest(*metrics_csv_rows(result.history)),
        "c6 lambda_ref": digest(np.float64(result.adam.lambda_ref)),
        "c6 lambda_pf_max": digest(np.float64(result.lambda_pf_max)),
        "c6 max_w_violation": digest(np.float64(result.max_w_violation)),
        "c6 best 8-seed eval": digest(np.float64(loss), np.array(scores)),
    }


def f64_training() -> dict[str, str]:
    ds = generate_dataset(SyntheticSpec(n_graphs=24, chain_length=4, node_count_range=(9, 11),
                                        vocab_size=16, seed=5))
    cfg = TrainConfig(h=8, precision="f64", epochs=3, batch_size=8, seed=2, v_max=8,
                      eval_noise_seeds=2)
    result = train(ds[:18], cfg, ds[18:], vocab_size=16)
    return {"f64 params": params_digest(result.store),
            "f64 metrics csv": digest(*metrics_csv_rows(result.history)),
            **lambda_digests("f64", result)}


def grouped_training() -> dict[str, str]:
    ds = generate_dataset(SyntheticSpec(n_graphs=48, chain_length=4, node_count_range=(9, 12),
                                        vocab_size=16, seed=11))
    cfg = TrainConfig(h=8, precision="f64", epochs=2, batch_size=20, seed=3, v_max=6,
                      agent_mode="hard", gate_axis="send")
    result = train(ds[:36], cfg, ds[36:], vocab_size=16)
    return {"grouped params": params_digest(result.store),
            "grouped metrics csv": digest(*metrics_csv_rows(result.history)),
            **lambda_digests("grouped", result)}


def deep_graphs() -> dict[str, str]:
    ds = generate_dataset(SyntheticSpec(n_graphs=100, chain_length=60,
                                        node_count_range=(80, 96), tokens_per_block=1,
                                        seed=7))
    out = {}
    for agent in ("soft", "hard"):
        cfg = TrainConfig(seed=0, tau=64.0, agent_mode=agent)
        store = init_model_params(cfg, 16, cfg.seed)
        logits, x_stars, logs = [], [], []
        for i, g in enumerate(ds):
            logit, cache = forward(prepare_graph(g, cfg), store, cfg, mode="eval", seed=i)
            r = cache.solver_result
            logits.append(logit)
            x_stars.append(cache.x_star)
            logs.append(np.array(r.residuals + [r.iterations] + r.fallback_steps))
            logs.append(cache.termination)
        out[f"deep {agent} logits"] = digest(np.array(logits))
        out[f"deep {agent} x_star"] = digest(*x_stars)
        out[f"deep {agent} solver log"] = digest(*logs)
    return out


def long_blocks() -> dict[str, str]:
    spec = SyntheticSpec(n_graphs=120, chain_length=4, node_count_range=(9, 27),
                         tokens_per_block=30, seed=13)
    train_set, eval_set = split(generate_dataset(spec), 0.75, 13)
    cfg = TrainConfig(epochs=1, seed=0, tau=64.0)
    store = init_model_params(cfg, spec.vocab_size, cfg.seed)
    logits, x_stars = [], []
    for i, g in enumerate(eval_set):
        logit, cache = forward(prepare_graph(g, cfg), store, cfg, mode="eval", seed=i)
        logits.append(logit)
        x_stars.append(cache.x_star)
    result = train(train_set, cfg, eval_set, vocab_size=spec.vocab_size)
    return {"long-block logits": digest(np.array(logits)),
            "long-block x_star": digest(*x_stars),
            "long-block params": params_digest(result.store),
            "long-block metrics csv": digest(*metrics_csv_rows(result.history))}


def gcn_history() -> dict[str, str]:
    spec = SyntheticSpec(n_graphs=200, chain_length=8, seed=3)
    train_set, eval_set = split(generate_dataset(spec), 0.75, 3)
    cfg = TrainConfig(epochs=2, seed=0, tau=64.0)
    result = train_gcn(train_set, cfg, eval_set, layers=2, vocab_size=spec.vocab_size)
    return {"gcn eval losses": digest(np.array([r.loss for r in result.history])),
            "gcn params": params_digest(result.store),
            "gcn best metrics": digest(np.array([result.best_accuracy, result.best_auc,
                                                 result.acc_at_best_auc]))}


def gcn_early_stop() -> dict[str, str]:
    ds = generate_dataset(SyntheticSpec(n_graphs=16, chain_length=1, node_count_range=(5, 7),
                                        vocab_size=16, seed=4))
    train_set, eval_set = split(ds, 0.75, 4)
    cfg = TrainConfig(h=8, epochs=300, batch_size=4, seed=0, dropout=0.0, v_max=8, lr=0.05,
                      precision="f64")
    result = train_gcn(train_set, cfg, eval_set, layers=2)
    return {"gcn early-stop history": digest(*[
                np.array([r.epoch, r.loss, *astuple(r.report)], dtype=np.float64)
                for r in result.history]),
            "gcn early-stop params": params_digest(result.store)}


def main() -> None:
    for part in (criterion6_epochs, f64_training, grouped_training, deep_graphs, long_blocks,
                 gcn_history, gcn_early_stop):
        for what, value in part().items():
            print(value, what, flush=True)


if __name__ == "__main__":
    main()

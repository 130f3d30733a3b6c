"""Bit-identity digests: sha256 of the outputs a pure speed change must keep.

    PYTHONPATH=src python3 tests/digests.py

Run it on two checkouts (say, a change and its parent) at the same BLAS
thread count and compare the printed lines; each is `<digest> <what>`. The
script imports only `cfgexec`, so it also runs against an older tree:
`PYTHONPATH=<other checkout>/src python3 tests/digests.py`. It is not a
pytest module (pytest collects `test_*.py` only) and takes about 30 s on
two CPUs.

    PYTHONPATH=src python3 tests/digests.py --against <other checkout>/src

does both runs and the comparison: it computes this tree's lines, then runs
the script again in a subprocess that imports `cfgexec` from the other
`src` and inherits this environment, so both sides run at the same BLAS
thread setting (`OPENBLAS_NUM_THREADS` and the like, or the same default).
It prints one `differs: <what>` line for every line that is not the same on
both sides (a line one side lacks included), and exits 1 if there is any;
it exits 2 if the other tree has no `cfgexec` or its run fails.

What it hashes:
- 3 epochs of criterion 6's training run (its data, split and config): the
  final and best-AUC parameters, the metrics CSV rows, lambda_ref,
  lambda_pf_max, max_w_violation, and the best parameters' 8-seed eval loss
  and scores;
- a small f64 training run with 2 eval noise seeds: parameters, CSV rows,
  lambda_ref and lambda_pf_max;
- an f64 training run with the hard agent and send gates, on graphs of
  several shapes, in batches of 20 (several windows each at windows of 6 or 12,
  one at 20): parameters, CSV rows, lambda_ref and lambda_pf_max;
- eval-mode logits, fixed points and solver logs of 100 deep graphs (80-96
  one-token blocks) at initial parameters, for the soft and the hard agent;
- long blocks (19-32 token positions, 9-27 blocks per graph): eval-mode
  logits and fixed points at initial parameters, and a 1-epoch training
  run's parameters and CSV rows;
- a 2-epoch `train_gcn` run: its eval-loss history, final parameters, best
  accuracy, best AUC and accuracy at the best AUC;
- a small f64 `train_gcn` run whose 0.02 train-loss stop fires at epoch 109
  of 300: its eval history (losses and metrics) and final parameters;
- the pieces `train_vocab` gives at 64 and at 512 pieces, on a seeded corpus
  of skewed random tokens plus the stripped tokens of a short listing;
- the `--dump-traces` and `--dump-solver` files of `cfgexec eval`, for the
  soft and the hard agent, each on a checkpoint `cfgexec train` wrote after
  2 epochs (h 8, batches of 8, at most 12 solver steps) on 60 generated
  graphs, evaluated on all 60; every CLI call writes into a temporary
  directory. The soft dumps hold equilibrium and max-steps stops, the hard
  ones equilibrium and exit-reached stops;
- the printed report and exit code of `cfgexec gradcheck --seed s` for s = 0
  and 1 (the finite-difference check of the full model, through the CLI);
- one stacked `anderson` solve per dtype (f32, f64) of five (14, 64)
  problems, four tanh maps and a constant shift: each result's x_star,
  residuals, iterations, converged flag, fallback steps and stop reason. The
  stack holds a convergence at step 9 (f32) or 13 (f64), a stop by reason at
  step 6, three max-iter stops at step 20, and the shift, which falls back
  at every step from step 2. The map also takes the `items` argument that
  older trees pass, and the reasons do not read the map values, so a tree
  that maps only the running problems computes the same lines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import astuple
from pathlib import Path

import numpy as np

from cfgexec.asm import function_tokens, parse_listing, strip_semantics
from cfgexec import cli
from cfgexec.baseline import train_gcn
from cfgexec.model import forward, init_model_params, prepare_graph
from cfgexec.solver import SolverConfig, anderson
from cfgexec.synth import SyntheticSpec, generate_dataset, split
from cfgexec.training import TrainConfig, evaluate, metrics_csv_rows, train
from cfgexec.vocab import train_vocab


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


VOCAB_LISTING = """\
main:
    push rbp
    mov rbp, rsp
    sub rsp, 0x20
    mov dword ptr [rbp-4], edi
    cmp dword ptr [rbp-4], 0
    jle .L2
    call helper
    jmp .L3
.L2:
    lea rdi, [rip+msg]
    call puts
.L3:
    leave
    ret
helper:
    xor eax, eax
.L5:
    add eax, 3
    movzx ecx, byte ptr [rsi+rax]
    cmp eax, 0x40
    jl .L5
    ret
"""


def vocabulary() -> dict[str, str]:
    rng = np.random.default_rng(17)
    alphabet = list("etaoinshrdlcumwfgypbvkjxqz0123456789_")
    weights = 1.0 / np.arange(1, len(alphabet) + 1)  # Zipf-like: a few letters dominate
    corpus = ["".join(rng.choice(alphabet, size=int(rng.integers(1, 11)),
                                 p=weights / weights.sum()))
              for _ in range(2000)]
    for parsed in parse_listing(VOCAB_LISTING):
        corpus += function_tokens(strip_semantics(parsed.function)) * 20
    return {f"vocab {size} pieces": digest(*train_vocab(corpus, size).pieces)
            for size in (64, 512)}


def eval_dumps() -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        root = Path(tmp)
        spec = root / "spec.json"
        spec.write_text(json.dumps({"n_graphs": 60, "seed": 3, "chain_length": 4,
                                    "node_count_range": [9, 12]}))
        data = str(root / "data.json")
        assert cli.main(["generate", "--spec", str(spec), "--out", data]) == 0
        for agent in ("soft", "hard"):
            run = root / agent
            assert cli.main(["train", "--data", data, "--out-dir", str(run), "--epochs", "2",
                             "--h", "8", "--batch-size", "8", "--max-iter", "12",
                             "--agent-mode", agent]) == 0
            traces, solver = run / "traces.json", run / "solver.csv"
            assert cli.main(["eval", "--checkpoint", str(run / "checkpoint"), "--data", data,
                             "--dump-traces", str(traces), "--dump-solver", str(solver)]) == 0
            out[f"eval dump {agent} traces"] = digest(traces.read_text())
            out[f"eval dump {agent} solver"] = digest(solver.read_text())
    return out


def gradient_check() -> dict[str, str]:
    out = {}
    for seed in ("0", "1"):
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            code = cli.main(["gradcheck", "--seed", seed])
        out[f"gradcheck seed {seed}"] = digest(report.getvalue(), np.int64(code))
    return out


def stacked_solve() -> dict[str, str]:
    out = {}
    for dtype in (np.float32, np.float64):
        rng = np.random.default_rng(23)
        maps = []
        for scale in (0.05, 0.15, 0.15, None, 0.2):
            if scale is None:  # a constant shift repeats its residual: singular at every step
                maps.append(lambda x, c=np.full((14, 64), 1e-3, dtype=dtype): x + c)
                continue
            a = rng.random((14, 14))
            a /= a.sum(axis=0)
            w = rng.normal(size=(64, 64)) * scale
            b = rng.normal(size=(14, 64))
            a, w, b = (v.astype(dtype) for v in (a, w, b))
            maps.append(lambda x, a=a, w=w, b=b: np.tanh(a.T @ x @ w + b))

        def f(x, items=None):
            rows = range(len(x)) if items is None else items
            return np.stack([maps[i](xi) for i, xi in zip(rows, x)])

        def on_iterate(_fx, it, items):
            return ["halt" if i == 2 and it == 6 else None for i in items]

        x0 = np.zeros((5, 14, 64), dtype=dtype)
        x0[3] = 1.0
        solve = anderson(f, x0, SolverConfig(m=5, max_iter=20), on_iterate=on_iterate,
                         stacked=True)
        out[f"stacked solve {np.dtype(dtype).name}"] = digest(*[
            (r.x_star, r.residuals, np.int64(r.iterations), np.bool_(r.converged),
             np.array(r.fallback_steps, dtype=np.int64), str(r.stop_reason))
            for r in solve.results])
    return out


PARTS = (criterion6_epochs, f64_training, grouped_training, deep_graphs, long_blocks,
         gcn_history, gcn_early_stop, vocabulary, eval_dumps, gradient_check, stacked_solve)


def compare(other_src: Path) -> int:
    """This tree's digests against the other tree's; 1 if any line differs."""
    if not (other_src / "cfgexec" / "__init__.py").is_file():
        print(f"digests: no cfgexec package under {other_src}", file=sys.stderr)
        return 2
    ours = {what: value for part in PARTS for what, value in part().items()}
    env = {**os.environ, "PYTHONPATH": str(other_src)}
    run = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True)
    if run.returncode != 0:
        print(f"digests: the run against {other_src} failed:\n{run.stderr}", file=sys.stderr)
        return 2
    theirs = dict(line.split(" ", 1)[::-1] for line in run.stdout.splitlines())
    differing = [what for what in [*ours, *(w for w in theirs if w not in ours)]
                 if ours.get(what) != theirs.get(what)]
    for what in differing:
        print(f"differs: {what}")
    print(f"{len(ours) - len(differing)} of {len(ours)} lines match {other_src}")
    return 1 if differing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path,
                        help="the other checkout's src directory; compare with its digests")
    args = parser.parse_args()
    if args.against is not None:
        return compare(args.against.resolve())
    for part in PARTS:
        for what, value in part().items():
            print(value, what, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

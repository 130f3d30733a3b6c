"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -s to see them live).

The synthetic experiment (criterion 6) is the long pole; everything else
completes in seconds to a couple of minutes.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from cfgexec.baseline import train_gcn
from cfgexec.metrics import compute_metrics
from cfgexec.model import (
    bce_with_logit,
    forward,
    init_model_params,
    model_backward,
    prepare_graph,
)
from cfgexec.nn import ParamStore, finite_diff_check
from cfgexec.solver import SolverConfig, anderson, naive_iterate, pf_eigenvalue
from cfgexec.synth import SyntheticSpec, generate_dataset, split
from cfgexec.training import (
    TrainConfig,
    evaluate,
    load_checkpoint,
    metrics_csv_rows,
    save_checkpoint,
    train,
)

from oracles import dense_spectral_radius, max_param_rel_err, pairwise_auc, unrolled_model_grads

COS_FIXED_POINT = 0.7390851332151607


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}", flush=True)
    assert passed, f"criterion {criterion}: {detail}"


def tiny_instance(seed: int, h: int = 4):
    cfg = TrainConfig(h=h, precision="f64", dropout=0.0, tau=1.0,
                      solver=SolverConfig(max_iter=200, tol=1e-12))
    spec = SyntheticSpec(n_graphs=2, node_count_range=(3, 4), chain_length=2,
                         vuln_token_id=8, vocab_size=12, seed=seed,
                         tokens_per_block=2, exclusive_branching=False)
    graph = generate_dataset(spec)[seed % 2]
    bundle = prepare_graph(graph, cfg)
    store = init_model_params(cfg, spec.vocab_size, seed=seed)
    return cfg, graph, bundle, store


def test_criterion_1_gradient_correctness():
    """Full-model analytic gradients vs central finite differences (f64)."""
    t0 = time.time()
    worst_overall = 0.0
    for seed in range(10):
        cfg, graph, bundle, store = tiny_instance(seed, h=6)

        def loss_fn(params, _b=bundle, _c=cfg, _g=graph, _seed=seed):
            logit, _ = forward(_b, ParamStore(params), _c, mode="eval", seed=_seed)
            return bce_with_logit(logit, _g.label)

        _, grads = model_backward(forward(bundle, store, cfg, mode="eval", seed=seed)[1], store,
                                  graph.label)
        worst = finite_diff_check(loss_fn, grads, store.params, eps=2e-4)
        worst_overall = max(worst_overall, max(worst.values()))
    elapsed = time.time() - t0
    report(1, worst_overall < 1e-4 and elapsed < 120,
           f"max rel err {worst_overall:.3e} over 10 seeds in {elapsed:.0f}s "
           f"(tolerance 1e-4, budget 120s)")


def test_criterion_2_implicit_equals_unrolled():
    """implicit_backward vs a 100-step unrolled backprop oracle."""
    t0 = time.time()
    worst = 0.0
    for seed in range(6):
        cfg, graph, bundle, store = tiny_instance(seed, h=4)
        _, cache = forward(bundle, store, cfg, mode="eval", seed=seed)
        loss_i, grads_i = model_backward(cache, store, graph.label)
        loss_u, grads_u, residual = unrolled_model_grads(bundle, store, cfg, seed,
                                                         graph.label, steps=100)
        assert residual < 1e-10
        worst = max(worst, max_param_rel_err(grads_i, grads_u))
    elapsed = time.time() - t0
    report(2, worst < 1e-4 and elapsed < 60,
           f"max rel err {worst:.3e} over 6 instances in {elapsed:.1f}s "
           f"(tolerance 1e-4, budget 60s)")


def test_criterion_3_fixed_point_correctness():
    """Uniqueness from random starts, solver agreement, cosine speedup."""
    cfg, graph, bundle, store = tiny_instance(2)
    _, cache = forward(bundle, store, cfg, mode="eval", seed=5)
    rng = np.random.default_rng(0)
    stars = []
    for _ in range(10):
        res = anderson(cache.step, rng.normal(size=cache.x_star.shape),
                       replace(cfg.solver, tol=1e-12))
        assert res.converged
        stars.append(res.x_star)
    spread = max(float(np.abs(s - stars[0]).max()) for s in stars)

    a = anderson(cache.step, cache.step.u.copy(), replace(cfg.solver, tol=1e-11))
    n = naive_iterate(cache.step, cache.step.u.copy(), 3000, 1e-11)
    solver_gap = float(np.abs(a.x_star - n.x_star).max())

    x0 = np.array([0.0])
    acc = anderson(np.cos, x0, SolverConfig(max_iter=200, tol=1e-10))
    plain = naive_iterate(np.cos, x0, 300, 1e-10)
    cos_err = abs(float(acc.x_star[0]) - COS_FIXED_POINT)

    ok = (spread < 1e-5 and solver_gap < 1e-5 and acc.converged and plain.converged
          and cos_err < 1e-7 and acc.iterations * 2 <= plain.iterations)
    report(3, ok,
           f"uniqueness spread {spread:.2e} (<1e-5), anderson-naive gap {solver_gap:.2e} "
           f"(<1e-5), cos x*={float(acc.x_star[0]):.7f} in {acc.iterations} vs naive "
           f"{plain.iterations} iterations")


def test_criterion_4_wellposedness_projection():
    """Projection discipline during training, PF accuracy, gating monotonicity."""
    ds = generate_dataset(SyntheticSpec(n_graphs=16, chain_length=4,
                                        node_count_range=(9, 11), vocab_size=16, seed=3))
    cfg = TrainConfig(h=8, epochs=3, batch_size=4, seed=1, v_max=8,
                      solver=SolverConfig(max_iter=25))
    result = train(ds[:12], cfg, ds[12:], vocab_size=16)

    rng = np.random.default_rng(5)
    pf_err = 0.0
    for _ in range(50):
        m = rng.random((5, 5))
        pf_err = max(pf_err, abs(pf_eigenvalue(m) - dense_spectral_radius(m)))
    mono_ok = True
    m = rng.random((5, 5))
    lam_full = pf_eigenvalue(m)
    for _ in range(100):
        gate = rng.uniform(0.0, 1.0, size=5)
        if pf_eigenvalue(m * gate[None, :]) > lam_full + 1e-9:
            mono_ok = False
    ok = result.max_w_violation <= 1e-8 and pf_err < 1e-8 and mono_ok
    report(4, ok,
           f"max ||W||inf violation {result.max_w_violation:.2e} (<=1e-8), "
           f"pf vs dense eig max err {pf_err:.2e} (<1e-8), gated monotonicity on "
           f"100 gates: {mono_ok}")


def test_criterion_5_gumbel_agent_statistics():
    """Hard-sample frequencies at low tau; uniformity at huge tau."""
    rng = np.random.default_rng(7)
    s = np.array([0.2, 0.3, 0.5])
    draws = 100_000
    noise = rng.gumbel(size=(draws, 3))
    argmax = np.argmax((np.log(s) + noise) / 0.1, axis=1)
    freqs = np.bincount(argmax, minlength=3) / draws
    freq_err = float(np.abs(freqs - s / s.sum()).max())

    uni_err = 0.0
    for _ in range(200):
        sv = rng.uniform(0.05, 0.95, size=8)
        z = np.exp((np.log(sv) + rng.gumbel(size=8)) / 1e6)
        z = z / z.sum()
        uni_err = max(uni_err, float(np.abs(z - 1.0 / 8.0).max()))
    ok = freq_err <= 0.02 and uni_err <= 1e-3
    report(5, ok,
           f"hard-draw frequency err {freq_err:.4f} (<=0.02) over {draws} draws; "
           f"tau=1e6 uniformity err {uni_err:.2e} (<=1e-3)")


@pytest.mark.slow
def test_criterion_6_synthetic_path_sensitivity():
    """Scaled synthetic experiment: equilibrium model vs 2-layer GCN."""
    t0 = time.time()
    spec = SyntheticSpec(n_graphs=1000, chain_length=8, seed=42)
    ds = generate_dataset(spec)
    train_set, eval_set = split(ds, 0.75, 42)
    cfg = TrainConfig(epochs=200, seed=0, tau=64.0, eval_noise_seeds=3)

    def stop(rec):
        return rec.report.accuracy >= 0.92 and rec.report.auc >= 0.96

    result = train(train_set, cfg, eval_set, vocab_size=spec.vocab_size, early_stop=stop)
    bundles = [prepare_graph(g, cfg) for g in eval_set]
    _, best_rep, _ = evaluate(bundles, result.best_store, cfg, noise_seeds=8)

    gcn = train_gcn(train_set, cfg, eval_set, layers=2, vocab_size=spec.vocab_size)
    elapsed = time.time() - t0
    # both sides use the same model-selection rule: the best-AUC checkpoint
    ok = (best_rep.accuracy >= 0.90 and best_rep.auc >= 0.95
          and gcn.acc_at_best_auc <= 0.75 and elapsed < 1800)
    report(6, ok,
           f"equilibrium model eval acc {best_rep.accuracy:.3f} (>=0.90) "
           f"auc {best_rep.auc:.3f} (>=0.95); 2-layer GCN acc at its best-AUC "
           f"checkpoint {gcn.acc_at_best_auc:.3f} (<=0.75, best-any-epoch "
           f"{gcn.best_accuracy:.3f}); {elapsed:.0f}s (<1800s)")


def test_criterion_7_metrics_correctness():
    """AUC equals brute-force pairwise concordance."""
    fixture = compute_metrics(np.array([0.9, 0.8, 0.4, 0.3]), np.array([1, 0, 1, 0]))
    rng = np.random.default_rng(11)
    worst = abs(fixture.auc - 0.75)
    for _ in range(20):
        n = int(rng.integers(4, 200))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 2)
        rep = compute_metrics(scores, labels)
        worst = max(worst, abs(rep.auc - pairwise_auc(scores, labels)))
    report(7, fixture.auc == pytest.approx(0.75) and worst < 1e-12,
           f"fixture auc {fixture.auc} (=0.75); max gap to pairwise oracle {worst:.1e}")


def test_criterion_8_determinism_and_persistence(tmp_path):
    """Byte-identical reruns; bit-identical checkpoint resume."""
    ds = generate_dataset(SyntheticSpec(n_graphs=12, chain_length=4,
                                        node_count_range=(9, 11), vocab_size=16, seed=5))
    cfg = TrainConfig(h=8, epochs=4, batch_size=4, seed=2, v_max=8,
                      solver=SolverConfig(max_iter=25))
    runs = []
    for _ in range(2):
        res = train(ds[:9], cfg, ds[9:], vocab_size=16)
        runs.append("\n".join(metrics_csv_rows(res.history)).encode())
    identical = runs[0] == runs[1]

    full = train(ds[:9], cfg, ds[9:], vocab_size=16)
    cfg_half = TrainConfig(h=8, epochs=2, batch_size=4, seed=2, v_max=8,
                           solver=SolverConfig(max_iter=25))
    half = train(ds[:9], cfg_half, ds[9:], vocab_size=16)
    save_checkpoint(tmp_path / "mid", half.store, cfg_half, half.adam, epoch=2)
    store2, _c, adam2, epoch = load_checkpoint(tmp_path / "mid")
    resumed = train(ds[:9], cfg, ds[9:], store=store2, adam=adam2, start_epoch=epoch,
                    vocab_size=16)
    bit_identical = all(
        np.array_equal(resumed.store.params[k], full.store.params[k])
        for k in full.store.params)
    tail_match = metrics_csv_rows([r for r in resumed.history if r.epoch > 2]) == \
        metrics_csv_rows([r for r in full.history if r.epoch > 2])
    report(8, identical and bit_identical and tail_match,
           f"rerun CSVs byte-identical: {identical}; resume bit-identical: "
           f"{bit_identical}; resumed metrics match: {tail_match}")


def test_criterion_9_memory_contract():
    """Retained activations independent of the solver iteration budget."""
    cfg, graph, bundle, store = tiny_instance(9, h=6)
    counts = {}
    iters = {}
    for max_iter in (10, 50):
        cfg_k = TrainConfig(h=6, precision="f64", dropout=0.0, tau=1.0,
                            solver=SolverConfig(max_iter=max_iter, tol=1e-30))
        _, cache = forward(bundle, store, cfg_k, mode="eval", seed=2)
        model_backward(cache, store, graph.label)
        counts[max_iter] = cache.retained_floats()
        iters[max_iter] = cache.solver_result.iterations
    variation = abs(counts[10] - counts[50]) / counts[50]
    ok = variation < 0.01 and iters[10] < iters[50]
    report(9, ok,
           f"retained floats {counts[10]} vs {counts[50]} "
           f"({iters[10]} vs {iters[50]} solver iterations): variation "
           f"{variation:.4%} (<1%)")

"""Full-model forward/backward: determinism, equilibrium uniqueness, implicit
gradients against unrolled backprop and finite differences, memory contract."""

from dataclasses import replace

import numpy as np
import pytest

from cfgexec.model import (
    PARAM_NAMES,
    ModelConfig,
    bce_grad,
    bce_with_logit,
    derive_seed,
    forward,
    init_model_params,
    model_backward,
    prepare_graph,
)
from cfgexec.nn import ParamStore, finite_diff_check
from cfgexec.solver import SolverConfig, anderson, naive_iterate
from cfgexec.synth import SyntheticSpec, generate_dataset
from cfgexec.training import TrainConfig

from oracles import entry_response_by_hop, max_param_rel_err, unrolled_model_grads


def tiny_setup(seed, n_lo=3, n_hi=4, h=4, chain=2, tau=1.0):
    cfg = TrainConfig(h=h, precision="f64", dropout=0.0, tau=tau,
                      solver=SolverConfig(max_iter=200, tol=1e-12))
    spec = SyntheticSpec(n_graphs=2, node_count_range=(n_lo, n_hi), chain_length=chain,
                         vuln_token_id=8, vocab_size=12, seed=seed,
                         tokens_per_block=2, exclusive_branching=False)
    graph = generate_dataset(spec)[seed % 2]
    bundle = prepare_graph(graph, cfg)
    store = init_model_params(cfg, spec.vocab_size, seed=seed)
    return cfg, graph, bundle, store


class TestLoss:
    def test_logit_zero_is_ln2(self):
        assert bce_with_logit(0.0, 0) == pytest.approx(np.log(2.0))
        assert bce_with_logit(0.0, 1) == pytest.approx(np.log(2.0))

    def test_saturated_positive(self):
        assert bce_with_logit(20.0, 1) == pytest.approx(2.061153622438558e-09, rel=1e-6)

    def test_softplus_negative(self):
        assert bce_with_logit(-3.0, 0) == pytest.approx(0.048587351573742, rel=1e-9)

    def test_gradient(self):
        for logit in (-2.0, 0.0, 1.5):
            for label in (0, 1):
                eps = 1e-7
                num = (bce_with_logit(logit + eps, label)
                       - bce_with_logit(logit - eps, label)) / (2 * eps)
                assert bce_grad(logit, label) == pytest.approx(num, abs=1e-6)


class TestForward:
    def test_deterministic_given_seed(self):
        cfg, graph, bundle, store = tiny_setup(0)
        logit1, _ = forward(bundle, store, cfg, mode="eval", seed=42)
        logit2, _ = forward(bundle, store, cfg, mode="eval", seed=42)
        assert logit1 == logit2

    def test_different_seed_different_agent(self):
        cfg, graph, bundle, store = tiny_setup(0)
        _, c1 = forward(bundle, store, cfg, mode="eval", seed=1)
        _, c2 = forward(bundle, store, cfg, mode="eval", seed=2)
        assert not np.array_equal(c1.step_cache.z, c2.step_cache.z)

    def test_zero_head_gives_zero_logit(self):
        cfg, graph, bundle, store = tiny_setup(1)
        store.params["wp"][:] = 0.0
        logit, _ = forward(bundle, store, cfg, mode="eval", seed=0)
        assert logit == 0.0

    def test_single_node_graph(self):
        from cfgexec.graphs import make_graph

        cfg = TrainConfig(h=4, precision="f64", dropout=0.0)
        g = make_graph("one", [[2, 5, 3]], [], 0, [0], label=1)
        bundle = prepare_graph(g, cfg)
        store = init_model_params(cfg, 12, seed=0)
        store.params["wp"][:] = 0.0
        logit, cache = forward(bundle, store, cfg, mode="eval", seed=0)
        assert logit == 0.0
        assert cache.solver_result.converged

    def test_equilibrium_unique_across_initializations(self):
        cfg, graph, bundle, store = tiny_setup(2)
        _, cache = forward(bundle, store, cfg, mode="eval", seed=5)
        step = cache.step
        rng = np.random.default_rng(0)
        stars = []
        for _ in range(10):
            x0 = rng.normal(size=cache.x_star.shape)
            res = anderson(step, x0, replace(cfg.solver, tol=1e-12))
            assert res.converged
            stars.append(res.x_star)
        spread = max(float(np.abs(s - stars[0]).max()) for s in stars)
        assert spread < 1e-5

    def test_anderson_naive_agree_on_joint_update(self):
        cfg, graph, bundle, store = tiny_setup(3)
        _, cache = forward(bundle, store, cfg, mode="eval", seed=9)
        a = anderson(cache.step, cache.step.u.copy(), replace(cfg.solver, tol=1e-11))
        n = naive_iterate(cache.step, cache.step.u.copy(), 3000, 1e-11)
        assert a.converged and n.converged
        assert float(np.abs(a.x_star - n.x_star).max()) < 1e-5

    def test_train_mode_applies_dropout(self):
        cfg, graph, bundle, store = tiny_setup(4)
        cfg.dropout = 0.5
        logit_eval, _ = forward(bundle, store, cfg, mode="eval", seed=3)
        logit_train, cache = forward(bundle, store, cfg, mode="train", seed=3)
        assert cache.keep is not None
        assert logit_train != logit_eval

    def test_hard_mode_forward_terminates(self):
        cfg, graph, bundle, store = tiny_setup(5)
        cfg.agent_mode = "hard"
        for seed in range(6):
            logit, cache = forward(bundle, store, cfg, mode="eval", seed=seed)
            assert np.isfinite(logit)
            assert cache.termination in ("equilibrium", "exit-reached", "max-steps")
            assert sorted(set(cache.step_cache.a.tolist())) in ([0.0, 1.0], [1.0])

    @pytest.mark.parametrize("case", ["equilibrium", "exit-reached", "max-steps"])
    def test_trace_records_one_selection_per_iteration(self, case):
        cfg, graph, bundle, store = tiny_setup(5)
        if case == "exit-reached":
            # every block an exit: a hard agent stops at its first iterate
            cfg.agent_mode = "hard"
            bundle = prepare_graph(replace(graph, exits=frozenset(range(graph.n))), cfg)
        if case == "max-steps":
            cfg.solver = SolverConfig(max_iter=3, tol=1e-30)
        logit, cache = forward(bundle, store, cfg, mode="eval", seed=1, keep_trace=True)
        assert cache.termination == case
        assert len(cache.selected) == len(cache.solver_result.residuals) \
            == cache.solver_result.iterations
        assert all(0 <= sel < graph.n for sel in cache.selected)
        if case != "max-steps":
            assert cache.selected[-1] == int(np.argmax(cache.step_cache.z))
        plain_logit, plain = forward(bundle, store, cfg, mode="eval", seed=1)
        assert plain_logit == logit
        assert plain.selected == []
        assert plain.solver_result.residuals == cache.solver_result.residuals[-1:]


class TestGatedEigenvalue:
    def test_eval_forward_skips_gated_eigenvalue(self, monkeypatch):
        """Preparing and scoring a graph computes neither the gated nor the
        ungated PF eigenvalue."""
        import cfgexec.model

        cfg, graph, bundle, store = tiny_setup(0)
        expected, _ = forward(bundle, store, cfg, mode="eval", seed=5)

        def forbidden(*args, **kwargs):
            raise AssertionError("scoring computed a PF eigenvalue")

        monkeypatch.setattr(cfgexec.model, "pf_eigenvalue", forbidden)
        logit, _ = forward(prepare_graph(graph, cfg), store, cfg, mode="eval", seed=5)
        assert logit == expected

    def test_train_forward_keeps_gated_eigenvalue(self):
        """A train forward keeps the gated adjacency that training estimates
        the gated eigenvalue from, with the coarse settings."""
        from cfgexec.executor import gate_adjacency
        from cfgexec.model import gated_eigenvalues, lambda_hats
        from cfgexec.solver import pf_eigenvalue

        cfg, graph, bundle, store = tiny_setup(1)
        _, cache = forward(bundle, store, cfg, mode="train", seed=5)
        gated = gate_adjacency(bundle.a_hat, cache.step_cache.a, cfg.gate_axis)
        assert np.array_equal(cache.group.gated_adjacency, gated[None])
        [lam] = gated_eigenvalues([gated])
        assert lam == pf_eigenvalue(gated, max_iter=80, tol=1e-6)
        assert 0.0 < lam <= lambda_hats([bundle])[0] + 1e-6


def test_param_names_are_the_initialized_parameters():
    store = init_model_params(ModelConfig(h=4), vocab_size=8)
    assert sorted(PARAM_NAMES) == sorted(store.params)


class TestLambdaHat:
    def test_computed_once_from_f64_adjacency(self, monkeypatch):
        import cfgexec.model
        from cfgexec.graphs import renormalize
        from cfgexec.solver import pf_eigenvalue

        cfg, graph, _, _ = tiny_setup(1)
        cfg.precision = "f32"
        calls = []

        def counting(matrix, *args, **kwargs):
            calls.append(matrix.dtype)
            return pf_eigenvalue(matrix, *args, **kwargs)

        monkeypatch.setattr(cfgexec.model, "pf_eigenvalue", counting)
        bundle = prepare_graph(graph, cfg)
        assert calls == []
        assert cfgexec.model.lambda_hats([bundle]) == [pf_eigenvalue(renormalize(graph.adjacency))]
        assert calls == [np.float64]


class TestHandTrace:
    def test_two_node_chain_h1_matches_straight_line_oracle(self):
        """Full pipeline at h=1 against an independent scalar transcription."""
        import math

        from cfgexec.graphs import make_graph

        cfg = TrainConfig(h=1, precision="f64", dropout=0.0, tau=1.0,
                          solver=SolverConfig(max_iter=400, tol=1e-13))
        g = make_graph("pair", [[2, 4, 3], [2, 5, 3]], [(0, 1)], 0, [1], label=1)
        bundle = prepare_graph(g, cfg)
        store = init_model_params(cfg, 6, seed=0)
        p = store.params
        # overwrite with hand-picked scalars
        for name, val in (("ws", 0.7), ("W", 0.4), ("Om", 0.9), ("cb", 0.1),
                          ("ln_g", 1.3), ("ln_b", -0.2), ("wp", 0.8),
                          ("mix_b", 0.05)):
            p[name][...] = val
        p["mix_W"][...] = np.array([[0.6], [0.5]])
        for prefix in ("gruf", "grub"):
            for k, v in (("Wr", 0.3), ("Wu", -0.2), ("Wc", 0.8), ("Ur", 0.1),
                         ("Uu", 0.2), ("Uc", -0.3), ("br", 0.05), ("bu", -0.05),
                         ("bc", 0.1)):
                p[f"{prefix}_{k}"][...] = v
        p["emb"][...] = 0.0
        p["emb"][2, 0] = 0.11
        p["emb"][3, 0] = -0.07
        p["emb"][4, 0] = 0.23
        p["emb"][5, 0] = -0.31

        logit, cache = forward(bundle, store, cfg, mode="eval", seed=13)

        # --- independent straight-line recomputation ---
        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        def cell(x, hprev, wr, ur, br, wu, uu, bu, wc, uc, bc):
            r = sig(x * wr + hprev * ur + br)
            u_ = sig(x * wu + hprev * uu + bu)
            c = math.tanh(x * wc + r * hprev * uc + bc)
            return (1 - u_) * hprev + u_ * c

        def encode(seq):
            emb = {2: 0.11, 3: -0.07, 4: 0.23, 5: -0.31}
            xs = [emb[t] for t in seq]
            hf = 0.0
            fwd = []
            for x in xs:
                hf = cell(x, hf, 0.3, 0.1, 0.05, -0.2, 0.2, -0.05, 0.8, -0.3, 0.1)
                fwd.append(hf)
            hb = 0.0
            bwd = [0.0] * len(xs)
            for i in reversed(range(len(xs))):
                hb = cell(xs[i], hb, 0.3, 0.1, 0.05, -0.2, 0.2, -0.05, 0.8, -0.3, 0.1)
                bwd[i] = hb
            mixed = [0.6 * f + 0.5 * b + 0.05 for f, b in zip(fwd, bwd)]
            return sum(mixed) / len(mixed)

        u0 = encode([2, 4, 3])
        u1 = encode([2, 5, 3])
        a_hat = [[0.5, 1.0 / math.sqrt(2.0)], [0.0, 1.0]]
        gseed = np.random.default_rng(derive_seed(13, "gumbel")).gumbel(size=2)
        x0, x1 = u0, u1
        for _ in range(400):
            s0, s1 = sig(x0 * 0.7), sig(x1 * 0.7)
            l0 = math.log(s0) + gseed[0]
            l1 = math.log(s1) + gseed[1]
            m = max(l0, l1)
            e0, e1 = math.exp(l0 - m), math.exp(l1 - m)
            z0, z1 = e0 / (e0 + e1), e1 / (e0 + e1)
            g0, g1 = z0 / max(z0, z1), z1 / max(z0, z1)  # top block at full weight
            q0 = a_hat[0][0] * x0  # in-flow of node 0 (column 0)
            q1 = a_hat[0][1] * x0 + a_hat[1][1] * x1
            x0 = g0 * q0 * 0.4 + math.tanh(u0 * 0.9 + 0.1)
            x1 = g1 * q1 * 0.4 + math.tanh(u1 * 0.9 + 0.1)
        pooled = 0.5 * (x0 + x1)
        x_hat = 0.0  # single feature: (pooled - mean)/std = 0
        g_vec = 1.3 * x_hat - 0.2
        expected_logit = 0.8 * g_vec

        assert logit == pytest.approx(expected_logit, abs=1e-9)
        np.testing.assert_allclose(cache.x_star.ravel(), [x0, x1], atol=1e-9)


class TestImplicitBackward:
    def test_matches_unrolled_oracle(self):
        worst_overall = 0.0
        for seed in range(6):
            cfg, graph, bundle, store = tiny_setup(seed)
            _, cache = forward(bundle, store, cfg, mode="eval", seed=seed)
            loss_i, grads_i = model_backward(cache, store, graph.label)
            loss_u, grads_u, residual = unrolled_model_grads(
                bundle, store, cfg, seed, graph.label, steps=100)
            assert residual < 1e-12
            assert loss_i == pytest.approx(loss_u, abs=1e-10)
            worst_overall = max(worst_overall, max_param_rel_err(grads_i, grads_u))
        assert worst_overall < 1e-4

    def test_no_graph_term_reduces_to_one_step_backprop(self):
        from cfgexec.graphs import make_graph

        cfg = TrainConfig(h=3, precision="f64", dropout=0.0,
                          solver=SolverConfig(max_iter=100, tol=1e-13))
        g = make_graph("iso", [[2, 5, 3], [2, 6, 3]], [], 0, [0, 1], label=1)
        bundle = prepare_graph(g, cfg)
        store = init_model_params(cfg, 8, seed=3)
        bundle_zero = type(bundle)(graph=bundle.graph, ids=bundle.ids, mask=bundle.mask,
                                   a_hat=np.zeros_like(bundle.a_hat))
        _, cache = forward(bundle_zero, store, cfg, mode="eval", seed=1)
        loss, grads = model_backward(cache, store, 1)
        # with A~=0 the equilibrium is phi(U Om + b); check dOm by finite diff
        eps = 1e-6
        d = np.random.default_rng(0).normal(size=store.params["Om"].shape)
        for sign in (1,):
            probe = store.copy()
            probe.params["Om"] = store.params["Om"] + eps * d
            lp, _ = forward(bundle_zero, probe, cfg, mode="eval", seed=1)
            probe.params["Om"] = store.params["Om"] - eps * d
            lm, _ = forward(bundle_zero, probe, cfg, mode="eval", seed=1)
            num = (bce_with_logit(lp, 1) - bce_with_logit(lm, 1)) / (2 * eps)
        assert num == pytest.approx(float((grads["Om"] * d).sum()), rel=1e-6)

    def test_full_model_finite_difference(self):
        cfg, graph, bundle, store = tiny_setup(7)

        def loss_fn(params):
            logit, _ = forward(bundle, ParamStore(params), cfg, mode="eval", seed=7)
            return bce_with_logit(logit, graph.label)

        _, grads = model_backward(forward(bundle, store, cfg, mode="eval", seed=7)[1], store,
                                  graph.label)
        worst = finite_diff_check(loss_fn, grads, store.params, eps=2e-4)
        assert max(worst.values()) < 1e-4

    def test_train_mode_gradients_also_check(self):
        cfg, graph, bundle, store = tiny_setup(8)
        cfg.dropout = 0.5

        def loss_fn(params):
            logit, _ = forward(bundle, ParamStore(params), cfg, mode="train", seed=11)
            return bce_with_logit(logit, graph.label)

        _, grads = model_backward(forward(bundle, store, cfg, mode="train", seed=11)[1], store,
                                  graph.label)
        worst = finite_diff_check(loss_fn, grads, store.params, eps=2e-4)
        assert max(worst.values()) < 1e-4


class TestPropagation:
    def test_entry_signal_reaches_end_of_chain(self):
        """At init the equilibrium carries the entry block's features down a
        whole chain, not just two hops (f64, default model settings)."""
        spec = SyntheticSpec(n_graphs=2, chain_length=6, node_count_range=(7, 7),
                             exclusive_branching=False, seed=0)
        graph = generate_dataset(spec)[1]
        cfg = ModelConfig(precision="f64")
        bundle = prepare_graph(graph, cfg)
        store = init_model_params(cfg, spec.vocab_size, seed=0)
        _, cache = forward(bundle, store, cfg, mode="eval", seed=0)
        response = entry_response_by_hop(bundle, cache.step, cache.x_star)
        assert sorted(response) == list(range(spec.chain_length + 1))
        assert response[spec.chain_length] > 1e-3 * response[0]


class TestMemoryContract:
    def test_retained_activations_independent_of_solver_budget(self):
        cfg, graph, bundle, store = tiny_setup(9)
        counts = {}
        iterations = {}
        for max_iter in (10, 50):
            cfg_k = TrainConfig(h=cfg.h, precision="f64", dropout=0.0, tau=cfg.tau,
                                solver=SolverConfig(max_iter=max_iter, tol=1e-30))
            _, cache = forward(bundle, store, cfg_k, mode="eval", seed=2)
            model_backward(cache, store, graph.label)
            counts[max_iter] = cache.retained_floats()
            iterations[max_iter] = cache.solver_result.iterations
        assert iterations[10] < iterations[50]
        assert abs(counts[10] - counts[50]) / counts[50] < 0.01

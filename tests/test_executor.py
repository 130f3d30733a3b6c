"""Executor: program state, Gumbel agent, gating, and the transition `JointStep`."""

import numpy as np
import pytest

from cfgexec.executor import (
    JointStep,
    agent_gate,
    gate_adjacency,
    gumbel_softmax,
    program_state,
)
from cfgexec.graphs import renormalize
from cfgexec.solver import pf_eigenvalue, project_wellposed

from oracles import dense_spectral_radius


def one_hot(index, n, dtype):
    a = np.zeros(n, dtype=dtype)
    a[index] = 1.0
    return a


def random_a_hat(rng, n):
    a = (rng.random((n, n)) < 0.4).astype(float)
    np.fill_diagonal(a, 0.0)
    return renormalize(a)


def sample(s, tau, rng, hard):
    """Draw Gumbel noise from rng; return the relaxed sample z and the agent gate."""
    z = gumbel_softmax(s, rng.gumbel(size=s.shape), tau)
    return z, agent_gate(z, hard)


def transition(a_hat, u, w, omega, bias, w_s=None, noise=None, tau=1.0):
    """JointStep with a constant program state (w_s = 0) unless w_s is given."""
    n, h = u.shape
    return JointStep(a_hat=a_hat, u=u, w_s=np.zeros((h, 1)) if w_s is None else w_s,
                     w=w, omega=omega, bias=bias,
                     noise=np.zeros(n) if noise is None else noise, tau=tau)


class TestProgramState:
    def test_zero_weights_give_half(self):
        s = program_state(np.random.default_rng(0).normal(size=(4, 3)), np.zeros((3, 1)))
        np.testing.assert_allclose(s, 0.5)

    def test_hand_computed(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = np.array([[1.0], [0.0]])
        s = program_state(x, w)
        np.testing.assert_allclose(s, [0.7310585786300049, 0.5], atol=1e-12)

    def test_saturation(self):
        x = np.array([[1000.0]])
        s = program_state(x, np.array([[1.0]]))
        assert s[0] == pytest.approx(1.0, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(1)
        s = program_state(rng.normal(size=(8, 5)) * 10, rng.normal(size=(5, 1)))
        assert ((s > 0) & (s < 1)).all()


class TestGumbel:
    def test_huge_tau_is_uniform(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = rng.uniform(0.05, 0.95, size=6)
            z, _ = sample(s, 1e6, rng, hard=False)
            assert np.abs(z - 1.0 / 6.0).max() < 1e-3

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(0.1, 0.9, size=5)
        z, a = sample(s, 0.7, rng, hard=False)
        assert z.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(a, z / z.max())
        assert a.max() == 1.0

    def test_hard_sample_one_hot(self):
        rng = np.random.default_rng(4)
        z, a = sample(np.array([0.3, 0.5, 0.2]), 0.5, rng, hard=True)
        assert sorted(a.tolist()) == [0.0, 0.0, 1.0]
        assert a[np.argmax(z)] == 1.0

    def test_argmax_frequencies_match_categorical(self):
        # Gumbel-max: P(argmax = i) = s_i / sum(s), independent of tau
        rng = np.random.default_rng(5)
        s = np.array([0.2, 0.3, 0.5])
        draws = 100_000
        noise = rng.gumbel(size=(draws, 3))
        logits = (np.log(s) + noise) / 0.1
        counts = np.bincount(np.argmax(logits, axis=1), minlength=3) / draws
        np.testing.assert_allclose(counts, s / s.sum(), atol=0.02)


class TestGate:
    def test_all_ones_recovers_a_hat(self):
        a_hat = random_a_hat(np.random.default_rng(7), 5)
        np.testing.assert_array_equal(gate_adjacency(a_hat, np.ones(5)), a_hat)

    def test_one_hot_keeps_single_column(self):
        a_hat = random_a_hat(np.random.default_rng(8), 4)
        gated = gate_adjacency(a_hat, one_hot(2, 4, np.float64))
        assert (gated[:, [0, 1, 3]] == 0).all()
        np.testing.assert_array_equal(gated[:, 2], a_hat[:, 2])

    def test_never_increases_entries(self):
        rng = np.random.default_rng(9)
        a_hat = random_a_hat(rng, 6)
        for _ in range(20):
            a = rng.uniform(0, 1, size=6)
            assert (gate_adjacency(a_hat, a) <= a_hat + 1e-15).all()

    def test_gated_pf_bounded_by_ungated(self):
        rng = np.random.default_rng(10)
        a_hat = random_a_hat(rng, 5)
        lam = pf_eigenvalue(a_hat)
        for _ in range(100):
            a = rng.uniform(0, 1, size=5)
            assert pf_eigenvalue(gate_adjacency(a_hat, a)) <= lam + 1e-9

    def test_agent_gates_keep_pf_at_most_one(self):
        # soft gates are z / max(z); a renormalized adjacency has PF eigenvalue
        # 1, so no agent draw can raise the gated eigenvalue above it
        rng = np.random.default_rng(12)
        for _ in range(50):
            a_hat = random_a_hat(rng, 6)
            assert dense_spectral_radius(a_hat) == pytest.approx(1.0, abs=1e-9)
            for hard in (False, True):
                z, a = sample(rng.uniform(0.05, 0.95, size=6), 0.5, rng, hard=hard)
                assert a.max() == 1.0 and a.min() >= 0.0
                for axis in ("recv", "send"):
                    gated = gate_adjacency(a_hat, a, gate_axis=axis)
                    assert dense_spectral_radius(gated) <= 1.0 + 1e-9

    def test_row_gate_scales_rows(self):
        a_hat = random_a_hat(np.random.default_rng(11), 4)
        a = np.array([0.5, 1.0, 0.0, 1.0])
        gated = gate_adjacency(a_hat, a, gate_axis="send")
        np.testing.assert_allclose(gated[0], a_hat[0] * 0.5)
        np.testing.assert_allclose(gated[2], 0.0)


class TestDeqCell:
    """The transition X' = A~^T X W + phi(U Omega + b), computed by `JointStep`."""

    def test_zero_adjacency_is_pure_injection(self):
        rng = np.random.default_rng(12)
        n, h = 4, 3
        u = rng.normal(size=(n, h))
        x = rng.normal(size=(n, h))
        step = transition(np.zeros((n, n)), u, rng.normal(size=(h, h)), np.eye(h), np.zeros(h),
                          w_s=rng.normal(size=(h, 1)), noise=rng.gumbel(size=n))
        np.testing.assert_allclose(step(x), np.tanh(u), atol=1e-12)

    def test_zero_weights_give_bias(self):
        n, h = 3, 2
        bias = np.array([0.3, -0.4])
        step = transition(np.ones((n, n)) * 0.2, np.ones((n, h)), np.zeros((h, h)),
                          np.zeros((h, h)), bias)
        out = step(np.ones((n, h)))
        np.testing.assert_allclose(out, np.tanh(bias)[None, :].repeat(n, 0), atol=1e-12)

    def test_single_node_fixed_point_matches_bisection(self):
        # n=1, h=1: the agent's gate on the one node is 1, so the transition
        # is x = x*w + tanh(u*om); solve it by bisection as the oracle
        w, om, u = 0.6, 0.8, 0.35

        def f(x):
            return x * w + np.tanh(u * om)

        lo, hi = -1.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) - mid > 0:
                lo = mid
            else:
                hi = mid
        x_star_oracle = 0.5 * (lo + hi)
        step = transition(np.array([[1.0]]), np.array([[u]]), np.array([[w]]),
                          np.array([[om]]), np.zeros(1), w_s=np.array([[0.5]]))
        x = np.zeros((1, 1))
        for _ in range(500):
            x = step(x)
        assert x[0, 0] == pytest.approx(x_star_oracle, abs=1e-9)

    def test_contraction_after_projection(self):
        rng = np.random.default_rng(13)
        n, h = 5, 4
        a_hat = random_a_hat(rng, n)
        noise = rng.gumbel(size=n)
        # with w_s = 0 the program state is constant, so the agent's gate is
        # the same at every X and the transition is affine in X
        a = agent_gate(gumbel_softmax(np.full(n, 0.5), noise, 1.0), hard=False)
        gated = gate_adjacency(a_hat, a)
        lam = pf_eigenvalue(gated)
        w = project_wellposed(rng.normal(size=(h, h)) * 2.0, lam, 0.9)
        u = rng.normal(size=(n, h))
        om = rng.normal(size=(h, h)) * 0.3
        b = rng.normal(size=h) * 0.1
        step = transition(a_hat, u, w, om, b, noise=noise)
        kappa = np.abs(w).sum(axis=1).max() * lam
        assert kappa < 0.9 + 1e-9
        # the linear part X -> gated^T X W has spectral radius
        # lambda * rho(W) <= lambda * ||W||_inf, which bounds the asymptotic
        # contraction rate of the iteration
        assert dense_spectral_radius(np.kron(gated.T, w.T)) <= 0.9 + 1e-9
        for _ in range(10):
            x1 = rng.normal(size=(n, h))
            x2 = rng.normal(size=(n, h))
            gap0 = np.abs(x1 - x2).max()
            for _ in range(200):
                x1 = step(x1)
                x2 = step(x2)
            assert np.abs(x1 - x2).max() <= 1e-6 * gap0


class TestStraightThrough:
    def test_hard_backward_equals_soft_backward_on_same_noise(self):
        rng = np.random.default_rng(14)
        n, h = 5, 3
        a_hat = random_a_hat(rng, n)
        u = rng.normal(size=(n, h))
        kwargs = dict(
            a_hat=a_hat, u=u, w_s=rng.normal(size=(h, 1)), w=rng.normal(size=(h, h)) * 0.4,
            omega=rng.normal(size=(h, h)) * 0.3, bias=rng.normal(size=h) * 0.1,
            noise=rng.gumbel(size=n), tau=1.0,
        )
        soft = JointStep(hard=False, **kwargs)
        hard = JointStep(hard=True, **kwargs)
        x = rng.normal(size=(n, h))
        _, c_soft = soft.forward_cached(x)
        _, c_hard = hard.forward_cached(x)
        assert np.array_equal(c_hard.a, one_hot(int(np.argmax(c_hard.z)), n, np.float64))
        np.testing.assert_array_equal(c_soft.z, c_hard.z)
        da = rng.normal(size=n)
        # dX and dW_s of the agent path are this times w_s and X
        np.testing.assert_array_equal(soft._agent_dpre(c_soft, da), hard._agent_dpre(c_hard, da))

    def test_joint_step_matches_op_composition(self):
        rng = np.random.default_rng(15)
        n, h = 4, 3
        a_hat = random_a_hat(rng, n)
        u = rng.normal(size=(n, h))
        w_s = rng.normal(size=(h, 1))
        w = rng.normal(size=(h, h)) * 0.4
        om = rng.normal(size=(h, h)) * 0.3
        b = rng.normal(size=h) * 0.1
        noise = rng.gumbel(size=n)
        step = JointStep(a_hat=a_hat, u=u, w_s=w_s, w=w, omega=om, bias=b,
                         noise=noise, tau=0.8)
        x = rng.normal(size=(n, h))
        s = program_state(x, w_s)
        z = gumbel_softmax(s, noise, 0.8)
        gated = gate_adjacency(a_hat, z / z.max())
        expected = (gated.T @ x) @ w + np.tanh(u @ om + b)
        np.testing.assert_allclose(step(x), expected, atol=1e-12)


class TestVjp:
    def test_vjp_x_matches_directional_derivative(self):
        rng = np.random.default_rng(16)
        for gate_axis in ("recv", "send"):
            n, h = 4, 3
            step = JointStep(
                a_hat=random_a_hat(rng, n), u=rng.normal(size=(n, h)),
                w_s=rng.normal(size=(h, 1)) * 0.5, w=rng.normal(size=(h, h)) * 0.5,
                omega=rng.normal(size=(h, h)) * 0.3, bias=rng.normal(size=h) * 0.1,
                noise=rng.gumbel(size=n), tau=1.0, gate_axis=gate_axis)
            x = rng.normal(size=(n, h))
            v = rng.normal(size=(n, h))
            d = rng.normal(size=(n, h))
            _, cache = step.forward_cached(x)
            dx = step.vjp_x(cache, v)
            eps = 1e-6
            num = ((step(x + eps * d) * v).sum() - (step(x - eps * d) * v).sum()) / (2 * eps)
            assert num == pytest.approx(float((dx * d).sum()), rel=1e-6)

    def test_vjp_params_match_directional_derivatives(self):
        rng = np.random.default_rng(17)
        n, h = 4, 3
        base = dict(
            a_hat=random_a_hat(rng, n), u=rng.normal(size=(n, h)),
            w_s=rng.normal(size=(h, 1)) * 0.5, w=rng.normal(size=(h, h)) * 0.5,
            omega=rng.normal(size=(h, h)) * 0.3, bias=rng.normal(size=h) * 0.1,
            noise=rng.gumbel(size=n), tau=1.0)
        step = JointStep(**base)
        x = rng.normal(size=(n, h))
        v = rng.normal(size=(n, h))
        _, cache = step.forward_cached(x)
        grads = step.vjp_params(cache, v)
        eps = 1e-6
        for name, key in (("w", "W"), ("omega", "Om"), ("bias", "cb"), ("w_s", "ws"), ("u", "U")):
            d = rng.normal(size=base[name].shape)
            plus = dict(base)
            plus[name] = base[name] + eps * d
            minus = dict(base)
            minus[name] = base[name] - eps * d
            num = ((JointStep(**plus)(x) * v).sum() - (JointStep(**minus)(x) * v).sum()) / (2 * eps)
            assert num == pytest.approx(float((grads[key] * d).sum()), rel=1e-5, abs=1e-10), name


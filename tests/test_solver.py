"""Fixed-point solvers, PF eigenvalue estimation, and the weight projection."""

import warnings

import numpy as np
import pytest

from cfgexec.executor import gate_adjacency
from cfgexec.graphs import renormalize
from cfgexec.model import forward, init_model_params, prepare_graph
from cfgexec.solver import (
    DivergenceError,
    SolverConfig,
    anderson,
    naive_iterate,
    pf_eigenvalue,
    project_l1_ball,
    project_wellposed,
    solve_stack,
)
from cfgexec.synth import SyntheticSpec, generate_dataset
from cfgexec.training import TrainConfig

from oracles import (
    anderson_reference,
    dense_spectral_radius,
    l1_projection_bisection,
    pf_eigenvalue_reference,
)

COS_FIXED_POINT = 0.7390851332151607


class TestNaive:
    def test_affine_map(self):
        res = naive_iterate(lambda x: 0.5 * x + 1.0, np.array([0.0]), 60, 1e-8)
        assert res.converged
        assert res.x_star[0] == pytest.approx(2.0, abs=1e-6)
        assert res.iterations <= 30

    def test_identity_converges_immediately(self):
        x0 = np.array([1.0, -2.0])
        res = naive_iterate(lambda x: x, x0, 10, 1e-8)
        assert res.converged
        assert res.iterations == 1
        np.testing.assert_array_equal(res.x_star, x0)

    def test_cosine(self):
        res = naive_iterate(np.cos, np.array([0.0]), 200, 1e-10)
        assert res.converged
        assert res.x_star[0] == pytest.approx(COS_FIXED_POINT, abs=1e-8)

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError):
            naive_iterate(lambda x: 10.0 * x + 1.0, np.array([1.0]), 50, 1e-8)


class TestAnderson:
    def test_m1_reduces_to_naive_exactly(self):
        f = lambda x: np.cos(x) * 0.9 + 0.1 * x
        x0 = np.array([0.3])
        a = anderson(f, x0, SolverConfig(m=1, max_iter=40, tol=1e-9))
        n = naive_iterate(f, x0, 40, 1e-9)
        assert a.residuals == n.residuals
        np.testing.assert_array_equal(a.x_star, n.x_star)

    def test_cosine_at_least_twice_as_fast(self):
        x0 = np.array([0.0])
        a = anderson(np.cos, x0, SolverConfig(max_iter=200, tol=1e-10))
        n = naive_iterate(np.cos, x0, 200, 1e-10)
        assert a.converged and n.converged
        assert a.x_star[0] == pytest.approx(COS_FIXED_POINT, abs=1e-8)
        assert a.iterations * 2 <= n.iterations

    def test_contractive_affine_map_in_r8(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(8, 8))
        m *= 0.6 / np.abs(np.linalg.eigvals(m)).max()
        b = rng.normal(size=8)
        f = lambda x: m @ x + b
        x0 = np.zeros(8)
        a = anderson(f, x0, SolverConfig(max_iter=100, tol=1e-10))
        n = naive_iterate(f, x0, 500, 1e-10)
        assert a.converged and n.converged
        assert np.abs(a.x_star - n.x_star).max() < 1e-6

    def test_shape_preserved(self):
        f = lambda x: 0.5 * x
        res = anderson(f, np.ones((3, 4)), SolverConfig(max_iter=80, tol=1e-9))
        assert res.x_star.shape == (3, 4)
        assert res.converged

    def test_matches_naive_fixed_point_on_2d_maps(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = rng.normal(size=(5, 5))
            m *= rng.uniform(0.3, 0.8) / np.abs(np.linalg.eigvals(m)).max()
            b = rng.normal(size=5)
            f = lambda x, m=m, b=b: np.tanh(m @ x + b)
            a = anderson(f, np.zeros(5), SolverConfig(max_iter=200, tol=1e-11))
            n = naive_iterate(f, np.zeros(5), 2000, 1e-11)
            assert a.converged and n.converged
            assert np.abs(a.x_star - n.x_star).max() < 1e-5


class TestSolveStack:
    """`solve_stack` against `np.linalg.solve`, byte for byte, on stacks of
    Anderson-sized systems."""

    @staticmethod
    def systems(rng, size, k):
        a = rng.normal(size=(size, k, k))
        a = a @ a.transpose(0, 2, 1) + rng.random() * np.eye(k)  # Gram-like
        return a, rng.normal(size=(size, k, 1))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_regular_stacks(self, k):
        rng = np.random.default_rng(k)
        for size in (1, 2, 7):
            a, b = self.systems(rng, size, k)
            got, want = solve_stack(a, b), np.linalg.solve(a, b)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_singular_items_are_nan_and_others_keep_their_bits(self, k):
        rng = np.random.default_rng(10 + k)
        a, b = self.systems(rng, 6, k)
        a[1] = 0.0
        a[4, :, -1] = 0.0  # a zero column
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solve_stack(a, b)
        for j in range(len(a)):
            if j in (1, 4):
                assert np.isnan(got[j]).all()
                with pytest.raises(np.linalg.LinAlgError):
                    np.linalg.solve(a[j], b[j])
            else:
                assert got[j].tobytes() == np.linalg.solve(a[j], b[j]).tobytes()


class TestPfEigenvalue:
    def test_permutation_matrix(self):
        assert pf_eigenvalue(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal(self):
        assert pf_eigenvalue(np.diag([0.3, 2.5, 1.1])) == pytest.approx(2.5, abs=1e-10)

    def test_zero_matrix(self):
        assert pf_eigenvalue(np.zeros((4, 4))) == 0.0

    def test_random_5x5_matches_dense(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = rng.random((5, 5))
            assert pf_eigenvalue(m) == pytest.approx(dense_spectral_radius(m), abs=1e-8)

    def test_negative_entries_folded(self):
        m = np.array([[0.0, -2.0], [1.0, 0.0]])
        assert pf_eigenvalue(m) == pytest.approx(dense_spectral_radius(np.abs(m)), abs=1e-10)


class TestL1Projection:
    def test_interior_point_unchanged(self):
        v = np.array([0.2, -0.3, 0.1])
        np.testing.assert_array_equal(project_l1_ball(v, 1.0), v)

    def test_single_active_coordinate(self):
        np.testing.assert_allclose(project_l1_ball(np.array([3.0, 0.0]), 1.0),
                                   [1.0, 0.0], atol=1e-12)

    def test_symmetric_threshold(self):
        np.testing.assert_allclose(project_l1_ball(np.array([2.0, 2.0]), 2.0),
                                   [1.0, 1.0], atol=1e-12)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            v = rng.normal(size=dim) * 3.0
            r = float(rng.uniform(0.1, 3.0))
            np.testing.assert_allclose(project_l1_ball(v, r),
                                       l1_projection_bisection(v, r), atol=1e-7)

    def test_is_euclidean_nearest_feasible_point(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.normal(size=3) * 2.0
            r = 1.0
            out = project_l1_ball(v, r)
            assert np.abs(out).sum() <= r + 1e-9
            d_out = np.linalg.norm(out - v)
            for _ in range(200):
                q = rng.normal(size=3)
                q = q / np.abs(q).sum() * r * rng.uniform(0.0, 1.0)
                assert d_out <= np.linalg.norm(q - v) + 1e-9


class TestProjectWellposed:
    def test_feasible_w_unchanged(self):
        w = np.array([[0.1, 0.2], [0.0, 0.3]])
        np.testing.assert_array_equal(project_wellposed(w, 1.0, 0.9), w)

    def test_inf_norm_bound_holds(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = rng.normal(size=(6, 6)) * 3.0
            lam = float(rng.uniform(0.2, 2.0))
            out = project_wellposed(w, lam, 0.9)
            assert np.abs(out).sum(axis=1).max() <= 0.9 / lam + 1e-9

    def test_zero_lambda_means_no_constraint(self):
        w = np.full((3, 3), 100.0)
        np.testing.assert_array_equal(project_wellposed(w, 0.0, 0.9), w)

    def test_gated_pf_never_exceeds_ungated(self):
        rng = np.random.default_rng(9)
        m = rng.random((5, 5))
        lam_full = pf_eigenvalue(m)
        for _ in range(100):
            a = rng.uniform(0.0, 1.0, size=5)
            assert pf_eigenvalue(m * a[None, :]) <= lam_full + 1e-9


class TestPfEigenvalueMatchesReference:
    """One matrix-vector product per step gives the two-product loop's bits."""

    @staticmethod
    def renormalized(spec):
        return [renormalize(g.adjacency) for g in generate_dataset(spec)]

    def test_criterion_6_graphs(self):
        spec = SyntheticSpec(n_graphs=24, chain_length=8, seed=42)
        for m in self.renormalized(spec):
            assert pf_eigenvalue(m) == pf_eigenvalue_reference(m)

    def test_deep_graphs(self):
        spec = SyntheticSpec(n_graphs=6, chain_length=60, node_count_range=(80, 96),
                             tokens_per_block=1, seed=3)
        for m in self.renormalized(spec):
            assert pf_eigenvalue(m) == pf_eigenvalue_reference(m)

    def test_gated_f32_estimates(self):
        rng = np.random.default_rng(11)
        spec = SyntheticSpec(n_graphs=8, chain_length=8, seed=5)
        for m in self.renormalized(spec):
            a_hat = m.astype(np.float32)
            for axis in ("recv", "send"):
                z = rng.random(a_hat.shape[0]).astype(np.float32)
                gated = gate_adjacency(a_hat, z / z.max(), axis)
                assert (pf_eigenvalue(gated, max_iter=80, tol=1e-6)
                        == pf_eigenvalue_reference(gated, max_iter=80, tol=1e-6))

    @pytest.mark.parametrize("m", [
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.diag([0.3, 2.5, 1.1]),
        np.zeros((4, 4)),
        np.array([[0.0, -2.0], [1.0, 0.0]]),
    ], ids=["permutation", "diagonal", "zero", "negative"])
    def test_small_matrices(self, m):
        assert pf_eigenvalue(m) == pf_eigenvalue_reference(m)

    def test_runs_to_max_iter(self):
        m = np.random.default_rng(2).random((7, 7))
        for max_iter in (0, 1, 3, 17):
            # tol 0 never stops early, so every step runs
            assert (pf_eigenvalue(m, max_iter=max_iter, tol=0.0)
                    == pf_eigenvalue_reference(m, max_iter=max_iter, tol=0.0))


class TestPfEigenvalueStack:
    """Each matrix of a stack gets the reference loop's bits, whatever else
    the stack holds and whenever the others stop."""

    @staticmethod
    def mixed_stack(n, rng):
        """Sparse and dense nonnegative, signed, all-zero, permutation and
        diagonal matrices of size n, which stop at different steps."""
        sparse = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        return np.stack([sparse, rng.random((n, n)), rng.normal(size=(n, n)), np.zeros((n, n)),
                         np.eye(n)[rng.permutation(n)], np.diag(rng.random(n) * 3.0),
                         0.5 * sparse])

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 14, 15, 40, 96])
    @pytest.mark.parametrize("kwargs", [{}, {"max_iter": 80, "tol": 1e-6},
                                        {"max_iter": 17, "tol": 0.0}, {"max_iter": 0}],
                             ids=["default", "gated", "to-max-iter", "no-steps"])
    def test_each_matrix_matches_reference(self, n, kwargs):
        stack = self.mixed_stack(n, np.random.default_rng(n))
        got = pf_eigenvalue(stack, **kwargs)
        assert got.shape == (len(stack),)
        for m, lam in zip(stack, got.tolist()):
            assert lam == pf_eigenvalue_reference(m, **kwargs)

    def test_matrices_stop_at_different_steps(self):
        stack = self.mixed_stack(14, np.random.default_rng(14))
        final = pf_eigenvalue(stack)
        # each matrix's stop: the fewest steps that give its final value
        stop = np.full(len(stack), -1)
        for k in range(1001):
            stop[(pf_eigenvalue(stack, max_iter=k) == final) & (stop < 0)] = k
            if (stop >= 0).all():
                break
        assert len(set(stop.tolist())) >= 4, stop

    def test_gated_f32_stack(self):
        rng = np.random.default_rng(11)
        spec = SyntheticSpec(n_graphs=40, chain_length=8, seed=5)
        by_size: dict[int, list[np.ndarray]] = {}
        for g in generate_dataset(spec):
            a_hat = renormalize(g.adjacency).astype(np.float32)
            z = rng.random(a_hat.shape[0]).astype(np.float32)
            axis = ("recv", "send")[len(by_size.get(g.n, [])) % 2]
            by_size.setdefault(g.n, []).append(gate_adjacency(a_hat, z / z.max(), axis))
        for mats in by_size.values():
            stack = np.stack(mats)
            assert stack.dtype == np.float32
            got = pf_eigenvalue(stack, max_iter=80, tol=1e-6)
            for m, lam in zip(mats, got.tolist()):
                assert lam == pf_eigenvalue_reference(m, max_iter=80, tol=1e-6)

    def test_stack_of_one_is_the_lone_call(self):
        for n in (1, 5, 14):
            for m in self.mixed_stack(n, np.random.default_rng(n + 100)):
                got = pf_eigenvalue(m[None])
                assert got.shape == (1,)
                lone = pf_eigenvalue(m)
                assert isinstance(lone, float) and got[0] == lone

    def test_strided_stack(self):
        """Transposed and sliced stacks, whose matrices are not C-ordered."""
        stack = self.mixed_stack(9, np.random.default_rng(9))
        for view in (stack.transpose(0, 2, 1), stack[::2], stack[:, ::-1, 1:4][:, :3]):
            got = pf_eigenvalue(view)
            for m, lam in zip(view, got.tolist()):
                assert lam == pf_eigenvalue_reference(m)
        assert pf_eigenvalue(stack[1].T) == pf_eigenvalue_reference(stack[1].T)

    def test_leading_axes_and_empty_matrices(self):
        stack = self.mixed_stack(5, np.random.default_rng(5))
        flat = pf_eigenvalue(stack[:6])
        assert np.array_equal(pf_eigenvalue(stack[:6].reshape(2, 3, 5, 5)), flat.reshape(2, 3))
        assert np.array_equal(pf_eigenvalue(np.zeros((3, 0, 0))), np.zeros(3))
        assert pf_eigenvalue(np.zeros((0, 0))) == 0.0


def assert_same_solve(got, want):
    assert got.x_star.dtype == want.x_star.dtype
    assert got.x_star.shape == want.x_star.shape
    assert got.x_star.tobytes() == want.x_star.tobytes()
    assert got.residuals == want.residuals
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.fallback_steps == want.fallback_steps
    assert got.stop_reason == want.stop_reason


class TestAndersonMatchesReference:
    """The buffered window gives the bits of the loop that stacks its window
    from lists at every step, on the model's 14x64 state shape."""

    @staticmethod
    def tanh_map(dtype, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((14, 14))
        a /= a.sum(axis=0)
        w = rng.normal(size=(64, 64)) * 0.15
        b = rng.normal(size=(14, 64))
        a, w, b = (v.astype(dtype) for v in (a, w, b))
        return lambda x: np.tanh(a.T @ x @ w + b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize("tol", [None, 0.0], ids=["converge", "max-iter"])
    def test_window_fills_and_slides(self, dtype, m, tol):
        # tol 0 never stops early: the window fills and then slides to max_iter
        for seed in range(3):
            f = self.tanh_map(dtype, seed)
            x0 = np.zeros((14, 64), dtype=dtype)
            cfg = SolverConfig(m=m, max_iter=30, tol=tol)
            got, want = anderson(f, x0, cfg), anderson_reference(f, x0, cfg)
            assert_same_solve(got, want)
            assert got.iterations > m
            if tol == 0.0:
                assert got.iterations == 30 and not got.converged

    def test_model_forward_and_adjoint_maps(self):
        spec = SyntheticSpec(n_graphs=6, chain_length=8, seed=42)
        cfg = TrainConfig(seed=0, tau=64.0)
        store = init_model_params(cfg, spec.vocab_size, cfg.seed)
        for i, g in enumerate(generate_dataset(spec)):
            _, cache = forward(prepare_graph(g, cfg), store, cfg, mode="eval", seed=i)
            step, sc = cache.step, cache.step_cache
            assert_same_solve(anderson(step, step.u.copy(), cfg.solver),
                              anderson_reference(step, step.u.copy(), cfg.solver))
            rhs = np.full_like(cache.x_star, 1e-3)

            def adjoint(v):
                return rhs + step.vjp_x(sc, v)

            assert_same_solve(anderson(adjoint, rhs.copy(), cfg.solver),
                              anderson_reference(adjoint, rhs.copy(), cfg.solver))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_singular_gram_falls_back(self, dtype):
        # a constant shift repeats the residual, so D = 0 and the Gram matrix
        # plus its trace-scaled ridge is the zero matrix
        shift = np.full(8, 1e-3, dtype=dtype)
        cfg = SolverConfig(m=3, max_iter=12, tol=0.0)
        got = anderson(lambda x: x + shift, np.ones(8, dtype=dtype), cfg)
        assert got.fallback_steps == list(range(2, 13))
        assert_same_solve(got, anderson_reference(lambda x: x + shift,
                                                  np.ones(8, dtype=dtype), cfg))

    def test_on_iterate_stop(self):
        f = self.tanh_map(np.float32, 7)
        x0 = np.zeros((14, 64), dtype=np.float32)
        cfg = SolverConfig(m=5, max_iter=30, tol=0.0)

        def stop(x, it):
            return "halt" if it == 9 else None

        got = anderson(f, x0, cfg, on_iterate=stop)
        assert got.stop_reason == "halt" and got.iterations == 9
        assert_same_solve(got, anderson_reference(f, x0, cfg, on_iterate=stop))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_divergence(self, dtype):
        def f(x):
            # no real fixed point: the residual 10 + x^2 never vanishes
            return x + 10.0 + x * x

        x0 = np.linspace(0.1, 0.6, 6).astype(dtype)
        cfg = SolverConfig(m=5, max_iter=50)
        with pytest.raises(DivergenceError) as got:
            anderson(f, x0, cfg)
        with pytest.raises(DivergenceError) as want:
            anderson_reference(f, x0, cfg)
        assert str(got.value) == str(want.value)

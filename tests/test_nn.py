"""Tensor ops: activations, embedding, GRU, pooling, layer norm, and the
finite-difference checker that keeps every backward honest."""

import math
import warnings

import numpy as np
import pytest

from cfgexec.nn import (
    NumericError,
    bigru_backward,
    bigru_forward,
    embed,
    embed_backward,
    finite_diff_check,
    gru_cell,
    layer_norm,
    layer_norm_backward,
    relu,
    sigmoid,
    tanh,
    time_pool,
    time_pool_backward,
)

from oracles import bigru_forward_reference, scalar_gru_cell, sigmoid_reference


def gru_params(rng, h, prefix):
    p = {}
    for k in ("Wr", "Wu", "Wc", "Ur", "Uu", "Uc"):
        p[f"{prefix}_{k}"] = rng.normal(size=(h, h)) * 0.4
    for k in ("br", "bu", "bc"):
        p[f"{prefix}_{k}"] = rng.normal(size=h) * 0.2
    return p


def encoder_params(rng, h):
    p = {}
    p.update(gru_params(rng, h, "gruf"))
    p.update(gru_params(rng, h, "grub"))
    p["mix_W"] = rng.normal(size=(2 * h, h)) * 0.3
    p["mix_b"] = rng.normal(size=h) * 0.1
    return p


class TestActivations:
    def test_point_values(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)
        assert tanh(np.array([0.0]))[0] == 0.0
        assert relu(np.array([-1.0]))[0] == 0.0

    def test_sigmoid_extreme_inputs_stable(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)


class TestSigmoidMatchesReference:
    """The branch-free sigmoid gives the masked two-branch form's bits."""

    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e3, -1e3, 1.0, -1.0,
               17.0, -17.0, 88.7, -88.7, 103.9, -103.9, 709.7, -745.1, 1e-30, -1e-30]

    @staticmethod
    def arrays(dtype):
        rng = np.random.default_rng(4)
        yield np.array(TestSigmoidMatchesReference.SPECIAL, dtype=dtype)
        for v in TestSigmoidMatchesReference.SPECIAL:
            yield np.asarray(v, dtype=dtype)
        for shape in [(1,), (7,), (14, 64), (3, 5, 4)]:
            for scale in (1e-3, 1.0, 30.0, 1e3):
                x = rng.normal(size=shape) * scale
                yield np.clip(x, -1e3, 1e3).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits(self, dtype):
        for x in self.arrays(dtype):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = sigmoid(x)
            want = sigmoid_reference(x)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestEmbed:
    def test_pad_rows_zero(self):
        table = np.random.default_rng(0).normal(size=(6, 4))
        table[0] = 0.0
        ids = np.zeros((2, 3), dtype=np.int64)
        np.testing.assert_array_equal(embed(ids, table), np.zeros((2, 3, 4)))

    def test_lookup(self):
        table = np.arange(12.0).reshape(6, 2)
        out = embed(np.array([[3]]), table)
        np.testing.assert_array_equal(out[0, 0], table[3])

    def test_out_of_range(self):
        with pytest.raises(NumericError):
            embed(np.array([[9]]), np.zeros((4, 2)))

    def test_backward_scatter_add(self):
        ids = np.array([[1, 2, 1]])
        d_out = np.ones((1, 3, 2))
        grad = embed_backward(ids, d_out, vocab_size=4)
        np.testing.assert_array_equal(grad[1], [2.0, 2.0])
        np.testing.assert_array_equal(grad[2], [1.0, 1.0])
        np.testing.assert_array_equal(grad[0], [0.0, 0.0])


class TestLayerNorm:
    def test_constant_row_zero_output(self):
        x = np.full((2, 4), 3.0)
        out, _ = layer_norm(x, np.ones(4), np.zeros(4))
        np.testing.assert_allclose(out, 0.0, atol=1e-6)

    def test_two_point_row(self):
        out, _ = layer_norm(np.array([[1.0, -1.0]]), np.ones(2), np.zeros(2))
        expected = 1.0 / math.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out, [[expected, -expected]], atol=1e-12)

    def test_zero_gain_gives_bias(self):
        x = np.random.default_rng(1).normal(size=(3, 5))
        out, _ = layer_norm(x, np.zeros(5), np.full(5, 2.5))
        np.testing.assert_allclose(out, 2.5, atol=1e-12)

    def test_normalization_statistics(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(10, 8)) * 3.0 + 1.0
        out, cache = layer_norm(x, np.ones(8), np.zeros(8))
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_backward_finite_difference(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 6))
        gain = rng.normal(size=6)
        bias = rng.normal(size=6)
        probe = rng.normal(size=(2, 6))

        def loss(xv, g, b):
            out, _ = layer_norm(xv, g, b)
            return float((out * probe).sum())

        out, cache = layer_norm(x, gain, bias)
        dx, dg, db = layer_norm_backward(probe, cache)
        eps = 1e-6
        for arr, grad in ((x, dx), (gain, dg), (bias, db)):
            flat = arr.reshape(-1)
            gflat = np.asarray(grad).reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss(x, gain, bias)
                flat[i] = orig - eps
                lm = loss(x, gain, bias)
                flat[i] = orig
                num = (lp - lm) / (2 * eps)
                assert num == pytest.approx(float(gflat[i]), rel=1e-5, abs=1e-8)


class TestPool:
    def test_avg_respects_mask(self):
        x = np.arange(12.0).reshape(1, 4, 3)
        mask = np.array([[True, False, False, False]])
        out, _ = time_pool(x, mask)
        np.testing.assert_array_equal(out, x[:, 0, :])

    def test_all_pad_node_rejected(self):
        with pytest.raises(NumericError):
            time_pool(np.zeros((1, 2, 3)), np.zeros((1, 2), dtype=bool))

    def test_avg_backward_distributes(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 4))
        mask = np.array([[True, True, False], [True, True, True]])
        _, cache = time_pool(x, mask)
        dx = time_pool_backward(np.ones((2, 4)), cache)
        np.testing.assert_allclose(dx[0, 0], 0.5)
        np.testing.assert_allclose(dx[0, 2], 0.0)
        np.testing.assert_allclose(dx[1, 2], 1.0 / 3.0)


class TestGru:
    def test_single_cell_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        vals = {k: float(rng.normal()) for k in
                ("x", "h", "wr", "ur", "br", "wu", "uu", "bu", "wc", "uc", "bc")}
        p = {f"g_{k}": np.array([[vals[k.lower()]]]) for k in ("Wr", "Wu", "Wc", "Ur", "Uu", "Uc")}
        p.update({f"g_{k}": np.array([vals[k.lower()]]) for k in ("br", "bu", "bc")})
        h_new, _r, _u, _c = gru_cell(np.array([[vals["x"]]]), np.array([[vals["h"]]]), p, "g")
        expected = scalar_gru_cell(vals["x"], vals["h"], vals["wr"], vals["ur"], vals["br"],
                                   vals["wu"], vals["uu"], vals["bu"], vals["wc"],
                                   vals["uc"], vals["bc"])
        assert h_new[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_zero_weights_zero_input_gives_zero(self):
        p = {f"g_{k}": np.zeros((2, 2)) for k in ("Wr", "Wu", "Wc", "Ur", "Uu", "Uc")}
        p.update({f"g_{k}": np.zeros(2) for k in ("br", "bu", "bc")})
        h, r, u, c = gru_cell(np.zeros((3, 2)), np.zeros((3, 2)), p, "g")
        np.testing.assert_array_equal(h, 0.0)
        np.testing.assert_allclose(r, 0.5)
        np.testing.assert_allclose(u, 0.5)

    def test_bigru_reproducible(self):
        rng = np.random.default_rng(5)
        p = encoder_params(rng, 3)
        x = rng.normal(size=(2, 4, 3))
        mask = np.array([[True, True, True, False], [True, False, False, False]])
        out1, _ = bigru_forward(x, p, mask)
        out2, _ = bigru_forward(x, p, mask)
        np.testing.assert_array_equal(out1, out2)

    def test_masked_positions_zero_output(self):
        rng = np.random.default_rng(6)
        p = encoder_params(rng, 3)
        x = rng.normal(size=(1, 4, 3))
        mask = np.array([[True, True, False, False]])
        out, _ = bigru_forward(x, p, mask)
        np.testing.assert_array_equal(out[0, 2:], 0.0)

    def test_pad_tail_does_not_affect_real_positions(self):
        rng = np.random.default_rng(7)
        p = encoder_params(rng, 3)
        x_short = rng.normal(size=(1, 2, 3))
        x_padded = np.concatenate([x_short, rng.normal(size=(1, 2, 3))], axis=1)
        mask_s = np.array([[True, True]])
        mask_p = np.array([[True, True, False, False]])
        out_s, _ = bigru_forward(x_short, p, mask_s)
        out_p, _ = bigru_forward(x_padded, p, mask_p)
        np.testing.assert_allclose(out_s[0], out_p[0, :2], atol=1e-12)

    def test_single_step_equals_cell(self):
        rng = np.random.default_rng(8)
        p = encoder_params(rng, 2)
        x = rng.normal(size=(2, 1, 2))
        mask = np.ones((2, 1), dtype=bool)
        out, _ = bigru_forward(x, p, mask)
        hf, *_ = gru_cell(x[:, 0, :], np.zeros((2, 2)), p, "gruf")
        hb, *_ = gru_cell(x[:, 0, :], np.zeros((2, 2)), p, "grub")
        expected = np.concatenate([hf, hb], axis=1) @ p["mix_W"] + p["mix_b"]
        np.testing.assert_allclose(out[:, 0, :], expected, atol=1e-12)


class TestBiGruMatchesReference:
    """The stacked two-direction loop gives the bits of the loop that runs one
    direction after the other with separate gate products: the output, every
    step cache, and the backward's input gradient and parameter gradients."""

    # (group axes, n, v, h): groups of one are 2-D per graph; n = 1 makes
    # every product a matrix-vector one. Gate weights concatenated column-wise
    # instead of stacked change bits at n = 1, h = 3 (f64) and h = 40 (f32).
    SHAPES = [((), 1, 5, 3), ((1,), 7, 32, 3), ((2,), 1, 1, 1), ((3,), 12, 5, 1),
              ((4,), 2, 32, 1), ((), 33, 1, 64), ((2,), 5, 32, 64), ((), 88, 5, 64),
              ((1,), 96, 32, 64), ((4,), 80, 5, 64), ((3,), 14, 1, 3), ((), 96, 5, 3),
              ((2,), 9, 5, 40)]

    @staticmethod
    def same(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead,n,v,h", SHAPES)
    def test_bits(self, dtype, lead, n, v, h):
        rng = np.random.default_rng(n * 100 + v + h)
        p = {k: a.astype(dtype) for k, a in encoder_params(rng, h).items()}
        x = rng.normal(size=(*lead, n, v, h)).astype(dtype)
        lengths = rng.integers(1, v + 1, size=(*lead, n))
        mask = np.arange(v) < lengths[..., None]  # padded tails of random length
        got, got_cache = bigru_forward(x, p, mask)
        want, want_cache = bigru_forward_reference(x, p, mask)
        self.same(got, want)
        self.same(got_cache.concat, want_cache.concat)
        self.same(got_cache.xs, want_cache.xs)
        self.same(got_cache.ms, want_cache.ms)
        assert len(got_cache.steps) == len(want_cache.steps) == v
        for g, w in zip(got_cache.steps, want_cache.steps):
            assert len(g) == len(w) == 4  # h_prev, r, u, c
            for got_arr, want_arr in zip(g, w):
                self.same(got_arr, want_arr)
        d_out = rng.normal(size=got.shape).astype(dtype)
        dx, grads = bigru_backward(d_out, got_cache, p)
        dx_want, grads_want = bigru_backward(d_out, want_cache, p)
        self.same(dx, dx_want)
        assert grads.keys() == grads_want.keys()
        for name in grads:
            self.same(grads[name], grads_want[name])


class TestEncoderGradients:
    def test_bigru_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        n, v, h = 3, 4, 3
        mask = np.array([[True] * 4, [True, True, True, False], [True, True, False, False]])
        base = encoder_params(rng, h)
        x0 = rng.normal(size=(n, v, h))
        probe = rng.normal(size=(n, v, h))

        def loss_fn(params):
            out, cache = bigru_forward(x0, params, mask)
            loss = float((out * probe).sum())
            _, grads = bigru_backward(probe, cache, params)
            return loss, grads

        worst = finite_diff_check(loss_fn, base, eps=1e-5)
        assert max(worst.values()) < 1e-5

    def test_bigru_input_gradient(self):
        rng = np.random.default_rng(10)
        n, v, h = 2, 3, 3
        mask = np.array([[True, True, True], [True, True, False]])
        p = encoder_params(rng, h)
        x0 = rng.normal(size=(n, v, h))
        probe = rng.normal(size=(n, v, h))
        out, cache = bigru_forward(x0, p, mask)
        dx, _ = bigru_backward(probe, cache, p)
        eps = 1e-6
        flat = x0.reshape(-1)
        dflat = dx.reshape(-1)
        idxs = rng.choice(flat.size, size=10, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            lp = float((bigru_forward(x0, p, mask)[0] * probe).sum())
            flat[i] = orig - eps
            lm = float((bigru_forward(x0, p, mask)[0] * probe).sum())
            flat[i] = orig
            assert (lp - lm) / (2 * eps) == pytest.approx(float(dflat[i]), rel=1e-6, abs=1e-9)


class TestEncoderGradientsTenSeeds:
    def test_bigru_backward_ten_seeds(self):
        """Recurrent backward vs central differences on randomized small shapes."""
        worst_overall = 0.0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 5))
            v = int(rng.integers(2, 6))
            h = int(rng.integers(3, 9))
            lengths = rng.integers(1, v + 1, size=n)
            mask = np.arange(v)[None, :] < lengths[:, None]
            params = encoder_params(rng, h)
            x0 = rng.normal(size=(n, v, h))
            probe = rng.normal(size=(n, v, h))

            def loss_fn(p, _x=x0, _mask=mask, _probe=probe):
                out, cache = bigru_forward(_x, p, _mask)
                loss = float((out * _probe).sum())
                _, grads = bigru_backward(_probe, cache, p)
                return loss, grads

            worst = finite_diff_check(loss_fn, params, eps=1e-5)
            worst_overall = max(worst_overall, max(worst.values()))
        assert worst_overall < 1e-5


class TestFiniteDiffChecker:
    def test_quadratic_loss_exact(self):
        theta = {"w": np.array([1.0, -2.0, 0.5])}

        def loss_fn(p):
            return float(0.5 * (p["w"] ** 2).sum()), {"w": p["w"].copy()}

        worst = finite_diff_check(loss_fn, theta)
        assert worst["w"] < 1e-9

    def test_linear_sigmoid_ce_layer(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 3))
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        theta = {"w": rng.normal(size=3), "b": np.array([0.1])}

        def loss_fn(p):
            z = x @ p["w"] + p["b"][0]
            prob = 1.0 / (1.0 + np.exp(-z))
            loss = float(-(y * np.log(prob) + (1 - y) * np.log1p(-prob)).sum())
            dz = prob - y
            return loss, {"w": x.T @ dz, "b": np.array([dz.sum()])}

        worst = finite_diff_check(loss_fn, theta)
        assert max(worst.values()) < 1e-6

    def test_nondeterministic_loss_detected(self):
        state = {"calls": 0}

        def loss_fn(p):
            state["calls"] += 1
            return float(p["w"][0] + 0.001 * state["calls"]), {"w": np.ones(1)}

        with pytest.raises(NumericError, match="nondeterministic-loss"):
            finite_diff_check(loss_fn, {"w": np.zeros(1)})

    def test_frozen_entries_skipped(self):
        theta = {"w": np.array([1.0, 2.0])}
        frozen = {"w": np.array([True, False])}

        def loss_fn(p):
            # analytic gradient deliberately wrong for the frozen coordinate
            return float(p["w"][1] ** 2 + 3.0 * p["w"][0]), {"w": np.array([0.0, 2 * p["w"][1]])}

        worst = finite_diff_check(loss_fn, theta, frozen=frozen)
        assert worst["w"] < 1e-8

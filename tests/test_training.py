"""Optimizer, projection discipline, checkpointing, and training determinism."""

import json

import numpy as np
import pytest

import cfgexec.model
import cfgexec.training
from cfgexec.executor import gate_adjacency
from cfgexec.model import (
    ModelConfig,
    bce_with_logit,
    derive_seed,
    forward,
    init_model_params,
    prepare_graph,
)
from cfgexec.nn import NumericError, sigmoid
from cfgexec.solver import SolverConfig
from cfgexec.synth import SyntheticSpec, generate_dataset
from cfgexec.training import (
    AdamState,
    TrainConfig,
    adam_step,
    evaluate,
    load_checkpoint,
    metrics_csv_rows,
    save_checkpoint,
    train,
    write_metrics_csv,
)

from oracles import dense_spectral_radius


def small_config(**kw):
    base = dict(h=8, epochs=2, batch_size=8, seed=1, v_max=8,
                solver=SolverConfig(max_iter=25))
    base.update(kw)
    return TrainConfig(**base)


def small_dataset(n=16, seed=3):
    return generate_dataset(SyntheticSpec(
        n_graphs=n, chain_length=4, node_count_range=(9, 11), vocab_size=16, seed=seed))


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("tau", 0.0), ("tau", -1.0), ("tau", float("nan")),
        ("dropout", 1.0), ("dropout", 1.5), ("dropout", -0.1),
        ("h", 0), ("v_max", 0), ("kappa", 0.0), ("kappa", 1.0),
        ("agent_mode", "greedy"), ("phi", "gelu"),
        ("gate_axis", "both"), ("precision", "f16"),
    ])
    def test_model_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [("epochs", -1), ("eval_noise_seeds", 0),
                                             ("lr", float("inf")), ("lr", float("nan"))])
    def test_train_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_solver_max_iter_rejected(self):
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(max_iter=0)

    def test_accepted_values(self):
        for mode, phi, axis, precision in (("hard", "relu", "send", "f64"),
                                           ("soft", "sigmoid", "recv", "f32")):
            TrainConfig(agent_mode=mode, phi=phi, gate_axis=axis,
                        precision=precision, dropout=0.0, h=1, v_max=1, epochs=0)


class TestAdam:
    def test_zero_gradient_first_step_no_change(self):
        cfg = small_config()
        store = init_model_params(cfg, 16, seed=0)
        before = {k: v.copy() for k, v in store.params.items()}
        adam = AdamState.init(store)
        adam_step(store, {k: np.zeros_like(v) for k, v in store.params.items()}, cfg, adam)
        for k in before:
            np.testing.assert_array_equal(store.params[k], before[k])

    def test_first_step_is_signed_lr(self):
        cfg = small_config()
        store = init_model_params(cfg, 16, seed=0)
        adam = AdamState.init(store)
        grads = {k: np.zeros_like(v) for k, v in store.params.items()}
        grads["wp"] = np.full_like(store.params["wp"], 0.5)
        before = store.params["wp"].copy()
        adam_step(store, grads, cfg, adam)
        step = before - store.params["wp"]
        np.testing.assert_allclose(step, cfg.lr, rtol=1e-5)

    def test_w_projected_after_step(self):
        cfg = small_config()
        bundles = [prepare_graph(g, cfg) for g in small_dataset(2)]
        store = init_model_params(cfg, 16, seed=0)
        store.params["W"] = np.full((cfg.h, cfg.h), 5.0, dtype=cfg.dtype)
        steps = cfgexec.training._EquilibriumSteps(bundles, store, cfg, AdamState.init(store))
        steps.gated = [2.0 * b.a_hat for b in bundles]  # gated PF estimates near 2
        steps.step(np.arange(2), {k: np.zeros_like(v) for k, v in store.params.items()})
        lam = max(steps.adam.lambda_ref, *steps.lambda_hat)
        assert lam > 1.9
        w_inf = np.abs(store.params["W"]).sum(axis=1).max()
        assert w_inf <= cfg.kappa / lam + 1e-8

    def test_pad_row_stays_zero(self):
        cfg = small_config()
        store = init_model_params(cfg, 16, seed=0)
        adam = AdamState.init(store)
        grads = {k: np.ones_like(v) for k, v in store.params.items()}
        adam_step(store, grads, cfg, adam)
        np.testing.assert_array_equal(store.params["emb"][0], 0.0)

    def test_lambda_ema_resists_outliers(self):
        adam = AdamState(m={}, v={})
        adam.update_lambda(0.08)
        for _ in range(5):
            adam.update_lambda(0.08)
        spike = adam.update_lambda(0.5)
        assert spike < 0.15  # a single sharp draw cannot collapse the radius


class TestTrainLoop:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty-dataset"):
            train([], small_config(), [])

    @pytest.mark.parametrize("run", ["train", "train_gcn"])
    def test_empty_eval_set_rejected_before_training(self, run, monkeypatch):
        from cfgexec.baseline import train_gcn
        from cfgexec.graphs import GraphValidationError

        def no_epoch(*args, **kwargs):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(cfgexec.training, "run_epochs", no_epoch)
        fit = {"train": train, "train_gcn": train_gcn}[run]
        with pytest.raises(GraphValidationError, match="empty-dataset: no eval graphs"):
            fit(small_dataset(8), small_config(), [])

    def test_seeds_and_loss_check_come_from_the_epoch_loop(self):
        # both models' steps get each graph's train seed from run_epochs, and
        # a non-finite loss stops training at the graph that gave it
        cfg = small_config(batch_size=4)
        bundles = [prepare_graph(g, cfg) for g in small_dataset(8)]
        order = np.random.default_rng(derive_seed(cfg.seed, "shuffle", 1)).permutation(8)
        bad = bundles[order[5]]  # the second batch's second graph
        seen = []

        class Steps:
            def train_window(self, window, seeds):
                for b, seed in zip(window, seeds):
                    seen.append(seed == derive_seed(cfg.seed, "train", 1, b.graph.id))
                    yield 0.0, np.nan if b is bad else 0.5, {"w": np.zeros(1)}

            def step(self, members, grads):
                pass

        with pytest.raises(NumericError, match=f"nan-detected: loss for graph {bad.graph.id!r}"):
            next(cfgexec.training.run_epochs(Steps(), bundles, [], cfg))
        assert seen == [True] * 6

    def test_missing_label_rejected(self):
        ds = small_dataset(8)
        object.__setattr__(ds[0], "label", None)
        with pytest.raises(ValueError, match="label-missing"):
            train(ds[:6], small_config(), ds[6:])

    def test_metrics_logged_per_epoch(self):
        ds = small_dataset(12)
        cfg = small_config(epochs=3)
        res = train(ds[:9], cfg, ds[9:], vocab_size=16)
        assert [r.epoch for r in res.history] == [1, 1, 2, 2, 3, 3]
        assert [r.split for r in res.history] == ["train", "eval"] * 3
        rows = metrics_csv_rows(res.history)
        assert rows[0] == "epoch,split,loss,accuracy,precision,recall,f1,auc"
        assert len(rows) == 7

    def test_w_feasible_every_step(self):
        ds = small_dataset(12)
        cfg = small_config(epochs=3, batch_size=4)
        res = train(ds[:9], cfg, ds[9:], vocab_size=16)
        assert res.max_w_violation <= 1e-8

    def test_projection_bound_holds_on_every_graph(self):
        # ||W||_inf * lambda_gated <= kappa with the exact gated eigenvalue,
        # for graphs and agent draws the projection never saw
        ds = small_dataset(16)
        cfg = small_config(epochs=3, batch_size=4)
        res = train(ds[:9], cfg, ds[9:12], vocab_size=16)
        w_inf = float(np.abs(res.store.params["W"]).sum(axis=1).max())
        for g in ds:
            bundle = prepare_graph(g, cfg)
            for seed in range(3):
                _, cache = forward(bundle, res.store, cfg, mode="train", seed=seed)
                gated = gate_adjacency(bundle.a_hat, cache.step_cache.a)
                assert w_inf * dense_spectral_radius(gated) <= cfg.kappa + 1e-6

    def test_determinism_byte_identical_csv(self, tmp_path):
        ds = small_dataset(12)
        cfg = small_config(epochs=2)
        paths = []
        for run in range(2):
            res = train(ds[:9], cfg, ds[9:], vocab_size=16)
            path = tmp_path / f"metrics_{run}.csv"
            write_metrics_csv(res.history, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_best_auc_checkpointing(self):
        ds = small_dataset(12)
        cfg = small_config(epochs=3)
        res = train(ds[:9], cfg, ds[9:], vocab_size=16)
        evals = [r for r in res.history if r.split == "eval" and r.report.auc_defined]
        assert res.best_auc == pytest.approx(max(r.report.auc for r in evals))

    def test_zero_epochs_returns_initial_params(self):
        ds = small_dataset(8)
        cfg = small_config(epochs=0)
        store = init_model_params(cfg, 16, seed=cfg.seed)
        res = train(ds[:6], cfg, ds[6:], store=store.copy(), vocab_size=16)
        assert res.history == []
        for k, v in store.params.items():
            np.testing.assert_array_equal(res.store.params[k], v)


class TestCheckpoint:
    def test_roundtrip_bitexact(self, tmp_path):
        cfg = small_config()
        store = init_model_params(cfg, 16, seed=2)
        adam = AdamState.init(store)
        adam.t = 7
        adam.lambda_ref = 0.123
        save_checkpoint(tmp_path / "ck", store, cfg, adam, epoch=4)
        store2, cfg2, adam2, epoch = load_checkpoint(tmp_path / "ck")
        assert epoch == 4
        assert adam2.t == 7
        assert adam2.lambda_ref == 0.123
        assert cfg2 == cfg
        for k, v in store.params.items():
            np.testing.assert_array_equal(store2.params[k], v)
        for k in adam.m:
            np.testing.assert_array_equal(adam2.m[k], adam.m[k])

    def test_resume_bit_identical_to_uninterrupted(self, tmp_path):
        self.resume_matches_uninterrupted(tmp_path)

    def test_earlier_manifest_resumes_bit_identical(self, tmp_path):
        # the keys an earlier version wrote for the values this one fixes:
        # max pooling, Adam's constants and the Anderson ridge were settable
        def as_written_before(manifest):
            doc = json.loads(manifest.read_text())
            doc["config"].update(pool="avg", beta1=0.9, beta2=0.999, adam_eps=1e-08)
            doc["config"]["solver"].update(ridge=1e-08)
            manifest.write_text(json.dumps(doc, indent=1))

        self.resume_matches_uninterrupted(tmp_path, as_written_before)

    @staticmethod
    def resume_matches_uninterrupted(tmp_path, edit_manifest=None):
        ds = small_dataset(12, seed=5)
        cfg = small_config(epochs=4)
        full = train(ds[:9], cfg, ds[9:], vocab_size=16)

        cfg_half = small_config(epochs=2)
        half = train(ds[:9], cfg_half, ds[9:], vocab_size=16)
        save_checkpoint(tmp_path / "mid", half.store, cfg_half, half.adam, epoch=2)
        if edit_manifest is not None:
            edit_manifest(tmp_path / "mid.json")
        store2, cfg2, adam2, epoch = load_checkpoint(tmp_path / "mid")
        assert cfg2 == cfg_half
        resumed = train(ds[:9], cfg, ds[9:], store=store2, adam=adam2,
                        start_epoch=epoch, vocab_size=16)
        for k in full.store.params:
            np.testing.assert_array_equal(resumed.store.params[k], full.store.params[k])
        tail = [r for r in resumed.history if r.epoch > 2]
        ref = [r for r in full.history if r.epoch > 2]
        assert [(r.epoch, r.split, r.loss) for r in tail] == \
            [(r.epoch, r.split, r.loss) for r in ref]
        assert metrics_csv_rows(tail) == metrics_csv_rows(ref)

    def test_eval_noise_averaging_deterministic(self):
        ds = small_dataset(8)
        cfg = small_config()
        store = init_model_params(cfg, 16, seed=0)
        bundles = [prepare_graph(g, cfg) for g in ds[:4]]
        a = evaluate(bundles, store, cfg, noise_seeds=3)
        b = evaluate(bundles, store, cfg, noise_seeds=3)
        assert a[0] == b[0]
        assert a[2] == b[2]


class TestStackedEigenvalues:
    def test_one_power_iteration_per_size_and_batch(self, monkeypatch):
        """A training run estimates lambda_hat once per graph size and the
        gated eigenvalue once per batch and graph size, as stacks."""
        from collections import Counter

        cfg = small_config(epochs=2, batch_size=8)
        ds = generate_dataset(SyntheticSpec(n_graphs=24, chain_length=4,
                                            node_count_range=(9, 12), vocab_size=16, seed=11))
        train_set, eval_set = ds[:18], ds[18:]
        calls = []
        original = cfgexec.model.pf_eigenvalue

        def counting(matrix, *args, **kwargs):
            calls.append((matrix.shape, kwargs.get("max_iter")))
            return original(matrix, *args, **kwargs)

        monkeypatch.setattr(cfgexec.model, "pf_eigenvalue", counting)
        train(train_set, cfg, eval_set, vocab_size=16)

        def stacks(graphs, max_iter):
            return [((k, n, n), max_iter) for n, k in Counter(g.n for g in graphs).items()]

        want = stacks(train_set, None)
        for epoch in range(1, cfg.epochs + 1):
            order = np.random.default_rng(derive_seed(cfg.seed, "shuffle", epoch)).permutation(
                len(train_set))
            for lo in range(0, len(order), cfg.batch_size):
                want += stacks([train_set[i] for i in order[lo : lo + cfg.batch_size]], 80)
        assert sorted(calls) == sorted(want)
        assert len(calls) < len(train_set) * (1 + cfg.epochs)
        assert len({g.n for g in train_set}) > 1


class TestLazyLinearization:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_first_read_after_an_optimizer_step(self, mode):
        """A cache linearizes with the weights its forward ran with, even when
        it is first read after adam_step has updated them in place."""
        import dataclasses

        from cfgexec.model import model_backward

        cfg = small_config()
        bundle = prepare_graph(small_dataset(2)[0], cfg)
        store = init_model_params(cfg, 16, seed=0)
        _, want = forward(bundle, store.copy(), cfg, mode=mode, seed=3)
        want_sc = want.step_cache
        _, cache = forward(bundle, store, cfg, mode=mode, seed=3)
        w_before = store.params["W"].copy()
        _, grads = model_backward(want, store, bundle.label)
        adam_step(store, grads, cfg, AdamState.init(store))
        assert not np.array_equal(store.params["W"], w_before)
        got_sc = cache.step_cache
        for f in dataclasses.fields(got_sc):
            a, b = getattr(got_sc, f.name), getattr(want_sc, f.name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name


class TestEvalEncoderReuse:
    """Eval noise draws share the first draw's encoder pass, and scoring never
    linearizes the transition."""

    @staticmethod
    def eval_setup(cfg):
        ds = generate_dataset(SyntheticSpec(n_graphs=6, chain_length=8, seed=42))
        return [prepare_graph(g, cfg) for g in ds], init_model_params(cfg, 16, seed=0)

    @staticmethod
    def independent_draws(bundles, store, cfg):
        """(scores, mean loss) of 3 draws per graph, each an independent
        forward whose linearization is read."""
        scores, losses = [], []
        for b in bundles:
            probs = []
            for k in range(3):
                logit, cache = forward(b, store, cfg, mode="eval",
                                       seed=derive_seed(cfg.seed, "eval", b.graph.id, k))
                assert np.array_equal(cache.step_cache.x, cache.x_star)
                probs.append(float(sigmoid(np.asarray(logit, dtype=np.float64))))
                if k == 0:
                    losses.append(bce_with_logit(logit, b.label))
            scores.append(float(np.mean(probs)))
        return scores, float(np.mean(losses))

    @staticmethod
    def counted(calls, name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @pytest.mark.parametrize("cfg", [small_config(), TrainConfig(seed=0, tau=64.0)],
                             ids=["small", "criterion-6"])
    def test_one_encoder_pass_per_graph(self, monkeypatch, cfg):
        bundles, store = self.eval_setup(cfg)
        want_scores, want_loss = self.independent_draws(bundles, store, cfg)
        calls = {"encoder": 0, "forward": 0}
        monkeypatch.setattr(cfgexec.model, "bigru_forward",
                            self.counted(calls, "encoder", cfgexec.model.bigru_forward))
        monkeypatch.setattr(cfgexec.training, "forward",
                            self.counted(calls, "forward", cfgexec.training.forward))
        loss, _, scores = evaluate(bundles, store, cfg, noise_seeds=3)
        assert calls == {"encoder": len(bundles), "forward": 3 * len(bundles)}
        assert scores == want_scores
        assert loss == want_loss

    @pytest.mark.parametrize("cfg", [small_config(), TrainConfig(seed=0, tau=64.0)],
                             ids=["small", "criterion-6"])
    def test_scoring_never_linearizes(self, monkeypatch, cfg):
        from cfgexec.executor import JointStep

        bundles, store = self.eval_setup(cfg)
        want_scores, want_loss = self.independent_draws(bundles, store, cfg)
        calls = {"linearize": 0}
        monkeypatch.setattr(JointStep, "forward_cached",
                            self.counted(calls, "linearize", JointStep.forward_cached))
        loss, _, scores = evaluate(bundles, store, cfg, noise_seeds=3)
        assert calls == {"linearize": 0}
        assert scores == want_scores
        assert loss == want_loss

    def test_reuse_needs_an_eval_cache_of_the_same_bundle(self):
        cfg = small_config()
        store = init_model_params(cfg, 16, seed=0)
        a, b = (prepare_graph(g, cfg) for g in small_dataset(2))
        _, cache = forward(a, store, cfg, mode="eval", seed=1)
        _, train_cache = forward(a, store, cfg, mode="train", seed=1)
        with pytest.raises(ValueError, match="reuse"):
            forward(a, store, cfg, mode="train", seed=2, reuse=cache)
        with pytest.raises(ValueError, match="reuse"):
            forward(a, store, cfg, mode="eval", seed=2, reuse=train_cache)
        with pytest.raises(ValueError, match="reuse"):
            forward(b, store, cfg, mode="eval", seed=2, reuse=cache)

"""Stacked groups: a group of same-shape graphs gives every graph the bits of
its group of one, through the solver, the forward, the backward and training.

Every comparison is exact: arrays by dtype, shape and bytes, floats by ==.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cfgexec import training
from cfgexec.model import (
    GraphBundle,
    derive_seed,
    forward,
    init_model_params,
    model_backward,
    prepare_graph,
)
from cfgexec.solver import DivergenceError, SolverConfig, anderson
from cfgexec.synth import SyntheticSpec, generate_dataset
from cfgexec.training import AdamState, TrainConfig, metrics_csv_rows, train

from oracles import anderson_reference


def same_array(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_solve(got, want):
    assert same_array(got.x_star, want.x_star)
    assert got.residuals == want.residuals
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.fallback_steps == want.fallback_steps
    assert got.stop_reason == want.stop_reason


def one_shape(cfg, n_graphs=40, seed=42, chain=8, **spec):
    """Bundles of the most common ids shape among generated graphs."""
    ds = generate_dataset(SyntheticSpec(n_graphs=n_graphs, chain_length=chain, seed=seed, **spec))
    bundles = [prepare_graph(g, cfg) for g in ds]
    shapes = [b.ids.shape for b in bundles]
    common = max(set(shapes), key=shapes.count)
    return [b for b in bundles if b.ids.shape == common]


def run_group(bundles, store, cfg, seeds, keep_trace=False):
    logits, cache = forward(bundles, store, cfg, mode="train", seed=seeds, keep_trace=keep_trace)
    losses, grads = model_backward(cache, store, [b.label for b in bundles])
    return logits, cache, losses, grads


def assert_group_matches_singles(bundles, store, cfg, seeds, keep_trace=False):
    logits, cache, losses, grads = run_group(bundles, store, cfg, seeds, keep_trace)
    for j, (b, seed) in enumerate(zip(bundles, seeds)):
        logit, single = forward(b, store, cfg, mode="train", seed=seed, keep_trace=keep_trace)
        loss, single_grads = model_backward(single, store, b.label)
        assert logits[j] == logit and losses[j] == loss
        assert same_array(cache.x_star[j], single.x_star)
        assert_same_solve(cache.solve.results[j], single.solver_result)
        assert cache.terminations[j] == single.termination
        assert cache.selected[j] == single.selected
        assert same_array(cache.gated_adjacency[j], single.group.gated_adjacency[0])
        assert sorted(grads) == sorted(single_grads)
        for name, value in single_grads.items():
            assert same_array(grads[name][j], value), name
    return cache


class TestSolverStack:
    """`anderson(..., stacked=True)` against each problem solved alone and
    against the reference loop."""

    @staticmethod
    def tanh_map(seed, dtype=np.float32):
        rng = np.random.default_rng(seed)
        a = rng.random((14, 14))
        a /= a.sum(axis=0)
        w = rng.normal(size=(64, 64)) * 0.15
        b = rng.normal(size=(14, 64))
        a, w, b = (v.astype(dtype) for v in (a, w, b))
        return lambda x: np.tanh(a.T @ x @ w + b)

    @staticmethod
    def stack(maps):
        def f(x):
            return np.stack([fi(xi) for fi, xi in zip(maps, x)])
        return f

    def test_singular_gram_item_falls_back_alone(self):
        # a constant shift repeats the residual, so its Gram matrix is zero;
        # tol 0 runs every problem to max_iter
        shift = np.full((14, 64), 1e-3, dtype=np.float32)
        maps = [self.tanh_map(0), lambda x: x + shift, self.tanh_map(1)]
        x0 = np.zeros((3, 14, 64), dtype=np.float32)
        x0[1] = 1.0
        cfg = SolverConfig(m=3, max_iter=12, tol=0.0)
        solve = anderson(self.stack(maps), x0, cfg, stacked=True)
        for i, f in enumerate(maps):
            assert_same_solve(solve.results[i], anderson(f, x0[i], cfg))
            assert_same_solve(solve.results[i], anderson_reference(f, x0[i], cfg))
        assert solve.results[1].fallback_steps == list(range(2, 13))
        assert solve.results[0].fallback_steps == solve.results[2].fallback_steps == []
        assert solve.iterations == 12 and not solve.converged
        assert solve.fallback_steps == list(range(2, 13))

    def test_max_iter_next_to_converged_items(self):
        maps = [self.tanh_map(seed) for seed in range(3)]
        x0 = np.zeros((3, 14, 64), dtype=np.float32)
        cfg = SolverConfig(m=5, max_iter=30)
        iterations = [anderson(f, x0[0], cfg).iterations for f in maps]
        cfg = SolverConfig(m=5, max_iter=sorted(iterations)[1])
        solve = anderson(self.stack(maps), x0, cfg, stacked=True)
        for i, f in enumerate(maps):
            assert_same_solve(solve.results[i], anderson_reference(f, x0[i], cfg))
        assert [r.converged for r in solve.results].count(False) >= 1
        assert [r.converged for r in solve.results].count(True) >= 1

    def test_items_stop_at_their_own_steps(self):
        maps = [self.tanh_map(seed, np.float64) for seed in range(4)]
        x0 = np.zeros((4, 14, 64))

        def stop(x, it):
            return "halt" if it == 7 else None

        def stop_second(fx, it, items):
            return [stop(fx[i], it) if i == 1 else None for i in items]

        cfg = SolverConfig(m=5, max_iter=40)
        solve = anderson(self.stack(maps), x0, cfg, on_iterate=stop_second, stacked=True)
        for i, f in enumerate(maps):
            want = anderson_reference(f, x0[i], cfg, on_iterate=stop if i == 1 else None)
            assert_same_solve(solve.results[i], want)
        assert solve.results[1].stop_reason == "halt"
        assert same_array(solve.x_star[1], solve.results[1].x_star)

    def test_on_iterate_sees_every_step_of_every_item(self):
        maps = [self.tanh_map(seed) for seed in range(3)]
        x0 = np.zeros((3, 14, 64), dtype=np.float32)
        cfg = SolverConfig(m=5, max_iter=40)
        alone = [anderson(f, x0[i], cfg).iterations for i, f in enumerate(maps)]
        assert len(set(alone)) > 1  # some problem converges while another runs on
        calls = []

        def record(fx, it, items):
            calls.append((it, items, fx.copy()))
            # every problem is given a reason at the step where it converges
            return ["halt" if it == alone[i] else None for i in items]

        solve = anderson(self.stack(maps), x0, cfg, on_iterate=record, stacked=True)
        for i, f in enumerate(maps):
            seen = [(it, fx[i]) for it, items, fx in calls if i in items]
            assert [it for it, _ in seen] == list(range(1, alone[i] + 1))
            assert same_array(seen[-1][1], solve.results[i].x_star)
            r = solve.results[i]
            assert r.converged and r.stop_reason is None and r.iterations == alone[i]
            assert_same_solve(r, anderson_reference(f, x0[i], cfg, on_iterate=(
                lambda x, it, n=alone[i]: "halt" if it == n else None)))

    @staticmethod
    def recorded(maps, calls):
        """The stacked map of `maps`, appending a copy of each stack it maps."""
        f = TestSolverStack.stack(maps)

        def mapped(x):
            calls.append(x.copy())
            return f(x)
        return mapped

    @staticmethod
    def assert_held(solve, calls, size, shape):
        """Every call mapped the whole stack, and each problem's rows after
        its stop are its x_star, bit for bit."""
        assert all(x.shape == (size, *shape) for x in calls)
        held = 0
        for i, r in enumerate(solve.results):
            for x in calls[r.iterations:]:
                assert same_array(x[i], r.x_star)
                held += 1
        return held

    def test_every_call_maps_the_whole_stack_and_holds_stopped_items(self):
        maps = [self.tanh_map(seed) for seed in range(3)]
        x0 = np.zeros((3, 14, 64), dtype=np.float32)
        cfg = SolverConfig(m=5, max_iter=40)
        calls = []
        solve = anderson(self.recorded(maps, calls), x0, cfg, stacked=True)
        assert len(calls) == solve.iterations
        assert len({r.iterations for r in solve.results}) > 1  # some problem is held
        assert self.assert_held(solve, calls, 3, (14, 64)) > 0
        for i, f in enumerate(maps):
            assert_same_solve(solve.results[i], anderson_reference(f, x0[i], cfg))

    def test_held_item_whose_map_blows_up_raises_nothing(self):
        # solved on, the middle map diverges (10 + x^2 has no real fixed
        # point); it is stopped at step 2 while the others run 30 more steps
        maps = [self.tanh_map(0, np.float64), lambda x: x * x + 10.0,
                self.tanh_map(1, np.float64)]
        x0 = np.zeros((3, 14, 64))
        x0[1] = np.linspace(-1.0, 1.0, 14 * 64).reshape(14, 64)
        cfg = SolverConfig(m=5, max_iter=32, tol=0.0)
        with pytest.raises(DivergenceError):
            anderson_reference(maps[1], x0[1], cfg)

        def stop(x, it):
            return "halt" if it == 2 else None

        def stop_middle(fx, it, items):
            return [stop(fx[i], it) if i == 1 else None for i in items]

        calls = []
        solve = anderson(self.recorded(maps, calls), x0, cfg, on_iterate=stop_middle,
                         stacked=True)
        assert [r.iterations for r in solve.results] == [2 + 30, 2, 2 + 30]
        assert solve.results[1].stop_reason == "halt"
        assert self.assert_held(solve, calls, 3, (14, 64)) == 30
        for i, f in enumerate(maps):
            want = anderson_reference(f, x0[i], cfg, on_iterate=stop if i == 1 else None)
            assert_same_solve(solve.results[i], want)

    def test_divergence_names_the_item(self):
        # no real fixed point for the middle problem: 10 + x^2 never vanishes
        maps = [lambda x: 0.5 * x, lambda x: x + 10.0 + x * x, lambda x: 0.5 * x]
        x0 = np.full((3, 6), 0.3)
        x0[1] = np.linspace(0.1, 0.6, 6)
        cfg = SolverConfig(m=5, max_iter=50)
        with pytest.raises(DivergenceError) as got:
            anderson(self.stack(maps), x0, cfg, stacked=True)
        with pytest.raises(DivergenceError) as want:
            anderson_reference(maps[1], x0[1], cfg)
        assert str(got.value) == str(want.value)


class TestReuse:
    def test_either_cache_form_serves_either_call_form(self):
        cfg = TrainConfig(seed=0, tau=64.0, h=16)
        b, other = one_shape(cfg)[:2]
        store = init_model_params(cfg, 16, cfg.seed)
        _, first = forward(b, store, cfg, mode="eval", seed=1)
        want, want_cache = forward(b, store, cfg, mode="eval", seed=7)
        for reuse in (first, first.group):
            logit, cache = forward(b, store, cfg, mode="eval", seed=7, reuse=reuse)
            logits, group = forward([b], store, cfg, mode="eval", seed=[7], reuse=reuse)
            assert logit == logits[0] == want
            assert same_array(cache.x_star, want_cache.x_star)
            assert same_array(group.x_star[0], want_cache.x_star)
            with pytest.raises(ValueError, match="reuse"):
                forward(other, store, cfg, mode="eval", seed=7, reuse=reuse)


class TestGroupMatchesSingles:
    @pytest.mark.parametrize("overrides", [
        {},
        {"gate_axis": "send"},
        {"phi": "relu"},
        {"phi": "sigmoid"},
        {"precision": "f64"},
    ], ids=["recv-tanh", "send", "relu", "sigmoid", "f64"])
    def test_forward_and_backward(self, overrides):
        cfg = TrainConfig(seed=0, tau=64.0, h=16, **overrides)
        bundles = one_shape(cfg)[:5]
        store = init_model_params(cfg, 16, cfg.seed)
        assert_group_matches_singles(bundles, store, cfg, [11, 12, 13, 14, 15])

    def test_hard_agent_exit_next_to_running_items(self):
        cfg = TrainConfig(seed=0, tau=1.0, h=16, agent_mode="hard")
        bundles = one_shape(cfg, n_graphs=60)[:8]
        store = init_model_params(cfg, 16, cfg.seed)
        cache = assert_group_matches_singles(bundles, store, cfg, list(range(8)),
                                             keep_trace=True)
        assert "exit-reached" in cache.terminations
        assert set(cache.terminations) - {"exit-reached"}
        assert all(len(sel) == r.iterations for sel, r in zip(cache.selected, cache.solve.results))

    def test_max_iter_next_to_converged_items(self):
        cfg = TrainConfig(seed=0, tau=4.0, h=16)
        bundles = one_shape(cfg)[:6]
        store = init_model_params(cfg, 16, cfg.seed)
        iterations = sorted(forward(b, store, cfg, mode="train", seed=i)[1].solver_result.iterations
                            for i, b in enumerate(bundles))
        cfg = replace(cfg, solver=SolverConfig(max_iter=iterations[3] - 1))
        cache = assert_group_matches_singles(bundles, store, cfg, list(range(6)),
                                             keep_trace=True)
        assert {"equilibrium", "max-steps"} <= set(cache.terminations)

    def test_forward_divergence_raises(self):
        cfg = TrainConfig(seed=0, tau=64.0, h=16)
        bundles = one_shape(cfg)[:3]
        bundles[1] = replace(bundles[1], a_hat=bundles[1].a_hat * 40.0)
        store = init_model_params(cfg, 16, cfg.seed)
        with pytest.raises(DivergenceError) as got:
            forward(bundles, store, cfg, mode="train", seed=[1, 2, 3])
        with pytest.raises(DivergenceError) as want:
            forward(bundles[1], store, cfg, mode="train", seed=2)
        assert str(got.value) == str(want.value)

    def test_adjoint_divergence_keeps_its_prefix(self):
        cfg = TrainConfig(seed=0, tau=64.0, h=16)
        bundles = one_shape(cfg)[:3]
        store = init_model_params(cfg, 16, cfg.seed)
        messages = []
        for group in (bundles, bundles[1:2]):
            _, cache = forward(group, store, cfg, mode="train", seed=[2] * len(group))
            # the adjoint map of the middle graph expands; its forward solve is done
            k = len(group) // 2
            cache.step.a_hat[k] *= 40.0
            with pytest.raises(DivergenceError) as err:
                model_backward(cache, store, [b.label for b in group])
            messages.append(str(err.value))
        assert messages[0].startswith("adjoint-divergence: divergence: residual")
        assert messages[0] == messages[1]


class TestGroupArguments:
    def test_bad_groups_are_rejected(self):
        cfg = TrainConfig(seed=0, tau=64.0, h=8)
        ds = generate_dataset(SyntheticSpec(n_graphs=30, chain_length=4, node_count_range=(9, 12),
                                            vocab_size=16, seed=11))
        bundles = [prepare_graph(g, cfg) for g in ds]
        mixed = [bundles[0], next(b for b in bundles if b.ids.shape != bundles[0].ids.shape)]
        store = init_model_params(cfg, 16, cfg.seed)
        for group, seeds in (([], []), (mixed, [1, 2]), (bundles[:2], [1])):
            with pytest.raises(ValueError):
                forward(group, store, cfg, mode="train", seed=seeds)
        same = [b for b in bundles if b.ids.shape == bundles[0].ids.shape][:2]
        _, cache = forward(same, store, cfg, mode="train", seed=[1, 2])
        with pytest.raises(ValueError, match="labels"):
            model_backward(cache, store, [same[0].label])


class TestTrainingWindows:
    @staticmethod
    def windows_against_singles(monkeypatch, node_count_range, n_train=24, batch_size=12,
                                **overrides):
        """Train 2 epochs in windows and graph by graph (GROUP_WINDOW = 1);
        assert the same bits and return the group sizes the windows ran."""
        ds = generate_dataset(SyntheticSpec(n_graphs=n_train + 6, chain_length=4,
                                            node_count_range=node_count_range,
                                            vocab_size=16, seed=11))
        cfg = TrainConfig(h=8, epochs=2, batch_size=batch_size, seed=3, v_max=6, **overrides)
        sizes = []
        forward_group = training.forward

        def counting(bundle, *args, **kwargs):
            if not isinstance(bundle, GraphBundle):
                sizes.append(len(bundle))
            return forward_group(bundle, *args, **kwargs)

        monkeypatch.setattr(training, "forward", counting)
        grouped = train(ds[:n_train], cfg, ds[n_train:], vocab_size=16)
        grouped_sizes = sizes.copy()
        assert sum(grouped_sizes) == 2 * n_train
        monkeypatch.setattr(training, "GROUP_WINDOW", 1)
        single = train(ds[:n_train], cfg, ds[n_train:], vocab_size=16)
        for name, value in single.store.params.items():
            assert same_array(grouped.store.params[name], value), name
        assert metrics_csv_rows(grouped.history) == metrics_csv_rows(single.history)
        assert grouped.adam.lambda_ref == single.adam.lambda_ref
        assert grouped.lambda_pf_max == single.lambda_pf_max
        assert grouped.max_w_violation == single.max_w_violation
        return grouped_sizes

    def test_windows_give_the_bits_of_graph_by_graph(self, monkeypatch):
        sizes = self.windows_against_singles(monkeypatch, (9, 12), eval_noise_seeds=2)
        assert max(sizes) > 1

    def test_group_of_seven_gives_the_bits_of_graph_by_graph(self, monkeypatch):
        # two ids shapes in batches of 12, each batch one window: some batch
        # forms a group of 7 or more
        assert max(self.windows_against_singles(monkeypatch, (11, 12))) >= 7

    def test_full_window_of_one_shape_is_one_group(self, monkeypatch):
        # every graph has 11 blocks of at most 5 ids, so one ids shape: each
        # batch runs its first window as one group of GROUP_WINDOW graphs and
        # its last 4 graphs as one more
        window = training.GROUP_WINDOW
        sizes = self.windows_against_singles(monkeypatch, (11, 11), n_train=window + 4,
                                             batch_size=window + 4)
        assert sizes == [window, 4, window, 4]

    @staticmethod
    def by_shape(cfg):
        """Generated graphs of GROUP_WINDOW + 4 ids shapes, one per block
        count, grouped by shape, most common shape first."""
        blocks = (9, 12 + training.GROUP_WINDOW)
        ds = generate_dataset(SyntheticSpec(n_graphs=200, chain_length=4, node_count_range=blocks,
                                            vocab_size=16, tokens_per_block=3, seed=11))
        shapes = {}
        for g in ds:
            b = prepare_graph(g, cfg)
            shapes.setdefault(b.ids.shape, []).append(b)
        return sorted(shapes.values(), key=len, reverse=True)

    @staticmethod
    def call_order(monkeypatch, window, cfg):
        """Events of one window: ("forward", window positions of the group)
        for each group's forward, ("yield", window position) for each graph
        given back."""
        events = []
        position = {id(b): i for i, b in enumerate(window)}
        forward_group = training.forward

        def logging(bundles, *args, **kwargs):
            events.append(("forward", [position[id(b)] for b in bundles]))
            return forward_group(bundles, *args, **kwargs)

        monkeypatch.setattr(training, "forward", logging)
        store = init_model_params(cfg, 16, cfg.seed)
        steps = training._EquilibriumSteps(window, store, cfg, AdamState.init(store))
        seeds = [derive_seed(cfg.seed, "train", 1, b.graph.id) for b in window]
        for i, (logit, loss, grads) in enumerate(steps.train_window(window, seeds)):
            events.append(("yield", i))
        return events

    def test_distinct_shapes_give_each_graph_before_the_next_forward(self, monkeypatch):
        cfg = TrainConfig(h=8, seed=3, v_max=4)
        window = [graphs[0] for graphs in self.by_shape(cfg)[:training.GROUP_WINDOW]]
        assert len(window) == training.GROUP_WINDOW
        events = self.call_order(monkeypatch, window, cfg)
        assert events == [e for i in range(len(window)) for e in (("forward", [i]), ("yield", i))]

    def test_largest_group_first_ties_in_window_order(self, monkeypatch):
        cfg = TrainConfig(h=8, seed=3, v_max=4)
        b, d, a, c = self.by_shape(cfg)[:4]
        window = [d[0], b[0], a[0], b[1], d[1], a[1], c[0], b[2]]
        events = self.call_order(monkeypatch, window, cfg)
        assert events == [
            ("forward", [1, 3, 7]),
            ("forward", [0, 4]), ("yield", 0), ("yield", 1),
            ("forward", [2, 5]), ("yield", 2), ("yield", 3), ("yield", 4), ("yield", 5),
            ("forward", [6]), ("yield", 6), ("yield", 7),
        ]

    def test_window_holds_one_graph_at_a_time(self):
        # Peak traced bytes of training one batch, up to its optimizer step:
        # a window of distinct shapes against each of its graphs alone. The
        # batch sum and one graph's work are live at once, which reads about
        # 1.5 times the largest lone graph at a window of 20 (1.35 at 12);
        # holding the whole window's gradients until it ends read 3.6 times
        # at 12.
        cfg = TrainConfig(h=64, seed=3, v_max=4, epochs=1, batch_size=training.GROUP_WINDOW)
        window = [graphs[0] for graphs in self.by_shape(cfg)[:training.GROUP_WINDOW]]

        def peak_bytes(graphs):
            store = init_model_params(cfg, 16, cfg.seed)
            steps = training._EquilibriumSteps(graphs, store, cfg, AdamState.init(store))
            peaks = []
            steps.step = lambda members, grads: peaks.append(tracemalloc.get_traced_memory()[1])
            steps.eval_pass = lambda bundles: (0.0, None)
            tracemalloc.start()
            try:
                next(training.run_epochs(steps, graphs, [], cfg))
            finally:
                tracemalloc.stop()
            return peaks[0]

        lone = max(peak_bytes([b]) for b in window)
        assert peak_bytes(window) < 2.0 * lone

"""Fixed-depth GCN baseline: gradients, receptive field, and training."""

from dataclasses import astuple

import numpy as np
import pytest

from cfgexec import baseline
from cfgexec.baseline import gcn_forward_backward, init_gcn_params, train_gcn
from cfgexec.graphs import GraphValidationError, make_graph
from cfgexec.model import bce_with_logit, prepare_graph
from cfgexec.nn import NumericError, ParamStore, finite_diff_check
from cfgexec.solver import SolverConfig
from cfgexec.synth import SyntheticSpec, generate_dataset, split
from cfgexec.training import TrainConfig

from oracles import train_gcn_reference


def cfg64(**kw):
    base = dict(h=6, precision="f64", dropout=0.0, v_max=8)
    base.update(kw)
    return TrainConfig(**base)


class TestGcnGradients:
    def test_finite_difference(self):
        cfg = cfg64()
        spec = SyntheticSpec(n_graphs=2, node_count_range=(3, 4), chain_length=2,
                             vocab_size=12, vuln_token_id=8, seed=1,
                             tokens_per_block=2, exclusive_branching=False)
        g = generate_dataset(spec)[0]
        bundle = prepare_graph(g, cfg)
        store = init_gcn_params(cfg, 12, layers=2, seed=1)

        def loss_fn(params):
            logit, _, _ = gcn_forward_backward(bundle, ParamStore(params), cfg, 2, "eval", 0, None)
            return bce_with_logit(logit, g.label)

        _, _, grads = gcn_forward_backward(bundle, store, cfg, 2, "eval", 0, g.label)
        worst = finite_diff_check(loss_fn, grads, store.params, eps=2e-4)
        assert max(worst.values()) < 1e-4

    def test_zero_layers_is_bag_of_blocks(self):
        cfg = cfg64()
        g = make_graph("g", [[2, 5, 3], [2, 6, 3]], [(0, 1)], 0, [1], label=1)
        bundle = prepare_graph(g, cfg)
        store = init_gcn_params(cfg, 12, layers=0, seed=0)
        logit_a, _, _ = gcn_forward_backward(bundle, store, cfg, 0, "eval", 0, None)
        # permuting nodes leaves a 0-layer model's pooled readout unchanged
        g2 = make_graph("g", [[2, 6, 3], [2, 5, 3]], [(1, 0)], 1, [0], label=1)
        bundle2 = prepare_graph(g2, cfg)
        logit_b, _, _ = gcn_forward_backward(bundle2, store, cfg, 0, "eval", 0, None)
        assert logit_a == pytest.approx(logit_b, abs=1e-12)

    def test_receptive_field_is_exactly_k_hops(self):
        # changing tokens 3 hops upstream must not move a 2-layer model's
        # state at the probe node, but changing 2 hops upstream must
        cfg = cfg64()
        nodes = [[2, 5, 3], [2, 6, 3], [2, 7, 3], [2, 8, 3]]
        g = make_graph("chain", nodes, [(0, 1), (1, 2), (2, 3)], 0, [3], label=0)
        store = init_gcn_params(cfg, 12, layers=2, seed=2)

        def node3_state(blocks):
            gg = make_graph("chain", blocks, [(0, 1), (1, 2), (2, 3)], 0, [3], label=0)
            b = prepare_graph(gg, cfg)
            p = store.params
            from cfgexec.nn import bigru_forward, embed, time_pool

            x_emb = embed(b.ids, p["emb"])
            h_seq, _ = bigru_forward(x_emb, p, b.mask)
            u, _ = time_pool(h_seq, b.mask)
            x = u
            for layer in range(2):
                x = np.tanh((b.a_hat.T @ x) @ p[f"gcn_W{layer}"])
            return x[3]

        base = node3_state(nodes)
        two_hop = [list(b) for b in nodes]
        two_hop[1][1] = 9
        assert np.abs(node3_state(two_hop) - base).max() > 1e-12
        three_hop = [list(b) for b in nodes]
        three_hop[0][1] = 9
        np.testing.assert_array_equal(node3_state(three_hop), base)


class TestGcnTraining:
    def test_learns_short_chain_task(self):
        # payload one hop from the prologue entry: inside a 2-hop view
        spec = SyntheticSpec(n_graphs=100, chain_length=1, node_count_range=(5, 6),
                             vocab_size=16, seed=4)
        ds = generate_dataset(spec)
        tr, ev = split(ds, 0.75, 4)
        cfg = TrainConfig(h=24, epochs=200, batch_size=25, seed=0, dropout=0.0,
                          v_max=8, lr=0.05, solver=SolverConfig(max_iter=20))
        result = train_gcn(tr, cfg, ev, layers=2, vocab_size=16)
        assert result.best_auc >= 0.85
        assert result.best_accuracy >= 0.75

    def test_unlabeled_graph_rejected(self):
        ds = generate_dataset(SyntheticSpec(n_graphs=8, chain_length=1, node_count_range=(5, 6),
                                            vocab_size=16, seed=4))
        cfg = cfg64(epochs=1)
        for unlabeled in (ds[0], ds[7]):  # one train graph, one eval graph
            label = unlabeled.label
            object.__setattr__(unlabeled, "label", None)
            with pytest.raises(GraphValidationError, match="label-missing"):
                train_gcn(ds[:6], cfg, ds[6:], vocab_size=16)
            object.__setattr__(unlabeled, "label", label)

    def test_nan_loss_raises(self, monkeypatch):
        # a NaN written into a weight after the first training graph makes
        # the next graph's loss NaN, which must stop training
        run_graph = baseline.gcn_forward_backward
        calls = []

        def poisoning(bundle, store, *args):
            out = run_graph(bundle, store, *args)
            calls.append(bundle.graph.id)
            if len(calls) == 1:
                store.params["gcn_W0"][0, 0] = np.nan
            return out

        monkeypatch.setattr(baseline, "gcn_forward_backward", poisoning)
        tr, ev = split(generate_dataset(SyntheticSpec(n_graphs=40, chain_length=4,
                                                      node_count_range=(9, 11), seed=1)),
                       0.75, 1)
        cfg = TrainConfig(h=8, epochs=2, batch_size=8, seed=0, v_max=6)
        with pytest.raises(NumericError, match="nan-detected: loss for graph"):
            train_gcn(tr, cfg, ev)
        assert len(calls) == 2

    def test_empty_dataset_rejected(self):
        ds = generate_dataset(SyntheticSpec(n_graphs=2, chain_length=1, node_count_range=(5, 6),
                                            vocab_size=16, seed=4))
        # no vocab size is given: with no graphs at all, its inference would fail first
        for eval_set in (ds, []):
            with pytest.raises(ValueError, match="empty-dataset"):
                train_gcn([], cfg64(epochs=1), eval_set)


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


def _record_bits(rec) -> tuple:
    return (rec.epoch, rec.split, _bits(rec.loss),
            _bits(np.array(astuple(rec.report), dtype=np.float64)))


class TestGcnMatchesReference:
    """train_gcn through the shared epoch loop against the standalone loop in
    tests/oracles.py, compared by bytes."""

    @pytest.mark.parametrize("precision,dropout,epochs,stops", [
        ("f64", 0.0, 3, False),
        ("f32", 0.2, 3, False),
        ("f64", 0.0, 300, True),  # the 0.02 train-loss stop fires at epoch 109
    ])
    def test_same_bits(self, precision, dropout, epochs, stops):
        ds = generate_dataset(SyntheticSpec(n_graphs=16, chain_length=1, node_count_range=(5, 7),
                                            vocab_size=16, seed=4))
        tr, ev = split(ds, 0.75, 4)
        cfg = TrainConfig(h=8, epochs=epochs, batch_size=4, seed=0, dropout=dropout, v_max=8,
                          lr=0.05, precision=precision)
        result = train_gcn(tr, cfg, ev, layers=2)
        store, history, best_acc, best_auc, acc_at_best_auc = train_gcn_reference(
            tr, cfg, ev, layers=2)
        assert (len(history) < epochs) == stops
        assert [_record_bits(r) for r in result.history] == [_record_bits(r) for r in history]
        assert [_bits(v) for v in (result.best_accuracy, result.best_auc,
                                   result.acc_at_best_auc)] == [
            _bits(v) for v in (best_acc, best_auc, acc_at_best_auc)]
        assert sorted(result.store.params) == sorted(store.params)
        for k, v in store.params.items():
            assert result.store.params[k].dtype == v.dtype
            assert _bits(result.store.params[k]) == _bits(v), k

"""Synthetic benchmark generator and the reachability oracle."""

import numpy as np
import pytest

from cfgexec import graphs, synth
from cfgexec.graphs import graphs_equal, make_graph, reachable_from, validate_graph
from cfgexec.synth import (
    HINT_ID,
    PROLOGUE_A,
    SynthesisError,
    SyntheticSpec,
    generate_dataset,
    payload_reachable,
    split,
)


class TestSpec:
    def test_chain_length_must_fit(self):
        with pytest.raises(SynthesisError):
            SyntheticSpec(node_count_range=(6, 8), chain_length=8)

    def test_vuln_token_in_vocab(self):
        with pytest.raises(SynthesisError):
            SyntheticSpec(vuln_token_id=40, vocab_size=16)

    def test_bad_reliability(self):
        with pytest.raises(SynthesisError):
            SyntheticSpec(hint_reliability=0.2)


class TestOracle:
    def test_payload_at_entry_is_positive(self):
        g = make_graph("g", [[2, 7, 3]], [], 0, [0], label=None)
        assert payload_reachable(g, 7)

    def test_unreachable_payload_is_negative(self):
        # payload in a node with no in-edges (and not the entry)
        g = make_graph("g", [[2, 4, 3], [2, 6, 3], [2, 7, 3]], [(0, 1)], 0, [1, 2])
        assert not payload_reachable(g, 7)

    def test_chain_zero_payload_at_entry(self):
        spec = SyntheticSpec(n_graphs=4, node_count_range=(1, 1), chain_length=0,
                             vocab_size=16)
        ds = generate_dataset(spec)
        for g in ds:
            if g.label == 1:
                assert 7 in g.nodes[g.entry]
            else:
                assert all(7 not in blk for blk in g.nodes)


class TestGenerate:
    def test_deterministic(self):
        spec = SyntheticSpec(n_graphs=20, chain_length=8, seed=5)
        a = generate_dataset(spec)
        b = generate_dataset(spec)
        assert all(graphs_equal(x, y) for x, y in zip(a, b))

    def test_labels_agree_with_oracle(self):
        spec = SyntheticSpec(n_graphs=60, chain_length=8, seed=9)
        for g in generate_dataset(spec):
            assert g.label == int(payload_reachable(g, spec.vuln_token_id))
            validate_graph(g)

    def test_one_reachability_walk_per_graph(self, monkeypatch):
        # validate_graph's exit check and the label oracle share one walk
        walks = []

        def counting(adjacency, start):
            walks.append(start)
            return reachable_from(adjacency, start)

        monkeypatch.setattr(graphs, "reachable_from", counting)
        monkeypatch.setattr(synth, "reachable_from", counting)
        spec = SyntheticSpec(n_graphs=20, chain_length=8, seed=9)
        assert len(generate_dataset(spec)) == len(walks) == 20

    def test_label_balance(self):
        spec = SyntheticSpec(n_graphs=500, chain_length=8, seed=11)
        labels = [g.label for g in generate_dataset(spec)]
        assert 0.45 <= sum(labels) / len(labels) <= 0.55

    def test_payload_distance_is_chain_length(self):
        spec = SyntheticSpec(n_graphs=30, chain_length=8, seed=13)
        for g in generate_dataset(spec):
            if g.label != 1:
                continue
            # BFS distance entry -> payload block
            dist = {g.entry: 0}
            frontier = [g.entry]
            while frontier:
                i = frontier.pop(0)
                for j in np.nonzero(g.adjacency[i])[0]:
                    if int(j) not in dist:
                        dist[int(j)] = dist[i] + 1
                        frontier.append(int(j))
            payload = next(i for i, blk in enumerate(g.nodes)
                           if spec.vuln_token_id in blk)
            assert dist[payload] == spec.chain_length

    def test_negatives_contain_unreachable_payload(self):
        spec = SyntheticSpec(n_graphs=40, chain_length=8, seed=17)
        for g in generate_dataset(spec):
            if g.label == 1:
                continue
            payload = [i for i, blk in enumerate(g.nodes) if spec.vuln_token_id in blk]
            assert payload, "exclusive branching keeps the token present"
            assert payload[0] not in reachable_from(g.adjacency, g.entry)

    def test_non_exclusive_negatives_omit_token(self):
        spec = SyntheticSpec(n_graphs=20, chain_length=4, seed=19,
                             node_count_range=(5, 8), exclusive_branching=False)
        for g in generate_dataset(spec):
            present = any(spec.vuln_token_id in blk for blk in g.nodes)
            assert present == (g.label == 1)

    def test_node_counts_within_range(self):
        spec = SyntheticSpec(n_graphs=30, chain_length=8, seed=23,
                             node_count_range=(13, 16))
        for g in generate_dataset(spec):
            assert 13 <= g.n <= 16

    def test_token_multiset_blind_except_hint(self):
        # prologue, payload, and return marks appear identically across classes
        spec = SyntheticSpec(n_graphs=100, chain_length=8, seed=29)
        per_label = {0: [], 1: []}
        for g in generate_dataset(spec):
            flat = [t for blk in g.nodes for t in blk]
            per_label[g.label].append(flat)
        for label in (0, 1):
            assert all(f.count(PROLOGUE_A) == 1 for f in per_label[label])
            assert all(f.count(spec.vuln_token_id) == 2 for f in per_label[label])
        hint_rate = {lab: np.mean([HINT_ID in f for f in per_label[lab]])
                     for lab in (0, 1)}
        assert hint_rate[1] > 0.5 > hint_rate[0]


class TestSplit:
    def test_three_one(self):
        ds = generate_dataset(SyntheticSpec(n_graphs=4, chain_length=2,
                                            node_count_range=(6, 8), vocab_size=16))
        tr, ev = split(ds, 0.75, 0)
        assert len(tr) == 3 and len(ev) == 1

    def test_deterministic(self):
        ds = generate_dataset(SyntheticSpec(n_graphs=12, chain_length=2,
                                            node_count_range=(6, 8), vocab_size=16))
        a = split(ds, 0.75, 4)
        b = split(ds, 0.75, 4)
        assert [g.id for g in a[0]] == [g.id for g in b[0]]

    def test_exact_75_25(self):
        ds = generate_dataset(SyntheticSpec(n_graphs=100, chain_length=2,
                                            node_count_range=(6, 8), vocab_size=16))
        tr, ev = split(ds, 0.75, 1)
        assert len(tr) == 75 and len(ev) == 25
        ids = {g.id for g in tr} | {g.id for g in ev}
        assert len(ids) == 100

    def test_empty_rejected(self):
        with pytest.raises(SynthesisError):
            split([], 0.75, 0)

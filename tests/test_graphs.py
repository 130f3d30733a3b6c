"""Graph data model, renormalization, merging, and file round trips."""

import json

import numpy as np
import pytest

from cfgexec.asm import function_to_graph, parse_listing
from cfgexec.graphs import (
    CfgGraph,
    GraphFileError,
    GraphValidationError,
    graphs_equal,
    make_graph,
    merge_functions,
    read_graph_file,
    renormalize,
    validate_graph,
    write_graph_file,
)
from cfgexec.model import ModelConfig, lambda_hats, prepare_graph
from cfgexec.solver import pf_eigenvalue
from cfgexec.synth import SyntheticSpec, generate_dataset
from cfgexec.vocab import train_vocab

from oracles import dense_spectral_radius


def chain(n, id="g", label=None):
    return make_graph(id, [[2, 4, 3]] * n, [(i, i + 1) for i in range(n - 1)],
                      0, [n - 1], label)


class TestValidate:
    def test_single_block_function_is_valid(self):
        g = make_graph("one", [[2, 3]], [], 0, [0])
        validate_graph(g)

    def test_self_loop_rejected(self):
        g = CfgGraph("bad", ((2, 3), (2, 3)), np.array([[1.0, 0.0], [0.0, 0.0]]),
                     0, frozenset({1}))
        with pytest.raises(GraphValidationError) as err:
            validate_graph(g)
        assert err.value.code == "diagonal-nonzero"
        assert err.value.node == 0

    def test_unreachable_exit(self):
        g = make_graph("u", [[2, 3]] * 3, [(0, 1)], 0, [2])
        with pytest.raises(GraphValidationError) as err:
            validate_graph(g)
        assert err.value.code == "unreachable-exit"
        assert err.value.node == 2

    def test_out_of_range_entry(self):
        g = CfgGraph("r", ((2, 3),), np.zeros((1, 1)), 5, frozenset({0}))
        with pytest.raises(GraphValidationError) as err:
            validate_graph(g)
        assert err.value.code == "index-out-of-range"

    def test_exit_with_outgoing_edge(self):
        g = make_graph("x", [[2, 3]] * 2, [(0, 1), (1, 0)], 0, [1])
        with pytest.raises(GraphValidationError) as err:
            validate_graph(g)
        assert err.value.code == "exit-outdegree"

    def test_adjacency_domain(self):
        g = CfgGraph("d", ((2, 3), (2, 3)), np.array([[0.0, 2.0], [0.0, 0.0]]),
                     0, frozenset({1}))
        with pytest.raises(GraphValidationError) as err:
            validate_graph(g)
        assert err.value.code == "adjacency-domain"


class TestMakeGraph:
    def test_first_bad_edge_in_input_order_is_named(self):
        with pytest.raises(GraphValidationError) as err:
            make_graph("e", [[2, 3]] * 3, [(0, 1), (2, 3), (-1, 0), (5, 1)], 0, [1])
        assert err.value.code == "index-out-of-range"
        assert err.value.node == 2
        assert "edge (2, 3) outside [0, 3)" in str(err.value)

    def test_empty_edge_list(self):
        for edges in ([], (), iter([])):
            g = make_graph("one", [[2, 3]], edges, 0, [0])
            assert g.edges() == []
            assert g.adjacency.shape == (1, 1)

    def test_edges_from_a_generator(self):
        g = make_graph("gen", [[2, 3]] * 3, ((i, i + 1) for i in range(2)), 0, [2])
        assert g.edges() == [(0, 1), (1, 2)]

    def test_malformed_edge_raises(self):
        for edges in ([(0, 1, 2), (1,)], [(0, 1), (1,)]):
            with pytest.raises(ValueError):
                make_graph("m", [[2, 3]] * 3, edges, 0, [2])
        with pytest.raises(IndexError):
            make_graph("f", [[2, 3]] * 3, [(1.5, 0)], 0, [2])


def _bool_graph(rng, n):
    a = rng.random((n, n)) < 0.3
    np.fill_diagonal(a, False)
    a[n - 1] = False
    a[np.arange(n - 1), np.arange(1, n)] = True  # a chain keeps the exit reachable
    return CfgGraph("b", ((2, 3),) * n, a, 0, frozenset({n - 1}))


def _float_twin(g):
    return CfgGraph(g.id, g.nodes, g.adjacency.astype(np.float64), g.entry, g.exits, g.label)


class TestBoolAdjacency:
    @staticmethod
    def assert_bool_matrix(g):
        assert g.adjacency.dtype == bool
        assert g.adjacency.flags.c_contiguous
        assert g.adjacency.nbytes == g.n * g.n

    def test_every_constructor_builds_a_bool_matrix(self, tmp_path):
        a, b = chain(3, "a"), chain(4, "b")
        merged = merge_functions([a, b], [("a", 1, "b")])
        path = tmp_path / "g.json"
        write_graph_file([merged], path)
        listing = "f:\ncmp eax, 0\njz L\nmov ebx, 1\nL: ret\n"
        vocab = train_vocab(["cmp", "jz", "mov", "ret", "eax", "ebx", "0", "1", "L"], 40)
        parsed = function_to_graph(parse_listing(listing)[0], vocab, 16)
        synth = generate_dataset(SyntheticSpec(n_graphs=4, node_count_range=(13, 15),
                                               chain_length=8, seed=3, vocab_size=16))
        for g in [a, b, merged, *read_graph_file(path), parsed, *synth]:
            self.assert_bool_matrix(g)

    def test_renormalize_same_bytes_as_the_f64_copy(self):
        rng = np.random.default_rng(11)
        graphs = [_bool_graph(rng, int(n)) for n in rng.integers(1, 40, size=25)]
        graphs += generate_dataset(SyntheticSpec(n_graphs=4, node_count_range=(80, 96),
                                                 chain_length=60, tokens_per_block=1, seed=5))
        for g in graphs:
            out = renormalize(g.adjacency)
            assert out.dtype == np.float64
            assert out.tobytes() == renormalize(g.adjacency.astype(np.float64)).tobytes()

    def test_graphs_equal_to_the_f64_twin(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 7, 30):
            g = _bool_graph(rng, n)
            validate_graph(g)
            assert graphs_equal(g, _float_twin(g))
            assert graphs_equal(_float_twin(g), g)
            assert _float_twin(g).edges() == g.edges()

    def test_write_read_keeps_the_edges(self, tmp_path):
        rng = np.random.default_rng(13)
        graphs = [_bool_graph(rng, n) for n in (1, 5, 23)]
        path = tmp_path / "b.json"
        write_graph_file(graphs, path)
        loaded = read_graph_file(path)
        for g, back in zip(graphs, loaded):
            assert back.edges() == g.edges()
            assert np.array_equal(back.adjacency, g.adjacency)
            self.assert_bool_matrix(back)

    def test_merge_rejects_a_float_input_outside_the_domain(self):
        bad = CfgGraph("d", ((2, 3), (2, 3)), np.array([[0.0, 2.0], [0.0, 0.0]]),
                       0, frozenset({1}))
        with pytest.raises(GraphValidationError) as err:
            merge_functions([chain(2, "a"), bad], [])
        assert err.value.code == "adjacency-domain"

    def test_merge_takes_a_float_twin(self):
        a, b = chain(3, "a"), chain(2, "b")
        merged = merge_functions([_float_twin(a), b], [("a", 0, "b")])
        assert graphs_equal(merged, merge_functions([a, b], [("a", 0, "b")]))
        self.assert_bool_matrix(merged)


class TestRenormalize:
    def test_single_node(self):
        np.testing.assert_allclose(renormalize(np.zeros((1, 1))), [[1.0]])

    def test_two_node_chain_hand_computed(self):
        # A + I = [[1,1],[0,1]], row sums (2,1): entries 1/2, 1/sqrt(2), 0, 1
        out = renormalize(np.array([[0.0, 1.0], [0.0, 0.0]]))
        expected = np.array([[0.5, 1.0 / np.sqrt(2.0)], [0.0, 1.0]])
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_symmetry_preserved(self):
        a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        out = renormalize(a)
        np.testing.assert_allclose(out, out.T, atol=1e-15)

    def test_direction_preserved(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        out = renormalize(a)
        assert out[0, 1] > 0.0
        assert out[1, 0] == 0.0

    def test_entries_nonnegative_and_finite(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a = (rng.random((n, n)) < 0.4).astype(float)
            np.fill_diagonal(a, 0.0)
            out = renormalize(a)
            assert np.isfinite(out).all()
            assert (out >= 0.0).all()

    def test_row_sums_bounded_on_chain_family(self):
        for n in range(1, 8):
            out = renormalize(chain(n).adjacency)
            sums = out.sum(axis=1)
            assert (sums > 0.0).all()
            assert sums.max() <= 0.5 + 1.0 / np.sqrt(2.0) + 1e-12

    def test_pf_matches_dense_eigensolver_up_to_6x6(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            n = int(rng.integers(1, 7))
            a = (rng.random((n, n)) < 0.5).astype(float)
            np.fill_diagonal(a, 0.0)
            out = renormalize(a)
            assert pf_eigenvalue(out) == pytest.approx(
                dense_spectral_radius(out), abs=1e-8)

    def test_cached_pf_matches_power_iteration(self):
        g = chain(4)
        lam = lambda_hats([prepare_graph(g, ModelConfig())])[0]
        assert lam == pytest.approx(pf_eigenvalue(renormalize(g.adjacency)), abs=1e-8)


class TestMerge:
    def test_identity_merge(self):
        g = chain(3)
        merged = merge_functions([g], [])
        assert merged.nodes == g.nodes
        assert np.array_equal(merged.adjacency, g.adjacency)
        assert merged.entry == 0
        assert merged.exits == g.exits

    def test_two_chains_one_call_edge(self):
        a, b = chain(2, "a"), chain(2, "b")
        merged = merge_functions([a, b], [("a", 0, "b")])
        assert merged.n == 4
        assert len(merged.edges()) == 3
        assert (2, 3) in merged.edges()  # offset callee edge
        assert (0, 2) in merged.edges()  # call edge to callee entry
        validate_graph(merged)

    def test_node_count_preserved_and_edges_added(self):
        gs = [chain(3, "a"), chain(2, "b"), chain(4, "c")]
        calls = [("a", 1, "b"), ("c", 0, "a")]
        merged = merge_functions(gs, calls)
        assert merged.n == sum(g.n for g in gs)
        assert len(merged.edges()) == sum(len(g.edges()) for g in gs) + len(calls)

    def test_dangling_call_target(self):
        with pytest.raises(GraphValidationError) as err:
            merge_functions([chain(2, "a")], [("a", 0, "zzz")])
        assert err.value.code == "dangling-call-target"

    def test_call_from_exit_demotes_it(self):
        a, b = chain(2, "a"), chain(2, "b")
        merged = merge_functions([a, b], [("a", 1, "b")])
        assert 1 not in merged.exits
        validate_graph(merged)

    def test_label_any_vulnerable(self):
        a, b = chain(2, "a", label=0), chain(2, "b", label=1)
        assert merge_functions([a, b], []).label == 1
        assert merge_functions([chain(2, "a", 0), chain(2, "b", 0)], []).label == 0
        assert merge_functions([chain(2, "a"), chain(2, "b")], []).label is None


class TestGraphFile:
    def test_empty_list_roundtrip(self, tmp_path):
        path = tmp_path / "empty.json"
        write_graph_file([], path)
        assert json.loads(path.read_text())["graphs"] == []
        assert read_graph_file(path) == []

    def test_roundtrip_lossless(self, tmp_path):
        g = make_graph("f", [[2, 5, 3], [2, 3]], [(0, 1)], 0, [1], label=1)
        path = tmp_path / "g.json"
        write_graph_file([g], path)
        loaded = read_graph_file(path)
        assert len(loaded) == 1
        assert graphs_equal(loaded[0], g)

    def test_double_roundtrip_identical_bytes(self, tmp_path):
        g = chain(4, label=0)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_graph_file([g], p1)
        write_graph_file(read_graph_file(p1), p2)
        assert p1.read_text() == p2.read_text()

    def test_duplicate_edge_is_schema_violation(self, tmp_path):
        payload = {"format_version": 1, "graphs": [{
            "id": "g", "entry": 0, "exits": [1], "label": None,
            "nodes": [[2, 3], [2, 3]], "edges": [[0, 1], [0, 1]]}]}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(GraphFileError) as err:
            read_graph_file(path)
        assert err.value.code == "schema-violation"

    @pytest.mark.parametrize("block,message", [
        ([], "graphs[0].nodes[1] is not a non-empty list"),
        ([2, 0, 0, 3], "graphs[0].nodes[1] has invalid token id 0"),
    ], ids=["empty", "pad-id"])
    def test_empty_or_padded_block_is_schema_violation(self, tmp_path, block, message):
        # the model would mask a pad id out of the block, or find no token in it
        payload = {"format_version": 1, "graphs": [{
            "id": "g", "entry": 0, "exits": [1], "label": None,
            "nodes": [[2, 3], block], "edges": [[0, 1]]}]}
        path = tmp_path / "block.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(GraphFileError) as err:
            read_graph_file(path)
        assert err.value.code == "schema-violation"
        assert str(err.value) == f"schema-violation: {message}"

    def test_parse_error_has_line_context(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format_version": 1,\n "graphs": [}')
        with pytest.raises(GraphFileError) as err:
            read_graph_file(path)
        assert err.value.code == "parse-error"
        assert "line 2" in str(err.value)

    def test_bad_label_rejected(self, tmp_path):
        payload = {"format_version": 1, "graphs": [{
            "id": "g", "entry": 0, "exits": [0], "label": 2,
            "nodes": [[2, 3]], "edges": []}]}
        path = tmp_path / "label.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(GraphFileError):
            read_graph_file(path)

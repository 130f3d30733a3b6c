"""Graph data model, renormalization, merging, and file round trips."""

import json

import numpy as np
import pytest

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

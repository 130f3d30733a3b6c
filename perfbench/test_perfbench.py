"""Fast tests of the benchmark: each workload end to end at a tiny size, each
check against a deliberately corrupted output, and the tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, tracing
from perfbench.asmgen import generate_listing
from perfbench.run import run_rounds, throughputs
from perfbench.workloads import (Captured, GcnC6, ScanAsm, ScoreDeep, Tally, TrainC6,
                                 check_scored, model_config)

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# Smoke-test sizes. Eight graphs per batch give training enough steps for its
# loss to fall; the AUC floor needs the full eval split.
TINY = {
    "train-c6": TrainC6(n_graphs=40, batch_size=8, auc_floor=None, check_sample=4),
    "gcn-c6": GcnC6(n_graphs=24),
    "score-deep": ScoreDeep(n_graphs=6, chain_length=12, node_count_range=(18, 20)),
    "scan-asm": ScanAsm(n_functions=6, vocab_pieces=120),
}


@pytest.fixture(scope="module")
def deep_round():
    """A tiny score-deep round with every forward's outputs captured."""
    from cfgexec import model, training

    wl = TINY["score-deep"]
    state = wl.setup(3)
    cfg = model_config()
    caps = []
    for b in (model.prepare_graph(g, cfg) for g in state["graphs"]):
        logit, cache = training.forward(b, state["store"], cfg, mode="eval", seed=5)
        caps.append(Captured.of(b, logit, cache))
    return state, cfg, caps


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_end_to_end(name):
    wl = TINY[name]
    state = wl.setup(7)
    tally = Tally()
    tally.add(wl.check_inputs(state))
    rounds = run_rounds(wl, state, seconds=0.0)
    for r in rounds:
        tally.add(r.tally)
    assert len(rounds) == 1
    assert tally.attempted > 0 and tally.failed == 0, tally.notes
    graphs_per_s, eval_per_s = throughputs(rounds)
    assert graphs_per_s > 0 and eval_per_s > 0


def test_rounds_repeat_the_same_operations():
    wl = TINY["scan-asm"]
    state = wl.setup(11)
    first, second = run_rounds(wl, state, 0.0)[0], run_rounds(wl, state, 0.0)[0]
    assert (first.items, first.tally.attempted) == (second.items, second.tally.attempted)


def test_fixed_point_check_fails_on_perturbed_state(deep_round):
    state, cfg, caps = deep_round
    tol = cfg.solver.resolve_tol(cfg.dtype)
    params = state["store"].params
    c = caps[0]
    res = checks.fixed_point_residual(params, c.a_hat, c.x_star, c.u, c.noise, cfg.tau)
    assert checks.check_fixed_point(res, tol)
    bad = c.x_star.copy()
    bad[0, 0] += 1e-3 * np.linalg.norm(bad)
    res_bad = checks.fixed_point_residual(params, c.a_hat, bad, c.u, c.noise, cfg.tau)
    assert not checks.check_fixed_point(res_bad, tol)
    tally = Tally()
    check_scored(tally, params, cfg, dataclasses.replace(c, x_star=bad),
                 checks.head_probability(params, bad))
    assert tally.failed == 1


def test_score_check_fails_on_wrong_score(deep_round):
    state, cfg, caps = deep_round
    params = state["store"].params
    c = caps[1]
    prob = float(1.0 / (1.0 + np.exp(-c.logit)))
    assert checks.check_score(prob, checks.head_probability(params, c.x_star))
    assert not checks.check_score(prob + 1e-4, checks.head_probability(params, c.x_star))


def test_label_check_fails_on_flipped_label(deep_round):
    state, _cfg, _caps = deep_round
    g = state["graphs"][0]
    assert checks.check_label(g, 7)
    assert not checks.check_label(dataclasses.replace(g, label=1 - g.label), 7)


def test_scan_check_fails_on_dropped_edge():
    from cfgexec import asm

    text, specs = generate_listing(5, 4)
    parsed = asm.parse_listing(text)
    assert all(checks.check_scan(p, s) for p, s in zip(parsed, specs))
    spec = specs[0]
    dropped = dataclasses.replace(spec, edges=frozenset(sorted(spec.edges)[1:]))
    assert not checks.check_scan(parsed[0], dropped)


def test_w_row_check_fails_past_kappa():
    w = np.full((4, 4), 0.2, dtype=np.float32)
    assert checks.check_w_rows(w, 0.9)
    w[2] *= 0.95 / float(np.abs(w[2]).sum())
    assert not checks.check_w_rows(w, 0.9)


def test_auc_and_loss_checks():
    scores, labels = [0.9, 0.8, 0.4, 0.3], [1, 0, 1, 0]
    assert checks.pairwise_auc(scores, labels) == 0.75
    assert checks.check_auc(scores, labels, 0.75, floor=0.7)
    assert not checks.check_auc(scores, labels, 0.76, floor=0.7)
    assert not checks.check_auc(scores, labels, 0.75, floor=0.8)
    assert checks.check_loss_decrease([1.0, 0.7]) and not checks.check_loss_decrease([0.7, 0.7])
    assert not checks.check_finite([0.7, float("nan")])


def test_missing_trace_target_is_reported_not_raised():
    tracer = tracing.Tracer()
    targets = tracing.TARGETS + (("model.gone", "cfgexec.model", "no_such_function", None),
                                 ("executor.gone", "cfgexec.executor", "JointStep.gone", None))
    tracer.install(targets)
    try:
        wl = TINY["score-deep"]
        run_rounds(wl, wl.setup(2), 0.0)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["cfgexec.model.no_such_function", "cfgexec.executor.JointStep.gone"]
    values = tracing.layer_metrics(tracing.SpanTable.build(tracer), tracer.missing)
    assert values["trace.missing_targets"] == 2.0
    assert values["solver.forward_iters"] > 0


def test_self_time_excludes_children(monkeypatch):
    mod = types.ModuleType("fake_layers")

    def inner():
        return sum(range(20000))

    mod.inner = inner
    mod.outer = lambda: mod.inner() + mod.inner()
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    tracer = tracing.Tracer()
    tracer.install((("outer", "fake_layers", "outer", None), ("inner", "fake_layers", "inner", None)))
    try:
        mod.outer()
    finally:
        tracer.uninstall()
    t = tracing.SpanTable.build(tracer)
    (o,), inners = t.of("outer"), t.of("inner")
    assert len(inners) == 2 and all(t.parent_name(int(i)) == "outer" for i in inners)
    assert t.self_time[o] == pytest.approx(t.duration[o] - t.duration[inners].sum())
    assert mod.inner is inner


def test_metric_names_match_benchmark_json():
    empty = tracing.layer_metrics(tracing.SpanTable.build(tracing.Tracer()), [])
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(empty) | {"trace.overhead_pct"} == per_layer
    assert {w["name"] for w in SPEC["workloads"]} == set(TINY)

"""The benchmark's workloads: seeded inputs, one round of timed work, checks.

A round is a fixed amount of work that starts from the same state every
time, so every round of a run does the same operations and its timings are
comparable. The runner repeats rounds until the run's time is up and reports
medians over them.

An operation, for the attempted/failed counts, is one output the benchmark
checks: a synthetic label, a scored graph (its fixed point and its score), a
scanned function (its CFG, fixed point and score), or a training run (its
AUC, loss curve and W rows; for the GCN, its losses).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from cfgexec import asm, baseline, model, synth, training, vocab
from cfgexec.synth import SyntheticSpec

from . import checks
from .asmgen import generate_listing
from .tracing import Patches

C6_DATA_SEED = 42  # criterion 6's dataset and split
VOCAB_SIZE = 16  # synthetic token ids
PAYLOAD = synth.DEFAULT_VULN_ID


def model_config(**overrides: Any) -> training.TrainConfig:
    """Criterion 6's model and optimizer settings."""
    return training.TrainConfig(seed=0, tau=64.0, **overrides)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: max(0, 20 - len(self.notes))])


@dataclass
class Round:
    """One round's timings. items go through the workload's main path in
    main_s seconds; eval_forwards eval-mode forwards take eval_s seconds."""

    items: int
    main_s: float
    eval_forwards: int
    eval_s: float
    tally: Tally


class PhaseClock:
    """Wall time and calls of a few functions, by the name the caller resolves.

    These wrappers run in untraced rounds too: the end-to-end metrics leave
    out graph preparation and the eval pass that `training.train` runs
    internally, and the checks read outputs that the program does not return.
    Each adds about a microsecond per call.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._patches = Patches()

    def time(self, owner: Any, attr: str, key=None) -> None:
        """Accumulate the time of owner.attr under key(args, kwargs) (default: attr)."""
        def make(fn):
            def timed(*args, **kwargs):
                k = attr if key is None else key(args, kwargs)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.seconds[k] = self.seconds.get(k, 0.0) + time.perf_counter() - t0
                    self.calls[k] = self.calls.get(k, 0) + 1
            return timed
        self._patches.replace(owner, attr, make)

    def wrap(self, owner: Any, attr: str, make) -> None:
        self._patches.replace(owner, attr, make)

    def __enter__(self) -> "PhaseClock":
        return self

    def __exit__(self, *exc: object) -> None:
        self._patches.restore()


@dataclass(frozen=True)
class Captured:
    """What the fixed-point and score checks need from one eval forward."""

    graph_id: str
    logit: float
    x_star: np.ndarray
    u: np.ndarray
    noise: np.ndarray
    a_hat: np.ndarray

    @classmethod
    def of(cls, bundle, logit: float, cache) -> "Captured":
        return cls(bundle.graph.id, logit, cache.x_star, cache.step.u, cache.step.noise,
                   bundle.a_hat)


def check_scored(tally: Tally, params, cfg, captured: Captured, score: float) -> None:
    """Fixed point in f64 and the head's score, for one eval forward."""
    tol = cfg.solver.resolve_tol(cfg.dtype)
    res = checks.fixed_point_residual(params, captured.a_hat, captured.x_star, captured.u,
                                      captured.noise, cfg.tau)
    tally.record(checks.check_fixed_point(res, tol)
                 and checks.check_score(score, checks.head_probability(params, captured.x_star)),
                 f"{captured.graph_id}: fixed-point residual {res:.3e} or score mismatch")


def check_labels(graphs) -> Tally:
    tally = Tally()
    for g in graphs:
        tally.record(checks.check_label(g, PAYLOAD), f"{g.id}: label")
    return tally


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainC6:
    """`training.train` on criterion 6's data and config for a fixed number of
    epochs, from the same initial parameters every round.

    The data is criterion 6's at every seed: after two epochs eval AUC on
    other data seeds ranges 0.49-0.58, so no learning floor above chance
    would hold on every seed, while on criterion 6's data it reads 0.587.
    The seed picks which eval graphs get the f64 fixed-point check.
    """

    name = "train-c6"
    n_graphs: int = 1000
    epochs: int = 2
    batch_size: int = 192
    auc_floor: float | None = 0.55
    check_sample: int = 16

    def setup(self, seed: int) -> dict:
        ds = synth.generate_dataset(SyntheticSpec(n_graphs=self.n_graphs, chain_length=8,
                                                  seed=C6_DATA_SEED))
        train_set, eval_set = synth.split(ds, 0.75, C6_DATA_SEED)
        rng = np.random.default_rng([seed, 6])
        sample = rng.choice(len(eval_set), size=min(self.check_sample, len(eval_set)),
                            replace=False)
        return {"graphs": ds, "train": train_set, "eval": eval_set,
                "sample": {eval_set[i].id for i in sample}}

    def check_inputs(self, state: dict) -> Tally:
        return check_labels(state["graphs"])

    def round(self, state: dict) -> Round:
        cfg = model_config(eval_noise_seeds=3, epochs=self.epochs, batch_size=self.batch_size)
        eval_scores: list[list[float]] = []
        captured: dict[str, list[Captured]] = {}

        def capture_eval(fn):
            def evaluate(bundles, *args, **kwargs):
                captured.clear()
                out = fn(bundles, *args, **kwargs)
                eval_scores.append(out[2])
                return out
            return evaluate

        def capture_forward(fn):
            def forward(bundle, *args, **kwargs):
                logit, cache = fn(bundle, *args, **kwargs)
                if cache.mode == "eval" and bundle.graph.id in state["sample"]:
                    captured.setdefault(bundle.graph.id, []).append(
                        Captured.of(bundle, logit, cache))
                return logit, cache
            return forward

        with PhaseClock() as clock:
            clock.wrap(training, "forward", capture_forward)
            clock.wrap(training, "evaluate", capture_eval)
            clock.time(training, "evaluate")
            clock.time(training, "prepare_graph")
            t0 = time.perf_counter()
            result = training.train(state["train"], cfg, state["eval"], vocab_size=VOCAB_SIZE)
            wall = time.perf_counter() - t0
        eval_s = clock.seconds["evaluate"]
        tally = Tally()
        final = result.history[-1]
        labels = [g.label for g in state["eval"]]
        losses = [r.loss for r in result.history if r.split == "train"]
        params = result.store.params
        tally.record(
            len(losses) == self.epochs
            and checks.check_auc(eval_scores[-1], labels, final.report.auc,
                                 -np.inf if self.auc_floor is None else self.auc_floor)
            and checks.check_loss_decrease(losses)
            # kappa / lambda_hat, where lambda_hat = 1: D^-1/2 (A+I) D^-1/2 is
            # similar to the row-stochastic D^-1 (A+I)
            and checks.check_w_rows(params["W"], cfg.kappa),
            f"training run: epochs {len(losses)}, eval auc {final.report.auc:.4f}, "
            f"losses {losses}, max |W| row {np.abs(params['W']).sum(axis=1).max():.6f}")
        scores = dict(zip((g.id for g in state["eval"]), eval_scores[-1]))
        for graph_id, caps in sorted(captured.items()):
            probs = [checks.head_probability(params, c.x_star) for c in caps]
            ok = len(caps) == cfg.eval_noise_seeds and checks.check_score(
                scores[graph_id], float(np.mean(probs)))
            tally.record(ok, f"{graph_id}: eval score is not the mean of its seeds' heads")
            for c in caps:
                res = checks.fixed_point_residual(params, c.a_hat, c.x_star, c.u, c.noise,
                                                  cfg.tau)
                tally.record(checks.check_fixed_point(res, cfg.solver.resolve_tol(cfg.dtype)),
                             f"{graph_id}: fixed-point residual {res:.3e}")
        return Round(items=len(state["train"]) * self.epochs,
                     main_s=wall - eval_s - clock.seconds["prepare_graph"],
                     eval_forwards=clock.calls["evaluate"] * len(state["eval"])
                     * cfg.eval_noise_seeds,
                     eval_s=eval_s, tally=tally)


@dataclass(frozen=True)
class GcnC6:
    """`baseline.train_gcn` (2 layers) on criterion-6-shaped data for a fixed
    number of epochs, from the same initial parameters every round."""

    name = "gcn-c6"
    n_graphs: int = 1000
    epochs: int = 2

    def setup(self, seed: int) -> dict:
        ds = synth.generate_dataset(SyntheticSpec(n_graphs=self.n_graphs, chain_length=8,
                                                  seed=seed))
        train_set, eval_set = synth.split(ds, 0.75, seed)
        return {"graphs": ds, "train": train_set, "eval": eval_set}

    def check_inputs(self, state: dict) -> Tally:
        return check_labels(state["graphs"])

    def round(self, state: dict) -> Round:
        cfg = model_config(epochs=self.epochs)

        def mode(args, kwargs):
            return "gcn-" + kwargs.get("mode", args[4] if len(args) > 4 else "")

        with PhaseClock() as clock:
            clock.time(baseline, "gcn_forward_backward", key=mode)
            clock.time(baseline, "prepare_graph")
            t0 = time.perf_counter()
            result = baseline.train_gcn(state["train"], cfg, state["eval"], layers=2,
                                        vocab_size=VOCAB_SIZE)
            wall = time.perf_counter() - t0
        tally = Tally()
        losses = [r.loss for r in result.history]
        tally.record(len(losses) == self.epochs and checks.check_finite(losses),
                     f"gcn run: epochs {len(losses)}, eval losses {losses}")
        eval_s = clock.seconds["gcn-eval"]
        return Round(items=clock.calls["gcn-train"],
                     main_s=wall - eval_s - clock.seconds["prepare_graph"],
                     eval_forwards=clock.calls["gcn-eval"], eval_s=eval_s, tally=tally)


@dataclass(frozen=True)
class ScoreDeep:
    """Prepare and score large, deep graphs with one-token blocks through
    `training.evaluate` (one noise seed) at seeded initial parameters."""

    name = "score-deep"
    n_graphs: int = 300
    chain_length: int = 60
    node_count_range: tuple[int, int] = (80, 96)

    def setup(self, seed: int) -> dict:
        cfg = model_config()
        ds = synth.generate_dataset(SyntheticSpec(
            n_graphs=self.n_graphs, chain_length=self.chain_length,
            node_count_range=self.node_count_range, tokens_per_block=1, seed=seed))
        return {"graphs": ds, "store": model.init_model_params(cfg, VOCAB_SIZE, cfg.seed)}

    def check_inputs(self, state: dict) -> Tally:
        return check_labels(state["graphs"])

    def round(self, state: dict) -> Round:
        cfg = model_config()
        store = state["store"]
        captured: dict[str, Captured] = {}

        def capture_forward(fn):
            def forward(bundle, *args, **kwargs):
                logit, cache = fn(bundle, *args, **kwargs)
                captured[bundle.graph.id] = Captured.of(bundle, logit, cache)
                return logit, cache
            return forward

        with PhaseClock() as clock:
            clock.wrap(training, "forward", capture_forward)
            t0 = time.perf_counter()
            bundles = [model.prepare_graph(g, cfg) for g in state["graphs"]]
            t1 = time.perf_counter()
            _, _, scores = training.evaluate(bundles, store, cfg, noise_seeds=1)
            t2 = time.perf_counter()
        tally = Tally()
        for g, score in zip(state["graphs"], scores):
            check_scored(tally, store.params, cfg, captured[g.id], score)
        n = len(bundles)
        return Round(items=n, main_s=t2 - t0, eval_forwards=n, eval_s=t2 - t1, tally=tally)


@dataclass(frozen=True)
class ScanAsm:
    """Listing text to one score per function: parse, strip, encode, prepare
    and an eval-mode forward, once per function."""

    name = "scan-asm"
    n_functions: int = 308  # 14 functions of each block count
    vocab_pieces: int = 256

    def setup(self, seed: int) -> dict:
        cfg = model_config()
        text, specs = generate_listing(seed, self.n_functions)
        corpus: list[str] = []
        for parsed in asm.parse_listing(text):
            corpus.extend(asm.function_tokens(asm.strip_semantics(parsed.function)))
        voc = vocab.train_vocab(corpus, self.vocab_pieces)
        return {"text": text, "specs": specs, "vocab": voc,
                "store": model.init_model_params(cfg, voc.size, cfg.seed)}

    def check_inputs(self, state: dict) -> Tally:
        return Tally()

    def round(self, state: dict) -> Round:
        cfg = model_config()
        store, voc = state["store"], state["vocab"]
        scanned = []
        forward_s = 0.0
        t0 = time.perf_counter()
        for parsed in asm.parse_listing(state["text"]):
            stripped = asm.ParsedFunction(
                function=asm.strip_semantics(parsed.function), blocks=parsed.blocks,
                edges=parsed.edges, exits=parsed.exits, indirect_blocks=parsed.indirect_blocks)
            bundle = model.prepare_graph(asm.function_to_graph(stripped, voc, cfg.v_max), cfg)
            f0 = time.perf_counter()
            logit, cache = model.forward(bundle, store, cfg, mode="eval",
                                         seed=model.derive_seed(cfg.seed, "scan", parsed.name))
            forward_s += time.perf_counter() - f0
            scanned.append((parsed, Captured.of(bundle, logit, cache)))
        wall = time.perf_counter() - t0
        tally = Tally()
        specs = state["specs"]
        tally.record(len(scanned) == len(specs),
                     f"parsed {len(scanned)} functions, generated {len(specs)}")
        for (parsed, cap), spec in zip(scanned, specs):
            tally.record(checks.check_scan(parsed, spec), f"{spec.name}: CFG differs")
            score = float(1.0 / (1.0 + np.exp(-cap.logit)))
            check_scored(tally, store.params, cfg, cap, score)
        n = len(scanned)
        return Round(items=n, main_s=wall, eval_forwards=n, eval_s=forward_s, tally=tally)


WORKLOADS = {w.name: w for w in (TrainC6(), GcnC6(), ScoreDeep(), ScanAsm())}

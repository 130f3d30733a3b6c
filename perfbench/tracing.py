"""Spans around calls into cfgexec's layers, recorded from outside the package.

Each wrapper replaces a module attribute (or a method on a class) for the
duration of a run. Modules import their dependencies by name, so a wrapper
goes on the name the caller resolves: `cfgexec.model.anderson` for the solve
inside `model.forward`, `cfgexec.training.forward` for the calls inside
`training.train`. A span records its name, start, end, parent span and a few
fields read from the call's arguments or return value. Spans stay in memory
until the run ends.

A target that no longer exists is recorded as missing and skipped, so a
change that removes a function still gets a traced run.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np


def _mode(position: int) -> Callable:
    """Reads the `mode` argument, passed by keyword or at this position."""
    def read(args: tuple, kwargs: dict, _result: Any) -> dict:
        return {"mode": kwargs.get("mode", args[position] if len(args) > position else "eval")}
    return read


def _solve(_args: tuple, _kwargs: dict, result: Any) -> dict:
    return {"iterations": result.iterations, "fallbacks": len(result.fallback_steps),
            "converged": bool(result.converged)}


def _count_result(_args: tuple, _kwargs: dict, result: Any) -> dict:
    return {"items": len(result)}


def _count_bundles(args: tuple, kwargs: dict, _result: Any) -> dict:
    return {"items": len(kwargs.get("bundles", args[0] if args else ()))}


# (span name, module, attribute or "Class.method", fields read from the call)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("synth.generate_dataset", "cfgexec.synth", "generate_dataset", _count_result),
    ("graphs.renormalize", "cfgexec.model", "renormalize", None),
    ("asm.parse_listing", "cfgexec.asm", "parse_listing", _count_result),
    ("asm.strip_semantics", "cfgexec.asm", "strip_semantics", None),
    ("asm.function_to_graph", "cfgexec.asm", "function_to_graph", None),
    ("vocab.encode_token", "cfgexec.vocab", "encode_token", None),
    ("vocab.train_vocab", "cfgexec.vocab", "train_vocab", None),
    ("nn.bigru_forward", "cfgexec.model", "bigru_forward", None),
    ("nn.bigru_forward", "cfgexec.baseline", "bigru_forward", None),
    ("nn.bigru_backward", "cfgexec.model", "bigru_backward", None),
    ("nn.bigru_backward", "cfgexec.baseline", "bigru_backward", None),
    ("executor.transition", "cfgexec.executor", "JointStep.__call__", None),
    ("executor.vjp_x", "cfgexec.executor", "JointStep.vjp_x", None),
    ("executor.vjp_params", "cfgexec.executor", "JointStep.vjp_params", None),
    ("solver.anderson", "cfgexec.model", "anderson", _solve),
    ("solver.pf_eigenvalue", "cfgexec.model", "pf_eigenvalue", None),
    ("solver.project_wellposed", "cfgexec.training", "project_wellposed", None),
    ("model.forward", "cfgexec.model", "forward", _mode(3)),
    ("model.forward", "cfgexec.training", "forward", _mode(3)),
    ("model.implicit_backward", "cfgexec.model", "implicit_backward", None),
    ("model.backward", "cfgexec.training", "model_backward", None),
    ("training.adam_step", "cfgexec.training", "adam_step", None),
    ("training.evaluate", "cfgexec.training", "evaluate", _count_bundles),
    ("training.train", "cfgexec.training", "train", None),
    ("baseline.train_gcn", "cfgexec.baseline", "train_gcn", None),
    ("baseline.gcn_forward_backward", "cfgexec.baseline", "gcn_forward_backward", _mode(4)),
)


def resolve(module_name: str, attr: str) -> tuple[Any, str] | None:
    """(owner, attribute name) for "name" or "Class.method" in a module, or None."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, last):
        return None
    return owner, last


class Patches:
    """Replaces attributes and puts the originals back, last in first out."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@dataclass
class Tracer:
    """In-memory span recorder. Span i is names[name_ids[i]] from starts[i] to
    ends[i], inside span parents[i] (-1 at top level)."""

    names: list[str] = field(default_factory=list)
    name_ids: list[int] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    fields: dict[int, dict] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patches: Patches = field(default_factory=Patches)

    def install(self, targets=TARGETS) -> None:
        for span, module_name, attr, read in targets:
            found = resolve(module_name, attr)
            if found is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            owner, name = found
            self._patches.replace(owner, name, lambda fn, s=span, r=read: self._wrap(fn, s, r))

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap(self, fn: Callable, span: str, read: Callable | None) -> Callable:
        if span not in self.names:
            self.names.append(span)
        name_id = self.names.index(span)
        stack, starts, ends = self._stack, self.starts, self.ends

        def wrapper(*args, **kwargs):
            idx = len(starts)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter()
                starts[idx] = t0
                stack.pop()
            if read is not None:
                self.fields[idx] = read(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def to_json(self) -> dict:
        return {"names": self.names, "name_ids": self.name_ids, "starts": self.starts,
                "ends": self.ends, "parents": self.parents,
                "fields": {str(k): v for k, v in self.fields.items()},
                "missing": self.missing}


@dataclass
class SpanTable:
    """Spans as arrays, with self time = duration less the time child spans cover."""

    names: list[str]
    name_ids: np.ndarray
    duration: np.ndarray
    self_time: np.ndarray
    parents: np.ndarray
    fields: dict[int, dict]

    @classmethod
    def build(cls, tracer: Tracer) -> "SpanTable":
        starts = np.asarray(tracer.starts, dtype=np.float64)
        duration = np.asarray(tracer.ends, dtype=np.float64) - starts
        parents = np.asarray(tracer.parents, dtype=np.int64)
        child = np.zeros_like(duration)
        nested = parents >= 0
        np.add.at(child, parents[nested], duration[nested])
        return cls(list(tracer.names), np.asarray(tracer.name_ids, dtype=np.int64), duration,
                   duration - child, parents, tracer.fields)

    def of(self, name: str) -> np.ndarray:
        """Indices of the spans with this name."""
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name_ids == self.names.index(name))

    def parent_name(self, idx: int) -> str | None:
        p = int(self.parents[idx])
        return None if p < 0 else self.names[int(self.name_ids[p])]

    def ancestor(self, idx: int, name: str) -> bool:
        target = self.names.index(name) if name in self.names else -2
        p = int(self.parents[idx])
        while p >= 0:
            if self.name_ids[p] == target:
                return True
            p = int(self.parents[p])
        return False


def layer_metrics(t: SpanTable, missing: list[str]) -> dict[str, float]:
    """Per-layer numbers from the spans of the traced rounds and set-up.

    Per-graph figures divide by the layer's own calls (one graph each) or, for
    solver work, by the forwards that caused it. A layer the workload never
    calls reads 0.
    """
    def idx(name: str) -> np.ndarray:
        return t.of(name)

    def mean(values: np.ndarray, scale: float) -> float:
        return float(values.mean() * scale) if values.size else 0.0

    def ratio(num: float, den: float) -> float:
        return float(num / den) if den else 0.0

    def field_sum(spans: np.ndarray, key: str) -> float:
        return float(sum(t.fields[int(i)][key] for i in spans))

    def with_mode(spans: np.ndarray, mode: str) -> np.ndarray:
        return np.array([i for i in spans if t.fields[int(i)]["mode"] == mode], dtype=np.int64)

    fwd = idx("model.forward")
    gcn = idx("baseline.gcn_forward_backward")
    anderson = idx("solver.anderson")
    solves_fwd = np.array([i for i in anderson if t.parent_name(int(i)) == "model.forward"],
                          dtype=np.int64)
    solves_adj = np.array([i for i in anderson
                           if t.parent_name(int(i)) == "model.implicit_backward"], dtype=np.int64)
    gen, parse = idx("synth.generate_dataset"), idx("asm.parse_listing")
    to_graph, encode = idx("asm.function_to_graph"), idx("vocab.encode_token")

    eval_parents = set(with_mode(fwd, "eval").tolist()) | set(with_mode(gcn, "eval").tolist())
    encoder_runs = sum(1 for i in idx("nn.bigru_forward") if int(t.parents[i]) in eval_parents)
    eval_graphs = field_sum(idx("training.evaluate"), "items") + len(with_mode(gcn, "eval")) + sum(
        1 for i in with_mode(fwd, "eval") if not t.ancestor(int(i), "training.evaluate"))

    def solve_field(spans: np.ndarray, key: str) -> np.ndarray:
        return np.array([float(t.fields[int(i)][key]) for i in spans])

    return {
        "synth.generate_ms_per_graph": 1e3 * ratio(t.duration[gen].sum(), field_sum(gen, "items")),
        "graphs.renormalize_ms_per_graph": mean(t.duration[idx("graphs.renormalize")], 1e3),
        "asm.parse_ms_per_function": 1e3 * ratio(t.duration[parse].sum(),
                                                 field_sum(parse, "items")),
        "asm.to_graph_ms_per_function": mean(t.duration[to_graph], 1e3),
        "vocab.encode_token_us": mean(t.duration[encode], 1e6),
        "vocab.encode_token_calls_per_function": ratio(len(encode), len(to_graph)),
        "vocab.train_s": mean(t.duration[idx("vocab.train_vocab")], 1.0),
        "nn.bigru_forward_ms_per_graph": mean(t.duration[idx("nn.bigru_forward")], 1e3),
        "nn.bigru_backward_ms_per_graph": mean(t.duration[idx("nn.bigru_backward")], 1e3),
        "executor.transitions_per_forward": ratio(len(idx("executor.transition")), len(fwd)),
        "executor.transition_us": mean(t.duration[idx("executor.transition")], 1e6),
        "executor.vjp_x_us": mean(t.duration[idx("executor.vjp_x")], 1e6),
        "solver.forward_iters": mean(solve_field(solves_fwd, "iterations"), 1.0),
        "solver.adjoint_iters": mean(solve_field(solves_adj, "iterations"), 1.0),
        "solver.fallback_steps": mean(solve_field(anderson, "fallbacks"), 1.0),
        "solver.nonconverged_solves": 100.0 * ratio(
            sum(1 for i in anderson if not t.fields[int(i)]["converged"]), len(anderson)),
        "solver.anderson_self_ms_per_graph": 1e3 * ratio(t.self_time[solves_fwd].sum(), len(fwd)),
        "solver.pf_eigenvalue_ms_per_graph": 1e3 * ratio(
            t.duration[idx("solver.pf_eigenvalue")].sum(), len(fwd)),
        "solver.project_wellposed_ms_per_step": mean(
            t.duration[idx("solver.project_wellposed")], 1e3),
        "model.forward_self_ms_per_graph": mean(t.self_time[fwd], 1e3),
        "model.backward_self_ms_per_graph": mean(t.self_time[idx("model.backward")], 1e3),
        "training.adam_step_ms": mean(t.duration[idx("training.adam_step")], 1e3),
        "training.encoder_runs_per_eval_graph": ratio(encoder_runs, eval_graphs),
        "baseline.gcn_ms_per_graph": mean(t.duration[with_mode(gcn, "train")], 1e3),
        "trace.missing_targets": float(len(missing)),
    }

"""Synthetic path-sensitive benchmark with a reachability oracle.

Every graph is two disjoint chains plus optional diamond branches: a long
chain whose tail is the payload block (entry-to-payload distance =
chain_length when reachable) and a short chain whose tail is a benign
return block. Exactly one chain head carries the entry prologue and is the
graph entry; the other head is plain filler. Positives put the prologue on
the long chain (payload reachable); negatives put it on the short chain, so
the payload is present but hangs off a dead branch. Labels are always
confirmed by a brute-force directed-reachability oracle.

Why this separates the models: whether the prologue sits above the payload
is invisible to any 2-hop view. Both classes contain one prologue head, one
filler head, one payload tail, one return tail, and identically distributed
mid blocks; with the short chain at least four blocks long, every radius-2
rooted neighborhood pattern has the same distribution in both classes, and
token multisets match exactly. Equilibrium message passing, in contrast,
carries the head's flavor down the whole chain, and the net class signal
(prologue flavor at depth >= short-chain length) is first order. A branch
hint block is additionally present with probability `hint_reliability` in
positives (complement in negatives), a deliberately unreliable local cue
that caps bag-of-tokens and short-receptive-field models near that
reliability while leaving the reachability cue as the only exact signal.

Vocabulary layout: 0-3 reserved (pad/unk/bos/eos), 4-5 entry prologue marks,
6 return mark, 7 payload default, 8 reserved, 9 branch hint, the
rest filler.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .graphs import CfgGraph, make_graph, reachable_from, read_text, validate_graph
from .model import derive_seed
from .nn import BOS_ID, EOS_ID

PROLOGUE_A = 4
PROLOGUE_B = 5
RET_ID = 6
DEFAULT_VULN_ID = 7
HINT_ID = 9
FILLER_START = 10


class SynthesisError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator settings.

    chain_length is the edge distance from the entry to the payload site.
    With exclusive_branching, negatives keep the payload token in the
    unreachable decoy chain (dead branch); without it, negatives simply omit
    the token. vuln_token_id must stay below vocab_size.
    """

    n_graphs: int = 500
    node_count_range: tuple[int, int] = (13, 15)
    chain_length: int = 8
    vuln_token_id: int = DEFAULT_VULN_ID
    exclusive_branching: bool = True
    seed: int = 0
    vocab_size: int = 16
    tokens_per_block: int = 2
    hint_reliability: float = 0.68

    def __post_init__(self) -> None:
        for name in ("n_graphs", "tokens_per_block"):
            if getattr(self, name) < 1:
                raise SynthesisError("infeasible-spec",
                                     f"{name} must be >= 1, got {getattr(self, name)}")
        lo, hi = self.node_count_range
        if not (0 < lo <= hi):
            raise SynthesisError("infeasible-spec", f"bad node_count_range {self.node_count_range}")
        if self.chain_length >= lo:
            raise SynthesisError(
                "infeasible-spec",
                f"chain_length {self.chain_length} must be < min node count {lo}",
            )
        base = self.chain_length + 1
        if self.exclusive_branching and self.chain_length > 0:
            base += self.decoy_length + 1
        if lo < base:
            raise SynthesisError(
                "infeasible-spec",
                f"layout needs at least {base} nodes, node_count_range starts at {lo}",
            )
        if not (DEFAULT_VULN_ID <= self.vuln_token_id < self.vocab_size):
            raise SynthesisError(
                "infeasible-spec",
                f"vuln_token_id {self.vuln_token_id} outside [{DEFAULT_VULN_ID}, {self.vocab_size})",
            )
        if not (0.5 <= self.hint_reliability <= 1.0):
            raise SynthesisError("infeasible-spec",
                                 f"hint_reliability {self.hint_reliability} outside [0.5, 1]")
        filler = [t for t in range(FILLER_START, self.vocab_size) if t != self.vuln_token_id]
        if not filler:
            raise SynthesisError("infeasible-spec",
                                 f"vocab_size {self.vocab_size} leaves no filler ids")

    @property
    def safe_filler(self) -> int:
        return next(t for t in range(FILLER_START, self.vocab_size)
                    if t != self.vuln_token_id)

    @property
    def decoy_length(self) -> int:
        # Edge count of the short chain. Four nodes (three edges) keep both
        # chain heads outside every radius-2 view rooted at a terminal, which
        # is what blinds 2-hop models to the prologue placement.
        return min(3, self.chain_length) if self.chain_length > 0 else 1


def _json_fits(value: object, default: object) -> bool:
    """Whether a JSON value can stand for a field whose default is `default`:
    an int for an int, an int or float for a float, a bool for a bool, and a
    list of fitting values for a tuple."""
    if isinstance(default, tuple):
        return (isinstance(value, list) and len(value) == len(default)
                and all(_json_fits(v, d) for v, d in zip(value, default)))
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    return isinstance(value, int) or (isinstance(default, float) and isinstance(value, float))


def spec_from_json(path: str | Path) -> SyntheticSpec:
    """A SyntheticSpec from a JSON object of its fields; raises SynthesisError
    ("bad-spec") naming the file when the document is not such an object: not
    JSON, not an object, a field SyntheticSpec lacks, or a value of the wrong
    JSON type for its field."""
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise SynthesisError("bad-spec", f"{path}: line {exc.lineno} column {exc.colno}: "
                                         f"{exc.msg}") from exc
    if not isinstance(data, dict):
        raise SynthesisError("bad-spec", f"{path}: not a JSON object")
    defaults = {f.name: f.default for f in fields(SyntheticSpec)}
    for name, value in data.items():
        if name not in defaults:
            raise SynthesisError("bad-spec", f"{path}: unknown field {name!r}")
        if not _json_fits(value, defaults[name]):
            raise SynthesisError("bad-spec", f"{path}: {name} is {json.dumps(value)}, which "
                                             f"cannot stand for {defaults[name]!r}")
    if "node_count_range" in data:
        data["node_count_range"] = tuple(data["node_count_range"])
    return SyntheticSpec(**data)


def payload_reachable(graph: CfgGraph, vuln_token_id: int, reach: set[int] | None = None) -> bool:
    """Brute-force oracle: does any reachable block contain the payload token?
    `reach` is the set of nodes reachable from the entry, when already walked."""
    if reach is None:
        reach = reachable_from(graph.adjacency, graph.entry)
    return any(vuln_token_id in graph.nodes[i] for i in reach)


def _filler_tokens(rng: np.random.Generator, spec: SyntheticSpec) -> list[int]:
    k = int(rng.integers(1, spec.tokens_per_block + 1))
    body = rng.integers(FILLER_START, spec.vocab_size, size=k).tolist()
    body = [t for t in body if t != spec.vuln_token_id] or [spec.safe_filler]
    return [BOS_ID] + [int(t) for t in body] + [EOS_ID]


def _generate_one(spec: SyntheticSpec, index: int) -> CfgGraph:
    """Build one labeled graph; label alternates by index and is oracle-confirmed.

    Layout: long chain head .. payload tail (chain_length edges) and short
    chain head .. benign tail (decoy_length edges). The prologue and entry go
    on the long head for positives, on the short head for negatives. Diamond
    branches pad the node count without changing shortest distances, and the
    unreliable hint block replaces one mid node.
    """
    rng = np.random.default_rng(derive_seed(spec.seed, "graph", index))
    target_label = index % 2
    lo, hi = spec.node_count_range
    target_nodes = int(rng.integers(lo, hi + 1))

    long_chain = list(range(spec.chain_length + 1))
    edges: list[tuple[int, int]] = [(i, i + 1) for i in range(spec.chain_length)]
    next_id = spec.chain_length + 1
    short_chain: list[int] = []
    if spec.exclusive_branching and spec.chain_length > 0:
        short_chain = list(range(next_id, next_id + spec.decoy_length + 1))
        next_id += spec.decoy_length + 1
        edges.extend((short_chain[i], short_chain[i + 1]) for i in range(spec.decoy_length))
    # diamond branches: u -> x -> v parallel to an existing chain edge u -> v
    diamond_sites = [(long_chain[i], long_chain[i + 1]) for i in range(len(long_chain) - 1)]
    diamond_sites += [(short_chain[i], short_chain[i + 1]) for i in range(len(short_chain) - 1)]
    while next_id < target_nodes and diamond_sites:
        u, v = diamond_sites[int(rng.integers(len(diamond_sites)))]
        x = next_id
        next_id += 1
        edges.append((u, x))
        edges.append((x, v))
    n = next_id

    tokens: list[list[int]] = [_filler_tokens(rng, spec) for _ in range(n)]
    payload_block = [BOS_ID, spec.vuln_token_id, spec.vuln_token_id, RET_ID, EOS_ID]
    benign_block = [BOS_ID, int(rng.integers(FILLER_START, spec.vocab_size)),
                    int(rng.integers(FILLER_START, spec.vocab_size)), RET_ID, EOS_ID]
    benign_block = [spec.safe_filler if t == spec.vuln_token_id else t for t in benign_block]
    prologue_block = [BOS_ID, PROLOGUE_A, PROLOGUE_B, EOS_ID]

    if not short_chain:
        # single-chain regime: payload at the tail for positives, else absent
        entry = long_chain[0]
        if spec.chain_length > 0:
            tokens[entry] = prologue_block
        tokens[long_chain[-1]] = payload_block if target_label == 1 else benign_block
    else:
        tokens[long_chain[-1]] = payload_block
        tokens[short_chain[-1]] = benign_block
        entry = long_chain[0] if target_label == 1 else short_chain[0]
        tokens[entry] = prologue_block
        mids = long_chain[1:-1] + short_chain[1:-1]
        hint_present = rng.random() < (
            spec.hint_reliability if target_label == 1 else 1.0 - spec.hint_reliability)
        if mids:
            slot = int(rng.integers(len(mids)))  # drawn either way to keep streams aligned
            if hint_present:
                tokens[mids[slot]] = [BOS_ID, HINT_ID, EOS_ID]

    out_degree = [0] * n
    for i, _ in edges:
        out_degree[i] += 1
    sinks = [i for i in range(n) if out_degree[i] == 0]
    g = make_graph(id=f"synth-{spec.seed}-{index}", nodes=tokens, edges=edges,
                   entry=entry, exits=sinks, label=target_label)
    # validate_graph's exit check walks from the entry; the oracle reads that walk
    oracle = int(payload_reachable(g, spec.vuln_token_id, validate_graph(g)))
    if oracle != target_label:
        raise SynthesisError(
            "infeasible-spec",
            f"graph {index}: oracle label {oracle} != constructed label {target_label}",
        )
    return g


def generate_dataset(spec: SyntheticSpec) -> list[CfgGraph]:
    """Deterministic labeled dataset; every label is oracle-confirmed."""
    return [_generate_one(spec, i) for i in range(spec.n_graphs)]


def split(dataset: Sequence[CfgGraph], ratio: float = 0.75,
          seed: int = 0) -> tuple[list[CfgGraph], list[CfgGraph]]:
    """Deterministic shuffle split into disjoint, exhaustive train/eval lists."""
    if not dataset:
        raise SynthesisError("empty-dataset", "cannot split an empty dataset")
    order = np.random.default_rng(derive_seed(seed, "split")).permutation(len(dataset))
    cut = int(len(dataset) * ratio)
    train = [dataset[i] for i in order[:cut]]
    evals = [dataset[i] for i in order[cut:]]
    return train, evals

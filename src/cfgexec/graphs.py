"""Control flow graph data model, adjacency preprocessing, merging, and file I/O.

A graph is a set of tokenized basic blocks plus a directed adjacency matrix
(bool, as the constructors build it) with a marked entry block and a set of
exit blocks. Exits must have no outgoing edges; the diagonal is always zero
(self-influence is reintroduced by the +I term of :func:`renormalize`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

GRAPH_FORMAT_VERSION = 1


class GraphValidationError(ValueError):
    """A graph violated a structural invariant.

    `code` names the failed check (e.g. ``diagonal-nonzero``); `node` is the
    offending node index when one is identifiable.
    """

    def __init__(self, code: str, message: str, node: int | None = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.node = node


class GraphFileError(ValueError):
    """Malformed graph file. `code` is ``parse-error`` or ``schema-violation``."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


class InputFileError(ValueError):
    """An input file that cannot be read as text: a directory, or bytes that
    are not UTF-8. The message names the file."""


def read_text(path: str | Path) -> str:
    """The UTF-8 text of an input file; raises InputFileError naming it when it
    is a directory or does not decode."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except IsADirectoryError as exc:
        raise InputFileError(f"{path} is a directory, not a file") from exc
    except UnicodeDecodeError as exc:
        raise InputFileError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})"
                             ) from exc


@dataclass(frozen=True, eq=False)
class CfgGraph:
    """One control flow graph: token-id blocks, adjacency, entry/exit marks.

    `nodes` holds one token-id sequence per basic block. A true
    `adjacency[i, j]` means an edge i -> j; `make_graph` and `merge_functions`
    build it as a C-contiguous bool matrix, and every reader also takes a
    {0,1} float one. `label` is an optional binary class tag.
    """

    id: str
    nodes: tuple[tuple[int, ...], ...]
    adjacency: np.ndarray
    entry: int
    exits: frozenset[int]
    label: int | None = None

    @property
    def n(self) -> int:
        return len(self.nodes)

    def edges(self) -> list[tuple[int, int]]:
        src, dst = np.nonzero(self.adjacency)
        return sorted(zip(src.tolist(), dst.tolist()))


def make_graph(
    id: str,
    nodes: Sequence[Sequence[int]],
    edges: Iterable[tuple[int, int]],
    entry: int,
    exits: Iterable[int],
    label: int | None = None,
) -> CfgGraph:
    """Build a CfgGraph from an edge list, materializing the adjacency as a
    bool matrix (n² bytes). An edge outside [0, n) raises for the first such
    edge in input order."""
    n = len(nodes)
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise GraphValidationError(
                "index-out-of-range", f"edge ({i}, {j}) outside [0, {n})", node=i
            )
        adj[i, j] = True
    return CfgGraph(
        id=id,
        nodes=tuple(tuple(int(t) for t in seq) for seq in nodes),
        adjacency=adj,
        entry=int(entry),
        exits=frozenset(int(e) for e in exits),
        label=None if label is None else int(label),
    )


def graphs_equal(a: CfgGraph, b: CfgGraph) -> bool:
    """Structural equality (ids, blocks, edges, marks, label)."""
    return (
        a.id == b.id
        and a.nodes == b.nodes
        and np.array_equal(a.adjacency, b.adjacency)
        and a.entry == b.entry
        and a.exits == b.exits
        and a.label == b.label
    )


def reachable_from(adjacency: np.ndarray, start: int) -> set[int]:
    """Nodes reachable from `start` by directed edges, including `start`."""
    n = adjacency.shape[0]
    seen = {start}
    frontier = [start]
    while frontier:
        i = frontier.pop()
        for j in np.nonzero(adjacency[i])[0]:
            j = int(j)
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    return seen


def validate_graph(g: CfgGraph) -> set[int]:
    """Check all CfgGraph invariants; raise GraphValidationError on the first failure.

    Checks: square {0,1} adjacency with a zero diagonal, in-range entry/exit
    indices, zero out-degree for exits, and that the entry reaches at least
    one exit by directed edges. Returns the nodes reachable from the entry,
    which the last check walks.
    """
    n = g.n
    if n < 1:
        raise GraphValidationError("index-out-of-range", "graph has no nodes")
    if g.adjacency.shape != (n, n):
        raise GraphValidationError(
            "index-out-of-range",
            f"adjacency shape {g.adjacency.shape} does not match {n} nodes",
        )
    diag = np.diagonal(g.adjacency)
    bad = np.nonzero(diag != 0)[0]
    if bad.size:
        i = int(bad[0])
        raise GraphValidationError(
            "diagonal-nonzero", f"node {i} has a self-loop in raw adjacency", node=i
        )
    _check_domain(g.adjacency)
    if not (0 <= g.entry < n):
        raise GraphValidationError(
            "index-out-of-range", f"entry {g.entry} outside [0, {n})", node=g.entry
        )
    for e in sorted(g.exits):
        if not (0 <= e < n):
            raise GraphValidationError(
                "index-out-of-range", f"exit {e} outside [0, {n})", node=e
            )
        if g.adjacency[e].any():
            raise GraphValidationError(
                "exit-outdegree", f"exit node {e} has outgoing edges", node=e
            )
    if g.label not in (None, 0, 1):
        raise GraphValidationError("index-out-of-range", f"label {g.label} not in {{0,1,None}}")
    reach = reachable_from(g.adjacency, g.entry)
    if not (g.exits & reach):
        offender = min(g.exits) if g.exits else g.entry
        raise GraphValidationError(
            "unreachable-exit",
            f"no exit reachable from entry {g.entry} (exits={sorted(g.exits)})",
            node=offender,
        )
    return reach


def _check_domain(adjacency: np.ndarray) -> None:
    """Raise adjacency-domain for the first entry outside {0, 1}."""
    if adjacency.dtype == bool:
        return
    off = (adjacency != 0) & (adjacency != 1)
    if off.any():
        i, j = (int(v[0]) for v in np.nonzero(off))
        raise GraphValidationError(
            "adjacency-domain", f"adjacency[{i},{j}] = {adjacency[i, j]} not in {{0,1}}", node=i
        )


def renormalize(adjacency: np.ndarray) -> np.ndarray:
    """Apply the renormalization trick to a raw adjacency matrix.

    Returns D^{-1/2} (A+I) D^{-1/2} where D is the diagonal of row sums of
    A+I. Direction is preserved (no symmetrization); row sums of A+I are
    always >= 1, so the scaling never divides by zero. The result is f64,
    with the same bits for a bool adjacency as for its f64 copy.
    """
    a = np.asarray(adjacency)
    at = a + np.eye(a.shape[0])
    d = at.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(d)
    mat = at * inv_sqrt[:, None] * inv_sqrt[None, :]
    if not np.isfinite(mat).all():
        raise GraphValidationError("adjacency-domain", "non-finite entries after renormalization")
    return mat


def merge_functions(
    graphs: Sequence[CfgGraph],
    call_edges: Iterable[tuple[str, int, str]],
) -> CfgGraph:
    """Merge per-function graphs into one file-level graph.

    Node indices are offset per function. Each call edge
    ``(caller_id, caller_node, callee_id)`` adds a directed edge from the
    caller node to the callee's entry. A caller node that thereby gains
    out-degree is demoted from the exit set. The merged entry is the first
    graph's entry; the merged label is 1 if any input is labeled 1, else 0 if
    any is labeled 0, else None.
    """
    if not graphs:
        raise GraphValidationError("index-out-of-range", "merge of zero graphs")
    offsets: dict[str, int] = {}
    off = 0
    for g in graphs:
        if g.id in offsets:
            raise GraphValidationError("index-out-of-range", f"duplicate graph id {g.id!r}")
        offsets[g.id] = off
        off += g.n
    total = off
    nodes: list[tuple[int, ...]] = []
    adj = np.zeros((total, total), dtype=bool)
    exits: set[int] = set()
    for g in graphs:
        _check_domain(g.adjacency)  # the bool copy below would hide a value outside {0, 1}
        base = offsets[g.id]
        nodes.extend(g.nodes)
        adj[base : base + g.n, base : base + g.n] = g.adjacency
        exits.update(base + e for e in g.exits)
    by_id = {g.id: g for g in graphs}
    for caller_id, caller_node, callee_id in call_edges:
        if caller_id not in by_id or callee_id not in by_id:
            missing = caller_id if caller_id not in by_id else callee_id
            raise GraphValidationError(
                "dangling-call-target", f"call edge references unknown graph {missing!r}"
            )
        caller = by_id[caller_id]
        if not (0 <= caller_node < caller.n):
            raise GraphValidationError(
                "dangling-call-target",
                f"call site {caller_node} outside graph {caller_id!r}",
                node=caller_node,
            )
        src = offsets[caller_id] + caller_node
        dst = offsets[callee_id] + by_id[callee_id].entry
        if src == dst:
            continue  # a block cannot call into itself without violating the zero diagonal
        adj[src, dst] = True
        exits.discard(src)
    labels = [g.label for g in graphs if g.label is not None]
    label = (1 if any(v == 1 for v in labels) else 0) if labels else None
    merged = CfgGraph(
        id="+".join(g.id for g in graphs),
        nodes=tuple(nodes),
        adjacency=adj,
        entry=offsets[graphs[0].id] + graphs[0].entry,
        exits=frozenset(exits),
        label=label,
    )
    validate_graph(merged)
    return merged


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GraphFileError("schema-violation", message)


def _graph_from_obj(obj: object, index: int) -> CfgGraph:
    where = f"graphs[{index}]"
    _require(isinstance(obj, dict), f"{where} is not an object")
    for key in ("id", "entry", "exits", "label", "nodes", "edges"):
        _require(key in obj, f"{where} missing field {key!r}")
    _require(isinstance(obj["id"], str), f"{where}.id is not a string")
    _require(isinstance(obj["entry"], int) and not isinstance(obj["entry"], bool),
             f"{where}.entry is not an integer")
    _require(isinstance(obj["nodes"], list) and len(obj["nodes"]) >= 1,
             f"{where}.nodes is not a non-empty list")
    n = len(obj["nodes"])
    for bi, block in enumerate(obj["nodes"]):
        _require(isinstance(block, list) and len(block) >= 1,
                 f"{where}.nodes[{bi}] is not a non-empty list")
        for t in block:
            # id 0 is the pad token, which the model masks out of a block
            _require(isinstance(t, int) and not isinstance(t, bool) and t >= 1,
                     f"{where}.nodes[{bi}] has invalid token id {t!r}")
    _require(isinstance(obj["exits"], list), f"{where}.exits is not a list")
    for e in obj["exits"]:
        _require(isinstance(e, int) and not isinstance(e, bool) and 0 <= e < n,
                 f"{where}.exits entry {e!r} outside [0, {n})")
    _require(obj["label"] in (0, 1, None), f"{where}.label {obj['label']!r} not 0, 1, or null")
    _require(isinstance(obj["edges"], list), f"{where}.edges is not a list")
    seen: set[tuple[int, int]] = set()
    for ei, edge in enumerate(obj["edges"]):
        _require(isinstance(edge, list) and len(edge) == 2, f"{where}.edges[{ei}] is not a pair")
        i, j = edge
        for v in (i, j):
            _require(isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n,
                     f"{where}.edges[{ei}] endpoint {v!r} outside [0, {n})")
        _require((i, j) not in seen,
                 f"{where}.edges[{ei}] duplicates edge ({i}, {j}): adjacency entry would exceed 1")
        seen.add((i, j))
    return make_graph(
        id=obj["id"],
        nodes=obj["nodes"],
        edges=[(int(i), int(j)) for i, j in obj["edges"]],
        entry=obj["entry"],
        exits=obj["exits"],
        label=obj["label"],
    )


def read_graph_file(path: str | Path) -> list[CfgGraph]:
    """Load and validate graphs from a JSON graph file (schema: `write_graph_file`)."""
    text = read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFileError(
            "parse-error", f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    _require(isinstance(data, dict), "top level is not an object")
    _require(data.get("format_version") == GRAPH_FORMAT_VERSION,
             f"format_version {data.get('format_version')!r} != {GRAPH_FORMAT_VERSION}")
    _require(isinstance(data.get("graphs"), list), "missing graphs list")
    graphs = [_graph_from_obj(o, i) for i, o in enumerate(data["graphs"])]
    for g in graphs:
        validate_graph(g)
    return graphs


def write_graph_file(graphs: Sequence[CfgGraph], path: str | Path) -> None:
    """Write graphs as JSON: ``{"format_version": 1, "graphs": [...]}``.

    Each graph object holds id, entry, exits, label (0/1/null), nodes as
    token-id lists, and edges as [src, dst] pairs in sorted order.
    """
    payload = {
        "format_version": GRAPH_FORMAT_VERSION,
        "graphs": [
            {
                "id": g.id,
                "entry": g.entry,
                "exits": sorted(g.exits),
                "label": g.label,
                "nodes": [list(seq) for seq in g.nodes],
                "edges": [[i, j] for i, j in g.edges()],
            }
            for g in graphs
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")

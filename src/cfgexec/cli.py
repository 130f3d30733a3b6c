"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 data error (parse/validation),
3 numeric failure (divergence, NaN, failed check).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import asm as asm_mod
from .asm import AsmParseError
from .graphs import (
    GraphFileError,
    GraphValidationError,
    InputFileError,
    read_graph_file,
    read_text,
    write_graph_file,
)
from .model import forward, init_model_params, model_backward, prepare_graph
from .nn import NumericError, finite_diff_check
from .solver import DivergenceError, SolverConfig, anderson, naive_iterate
from .synth import SynthesisError, SyntheticSpec, generate_dataset, spec_from_json, split
from .training import (
    CheckpointError,
    TrainConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
    write_metrics_csv,
)
from .vocab import RESERVED, VocabError, read_vocab_file, train_vocab, write_vocab_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
# the files `train` writes into its --out-dir
_TRAIN_OUTPUTS = ("metrics.csv", "checkpoint.json", "checkpoint.bin")


def _check_outputs(args: argparse.Namespace) -> None:
    """Raise IsADirectoryError or NotADirectoryError for the first output path
    that a command could not write once its work is done."""
    for name in ("out", "dump_traces", "dump_solver", "out_dir"):
        path = getattr(args, name, None)
        if path is None:
            continue
        p = Path(path)
        for file in [p / f for f in _TRAIN_OUTPUTS] if name == "out_dir" else [p]:
            if file.is_dir():
                raise IsADirectoryError(f"output {file} is a directory")
        # where it goes: for a directory, the nearest path mkdir(parents=True) finds
        where = next(q for q in (p, *p.parents) if q.exists()) if name == "out_dir" else p.parent
        if not where.is_dir():
            raise NotADirectoryError(f"output {path}: {where} is not a directory")


def _collect_asm_tokens(input_path: Path) -> list[str]:
    files = [input_path] if input_path.is_file() else sorted(
        q for pat in ("*.s", "*.asm", "*.txt") for q in input_path.glob(pat))
    tokens: list[str] = []
    for f in files:
        for parsed in asm_mod.parse_listing(read_text(f)):
            stripped = asm_mod.strip_semantics(parsed.function)
            tokens.extend(asm_mod.function_tokens(stripped))
    return tokens


def _cmd_vocab_train(args: argparse.Namespace) -> int:
    least = len(RESERVED) + 1  # the reserved pieces and one character
    if args.size < least:
        print(f"usage error: size must be >= {least}, got {args.size}", file=sys.stderr)
        return EXIT_USAGE
    tokens = _collect_asm_tokens(Path(args.input))
    if not tokens:
        print(f"data error: no assembly tokens found in {args.input}", file=sys.stderr)
        return EXIT_DATA
    vocab = train_vocab(tokens, args.size)
    write_vocab_file(vocab, args.out)
    print(f"trained vocabulary of {vocab.size} pieces -> {args.out}")
    return EXIT_OK


def _cmd_parse(args: argparse.Namespace) -> int:
    if args.v_max < 1:
        print(f"usage error: v_max must be >= 1, got {args.v_max}", file=sys.stderr)
        return EXIT_USAGE
    vocab = read_vocab_file(args.vocab)
    text = read_text(args.input)
    graphs = []
    for parsed in asm_mod.parse_listing(text):
        stripped = asm_mod.strip_semantics(parsed.function)
        stripped_fn = asm_mod.ParsedFunction(
            function=stripped, blocks=parsed.blocks, edges=parsed.edges,
            exits=parsed.exits, indirect_blocks=parsed.indirect_blocks)
        graphs.append(asm_mod.function_to_graph(stripped_fn, vocab, args.v_max))
    write_graph_file(graphs, args.out)
    print(f"parsed {len(graphs)} function graph(s) -> {args.out}")
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = spec_from_json(args.spec)
    graphs = generate_dataset(spec)
    write_graph_file(graphs, args.out)
    labels = [g.label for g in graphs]
    print(f"generated {len(graphs)} graphs ({sum(labels)} positive) -> {args.out}")
    return EXIT_OK


def _build_config(args: argparse.Namespace) -> TrainConfig:
    """TrainConfig from the command-line overrides; raises ValueError on bad values.

    The config is built through its constructor, so __post_init__ validates
    every overridden field. Training zero epochs is valid in the library but
    leaves `train` nothing to report, so it is rejected here.
    """
    overrides = {}
    for name in ("h", "lr", "epochs", "seed", "batch_size", "tau", "dropout", "v_max"):
        val = getattr(args, name, None)
        if val is not None:
            overrides[name] = val
    if getattr(args, "agent_mode", None):
        overrides["agent_mode"] = args.agent_mode
    if getattr(args, "max_iter", None) is not None:
        overrides["solver"] = SolverConfig(max_iter=args.max_iter)
    config = TrainConfig(**overrides)
    if config.epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {config.epochs}")
    return config


def _cmd_train(args: argparse.Namespace) -> int:
    try:
        config = _build_config(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    dataset = read_graph_file(args.data)
    train_set, eval_set = split(dataset, 0.75, config.seed)
    result = train(train_set, config, eval_set)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(result.history, out_dir / "metrics.csv")
    save_checkpoint(out_dir / "checkpoint", result.store, config, result.adam,
                    epoch=result.last_epoch)
    last_eval = [r for r in result.history if r.split == "eval"][-1]
    print(f"final eval: accuracy={last_eval.report.accuracy:.4f} "
          f"auc={last_eval.report.auc:.4f} (best auc {result.best_auc:.4f} "
          f"at epoch {result.best_epoch})")
    print(f"metrics -> {out_dir / 'metrics.csv'}")
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    store, config, _adam, _epoch = load_checkpoint(args.checkpoint)
    dataset = read_graph_file(args.data)
    if not dataset:
        raise GraphValidationError("empty-dataset", f"{args.data} holds no graphs")
    bundles = [prepare_graph(g, config) for g in dataset]
    # ids the embedding has no row for are bad input, checked here once, not per forward
    vocab_size = store.params["emb"].shape[0]
    for b in bundles:
        top = int(b.ids.max())
        if top >= vocab_size:
            raise GraphValidationError(
                "id-out-of-range", f"graph {b.graph.id!r} has token id {top}, but the "
                f"checkpoint's vocabulary has {vocab_size} ids (0-{vocab_size - 1})")
    # the solve behind each score's first noise draw, with its per-iteration log
    caches = [] if args.dump_traces or args.dump_solver else None
    loss, report, _ = evaluate(bundles, store, config, noise_seeds=config.eval_noise_seeds,
                               traces=caches)
    print(f"loss={loss:.6f} accuracy={report.accuracy:.4f} precision={report.precision:.4f} "
          f"recall={report.recall:.4f} f1={report.f1:.4f} auc={report.auc:.4f}")
    if args.dump_traces:
        _dump_traces(caches, Path(args.dump_traces))
    if args.dump_solver:
        _dump_solver(caches, Path(args.dump_solver))
    return EXIT_OK


def _dump_traces(caches, path: Path) -> None:
    records = []
    for c in caches:
        steps = [{"selected": sel, "residual": res}
                 for sel, res in zip(c.selected, c.solver_result.residuals)]
        steps[-1]["stop"] = c.termination
        records.append({"graph_id": c.bundle.graph.id, "steps": steps})
    path.write_text(json.dumps(records, indent=1), encoding="utf-8")
    print(f"execution traces -> {path}")


def _dump_solver(caches, path: Path) -> None:
    rows = ["graph_id,iter,residual"]
    for c in caches:
        rows.extend(f"{c.bundle.graph.id},{i},{r:.10g}"
                    for i, r in enumerate(c.solver_result.residuals, 1))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"solver residuals -> {path}")


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    # the difference quotient divides solver error by eps, so solve far below
    # the default f64 tolerance, as the acceptance gradient check does
    try:
        config = TrainConfig(h=args.h, precision="f64", dropout=0.0, tau=1.0,
                             solver=SolverConfig(max_iter=200, tol=1e-12))
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    spec = SyntheticSpec(n_graphs=2, node_count_range=(3, 4), chain_length=2,
                         vuln_token_id=8, vocab_size=12, seed=args.seed,
                         tokens_per_block=2, exclusive_branching=False)
    graph = generate_dataset(spec)[0]
    bundle = prepare_graph(graph, config)
    store = init_model_params(config, spec.vocab_size, seed=args.seed)

    def loss_fn(params):
        probe = store.copy()
        probe.params = params
        _, cache = forward(bundle, probe, config, mode="eval", seed=args.seed)
        return model_backward(cache, probe, graph.label)

    worst = finite_diff_check(loss_fn, store.params, eps=2e-4, frozen=store.frozen)
    top = max(worst.values())
    for name in sorted(worst):
        print(f"{name:12s} max rel err {worst[name]:.3e}")
    print(f"overall max rel err {top:.3e}")
    return EXIT_OK if top < 1e-4 else EXIT_NUMERIC


def _cmd_solvercheck(args: argparse.Namespace) -> int:
    x0 = np.array([0.0])
    naive = naive_iterate(lambda x: np.cos(x), x0, max_iter=200, tol=1e-10)
    acc = anderson(lambda x: np.cos(x), x0, SolverConfig(max_iter=200, tol=1e-10))
    target = 0.7390851332151607
    ok = (naive.converged and acc.converged
          and abs(float(naive.x_star[0]) - target) < 1e-8
          and abs(float(acc.x_star[0]) - target) < 1e-8
          and acc.iterations * 2 <= naive.iterations)
    print(f"cos fixed point: naive {naive.iterations} iters, anderson {acc.iterations} iters, "
          f"x*={float(acc.x_star[0]):.9f}")
    return EXIT_OK if ok else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cfgexec",
                                     description="neural control-flow execution toolkit")
    sub = parser.add_subparsers(dest="command")

    p_vocab = sub.add_parser("vocab", help="vocabulary tools")
    vocab_sub = p_vocab.add_subparsers(dest="vocab_command")
    p_vt = vocab_sub.add_parser("train", help="train a subword vocabulary")
    p_vt.add_argument("--input", required=True, help="assembly file or directory")
    p_vt.add_argument("--size", type=int, required=True)
    p_vt.add_argument("--out", required=True)
    p_vt.set_defaults(func=_cmd_vocab_train)

    p_parse = sub.add_parser("parse", help="assembly listing -> graph JSON")
    p_parse.add_argument("--input", required=True)
    p_parse.add_argument("--vocab", required=True)
    p_parse.add_argument("--out", required=True)
    p_parse.add_argument("--v-max", dest="v_max", type=int, default=32)
    p_parse.set_defaults(func=_cmd_parse)

    p_gen = sub.add_parser("generate", help="generate a synthetic dataset")
    p_gen.add_argument("--spec", required=True, help="SyntheticSpec JSON file")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_train = sub.add_parser("train", help="train on a labeled graph file")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--out-dir", required=True)
    for name, typ in (("h", int), ("lr", float), ("epochs", int), ("seed", int),
                      ("batch-size", int), ("tau", float), ("dropout", float),
                      ("v-max", int), ("max-iter", int)):
        p_train.add_argument(f"--{name}", dest=name.replace("-", "_"), type=typ)
    p_train.add_argument("--agent-mode", dest="agent_mode", choices=("soft", "hard"))
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True, help="checkpoint base path")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--dump-traces", dest="dump_traces")
    p_eval.add_argument("--dump-solver", dest="dump_solver")
    p_eval.set_defaults(func=_cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="full-model finite-difference check")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--h", type=int, default=6)
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_solver = sub.add_parser("solvercheck", help="fixed-point solver sanity checks")
    p_solver.set_defaults(func=_cmd_solvercheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    func = getattr(args, "func", None)
    if func is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        _check_outputs(args)  # before any work, which a bad output path would waste
        return func(args)
    except (GraphFileError, GraphValidationError, VocabError, SynthesisError, AsmParseError,
            CheckpointError, InputFileError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DivergenceError, NumericError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

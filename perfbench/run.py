"""Benchmark runner for cfgexec.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It imports cfgexec from `src/` of the same
checkout, sets up the workload's seeded inputs several times (reporting the
median set-up time), then repeats whole rounds of the workload until S
seconds have passed and reports medians over the rounds. With --trace 1 it
spends half the time on untraced rounds and half on traced ones, and reports
per-layer numbers plus the tracing overhead instead of the end-to-end
metrics. Every output is checked; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. Results and
traces go to perfbench/results/.

The load is one Python thread; BLAS keeps the machine's default thread count
(recorded in the output).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3  # set-ups per run; setup_s is their median


def _import_program():
    """Import cfgexec from this checkout's src/, or exit 2 when it is not there."""
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    try:
        import cfgexec
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import cfgexec from {ROOT / 'src'}: {exc}\n")
        raise SystemExit(2)
    if not Path(cfgexec.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"perfbench: cfgexec resolved outside this checkout: {cfgexec.__file__}\n")
        raise SystemExit(2)


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def run_rounds(workload, state, seconds: float) -> list:
    """Whole rounds, at least one, until `seconds` have passed."""
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(workload.round(state))
    return rounds


def throughputs(rounds) -> tuple[float, float]:
    """Medians over rounds of main-path graphs/s and eval forwards/s."""
    return (statistics.median(r.items / r.main_s for r in rounds),
            statistics.median(r.eval_forwards / r.eval_s for r in rounds))


def main(argv: list[str] | None = None) -> int:
    _import_program()
    from perfbench import tracing
    from perfbench.workloads import WORKLOADS, Tally

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    env = environment()

    setup_s = []
    for _ in range(SETUPS):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(args.seed)
        setup_s.append(time.perf_counter() - t0)
    tally = Tally()
    tally.add(workload.check_inputs(state))

    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        plain = run_rounds(workload, state, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_rounds(workload, workload.setup(args.seed), args.seconds / 2)
        finally:
            tracer.uninstall()
        rounds = plain + traced
        values = tracing.layer_metrics(tracing.SpanTable.build(tracer), tracer.missing)
        values["trace.overhead_pct"] = 100.0 * (throughputs(plain)[0] / throughputs(traced)[0] - 1.0)
        with open(out_dir / f"trace-{args.workload}-seed{args.seed}.json", "w",
                  encoding="utf-8") as f:
            json.dump(tracer.to_json(), f, separators=(",", ":"))
        wanted = spec["per_layer"]
        if tracer.missing:
            print("trace: missing targets (not traced): " + ", ".join(tracer.missing))
    else:
        rounds = run_rounds(workload, state, args.seconds)
        graphs_per_s, eval_per_s = throughputs(rounds)
        values = {
            "graphs_per_s": graphs_per_s,
            "eval_graphs_per_s": eval_per_s,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    for r in rounds:
        tally.add(r.tally)

    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"computed metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_s": setup_s,
        "rounds": [{"items": r.items, "main_s": r.main_s, "eval_forwards": r.eval_forwards,
                    "eval_s": r.eval_s} for r in rounds],
        "failures": tally.notes, "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print("environment: " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"set-ups {', '.join(f'{s:.3f}' for s in setup_s)} s")
    for note in tally.notes:
        print(f"check failed: {note}")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

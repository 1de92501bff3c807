#!/usr/bin/env python3
"""Benchmark of the trace-relations CLI.

    python3 benchmark/run.py --workload wide --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop: one client, one process, one thread.
Each pass sends the workload's commands one after another to
`trace_relations.cli.main`, in this process, each with a `--seed` derived
from the workload seed.  A new pass starts until `--seconds` have passed,
so at least one pass always runs.  Every output is checked (see
checks.py).  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics, measured with tracing off.
`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics of spans.py; all spans are written once at the end to
`.bench_out/`.

The package is imported from `src/` next to this directory; without it the
benchmark exits with a nonzero code and prints no result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from checks import CheckFailure, Checker, load_expected
from spans import PER_LAYER_UNITS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# setup_s probes run in batches spread over the run, so that they sample the
# host's speed across the whole run, as the passes do.
SETUP_BATCH = 3
SETUP_EVERY_S = 5.0


def _relations(n, d, *extra):
    return ("relations", *extra, "--n", str(n), "--d", str(d))


# Why these workloads: the engines spend their time in different layers.
# wide: large n, so exact matrix-word evaluation dominates (kernel rows and
#   certification), with the Bareiss kernel and the quotient second.
# narrow: n <= 2, so evaluation is cheap and the per-candidate rank_of
#   quotient and the Bareiss kernels dominate; many small cells.
# diagonal: d = n + 1, so the quotient never runs; the only workload that
#   runs the symmetrizer engine, and it cross-checks the two engines.
# smoke: tiny cells for the self-test; not listed in BENCHMARK.json.
WORKLOADS = {
    "wide": [_relations(4, 7), _relations(5, 6)],
    "narrow": [("dims", "--max-d", "7", "--max-n", "2")],
    "diagonal": [_relations(k, k + 1) for k in range(1, 6)]
    + [_relations(k, k + 1, "--method", "symmetrizer") for k in range(1, 4)],
    "smoke": [_relations(2, 4), _relations(1, 4), _relations(2, 3),
              _relations(2, 3, "--method", "symmetrizer")],
}

END_TO_END_UNITS = {"wall_s": "s", "cell_max_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def load_package():
    """The package modules, imported from this checkout's src/ only."""
    if not (SRC / "trace_relations" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'trace_relations'} not found")
    sys.path.insert(0, str(SRC))
    import trace_relations.cli
    names = ("cli", "words", "evaluate", "montecarlo", "symmetrizer", "dimensions")
    package = {name: sys.modules[f"trace_relations.{name}"] for name in names}
    if not Path(package["cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: trace_relations imported from outside {SRC}")
    return package


def clear_caches():
    """Empty the package's lazy caches: every CLI process starts cold."""
    for name, module in list(sys.modules.items()):
        if name.startswith("trace_relations."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def command_seed(seed, workload, index):
    return random.Random(f"{seed}/{workload}/{index}").getrandbits(31)


def run_command(cli, argv):
    """(exit code or None if it raised, stdout text, seconds) of one call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            traceback.print_exc()
        seconds = time.perf_counter() - t0
    if rc != 0:
        sys.stderr.write(f"command {' '.join(argv)} exited {rc}:\n{err.getvalue()}")
    return rc, out.getvalue(), seconds


def run_pass(package, checker, workload, seed):
    """One pass over the workload: (wall seconds, slowest command, failures)."""
    cli = package["cli"]
    times = []
    outputs = {}
    failed = set()
    for i, argv in enumerate(WORKLOADS[workload]):
        cseed = command_seed(seed, workload, i)
        clear_caches()
        rc, out, seconds = run_command(cli, [*argv, "--seed", str(cseed)])
        times.append(seconds)
        try:
            outputs[i] = (argv, checker.check(argv, cseed, rc, out))
        except CheckFailure as exc:
            sys.stderr.write(f"check failed: {' '.join(argv)}: {exc}\n")
            failed.add(i)
    for i in checker.cross_check(outputs):
        sys.stderr.write(f"check failed: {' '.join(outputs[i][0])}: "
                         "span differs from the Monte Carlo span\n")
        failed.add(i)
    return sum(times), max(times), len(failed)


def measure_setup(count):
    """Wall times of `count` fresh interpreters that import the CLI."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import trace_relations.cli"],
                       cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def measure(package, workload, seed, seconds, trace):
    """Run passes until `seconds` have passed; returns the result."""
    checker = Checker(load_expected(), package["dimensions"].rel_dim_formula)
    tracer = Tracer(package) if trace else None
    attempted = failed = 0
    rows = []
    walls = []
    setup = []
    last_probe = -SETUP_EVERY_S
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is None and t0 - last_probe >= SETUP_EVERY_S:
            setup += measure_setup(SETUP_BATCH)
            last_probe = t0
        wall, cell_max, bad = run_pass(package, checker, workload, seed)
        attempted += len(WORKLOADS[workload])
        failed += bad
        walls.append(wall)
        if tracer is None:
            rows.append({"wall_s": wall, "cell_max_s": cell_max})
        else:
            lo = tracer.begin_pass()
            tracer.install()
            try:
                traced, _, bad = run_pass(package, checker, workload, seed)
            finally:
                tracer.uninstall()
            attempted += len(WORKLOADS[workload])
            failed += bad
            rows.append(tracer.pass_metrics(lo, traced, wall))
        if time.perf_counter() - start >= seconds:
            break
    # Counters repeat exactly from pass to pass; keep them as counted.
    metrics = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        metrics[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    if tracer is None:
        metrics["setup_s"] = statistics.median(setup + measure_setup(SETUP_BATCH))
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        units = END_TO_END_UNITS
    else:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.tsv.gz")
        units = PER_LAYER_UNITS
    print(f"# workload={workload} seed={seed} passes={len(rows)} "
          f"fail_frac={failed / attempted} ({failed}/{attempted})")
    print("# pass walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    for key, unit in units.items():
        print(f"{key} {metrics[key]!r} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": metrics[key], "unit": unit}
                        for key, unit in units.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    package = load_package()
    result = measure(package, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

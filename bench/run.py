"""Benchmark of the oscembed command line, end to end and layer by layer.

Usage, from the root of the repository:

    python3 bench/run.py --workload kfun-grid64 --seed 1 --seconds 25 --trace 0

The run pins itself to one CPU and writes the workload's input files from
--seed.  It then calls ``oscembed.cli.main(argv)`` in this process again and
again, in whole rounds, until --seconds have passed, and checks the
artifacts.  With --trace 0 it prints the end-to-end metrics.  With --trace 1
untraced rounds alternate with rounds in which the program's module
attributes are wrapped, and it prints the per-layer metrics of the traced
rounds.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Inputs, artifacts, result.json and
(traced) spans.json go to bench/out/<workload>-seed<seed>-trace<trace>/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# The keys of workloads.WORKLOADS, listed here because workloads.py loads
# numpy, which must wait until the process is pinned.
WORKLOAD_NAMES = ("kfun-grid64", "collapse-lz-grid144", "teomo1-rgg240")

END_TO_END = {"run_s": "s", "setup_s": "s", "items_per_s": "1/s", "cpu_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "space.load_s": "s", "space.diagnostics_s": "s", "space.ball_masses_calls": "count",
    "embed.growth_s": "s", "embed.report_s": "s", "embed.pool_busy_s": "s",
    "smoothness.lp_build_s": "s", "smoothness.linprog_s": "s",
    "smoothness.linprog_calls": "count", "smoothness.lp_rows": "count",
    "smoothness.modulus_self_s": "s", "smoothness.ball_average_passes": "count",
    "rispace.quasi_norm_calls": "count", "rispace.quasi_norm_self_s": "s",
    "weights.integral_calls": "count", "weights.quad_calls": "count", "weights.quad_s": "s",
    "rearrange.rearrangement_calls": "count", "rearrange.self_s": "s",
    "cli.artifact_bytes": "bytes",
}

# Each probe is a fresh interpreter timing `import oscembed.cli`, the set-up
# every CLI invocation pays; the median of several damps file-cache effects.
SETUP_PROBES = 5
PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
         "import oscembed.cli; print(repr(time.perf_counter() - t))")


@dataclass
class Round:
    rc: int | None
    error: str | None
    wall_s: float
    cpu_s: float
    artifacts: dict  # file name -> bytes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def pin_to_one_cpu() -> int:
    """Run this process and every thread and child it starts on one CPU.

    Measured on a shared 2-vCPU machine, the pool threads of the program
    handed the interpreter lock across vCPUs, and every hand-off to a vCPU
    the host had descheduled stalled the run: wall time spread by a third
    between runs.  On one CPU the spread is that of the CPU's speed alone.
    It must run before numpy loads, since OpenBLAS sizes its thread pool from
    the affinity at load time.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def locate_program() -> None:
    """Put this checkout's src/ first on sys.path; refuse to run without it."""
    if not (SRC / "oscembed" / "cli.py").is_file():
        sys.exit(f"bench: no program source at {SRC / 'oscembed'}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import oscembed
    if Path(oscembed.__file__).resolve().parent != (SRC / "oscembed").resolve():
        sys.exit(f"bench: imported oscembed from {oscembed.__file__}, not from {SRC}")


def measure_setup(count: int) -> list[float]:
    samples = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", PROBE, str(SRC)], capture_output=True,
                              text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)  # every thread of this process
    return usage.ru_utime + usage.ru_stime


def run_round(cli, argv: list[str], out: Path) -> Round:
    shutil.rmtree(out, ignore_errors=True)
    error = None
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except (Exception, SystemExit):  # the program failed; record it as a failed round
        rc, error = None, traceback.format_exc()
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return Round(rc, error, wall, cpu, artifacts)


def environment() -> dict:
    import numpy
    import scipy
    from oscembed import embed

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "embed_pool_workers": embed._POOL_WORKERS,
    }


def score(prepared, rounds: list[Round]) -> dict:
    """Items attempted and failed over all rounds, from the checks of one round.

    The first round that exits 0 is checked in full; every other round must
    write byte-identical artifacts, since the CLI is deterministic.
    """
    from checks import Problem
    from workloads import failed_items

    items = prepared.items
    ref = next((r for r in rounds if r.rc == 0), None)
    problems = []
    if ref is not None:
        try:
            payload = json.loads(ref.artifacts[prepared.artifact])
            problems = prepared.check(payload)
        except Exception:  # a malformed artifact fails the check, it does not stop the run
            problems = [Problem(None, traceback.format_exc(), wrong=False)]
    bad = failed_items(problems, items)
    failed, mismatched = 0, 0
    for rnd in rounds:
        if rnd.rc != 0:
            failed += items
        elif rnd.artifacts != ref.artifacts:
            failed += items
            mismatched += 1
        else:
            failed += len(bad)
    return {"attempted": items * len(rounds), "failed": failed,
            "correct": not any(p.wrong for p in problems) and not mismatched,
            "problems": [p._asdict() for p in problems],
            "rounds_with_different_artifacts": mismatched,
            "round_errors": [r.error or f"exit code {r.rc}" for r in rounds if r.rc != 0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu = pin_to_one_cpu()
    locate_program()
    setup = [] if args.trace else measure_setup(SETUP_PROBES)

    import oscembed.cli as cli
    from tracing import Tracer, write_spans
    from workloads import WORKLOADS

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    out = run_dir / "artifacts"
    prepared = WORKLOADS[args.workload](args.seed, run_dir / "inputs", out)

    rounds, layers, spans = [], [], []
    start = time.perf_counter()
    if args.trace:
        # untraced and traced rounds alternate, so the tracing overhead is
        # measured on neighbouring rounds; the first round is untraced
        tracer = Tracer()
        while len(rounds) < 2 or time.perf_counter() - start < args.seconds:
            if len(rounds) % 2 == 0:
                rounds.append(run_round(cli, prepared.argv, out))
                continue
            tracer.reset()
            tracer.install()
            try:
                rounds.append(run_round(cli, prepared.argv, out))
            finally:
                tracer.uninstall()
            layer = tracer.layer_metrics()
            layer["cli.artifact_bytes"] = sum(map(len, rounds[-1].artifacts.values()))
            layers.append(layer)
            if not spans:
                spans = tracer.spans  # the first traced round's spans are written out
    else:
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(run_round(cli, prepared.argv, out))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = score(prepared, rounds)
    walls = [r.wall_s for r in rounds]
    if args.trace:
        metrics = {name: (statistics.median if unit == "s" else statistics.median_low)(
            [layer[name] for layer in layers]) for name, unit in PER_LAYER.items()}
        units = PER_LAYER
        # the first round also warms the process up; it is left out of the
        # overhead when a later untraced round exists
        untraced, traced = walls[2::2] or walls[:1], walls[1::2]
        result["untraced_run_s"] = statistics.median(untraced)
        result["traced_run_s"] = statistics.median(traced)
        result["tracing_overhead_s"] = result["traced_run_s"] - result["untraced_run_s"]
        result["layers_per_round"] = layers
        write_spans(run_dir / "spans.json", spans)
    else:
        run_s = statistics.median(walls)
        metrics = {"run_s": run_s, "setup_s": statistics.median(setup),
                   "items_per_s": prepared.items / run_s,
                   "cpu_s": statistics.median(r.cpu_s for r in rounds),
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
        result["setup_samples_s"] = setup
    result.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "items_per_round": prepared.items,
        "argv": prepared.argv, "inputs": prepared.describe,
        "run_s_samples": walls, "cpu_s_samples": [r.cpu_s for r in rounds],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "environment": dict(environment(), pinned_cpu=cpu),
    })
    with open(run_dir / "result.json", "w") as fh:
        json.dump(result, fh, indent=2, default=str)
        fh.write("\n")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

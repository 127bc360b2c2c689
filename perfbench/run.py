"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
its ``src`` directory and nothing else.  BENCHMARK.json fixes the BLAS
and OpenMP thread counts in the command.

A run repeats whole rounds of the workload's operations until the next
round would end after S seconds: at least one round, two when traced.
Next to the rounds it times the workload's reference operation (see
workloads.py), BASE_OPS of them before the first round and again after
every round.  round_cost is the median over the rounds of the
round's wall time divided by the time of one reference operation, taken
as the mean of the slices just before and just after the round: the
machine's speed drifts by tens of percent over minutes, and both sides
of the ratio drift with it.  It sets the workload up SETUPS times before
the first round and again after every round (each a fresh import of
surfcode plus building the inputs), so that the set-ups sample the whole
run, and reports the median as setup_s.  peak_rss_mb is ru_maxrss read
right after the first round, so that it does not depend on the round
count.  The rounds use the inputs of the first set-ups.  The
correctness checks run after that, outside every timed region.

With --trace 1 even rounds are traced and odd rounds are not; the
per-layer metrics are medians over traced set-ups and rounds, and
trace.overhead_s is the traced minus the untraced median round.
Counters are per traced round; spectra.dimension and spectra.terms are
per solver matvec.  The spans go to
perfbench/out/trace_<workload>_<seed>.json.

The last line of standard output is the result object; the line before
it records the environment.  Without the program in ``src`` the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUPS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

TIMED_LAYERS = (
    "lattice.build_lattice", "lattice.field_mask", "lattice.path_metrics",
    "pauli.ground_degeneracy", "pauli.logical_pair",
    "spectra.assemble", "spectra.lowest_eigs", "spectra.apply_terms",
    "spectra.logical_expectation",
    "effective.build_chain", "effective.matrix", "effective.evolve",
    "effective.adiabatic_init",
    "measure.forward_readouts", "measure.reconstruct",
    "decoherence.crossover_sweep", "cli.main",
)
COUNTERS = ("spectra.matvecs", "effective.steps", "measure.observables")
PER_MATVEC = ("spectra.dimension", "spectra.terms")


def program_modules() -> dict:
    return {m: mod for m, mod in sys.modules.items()
            if m == "surfcode" or m.startswith("surfcode.")}


def fresh_import():
    """Import surfcode (and its CLI) anew from this checkout's src."""
    for name in program_modules():
        del sys.modules[name]
    sc = importlib.import_module("surfcode")
    importlib.import_module("surfcode.cli")
    if Path(sc.__file__).resolve() != SRC / "surfcode" / "__init__.py":
        raise ImportError(f"surfcode imported from {sc.__file__}")
    return sc


def git_sha() -> str:
    """Commit of the checkout, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        loose = git / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import scipy
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_sha": git_sha(),
    }


def settle_allocator() -> None:
    """Put glibc malloc into the state it reaches after the first large
    temporaries are freed.  Freeing an mmap-ed block raises the mmap and
    trim thresholds to its size, at most 32 MiB; until then every ~1 MB
    temporary is mapped and unmapped anew and page-faults in.  A first
    round of LOBPCG raises them as a side effect, so without this the
    reference slice before the first round ran at half the speed of the
    slices after it."""
    block = numpy.empty(31 << 20, dtype=numpy.uint8)
    del block


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "surfcode" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'surfcode'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    settle_allocator()
    params = wl.params(args.seed, OUT)
    tracer = spans.Tracer(wl.name)
    traced = bool(args.trace)
    setup_times = []

    def set_up():
        """SETUPS timed set-ups; returns the last one's program and inputs."""
        for _ in range(SETUPS):
            tracer.enabled = traced
            with tracer.span("bench.setup"):
                t0 = time.perf_counter()
                sc = fresh_import()
                inputs = wl.setup(sc, params, tracer)
                setup_times.append(time.perf_counter() - t0)
            tracer.enabled = False
        return sc, inputs

    sc, inputs = set_up()
    modules = program_modules()
    if traced:
        wl.instrument(sc, tracer)
    reference_op = wl.baseline(params, inputs)
    for _ in range(wl.BASE_OPS // 10):      # untimed warm-up
        reference_op()

    def ref_op_time() -> float:
        """Wall time of one reference operation, over BASE_OPS of them."""
        t0 = time.perf_counter()
        for _ in range(wl.BASE_OPS):
            reference_op()
        return (time.perf_counter() - t0) / wl.BASE_OPS

    # -- rounds, each followed by a reference slice and SETUPS set-ups ----
    min_rounds = 2 if traced else 1
    rounds_wall, traced_flags, laps = [], [], []
    start = time.perf_counter()
    ref_ops = [ref_op_time()]
    first, later = None, []
    while True:
        lap = time.perf_counter()
        tracer.enabled = traced and len(rounds_wall) % 2 == 1
        with tracer.span("bench.round"):
            t0 = time.perf_counter()
            outs = wl.round(sc, params, inputs, tracer)
            rounds_wall.append(time.perf_counter() - t0)
        traced_flags.append(tracer.enabled)
        tracer.enabled = False
        if first is None:
            first = outs
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024.0)
        else:
            later.append(workloads.repeat_status(wl, first, outs))
        del outs
        ref_ops.append(ref_op_time())
        set_up()
        # the rounds and checks keep the modules of the first set-ups
        for name in program_modules():
            del sys.modules[name]
        sys.modules.update(modules)
        laps.append(time.perf_counter() - lap)
        rounds = len(rounds_wall)
        est = statistics.median(laps)
        if (rounds >= min_rounds
                and time.perf_counter() - start + est > args.seconds):
            break
    costs = [w / (0.5 * (ref_ops[i] + ref_ops[i + 1]))
             for i, w in enumerate(rounds_wall)]
    plain = [w for w, t in zip(rounds_wall, traced_flags) if not t]
    with_spans = [w for w, t in zip(rounds_wall, traced_flags) if t]

    # -- checks --------------------------------------------------------------
    failed_checks, split_err = wl.check(sc, params, inputs, first)
    verdict = workloads.verdict(first, later, failed_checks)

    info = {
        "env": environment(wl.name, args.seed),
        "rounds": rounds,
        "round_wall_s": rounds_wall,
        "round_traced": traced_flags,
        "ref_op_s": ref_ops,
        "round_cost": costs,
        "setup_all_s": setup_times,
        "failed_checks": {op: f for op, f in failed_checks.items() if f},
    }
    if traced:
        metrics = layer_metrics(tracer, split_err, plain, with_spans)
        trace = OUT / f"trace_{wl.name}_{args.seed}.json"
        trace.write_text(json.dumps(
            {**info, "metrics": metrics, "spans": tracer.records()}))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "round_cost": {"value": statistics.median(costs),
                           "unit": "ref_ops"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps(info))
    print(json.dumps({**verdict, "metrics": metrics}))
    return 0


def layer_metrics(tracer, split_err: dict, plain: list,
                  with_spans: list) -> dict:
    """Per-layer medians over traced set-ups and traced rounds."""
    roots = tracer.per_root()
    setups = [t for name, t in roots if name == "bench.setup"]
    rounds = [t for name, t in roots if name == "bench.round"]
    m = {}
    for layer in TIMED_LAYERS:
        v = (statistics.median(t.get(layer, 0.0) for t in setups)
             + statistics.median(t.get(layer, 0.0) for t in rounds))
        m[f"{layer}_s"] = {"value": v, "unit": "s"}
    counts = {name: statistics.median(t.get(name, 0) for t in rounds)
              for name in COUNTERS + PER_MATVEC}
    matvecs = counts["spectra.matvecs"]
    for name in PER_MATVEC:
        counts[name] = counts[name] / matvecs if matvecs else 0
    for name, v in counts.items():
        m[name] = {"value": v, "unit": "count"}
    m["spectra.splitting_abs_err"] = {
        "value": max(split_err.values(), default=0.0), "unit": "g"}
    m["trace.overhead_s"] = {
        "value": statistics.median(with_spans) - statistics.median(plain),
        "unit": "s"}
    return m


if __name__ == "__main__":
    sys.exit(main())

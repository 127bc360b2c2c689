"""Steadiness check: run each workload on several seeds with the command
from BENCHMARK.json and report, per end-to-end metric, the median, the
quartiles and the spread (Q3 - Q1) / median next to a third of the
metric's bound.

    python3 perfbench/steady.py [--runs 10]

Runs go one at a time, untraced, seeds 1 to N in the outer loop and the
workloads of BENCHMARK.json in the inner one, so slow drift of the
machine reaches every workload alike.
A JSON record of every run is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    results = {w["name"]: [] for w in bench["workloads"]}
    for seed in range(1, args.runs + 1):
        for w in results:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            took = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{w} seed {seed}: exit {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            info = json.loads(lines[-2])
            res["seed"], res["run_s"] = seed, took
            res["round_wall_s"] = info["round_wall_s"]
            results[w].append(res)
            vals = " ".join(f"{k}={v['value']:.6g}"
                            for k, v in res["metrics"].items())
            print(f"{w} seed={seed} run={took:.1f}s correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  f"{vals}", flush=True)

    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"steady_{int(time.time())}.json").write_text(json.dumps(results))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"{'workload':18} {'metric':12} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>8} {'bound/3':>8}")
    for w, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (med, med, med))
            print(f"{w:18} {name:12} {med:10.5g} {q1:10.5g} {q3:10.5g} "
                  f"{(q3 - q1) / med:8.4f} {bound / 3:8.4f}")
        print(f"{w:18} failed shares {sorted(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

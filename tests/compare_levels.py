"""Compare two ``pytest --record-levels`` files level by level.

    python tests/compare_levels.py A.jsonl B.jsonl [--tol T]

Lines are paired by (test, call).  The report gives how many pairs are
bit-identical, the largest |level difference| / norm_bound, each file's
largest residual norm / norm_bound where its lines record residuals,
each file's total of applied state columns and the five pairs whose
counts moved most where both record them, each file's total of sectors
and of floors solved and every pair whose counts differ where both
record them, every pair whose sector labels differ, and every pair
that fails.  A
pair fails when its levels differ by more than T * norm_bound (or in
number), when only one side raised, or when it has no partner in the
other file; the exit status is 1 if any pair fails, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys


def _read(path: str) -> dict:
    with open(path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    return {(line["test"], line["call"]): line for line in lines}


def compare(a: dict, b: dict, tol: float) -> tuple[list[str], bool]:
    """Report lines for the recorded calls a and b, and whether any
    pair fails."""
    report, failed = [], []
    same, worst, where = 0, 0.0, None
    for key in sorted(a.keys() & b.keys()):
        x, y = a[key], b[key]
        name = f"{key[0]} call {key[1]}"
        if ("error" in x) != ("error" in y):
            failed.append(f"raised on one side: {name}: "
                          f"{x.get('error')} vs {y.get('error')}")
            continue
        if "error" in x:
            same += x["error"] == y["error"]
            continue
        ex, ey = x["eigenvalues"], y["eigenvalues"]
        if len(ex) != len(ey):
            failed.append(f"level counts differ: {name}: {len(ex)} vs "
                          f"{len(ey)}")
            continue
        same += ex == ey
        norm = max(x["norm_bound"], y["norm_bound"], 1e-300)
        delta = max((abs(u - v) for u, v in zip(ex, ey)), default=0.0) / norm
        if delta > worst:
            worst, where = delta, name
        if delta > tol:
            failed.append(f"beyond {tol:g} * norm_bound: {name}: "
                          f"{delta:.3g}")
        if x["labels"] != y["labels"]:
            report.append(f"labels differ: {name}: {x['labels']} vs "
                          f"{y['labels']}")
    for key in sorted(a.keys() ^ b.keys()):
        side = "first" if key in a else "second"
        failed.append(f"only in the {side} file: {key[0]} call {key[1]}")
    paired = len(a.keys() & b.keys())
    head = [f"{paired} pairs, {same} bit-identical; largest |delta| / "
            f"norm_bound {worst:.3g}" + (f" ({where})" if where else "")]
    for side, lines in (("first", a), ("second", b)):
        res = [(max(line["residual_norms"], default=0.0)
                / max(line["norm_bound"], 1e-300), key)
               for key, line in lines.items()
               if "residual_norms" in line]
        if res:
            top, key = max(res)
            head.append(f"{side} file: largest residual / norm_bound "
                        f"{top:.3g} ({key[0]} call {key[1]})")
    counts = (_counts(a, b, "applications", 5) + _counts(a, b, "sectors")
              + _counts(a, b, "floors"))
    return head + counts + report + failed, bool(failed)


def _counts(a: dict, b: dict, field: str, most=None) -> list[str]:
    """Where both files record ``field`` (a call that raised records no
    sectors), each file's total of it over the lines that do, then the
    pairs whose counts moved, up to ``most`` of them (all by default),
    largest move first."""
    have = [[line[field] for line in f.values() if field in line]
            for f in (a, b)]
    if not all(have):
        return []
    lines = [f"{side} file: {sum(counts)} {field} in {len(counts)} calls"
             for side, counts in zip(("first", "second"), have)]
    moved = sorted(((b[k][field] - a[k][field], k)
                    for k in a.keys() & b.keys()
                    if field in a[k] and field in b[k]),
                   key=lambda m: (-abs(m[0]), m[1]))
    return lines + [f"{field} moved: {k[0]} call {k[1]}: "
                    f"{a[k][field]} -> {b[k][field]}"
                    for d, k in moved[:most] if d]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--tol", type=float, default=1e-9,
                    help="largest |level difference| / norm_bound that "
                         "passes (default 1e-9)")
    args = ap.parse_args(argv)
    lines, failed = compare(_read(args.a), _read(args.b), args.tol)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

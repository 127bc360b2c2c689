"""Write the report of every line of the README's CLI block to a directory.

Each line of the README's ``surfcode ...`` block (``README_COMMANDS`` in
``test_cli``) runs in-process on the README's own configs, in a scratch
directory, and writes its report to ``OUTDIR/<line>-<subcommand>``.  Run
it in two checkouts and compare the directories with ``diff -r`` to see
which reports a change moved:

    python3 tests/readme_reports.py OUTDIR

The checkout's own ``src`` is imported, whatever the working directory.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"),
                str(Path(__file__).resolve().parent)]

from surfcode.cli import main  # noqa: E402
from test_cli import README_COMMANDS, README_CONFIGS  # noqa: E402


def write_reports(outdir) -> list[Path]:
    """Run every README command with ``--output`` into ``outdir``; returns
    the report paths in README order."""
    outdir = Path(outdir).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    paths, cwd = [], os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, text in README_CONFIGS.items():
            Path(work, name).write_text(text)
        os.chdir(work)
        try:
            for i, line in enumerate(README_COMMANDS):
                args = line.split()
                paths.append(outdir / f"{i}-{args[0]}")
                if main(args + ["--output", str(paths[-1])]) != 0:
                    raise SystemExit(f"README command failed: surfcode {line}")
        finally:
            os.chdir(cwd)
    return paths


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    for path in write_reports(sys.argv[1]):
        print(path)

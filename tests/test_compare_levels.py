"""The --record-levels comparison script on two hand-written files."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "compare_levels", Path(__file__).with_name("compare_levels.py"))
compare_levels = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_levels)


def _write(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return str(path)


def test_compare_levels_pairs_by_test_and_call(tmp_path, capsys):
    """Call 0 is bit-identical, call 1 moves by 2e-12 of the norm bound
    and swaps two labels, call 2 raises on both sides: within 1e-9 that
    passes.  Within 1e-12, or with a call that raises on one side only,
    it fails."""
    lv = {"test": "t", "n": 4, "norm_bound": 10.0}
    a = _write(tmp_path / "a.jsonl", [
        {**lv, "call": 0, "eigenvalues": [-1.0, 0.5], "labels": [0, 1]},
        {**lv, "call": 1, "eigenvalues": [-2.0, -2.0], "labels": [0, 3]},
        {**lv, "call": 2, "error": "SpectraError"}])
    b = _write(tmp_path / "b.jsonl", [
        {**lv, "call": 1, "eigenvalues": [-2.0, -2.0 + 2e-11],
         "labels": [3, 0]},
        {**lv, "call": 0, "eigenvalues": [-1.0, 0.5], "labels": [0, 1]},
        {**lv, "call": 2, "error": "SpectraError"}])
    assert compare_levels.main([a, b]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("3 pairs, 2 bit-identical; largest |delta| / "
                             "norm_bound 2e-12 (t call 1)")
    assert out[1:] == ["labels differ: t call 1: [0, 3] vs [3, 0]"]
    assert compare_levels.main([a, b, "--tol", "1e-12"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "beyond 1e-12 * norm_bound: t call 1: 2e-12")
    c = _write(tmp_path / "c.jsonl", [
        {**lv, "call": 0, "eigenvalues": [-1.0, 0.5], "labels": [0, 1]},
        {**lv, "call": 1, "eigenvalues": [-2.0, -2.0], "labels": [0, 3]},
        {**lv, "call": 2, "eigenvalues": [0.0, 1.0], "labels": [0, 0]}])
    assert compare_levels.main([a, c]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "raised on one side: t call 2: SpectraError vs None")


def test_compare_levels_reports_each_files_largest_residual(tmp_path, capsys):
    """Files that record residual norms get one line each, next to the
    level differences: the largest residual / norm_bound and its call."""
    lv = {"test": "t", "n": 4, "eigenvalues": [-1.0], "labels": [0]}
    a = _write(tmp_path / "a.jsonl", [
        {**lv, "call": 0, "norm_bound": 10.0, "residual_norms": [3e-15]},
        {**lv, "call": 1, "norm_bound": 2.0, "residual_norms": [1e-15]}])
    b = _write(tmp_path / "b.jsonl", [
        {**lv, "call": 0, "norm_bound": 10.0, "residual_norms": [2e-16]},
        {**lv, "call": 1, "norm_bound": 2.0}])
    assert compare_levels.main([a, b]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "first file: largest residual / norm_bound 5e-16 (t call 1)",
        "second file: largest residual / norm_bound 2e-17 (t call 0)"]

"""CLI subcommands: reports, determinism, schemas."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from surfcode.cli import main


@pytest.fixture()
def two_hole_config(tmp_path):
    cfg = {
        "width": 4, "height": 5, "boundary": "open",
        "holes": [{"x0": 1, "y0": 1, "x1": 2, "y1": 1},
                  {"x0": 1, "y0": 3, "x1": 2, "y1": 3}],
    }
    path = tmp_path / "two_hole.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture()
def torus_config(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"width": 4, "height": 3,
                                "boundary": "torus", "holes": []}))
    return str(path)


def run(args, out_path):
    """Report text of a run that exits 0; NaN is not JSON (the t_de
    sentinel Infinity is let through)."""
    rc = main(args + ["--output", str(out_path)])
    assert rc == 0
    text = out_path.read_text()
    assert "NaN" not in text
    return text


def test_degeneracy_two_holes(two_hole_config, tmp_path):
    text = run(["degeneracy", "--config", two_hole_config],
               tmp_path / "r.json")
    rep = json.loads(text)
    assert rep["Q"] == 4
    assert rep["N_active"] == 20
    assert rep["config_hash"]
    assert rep["artifact_version"]


def test_report_bytes_deterministic(two_hole_config, tmp_path):
    a = run(["degeneracy", "--config", two_hole_config], tmp_path / "a.json")
    b = run(["degeneracy", "--config", two_hole_config], tmp_path / "b.json")
    assert a == b


def test_gates_pi8_schedule(tmp_path):
    text = run(["gates", "--gate", "pi8", "--hx-tilde", "1e-3",
                "--hz-tilde", "1e-3"], tmp_path / "g.json")
    rep = json.loads(text)
    assert rep["pulse_product_error"] <= 1e-12
    assert [p["axis"] for p in rep["pulses"]] == ["x", "z"]
    assert rep["pulses"][0]["duration"] == pytest.approx(np.pi / 8 / 1e-3)
    U = np.array(rep["unitary_re"]) + 1j * np.array(rep["unitary_im"])
    assert np.max(np.abs(U @ U.conj().T - np.eye(2))) < 1e-12


def strip_comments(text):
    return [ln for ln in text.strip().splitlines() if not ln.startswith("#")]


def test_dispersion_csv(tmp_path):
    text = run(["dispersion", "--kind", "vortex", "--hx", "0.1",
                "--npts", "64", "--sample", "8"], tmp_path / "d.csv")
    assert "# artifact_version=" in text
    lines = strip_comments(text)
    assert lines[0] == "kx,ky,energy"
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    energies = [r[2] for r in rows]
    assert min(energies) >= 2 * np.sqrt(1 - 0.4) - 1e-9


def test_spectrum_on_torus(torus_config, tmp_path):
    text = run(["spectrum", "--config", torus_config, "--k-count", "3",
                "--tol", "1e-9"], tmp_path / "s.json")
    rep = json.loads(text)
    vals = rep["eigenvalues"]
    assert vals[1] - vals[0] < 1e-8       # Q=2 torus
    assert vals[2] - vals[0] > 1.5


def test_tomography_roundtrip_cli(tmp_path):
    text = run(["tomography", "--n", "1", "--state", "random",
                "--seed", "5"], tmp_path / "t.json")
    rep = json.loads(text)
    assert rep["parameter_count"] == 2
    assert rep["residual"] <= 1e-6
    assert len(rep["plan"]) == 3


@pytest.mark.parametrize("shots", ["0", "10"])
def test_tomography_rejects_state_file_of_other_size(tmp_path, capsys, shots):
    """A state file of 2^2 amplitudes with --n 1 is refused, sampled or
    exact, with both sizes named."""
    state = tmp_path / "state.json"
    state.write_text(json.dumps([[0.5, 0.0]] * 4))
    out = tmp_path / "t.json"
    rc = main(["tomography", "--n", "1", "--state", str(state),
               "--shots", shots, "--output", str(out)])
    assert rc == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "holds 4 amplitudes, --n 1 needs 2" in err["message"]


@pytest.mark.parametrize("n, amps, shots", [
    (3, [[np.nan, 0.0]] + [[0.5, 0.0]] * 7, "0"),
    (1, [[np.nan, 0.0], [1.0, 0.0]], "0"),
    (1, [[np.nan, 0.0], [1.0, 0.0]], "10"),
    (2, [[0.5, np.inf]] + [[0.5, 0.0]] * 3, "0"),
    (2, [[0.0, 0.0]] * 4, "0"),
    (2, [[0.0, 0.0]] * 4, "10"),
])
def test_tomography_rejects_a_state_file_without_a_finite_norm(
        tmp_path, capsys, n, amps, shots):
    """A NaN, infinite or all-zero state file exits 1 with the reason,
    where it printed NaN readouts or divided by zero."""
    state = tmp_path / "state.json"
    state.write_text(json.dumps(amps))
    out = tmp_path / "t.json"
    rc = main(["tomography", "--n", str(n), "--state", str(state),
               "--shots", shots, "--output", str(out)])
    assert rc == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert f"state {state} has norm" in err["message"]
    assert "need finite amplitudes, not all zero" in err["message"]


def test_tomography_rejects_register_above_the_cap(tmp_path, capsys):
    """--n 13 is refused before any state or plan is built."""
    out = tmp_path / "t.json"
    rc = main(["tomography", "--n", "13", "--output", str(out)])
    assert rc == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MeasureError"
    assert "n <= 12, the register cap" in err["message"]


@pytest.mark.parametrize("kind, field", [("vortex", "--hx"),
                                         ("fermion", "--hy")])
def test_dispersion_rejects_negative_gap_closing_field(kind, field, tmp_path,
                                                       capsys):
    out = tmp_path / "d.csv"
    rc = main(["dispersion", "--kind", kind, field, "-0.6", "--npts", "8",
               "--sample", "2", "--output", str(out)])
    assert rc == 1
    assert not out.exists()
    assert json.loads(capsys.readouterr().err)["error"] == "SpectraError"


def test_decoherence_sweep_csv(tmp_path):
    text = run(["decoherence", "--sweep", "hx=0.005:0.05:6", "--Lp", "10"],
               tmp_path / "c.csv")
    lines = strip_comments(text)
    assert lines[0] == "hx,B,T_star,t_de"
    tstars = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert all(a < b for a, b in zip(tstars, tstars[1:]))


def test_init_trace_csv(tmp_path):
    text = run(["init", "--n", "2", "--T", "600", "--steps", "120",
                "--trace", "10", "--jxx", "1e-5", "--hx-tilde", "2e-5"],
               tmp_path / "i.csv")
    lines = strip_comments(text)
    assert lines[0] == "t,h,fidelity"
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    assert rows[0][0] < rows[-1][0] <= 0.0     # times run up to zero
    hs = [r[1] for r in rows]
    assert all(a >= b for a, b in zip(hs, hs[1:]))   # field ramps off
    assert rows[-1][2] > 0.99


@pytest.fixture()
def one_hole_config(tmp_path):
    cfg = {"width": 4, "height": 4, "boundary": "open",
           "holes": [{"x0": 1, "y0": 1, "x1": 1, "y1": 2}]}
    path = tmp_path / "one_hole.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_spectrum_single_level(one_hole_config, tmp_path):
    """--k-count 1 returns one level; the logical matrices shrink to it."""
    text = run(["spectrum", "--config", one_hole_config, "--k-count", "1"],
               tmp_path / "s1.json")
    rep = json.loads(text)
    assert len(rep["eigenvalues"]) == 1
    assert "splittings" not in rep
    assert len(rep["logical_expectations"]["hole0"]["tau_z"]) == 1


@pytest.mark.parametrize("g", ["nan", "inf"])
def test_spectrum_rejects_a_non_finite_g(tmp_path, capsys, g):
    """A NaN or infinite g on the one-hole annulus exits 1 with the
    reason, where it wrote an empty spectrum."""
    cfg = tmp_path / "annulus.json"
    cfg.write_text(json.dumps({
        "width": 4, "height": 4, "boundary": "open",
        "holes": [{"x0": 1, "y0": 1, "x1": 1, "y1": 2}],
        "fields": [{"region": {"type": "annulus", "hole": 0}, "hx": 0.05}]}))
    out = tmp_path / "s.json"
    rc = main(["spectrum", "--config", str(cfg), "--g", g, "--k-count", "3",
               "--output", str(out)])
    assert rc == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SpectraError"
    assert f"g must be finite, got {g}" in err["message"]


@pytest.mark.parametrize("args,name", [
    (["--T", "nan", "--hx", "0.01"], "T"),
    (["--Lp", "nan", "--hx", "0.01"], "L_p"),
    (["--hx", "inf"], "hx"),
    (["--sweep", "hx=0.01:nan:3"], "hx"),
])
def test_decoherence_rejects_non_finite_inputs(tmp_path, capsys, args, name):
    """A NaN or infinite input exits 1 with the reason, where it printed
    NaN, which is not JSON."""
    out = tmp_path / "d.json"
    rc = main(["decoherence", *args, "--output", str(out)])
    assert rc == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DecoherenceError"
    assert f"{name} must be finite" in err["message"]


def test_compare_splitting_cli(one_hole_config, tmp_path):
    text = run(["compare-splitting", "--config", one_hole_config,
                "--axis", "y", "--h-values", "0.1", "--tol", "1e-9"],
               tmp_path / "cmp.json")
    rep = json.loads(text)
    assert rep["path_length"] == 2
    row = rep["table"][0]
    assert row["ed_splitting"] > 0 and row["closed_form"] > 0
    assert rep["fitted_constant"] == pytest.approx(row["ratio"])
    rep = json.loads(run(["compare-splitting", "--config", one_hole_config,
                          "--h-values", "1e-9"], tmp_path / "none.json"))
    assert rep["table"][0]["ratio"] is rep["fitted_constant"] is None


def test_fitted_constant_is_the_ratio_at_the_smallest_field(
        one_hole_config, tmp_path):
    """Listed largest first or smallest first, the constant is the ratio
    at |h| = 0.02 (it was the last row's: 3.9996 against 3.9900)."""
    reps = [json.loads(run(["compare-splitting", "--config", one_hole_config,
                            "--h-values", hs], tmp_path / f"{i}.json"))
            for i, hs in enumerate(["0.1,0.05,0.02", "0.02,0.05,0.1"])]
    at = [next(r["ratio"] for r in rep["table"] if r["h"] == 0.02)
          for rep in reps]
    assert reps[0]["fitted_constant"] == reps[1]["fitted_constant"] == at[0]
    assert at[0] == at[1] == pytest.approx(3.9996, abs=1e-4)


def _config(tmp_path, name, width, height, holes, fields=()):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "width": width, "height": height, "boundary": "open",
        "holes": [dict(zip(("x0", "y0", "x1", "y1"), h)) for h in holes],
        "fields": list(fields)}))
    return str(path)


@pytest.mark.parametrize("size, hole, length, tiny", [
    (8, (3, 3, 3, 4), 4, ()), (10, (4, 4, 4, 5), 5, (0.001,))],
    ids=["8x8", "10x10"])
def test_compare_splitting_beyond_the_dimension_cap(tmp_path, size, hole,
                                                    length, tiny):
    """64 and 100 spins, solved in sectors of a few states: the ratio at
    h = 0.02 is 4^(L-1), 63.99 at L = 4 and 255.97 at L = 5.  At h = 0.05
    the splitting is closed 4^(L-1) (1 - h^2/4) within its error bound;
    at h = 0.001 on 10x10 (~1.2e-16 exact) it is below the bound, so the
    row has no ratio and the fit takes the smallest resolved h."""
    cfg = _config(tmp_path, f"one_hole_{size}", size, size, [hole])
    hs = ",".join(map(str, (0.1, 0.05, 0.02) + tiny))
    rep = json.loads(run(["compare-splitting", "--config", cfg,
                          "--axis", "y", "--h-values", hs],
                         tmp_path / "cmp.json"))
    assert rep["path_length"] == length
    rows = {r["h"]: r for r in rep["table"]}
    assert rep["fitted_constant"] == rows[0.02]["ratio"]
    assert rep["fitted_constant"] == pytest.approx(4 ** (length - 1),
                                                   rel=1e-3)
    row = rows[0.05]
    want = row["closed_form"] * 4 ** (length - 1) * (1 - 0.05 ** 2 / 4)
    assert abs(row["ed_splitting"] - want) <= row["error_bound"]
    assert row["error_bound"] < row["ed_splitting"]
    for h in tiny:
        assert rows[h]["ed_splitting"] <= rows[h]["error_bound"]
        assert rows[h]["ratio"] is None


def test_spectrum_on_a_44_spin_two_hole_lattice(tmp_path):
    """hy = 0.05 on the corridor between two holes of a 4x11 lattice: the
    ground quartet splits into two degenerate pairs, and each hole's
    tau_x matrix on the quartet pairs its levels up."""
    cfg = _config(tmp_path, "two_hole_4x11", 4, 11,
                  [(1, 1, 2, 1), (1, 5, 2, 5)],
                  [{"region": {"type": "corridor", "from": 0, "to": 1},
                    "hy": 0.05}])
    rep = json.loads(run(["spectrum", "--config", cfg],
                         tmp_path / "s.json"))
    vals = rep["eigenvalues"]
    assert len(vals) == 4 and max(rep["residual_norms"]) < 1e-12
    assert vals[1] - vals[0] < 1e-12 and vals[3] - vals[2] < 1e-12
    assert vals[2] - vals[1] > 1e-7
    for hole in ("hole0", "hole1"):
        mx = np.array(rep["logical_expectations"][hole]["tau_x_abs"])
        assert mx.shape == (4, 4)
        assert np.allclose(np.sort(mx, axis=1)[:, -1], 1.0, atol=1e-8)


def test_spectrum_splittings_above_the_ground_space(one_hole_config,
                                                   tmp_path):
    """--k-count above 2^holes adds the splittings block: the zero-field
    doublet and the gap 2g to the next level."""
    rep = json.loads(run(["spectrum", "--config", one_hole_config,
                          "--k-count", "3"], tmp_path / "s3.json"))
    split = rep["splittings"]
    assert split["ground_levels"] == rep["eigenvalues"][:2]
    assert split["splittings"][0] == 0.0 and split["splittings"][1] < 1e-12
    assert split["excitation_gap"] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("n, state, want", [
    (1, "up", {"z:0": 1.0, "x:0": 0.5, "x:0;rot0": 0.5}),
    (1, "plus", {"z:0": 0.5, "x:0": 1.0, "x:0;rot0": 0.5}),
])
def test_tomography_named_states(tmp_path, n, state, want):
    """--state up and plus read out their known probabilities and are
    reconstructed exactly."""
    rep = json.loads(run(["tomography", "--n", str(n), "--state", state],
                         tmp_path / "t.json"))
    assert rep["raw_probabilities"] == pytest.approx(want, abs=1e-15)
    assert rep["residual"] <= 1e-12


def test_tomography_sampled_shots(tmp_path):
    """--shots 5 reports frequencies in fifths and no reconstruction."""
    rep = json.loads(run(["tomography", "--n", "1", "--shots", "5"],
                         tmp_path / "t.json"))
    probs = rep["raw_probabilities"]
    assert set(probs) == set(rep["plan"])
    assert all(5 * p == round(5 * p) for p in probs.values())
    assert "reconstructed_parameters" not in rep and "residual" not in rep


def test_gates_custom_angles(tmp_path, capsys):
    """--gate custom takes theta,phi,gamma; two angles are refused."""
    rep = json.loads(run(["gates", "--gate", "custom", "--angles",
                          "0.3,0.2,0.1"], tmp_path / "g.json"))
    assert rep["angles"] == {"theta": 0.3, "phi": 0.2, "gamma": 0.1}
    assert rep["pulse_product_error"] <= 1e-12
    out = tmp_path / "g2.json"
    rc = main(["gates", "--gate", "custom", "--angles", "0.3,0.2",
               "--output", str(out)])
    assert rc == 1 and not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError",
                   "message": "custom gate needs --angles theta,phi,gamma"}


@pytest.mark.parametrize("args", [
    ["--hx-tilde", "nan"],
    ["--hz-tilde", "inf"],
    ["--gate", "custom", "--angles", "nan,0,0"],
    ["--gate", "custom", "--angles", "0,inf,0"],
])
def test_gates_rejects_non_finite_inputs(tmp_path, capsys, args):
    """A NaN angle or drive, or an infinite one, exits 1 with the reason,
    where it printed NaN, which is not JSON."""
    out = tmp_path / "g.json"
    rc = main(["gates", *args, "--output", str(out)])
    assert rc == 1 and not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "EffectiveError", "message": "rotation angles "
                   "and drive fields must be finite"}


@pytest.mark.parametrize("field", ["--g", "--hx", "--hy"])
def test_dispersion_rejects_non_finite_inputs(tmp_path, capsys, field):
    """A NaN passed the gap check and wrote nan energies."""
    out = tmp_path / "d.csv"
    rc = main(["dispersion", field, "nan", "--npts", "8", "--sample", "2",
               "--output", str(out)])
    assert rc == 1 and not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SpectraError"
    assert "g, hx and hy must be finite" in err["message"]


@pytest.mark.parametrize("option, value", [("--npts", "0"), ("--npts", "-3"),
                                           ("--sample", "0"),
                                           ("--sample", "-1")])
def test_dispersion_rejects_a_grid_below_one_point(tmp_path, capsys, option,
                                                   value):
    """--sample 0 failed with ZeroDivisionError and --npts 0 wrote a CSV
    of no rows."""
    out = tmp_path / "d.csv"
    args = {"--npts": "8", "--sample": "2", option: value}
    rc = main(["dispersion", *[a for kv in args.items() for a in kv],
               "--output", str(out)])
    assert rc == 1 and not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError",
                   "message": f"{option} must be at least 1, got {value}"}


@pytest.mark.parametrize("args, message", [
    (["tomography", "--n", "1", "--shots", "-5"],
     "--shots must be at least 0, got -5"),
    (["tomography", "--n", "2", "--shots", "-1"],
     "--shots must be at least 0, got -1"),
    (["decoherence", "--sweep", "hx=0.1:0.2:0"],
     "--sweep needs at least 1 point, got 0"),
    (["decoherence", "--sweep", "hx=0.1:0.2:-2"],
     "--sweep needs at least 1 point, got -2"),
    *[(["decoherence", "--sweep", s], "--sweep takes hx=a:b:n with n a "
       f"positive integer, got {s!r}")
      for s in ("hx=0.1", "hx=a:b:3", "hx=0.1:0.2:2.5", "hx",
                "hx=0.1:0.2:3:4")],
    (["decoherence", "--sweep", "hz=0.1:0.2:3"],
     "only hx sweeps are supported"),
], ids=[    # spelled out, so that editing a message renames no test
    "args0---shots must be at least 0, got -5",
    "args1---shots must be at least 0, got -1",
    "args2---sweep needs at least 1 point, got 0",
    "args3---sweep needs at least 1 point, got -2",
    *[f"args{j}---sweep takes hx=a:b:n with n a positive integer, got {s!r}"
      for j, s in enumerate(("hx=0.1", "hx=a:b:3", "hx=0.1:0.2:2.5", "hx",
                             "hx=0.1:0.2:3:4"), 4)],
    "args9-only hx sweeps are supported",
])
def test_cli_rejects_negative_shots_and_empty_sweeps(tmp_path, capsys, args,
                                                     message):
    """--shots -5 printed the exact readouts and skipped reconstruction,
    and a sweep of 0 points wrote an empty table; both exited 0.  A
    malformed sweep failed with Python's own unpacking or conversion
    message."""
    out = tmp_path / "out"
    rc = main([*args, "--output", str(out)])
    assert rc == 1 and not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("field", ["--T", "--t0", "--h0"])
def test_init_rejects_a_non_finite_schedule(tmp_path, capsys, field):
    """The schedule names its own fields, where a NaN failed later as a
    chain coefficient."""
    out = tmp_path / "i.csv"
    rc = main(["init", "--n", "2", "--steps", "5", field, "nan",
               "--output", str(out)])
    assert rc == 1 and not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "EffectiveError",
                   "message": "h0, t0 and T_total must be finite"}


def test_decoherence_single_point(tmp_path):
    """Without --sweep one thermal report: T* does not depend on T, and
    safe holds while T <= T*/10."""
    reps = [json.loads(run(["decoherence", "--T", T, "--hx", "0.05",
                            "--hy", "0.05"], tmp_path / f"d{T}.json"))
            for T in ("0.001", "0.01")]
    assert reps[0]["T_star"] == reps[1]["T_star"]
    assert 0.001 <= reps[0]["T_star"] / 10 < 0.01
    assert [r["safe"] for r in reps] == [True, False]
    assert reps[0]["B"] > 0 and reps[0]["safety_factor"] == 10.0


def test_compare_splitting_rejects_two_holes(two_hole_config, tmp_path,
                                             capsys):
    out = tmp_path / "cmp2.json"
    rc = main(["compare-splitting", "--config", two_hole_config,
               "--output", str(out)])
    assert rc == 1 and not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "LatticeError",
                   "message": "compare-splitting expects a one-hole config"}


def test_compare_splitting_rejects_zero_field(one_hole_config, tmp_path,
                                              capsys):
    out = tmp_path / "cmp0.json"
    rc = main(["compare-splitting", "--config", one_hole_config,
               "--axis", "x", "--h-values", "0.05,0", "--output", str(out)])
    assert rc == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "h values must be nonzero" in err["message"]


def test_import_leaves_scipy_optimize_unloaded():
    """Loading scipy.optimize adds ~17 MB of resident memory and ~0.2 s
    to a cold import, ED-only runs included; no module needs it."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, surfcode, surfcode.cli; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_import_leaves_scipy_sparse_linalg_unloaded():
    """LOBPCG is the package's own (``spectra._lobpcg``), so no module
    needs scipy.sparse.linalg, ED runs included."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, surfcode, surfcode.cli; "
            "print('scipy.sparse.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"


def test_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"width": 2, "height": 2,
                               "boundary": "open", "holes": []}))
    rc = main(["degeneracy", "--config", str(bad),
               "--output", str(tmp_path / "x.json")])
    assert rc == 1


@pytest.mark.parametrize("args", [["degeneracy", "--config", "lat.json"],
                                  ["dispersion"], ["gates"], ["init"],
                                  ["decoherence"]], ids=lambda a: a[0])
def test_deterministic_subcommands_take_no_seed(args, capsys):
    """Only spectrum, compare-splitting and tomography draw random
    numbers; the others refuse --seed, and their reports carry none."""
    with pytest.raises(SystemExit) as exc:
        main([*args, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_reports_carry_the_seed_where_one_is_used(two_hole_config, tmp_path):
    assert "seed" not in json.loads(run(["degeneracy", "--config",
                                         two_hole_config], tmp_path / "d"))
    assert "# seed=" not in run(["decoherence", "--sweep", "hx=0.01:0.02:2"],
                                tmp_path / "c")
    rep = json.loads(run(["tomography", "--seed", "7"], tmp_path / "t"))
    assert rep["seed"] == 7


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
README_CONFIGS = dict(re.findall(r"`(\w+\.json)`[^`]*```json\n(.*?)```",
                                 README, re.S))
README_COMMANDS = re.findall(r"^surfcode +(.*)$", README, re.M)


def test_readme_names_its_configs_and_commands():
    assert set(README_CONFIGS) == {"lat.json", "hole.json"}
    assert len(README_COMMANDS) == 8


def test_readme_reports_writes_one_report_per_command(tmp_path):
    """``tests/readme_reports.py`` writes each README command's report
    under its line number and subcommand, the same bytes on a rerun, so
    that two checkouts compare with ``diff -r``."""
    import readme_reports   # imports this module, so not at the top
    a = readme_reports.write_reports(tmp_path / "a")
    b = readme_reports.write_reports(tmp_path / "b")
    assert [p.name for p in a] == [f"{i}-{c.split()[0]}"
                                   for i, c in enumerate(README_COMMANDS)]
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
    assert json.loads(a[0].read_text())["Q"] == 4


@pytest.mark.parametrize("i", range(len(README_COMMANDS)),
                         ids=[c.split()[0] for c in README_COMMANDS])
def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys, i):
    """Every line of the README's CLI block exits 0 on the README's own
    configs; the first writes its report to stdout."""
    monkeypatch.chdir(tmp_path)
    for name, text in README_CONFIGS.items():
        (tmp_path / name).write_text(text)
    args = README_COMMANDS[i].split()
    if i == 0:
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["Q"] == 4
    else:
        run(args, tmp_path / "report")

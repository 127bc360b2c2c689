"""CLI subcommands: reports, determinism, schemas."""

import json

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
    rc = main(args + ["--output", str(out_path)])
    assert rc == 0
    return out_path.read_text()


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


@pytest.mark.parametrize("size, hole, length", [
    (8, (3, 3, 3, 4), 4), (10, (4, 4, 4, 5), 5)], ids=["8x8", "10x10"])
def test_compare_splitting_beyond_the_dimension_cap(tmp_path, size, hole,
                                                    length):
    """64 and 100 spins, solved in sectors of a few states: the ratio at
    h = 0.02 is 4^(L-1), 63.99 at L = 4 and 255.97 at L = 5."""
    cfg = _config(tmp_path, f"one_hole_{size}", size, size, [hole])
    rep = json.loads(run(["compare-splitting", "--config", cfg,
                          "--axis", "y"], tmp_path / "cmp.json"))
    assert rep["path_length"] == length
    assert rep["table"][-1]["h"] == 0.02
    assert rep["fitted_constant"] == pytest.approx(4 ** (length - 1),
                                                   rel=1e-3)


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


def test_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"width": 2, "height": 2,
                               "boundary": "open", "holes": []}))
    rc = main(["degeneracy", "--config", str(bad),
               "--output", str(tmp_path / "x.json")])
    assert rc == 1

"""The benchmark's own tests: the independent reference against dense
eigh for n <= 12, its conventions against the program, and the checks
failing on corrupted outputs.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import spans
import surfcode as sc
import workloads


def _masks(lat):
    return [(s.x, s.z, s.k) for s in lat.stabilizers()]


@pytest.mark.parametrize("w,h", [(3, 3), (4, 3)])
def test_sparse_reference_matches_dense_eigh(w, h):
    """Sparse Kronecker construction == element-by-element construction,
    and its eigsh levels == dense eigh levels (n = 9, 12; the odd tori
    use the corner-form plaquettes, which carry Y factors and a phase)."""
    lat = sc.build_lattice(w, h, "torus")
    n = lat.n_sites
    fields = np.random.default_rng(n).uniform(-0.3, 0.3, (n, 3))
    Hs = ref.spin_hamiltonian(n, 1.0, _masks(lat), fields)
    Hd = ref.dense_spin_hamiltonian(n, 1.0, _masks(lat), fields)
    assert np.max(np.abs(Hs.toarray() - Hd)) < 1e-12
    exact = np.linalg.eigvalsh(Hd)
    assert np.allclose(ref.lowest_levels(Hs, 4), exact[:4], atol=1e-10)


def test_gather_yardstick_matches_sparse_reference():
    """The reference operation of the ED workloads applies the same
    Hamiltonian as the sparse reference (X, Y and Z fields, the odd
    torus's phased plaquettes)."""
    lat = sc.build_lattice(4, 3, "torus")
    n = lat.n_sites
    fields = np.random.default_rng(2).uniform(-0.3, 0.3, (n, 3))
    v = workloads._random_state(np.random.default_rng(4), n)
    want = ref.spin_hamiltonian(n, 1.0, _masks(lat), fields) @ v
    got = ref.GatherMatvec(n, 1.0, _masks(lat), fields)(v)
    assert np.max(np.abs(got - want)) < 1e-12


def test_chain_yardstick_is_one_evolve_step():
    rng = np.random.default_rng(6)
    jxx, jzz = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    hx, hz = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
    a = workloads._random_state(rng, 4)
    want = ref.evolve(ref.chain_matrix(jxx, jzz, hx, hz), a, 0.7)
    assert np.allclose(ref.chain_step(jxx, jzz, hx, hz, a, 0.7), want,
                       atol=1e-12)


def test_reference_agrees_with_program_spectrum():
    lat = sc.build_lattice(4, 3, "torus")
    n = lat.n_sites
    fields = np.random.default_rng(7).uniform(-0.2, 0.2, (n, 3))
    H = sc.assemble(lat, 1.0, sc.FieldMask(fields))
    spec = sc.lowest_eigs(H, 3, tol=1e-10)
    Hd = ref.dense_spin_hamiltonian(n, 1.0, _masks(lat), fields)
    assert np.allclose(spec.eigenvalues, np.linalg.eigvalsh(Hd)[:3],
                       atol=1e-9)


def test_sgate_frame_maps_back_to_plain_eigenvectors():
    """A y-only field puts the program in the S-gate frame; the reference
    maps its eigenvectors and matvecs back to the plain frame."""
    lat = sc.build_lattice(3, 3, "torus")
    n = lat.n_sites
    fields = np.zeros((n, 3))
    fields[:, 1] = np.random.default_rng(3).uniform(0.05, 0.2, n)
    H = sc.assemble(lat, 1.0, sc.FieldMask(fields))
    assert H.frame == "sgate"
    spec = sc.lowest_eigs(H, 2, tol=1e-10)
    Href = ref.spin_hamiltonian(n, 1.0, _masks(lat), fields)
    U = ref.to_plain(spec.eigenvectors, H.frame, n)
    res = np.linalg.norm(Href @ U - U * spec.eigenvalues[None, :], axis=0)
    assert np.all(res < 1e-7)
    v = spec.eigenvectors[:, 0]
    hv = sum(c * sc.spectra.apply_pauli(p, v) for c, p in H.terms)
    assert np.allclose(hv, ref.frame_matvec(Href, H.frame, n, v), atol=1e-12)


def test_readout_reference_matches_program_and_msb_convention():
    basis = np.zeros(4, dtype=complex)
    basis[0b01] = 1.0                    # qubit 0 up, qubit 1 down
    r = ref.readouts(basis)
    assert r["z:0"] == pytest.approx(1.0) and r["z:1"] == pytest.approx(0.0)
    a = workloads._random_state(np.random.default_rng(5), 3)
    got = sc.forward_readouts(sc.PseudoSpinState(a))
    want = ref.readouts(a)
    assert set(got) == set(want)
    assert max(abs(got[k] - want[k]) for k in want) < 1e-12


def test_chain_and_gate_references_match_program():
    rng = np.random.default_rng(11)
    jxx, jzz = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    hx, hz = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    chain = sc.EffectiveChain(3, tuple(jxx), tuple(jzz), tuple(hx), tuple(hz))
    assert np.allclose(chain.matrix(), ref.chain_matrix(jxx, jzz, hx, hz),
                       atol=1e-14)
    a = workloads._random_state(rng, 3)
    got = sc.evolve(chain, sc.PseudoSpinState(a), 0.9).amplitudes
    want = ref.evolve(ref.chain_matrix(jxx, jzz, hx, hz), a, 0.9)
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(sc.rotation_unitary(0.3, 1.1, -0.4),
                       ref.rotation(0.3, 1.1, -0.4), atol=1e-14)


def _corridor_only():
    """The corridor problem of local_field_ed at a looser tolerance."""
    wl = workloads.LocalFieldED()
    p = wl.params(1, None)
    p["problems"] = [dict(p["problems"][0], tol=1e-8)]
    return wl, p


def test_ed_checks_pass_and_flag_a_corrupted_eigenvalue():
    """One traced corridor round: it passes its checks and counts the
    solver's matvecs; corrupted outputs fail theirs."""
    wl, p = _corridor_only()
    t = spans.Tracer("t")
    inp = wl.setup(sc, p, t)
    call = sc.spectra._Apply.__call__
    try:
        wl.instrument(sc, t)
        t.enabled = True
        with t.span("bench.round"):
            outs = wl.round(sc, p, inp, t)
    finally:
        sc.spectra._Apply.__call__ = call
    failed, errors = wl.check(sc, p, inp, outs)
    assert not any(failed.values()), failed
    assert errors["corridor"] < 1e-9
    (_, layers), = t.per_root()
    n = layers["spectra.matvecs"]
    assert n > 10
    assert layers["spectra.dimension"] == n * 2 ** 16
    assert layers["spectra.terms"] == n * len(inp["corridor"][2].terms)

    spec = outs["corridor.lowest_eigs"]
    bad = dict(outs)
    bad["corridor.lowest_eigs"] = dataclasses.replace(
        spec, eigenvalues=spec.eigenvalues + np.array([0.0, 1e-6, 0.0]))
    failed, _ = wl.check(sc, p, inp, bad)
    assert failed["corridor.lowest_eigs"]

    bad = dict(outs)
    bad["corridor.apply_terms"] = outs["corridor.apply_terms"] * (1 + 1e-8)
    failed, _ = wl.check(sc, p, inp, bad)
    assert failed["corridor.apply_terms"]


def _register():
    wl = workloads.RegisterPipeline()
    out = Path(__file__).resolve().parent.parent / "out"
    out.mkdir(exist_ok=True)
    p = wl.params(3, out)
    return wl, p, wl.setup(sc, p, spans.Tracer("t"))


def test_register_checks_flag_corrupted_and_short_outputs():
    wl, p, inp = _register()
    pairs = [sc.logical_pair(inp["lattice"], l)
             for l in range(workloads.N_REG)]
    good = {"measure.forward_readouts":
            sc.forward_readouts(inp["readout_state"]),
            "decoherence.crossover_sweep":
            sc.crossover_sweep(1.0, p["sweep_hx"], 10.0),
            "geometry.logical_pair": pairs}
    failed, _ = wl.check(sc, p, inp, good)
    assert not any(failed[op] for op in good), failed

    r = dict(good["measure.forward_readouts"])
    r["x:0,3;rot3"] += 1e-9
    bad = {"measure.forward_readouts": r,
           "decoherence.crossover_sweep":
           good["decoherence.crossover_sweep"][:-1],
           "geometry.logical_pair": pairs[:-1]}
    failed, _ = wl.check(sc, p, inp, bad)
    assert all(failed[op] for op in bad), failed


def test_failed_operations_are_recorded_not_raised():
    outs = {}
    workloads.attempt(outs, "op", lambda: 1 / 0)
    assert isinstance(outs["op"], workloads.Failure)
    assert "ZeroDivisionError" in outs["op"].error


def test_a_raising_operation_makes_the_run_incorrect():
    wl, p, inp = _register()
    first = {"geometry.ground_degeneracy": sc.ground_degeneracy(inp["lattice"])}
    workloads.attempt(first, "cli.main", lambda: 1 / 0)
    failed, _ = wl.check(sc, p, inp, first)
    later = [workloads.repeat_status(wl, first, first)]
    assert workloads.verdict(first, later, failed) == {
        "correct": False, "attempted": 4, "failed": 2}
    del first["cli.main"]
    failed, _ = wl.check(sc, p, inp, first)
    later = [workloads.repeat_status(wl, first, first)]
    assert workloads.verdict(first, later, failed) == {
        "correct": True, "attempted": 2, "failed": 0}


def test_self_time_excludes_children():
    t = spans.Tracer("w")
    t.enabled = True
    with t.span("bench.round"):
        with t.span("a.f"):
            time.sleep(0.01)
        with t.span("b.g"):
            time.sleep(0.02)
        t.count("a.calls", 3)
    t.count("a.calls")                   # outside every span: dropped
    (name, layers), = t.per_root()
    assert name == "bench.round"
    assert layers["a.f"] >= 0.01 and layers["b.g"] >= 0.02
    assert layers["bench.round"] < 0.01
    assert layers["a.calls"] == 3
    assert [r["parent"] for r in t.records()] == [None, 0, 0]


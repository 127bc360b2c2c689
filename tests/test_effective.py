"""Effective-layer closed forms, chain construction, evolution, gate
synthesis and adiabatic initialization."""

import re

import numpy as np
import pytest
from scipy.linalg import expm

import surfcode as sc
from surfcode.effective import (CHAIN_CAP, AdiabaticSchedule, ChainTemplate,
                                EffectiveChain, EffectiveError,
                                PseudoSpinState, _propagate, adiabatic_init,
                                build_chain, evolve, fermion_splitting,
                                hadamard_gate, pi8_gate, rotation_gate,
                                rotation_unitary, vortex_splitting)


def test_zero_field_zero_couplings(two_hole_lattice):
    """An x field alone leaves the fermion terms zero, a y field alone
    the vortex terms, and no field every term."""
    lat = two_hole_lattice
    for h, zero in (((0, 0, 0), ("jxx", "jzz", "hx", "hz")),
                    ((0.3, 0, 0), ("jxx", "hx")),
                    ((0, 0.3, 0), ("jzz", "hz"))):
        chain = build_chain(lat, 1.0, sc.field_mask(lat, {"type": "all"}, h))
        assert all(v == 0.0 for name in zero for v in getattr(chain, name))
        assert all(v != 0.0 for name in {"jxx", "jzz", "hx", "hz"} - set(zero)
                   for v in getattr(chain, name))


def test_single_qubit_field_values(one_hole_lattice):
    lat = one_hole_lattice          # string of 2 sites to the port, 4-loop
    # hy = 0.1, fermion length 2: delta_E = 2*(0.01)/(-8) = -2.5e-3
    chain = build_chain(lat, 1.0, sc.field_mask(
        lat, {"type": "corridor", "hole": 0}, (0, 0.1, 0)))
    assert chain.hx[0] == pytest.approx(-1.25e-3, rel=1e-12)
    # hx = 0.1, loop length 4: eps = 2e-4/(-64) = -3.125e-6
    chain = build_chain(lat, 1.0, sc.field_mask(
        lat, {"type": "annulus", "hole": 0}, (0.1, 0, 0)))
    assert chain.hz[0] == pytest.approx(-1.5625e-6, rel=1e-12)


def test_pair_coupling_values(two_hole_lattice):
    lat = two_hole_lattice          # pair string of 2 sites, pair 8-loop
    chain = build_chain(lat, 1.0, sc.field_mask(
        lat, {"type": "corridor", "from": 0, "to": 1}, (0, 0.1, 0)))
    assert chain.jxx[0] == pytest.approx(-1.25e-3, rel=1e-12)
    # hx = 0.1, loop length 8: Jzz = 1e-8/(-4)^7
    chain = build_chain(lat, 1.0, sc.field_mask(
        lat, {"type": "annulus", "from": 0, "to": 1}, (0.1, 0, 0)))
    assert chain.jzz[0] == pytest.approx(-6.103515625e-13, rel=1e-12)
    assert chain.jxx[0] == 0.0


@pytest.mark.parametrize("w,h,holes", [
    (4, 10, [(1, 1, 2, 1), (1, 5, 2, 5)]),
    (9, 4, [(1, 1, 1, 2), (5, 1, 5, 2)]),
])
def test_separated_dominoes_read_the_field_on_their_whole_pair_loop(w, h,
                                                                    holes):
    """Dominoes 4 cells apart are enclosed by a 12-hop loop that leaves
    their two annuli: hx on the annuli alone gives no Jzz, hx on every
    site the 12-loop's closed form."""
    lat = sc.build_lattice(w, h, "open", [sc.HoleSpec(*c) for c in holes])
    annuli = sc.FieldMask.zeros(lat)
    for l in range(2):
        annuli = annuli + sc.field_mask(lat, {"type": "annulus", "hole": l},
                                        (0.1, 0, 0))
    assert build_chain(lat, 1.0, annuli).jzz == (0.0,)
    chain = build_chain(lat, 1.0,
                        sc.field_mask(lat, {"type": "all"}, (0.1, 0, 0)))
    assert chain.jzz == (vortex_splitting(1.0, 0.1, 12) / 2,)


def test_sign_alternates_with_length_parity():
    for L in range(1, 7):
        s = fermion_splitting(1.0, 0.1, L)
        assert np.sign(s) == (-1.0) ** (L - 1)
        v = vortex_splitting(1.0, 0.1, L)
        assert np.sign(v) == (-1.0) ** (L - 1)


def test_build_chain_structures(one_hole_lattice, two_hole_lattice):
    # all fields zero -> all coefficients zero
    lat = two_hole_lattice
    chain = build_chain(lat, 1.0, sc.FieldMask.zeros(lat))
    assert chain.n == 2
    assert all(v == 0.0 for v in chain.jxx + chain.jzz + chain.hx + chain.hz)

    # y-field along the full string line: Jxx and both hx_tilde populated
    mask = (sc.field_mask(lat, {"type": "corridor", "hole": 1}, (0, 0.1, 0)))
    chain = build_chain(lat, 1.0, mask)
    assert chain.jxx[0] != 0.0
    assert chain.hx[0] != 0.0 and chain.hx[1] != 0.0
    assert chain.jzz[0] == 0.0 and all(v == 0.0 for v in chain.hz)

    # x-field on one hole ring only: that hz_tilde alone
    mask = sc.field_mask(lat, {"type": "annulus", "hole": 0}, (0.2, 0, 0))
    chain = build_chain(lat, 1.0, mask)
    assert chain.hz[0] != 0.0 and chain.hz[1] == 0.0
    assert chain.jxx[0] == 0.0


def test_build_chain_three_holes_uniform_fields():
    lat = sc.build_lattice(4, 7, "open", [sc.HoleSpec(1, 1, 2, 1),
                                          sc.HoleSpec(1, 3, 2, 3),
                                          sc.HoleSpec(1, 5, 2, 5)])
    mask = sc.field_mask(lat, {"type": "all"}, (0.1, 0.1, 0))
    chain = build_chain(lat, 1.0, mask)
    assert chain.n == 3
    assert all(v != 0.0 for v in chain.jxx) and len(chain.jxx) == 2
    assert all(v != 0.0 for v in chain.jzz)
    assert all(v != 0.0 for v in chain.hx) and len(chain.hx) == 3
    assert all(v != 0.0 for v in chain.hz)


def test_build_chain_rejects_punctures(puncture_lattice):
    with pytest.raises(EffectiveError):
        build_chain(puncture_lattice, 1.0,
                    sc.FieldMask.zeros(puncture_lattice))


def test_build_chain_rejects_a_mask_of_another_lattice(one_hole_lattice,
                                                       two_hole_lattice):
    with pytest.raises(sc.LatticeError,
                       match="20 rows; the lattice has 16 sites"):
        build_chain(one_hole_lattice, 1.0,
                    sc.FieldMask.zeros(two_hole_lattice))


def test_chain_three_holes_shape():
    chain = EffectiveChain(3, (0.1, 0.2), (0.0, 0.0),
                           (0.01, 0.02, 0.03), (0.0, 0.0, 0.0))
    assert len(chain.jxx) == 2 and len(chain.hx) == 3
    assert chain.matrix().shape == (8, 8)


SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def kron_chain_matrix(ch):
    """Dense chain Hamiltonian from Kronecker products, qubit 0 leftmost
    (the most significant bit)."""
    def kron_at(op, l):
        mats = [np.eye(2, dtype=complex)] * ch.n
        mats[l] = op
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    H = np.zeros((2 ** ch.n, 2 ** ch.n), dtype=complex)
    for l in range(ch.n - 1):
        H += ch.jxx[l] * (kron_at(SX, l) @ kron_at(SX, l + 1))
        H += ch.jzz[l] * (kron_at(SZ, l) @ kron_at(SZ, l + 1))
    for l in range(ch.n):
        H += ch.hx[l] * kron_at(SX, l) + ch.hz[l] * kron_at(SZ, l)
    return H


def random_chain(rng, n, scale=1.0):
    """Random coefficients, a third of them zero."""
    def coeffs(k):
        v = rng.uniform(-scale, scale, k) * (rng.random(k) > 1 / 3)
        return tuple(float(x) for x in v)
    return EffectiveChain(n, coeffs(n - 1), coeffs(n - 1), coeffs(n),
                          coeffs(n))


def random_state(rng, n):
    a = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return PseudoSpinState(a / np.linalg.norm(a))


def test_matrix_matches_kronecker_build():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            ch = random_chain(rng, n)
            assert np.max(np.abs(ch.matrix() - kron_chain_matrix(ch))) < 1e-15


def test_evolve_matches_expm_at_large_norm_times_duration():
    # |H| t ~ 100: the propagator takes ceil(t sum|c|) substeps
    rng = np.random.default_rng(22)
    for n in (2, 4, 5):
        ch = random_chain(rng, n, scale=0.5)
        st = random_state(rng, n)
        want = expm(-50j * kron_chain_matrix(ch)) @ st.amplitudes
        assert np.max(np.abs(evolve(ch, st, 50.0).amplitudes - want)) < 1e-10


def _eigh_per_step_ramp(template, schedule, start, g=1.0):
    """The ramp with a Kronecker matrix and a full eigh on every step."""
    T, steps = schedule.T_total, schedule.steps
    dt = T / steps
    amps, fids = start, []
    for i in range(steps):
        H = kron_chain_matrix(
            template.at_field(g, schedule.h(-T + (i + 0.5) * dt)))
        w, V = np.linalg.eigh(H)
        amps = V @ (np.exp(-1j * w * dt) * (V.conj().T @ amps))
        fids.append(abs(amps[0]) ** 2)
    return amps, fids


def test_adiabatic_init_matches_eigh_per_step_reference():
    n = 3
    base = EffectiveChain(n, (0.02, -0.01), (0.005, 0.0), (0.03, 0.0, -0.02),
                          (0.01, 0.0, 0.0))
    tmpl = ChainTemplate(base, (4, 4, 6), (8, 10))
    sched = AdiabaticSchedule(0.8, 20.0, 300.0, 60)
    start = random_state(np.random.default_rng(23), n)
    trace = []
    st, fid = adiabatic_init(tmpl, sched, start_state=start, trace=trace)
    want, fids = _eigh_per_step_ramp(tmpl, sched, start.amplitudes)
    assert np.max(np.abs(st.amplitudes - want)) < 1e-10
    assert np.max(np.abs(np.array([f for _, _, f in trace]) - fids)) < 1e-10
    # default start: the ground state of the first chain, up to a phase
    st, fid = adiabatic_init(tmpl, sched)
    H0 = kron_chain_matrix(tmpl.at_field(1.0, sched.h(-300.0)))
    want, _ = _eigh_per_step_ramp(tmpl, sched, np.linalg.eigh(H0)[1][:, 0])
    assert abs(abs(np.vdot(want, st.amplitudes)) - 1.0) < 1e-10
    assert fid == pytest.approx(abs(want[0]) ** 2, abs=1e-10)


def test_ramp_with_a_z_coefficient_that_is_zero_only_at_the_start():
    """hz_0 = -eps(h(-T))/2 cancels the ramp's share at h(-T), so the
    first chain drops that term; every later step needs it back."""
    n, g = 3, 1.0
    sched = AdiabaticSchedule(0.8, 20.0, 300.0, 60)
    hz0 = -vortex_splitting(g, sched.h(-300.0), 4) / 2.0
    base = EffectiveChain(n, (0.02, -0.01), (0.005, 0.0), (0.03, 0.01, -0.02),
                          (hz0, 0.01, 0.0))
    tmpl = ChainTemplate(base, (4, 4, 6), (8, 10))
    assert tmpl.at_field(g, sched.h(-300.0)).hz[0] == 0.0
    assert tmpl.at_field(g, sched.h(-297.5)).hz[0] != 0.0
    trace = []
    st, fid = adiabatic_init(tmpl, sched, trace=trace)
    H0 = kron_chain_matrix(tmpl.at_field(g, sched.h(-300.0)))
    w, V = np.linalg.eigh(H0)
    assert w[1] - w[0] > 1e-3                  # a unique start state
    want, fids = _eigh_per_step_ramp(tmpl, sched, V[:, 0], g)
    assert abs(abs(np.vdot(want, st.amplitudes)) - 1.0) < 1e-10
    assert np.max(np.abs(np.array([f for _, _, f in trace]) - fids)) < 1e-10
    assert fid == pytest.approx(abs(want[0]) ** 2, abs=1e-10)


def test_ramp_refuses_a_step_that_drifts_in_norm(monkeypatch):
    tmpl = _template(3, jxx=1e-3, hx=2e-3)
    sched = AdiabaticSchedule(0.5, 50.0, 600.0, 5)
    adiabatic_init(tmpl, sched)
    monkeypatch.setattr(sc.effective, "_propagate",
                        lambda *a: (1.0 + 1e-6) * _propagate(*a))
    with pytest.raises(EffectiveError, match="norm drift 1.00e-06"):
        adiabatic_init(tmpl, sched)


def test_propagate_matches_expm():
    """At t = 0, at negative t, at |H| t ~ 100 and with H = 0, directly
    and through ``evolve``."""
    rng = np.random.default_rng(31)
    for n in (1, 3, 4):
        ch = random_chain(rng, n, scale=0.5)
        H = kron_chain_matrix(ch)
        bound = sum(abs(c) for c, _ in ch.terms())
        assert bound > 0.0
        v = random_state(rng, n)
        for t in (0.0, -2.5, 100.0 / bound, -100.0 / bound):
            want = expm(-1j * t * H) @ v.amplitudes
            got = _propagate(lambda u: H @ u, bound, v.amplitudes, t)
            assert np.max(np.abs(got - want)) < 1e-10
            assert np.max(np.abs(evolve(ch, v, t).amplitudes - want)) < 1e-10
    zero = EffectiveChain(2, (0.0,), (0.0,), (0.0, 0.0), (0.0, 0.0))
    v = random_state(rng, 2)
    for t in (0.0, -3.0, 1e3):
        assert np.array_equal(_propagate(lambda u: 0.0 * u, 0.0,
                                         v.amplitudes, t), v.amplitudes)
        assert np.max(np.abs(evolve(zero, v, t).amplitudes
                             - v.amplitudes)) < 1e-15


def test_ramp_n10_100_steps_keeps_norm():
    n = 10
    tmpl = _template(n, jxx=1e-3, hx=2e-3)
    trace = []
    st, fid = adiabatic_init(tmpl, AdiabaticSchedule(0.5, 50.0, 600.0, 100),
                             trace=trace)
    assert len(trace) == 100
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-10
    assert fid == pytest.approx(abs(st.amplitudes[0]) ** 2, abs=1e-12)
    assert trace[-1][2] == fid and 0.0 <= fid <= 1.0


def test_evolve_identity_at_zero_duration():
    ch = EffectiveChain(2, (0.1,), (0.05,), (0.01, 0.01), (0.0, 0.0))
    rng = np.random.default_rng(4)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    st = PseudoSpinState(a / np.linalg.norm(a))
    out = evolve(ch, st, 0.0)
    assert np.allclose(out.amplitudes, st.amplitudes)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_evolve_refuses_a_duration_that_is_not_finite(t):
    """NaN escaped from the substep count as a raw ValueError and an
    infinite duration as an OverflowError."""
    ch = EffectiveChain(2, (0.1,), (0.05,), (0.01, 0.01), (0.0, 0.0))
    with pytest.raises(EffectiveError,
                       match=f"^duration must be finite, got {t}$"):
        evolve(ch, PseudoSpinState.all_up(2), t)


def test_evolve_diagonal_phase():
    hz = 2e-3
    ch = EffectiveChain(1, (), (), (0.0,), (hz,))
    st = PseudoSpinState(np.array([1.0, 1.0]) / np.sqrt(2))
    t = 123.0
    out = evolve(ch, st, t)
    rel = out.amplitudes[1] / out.amplitudes[0]
    assert abs(rel - np.exp(2j * hz * t)) < 1e-12


def test_evolve_conserves_energy_and_norm():
    ch = EffectiveChain(3, (0.3, 0.2), (0.1, 0.1),
                        (0.05, 0.02, 0.07), (0.1, 0.0, 0.04))
    rng = np.random.default_rng(8)
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    st = PseudoSpinState(a / np.linalg.norm(a))
    H = ch.matrix()
    e0 = np.vdot(st.amplitudes, H @ st.amplitudes).real
    for t in (1.0, 10.0, 100.0):
        out = evolve(ch, st, t)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
        e = np.vdot(out.amplitudes, H @ out.amplitudes).real
        assert abs(e - e0) < 1e-10


# -- gates ----------------------------------------------------------------


def test_identity_gate():
    sched, U = rotation_gate(0, 0.0, 0.0, 0.0, 1e-3, 1e-3)
    assert len(sched.pulses) == 0
    assert np.allclose(U, np.eye(2))
    assert np.allclose(sched.unitary(), np.eye(2))


def test_pi8_gate_schedule():
    sched, U = pi8_gate(2e-3, 3e-3)
    assert [p.axis for p in sched.pulses] == ["x", "z"]
    assert sched.pulses[0].duration == pytest.approx(np.pi / 8 / 2e-3)
    assert sched.pulses[1].duration == pytest.approx(np.pi / 8 / 3e-3)
    assert np.max(np.abs(sched.unitary() - U)) < 1e-12


def test_hadamard_class_gate():
    sched, U = hadamard_gate(1e-3, 1e-3)
    assert np.max(np.abs(sched.unitary() - U)) < 1e-12
    expect = rotation_unitary(7 * np.pi / 4, np.pi / 4, np.pi / 4)
    assert np.allclose(U, expect)
    # it maps |up> to an equal superposition
    out = U @ np.array([1.0, 0.0])
    assert np.allclose(np.abs(out), [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_gate_durations_nonnegative_and_product_exact():
    """Angles in [0, 2 pi) with positive drives keep angle / drive; angles
    in (-4 pi, 4 pi) and drives of either sign give durations >= 0 and the
    same unitary (a negative angle gave a negative duration)."""
    rng = np.random.default_rng(77)
    for _ in range(50):
        th, ph, ga = rng.uniform(0, 2 * np.pi, 3)
        sched, U = rotation_gate(0, th, ph, ga, 1.3e-3, 0.9e-3)
        assert [p.duration for p in sched.pulses] == [
            th / 0.9e-3, ph / 1.3e-3, ga / 0.9e-3]
        assert np.max(np.abs(sched.unitary() - U)) < 1e-12
        assert np.max(np.abs(U @ U.conj().T - np.eye(2))) < 1e-12
    for _ in range(200):
        angles = rng.uniform(-4 * np.pi, 4 * np.pi, 3)
        drives = rng.choice([-1, 1], 2) * rng.uniform(5e-4, 2e-3, 2)
        sched, U = rotation_gate(0, *angles, *drives)
        assert len(sched.pulses) == 3
        assert all(p.duration >= 0 for p in sched.pulses)
        assert np.max(np.abs(sched.unitary() - U)) < 1e-12
    for angle in (-0.3, -2 * np.pi, 2 * np.pi, -1e-300):
        sched, _ = rotation_gate(0, angle, 0.0, 0.0, -1e-3, -1e-3)
        assert all(p.duration >= 0 for p in sched.pulses)
        assert len(sched.pulses) == (angle == -0.3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_rejects_non_finite_amplitudes(bad):
    """A NaN passed the norm check, since abs(nan - 1) > tol is False."""
    with pytest.raises(EffectiveError, match="must be finite"):
        PseudoSpinState(np.array([bad, 1.0]))


def test_gate_zero_drive_rejected():
    with pytest.raises(EffectiveError):
        rotation_gate(0, 0.1, 0.0, 0.0, 1e-3, 0.0)


@pytest.mark.parametrize("slot", range(5))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gate_rejects_non_finite_angles_and_drives(slot, bad):
    """theta, phi, gamma, hx_tilde, hz_tilde: a NaN angle gave NaN
    pulses, an infinite drive a zero-length pulse and a NaN error."""
    args = [0.3, 0.2, 0.1, 1e-3, 1e-3]
    args[slot] = bad
    with pytest.raises(EffectiveError, match="must be finite"):
        rotation_gate(0, *args)


# -- adiabatic initialization ------------------------------------------------


def _template(n=2, jxx=1e-5, hx=2e-5):
    base = EffectiveChain(n, (jxx,) * (n - 1), (0.0,) * (n - 1),
                          (hx,) * n, (0.0,) * n)
    return ChainTemplate(base, (4,) * n, (8,) * (n - 1))


def test_default_start_state_above_the_dense_cap():
    """At n = 11 the chain's ground state comes from LOBPCG (2^11 states
    exceed SECTOR_DENSE_CAP); a one-step ramp from it equals the same
    step from the dense-eigh ground state up to a phase."""
    n = 11
    assert 2 ** n > sc.spectra.SECTOR_DENSE_CAP
    tmpl = _template(n, jxx=1e-3, hx=5e-3)
    sched = AdiabaticSchedule(0.5, 50.0, 600.0, 1)
    st, _ = adiabatic_init(tmpl, sched)
    v0 = np.linalg.eigh(tmpl.at_field(1.0, sched.h(-600.0)).matrix())[1][:, 0]
    want = evolve(tmpl.at_field(1.0, sched.h(-300.0)), PseudoSpinState(v0),
                  600.0).amplitudes
    phase = np.vdot(want, st.amplitudes)
    phase /= abs(phase)
    assert np.max(np.abs(st.amplitudes - phase * want)) <= 1e-10


def test_ramp_start_solve_computes_one_pair(monkeypatch):
    """The register ramp's start state is ``lowest_eigs(H, 1)`` on 256
    states, solved without a full ``np.linalg.eigh``: its level equals
    the dense one to 1e-13 of the norm bound, its residual under the
    gate."""
    sched = AdiabaticSchedule(0.5, 50.0, 600.0, 40)
    terms = _template(8).at_field(1.0, sched.h(-600.0)).terms()
    H = sc.SpinHamiltonian(8, tuple(terms), "plain", 0)
    M = sc.spectra.pauli_sum_matrix(H.terms, H.n).toarray()
    want = np.linalg.eigvalsh(M)[0]

    def refuse(*args, **kwargs):
        raise AssertionError("full eigh for one level")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    spec = sc.lowest_eigs(H, 1)
    assert spec.sector_dims == (256,)
    assert abs(spec.eigenvalues[0] - want) <= 1e-13 * H.norm_bound
    v = spec.eigenvectors[:, 0]
    res = np.linalg.norm(M @ v - spec.eigenvalues[0] * v)
    assert res <= spec.sectors.gate
    assert np.isclose(spec.residual_norms[0], res, rtol=0,
                      atol=1e-14 * H.norm_bound)


def test_template_needs_a_loop_per_hole_and_pair():
    """A template's loop lengths line up with the chain's hz and jzz, and
    the ramp steps read the same ``jzz + hz`` as ``at_field``."""
    base = EffectiveChain(3, (0.02, -0.01), (0.005, 0.0), (0.03, 0.0, -0.02),
                          (0.01, 0.0, 0.0))
    for loops, pairs in (((4, 4), (8, 10)), ((4, 4, 6), (8,)),
                         ((4, 4, 6, 6), (8, 10))):
        with pytest.raises(EffectiveError, match="pair loops and n hole"):
            ChainTemplate(base, loops, pairs)
    tmpl = ChainTemplate(base, (4, 4, 6), (8, 10))
    chain = tmpl.at_field(1.0, 0.3)
    assert tmpl._z_coefficients(1.0, 0.3) == chain.jzz + chain.hz
    assert chain.jzz[0] == 0.005 + vortex_splitting(1.0, 0.3, 8) / 2.0
    assert chain.hz[2] == vortex_splitting(1.0, 0.3, 6) / 2.0


def test_adiabatic_trivial_cases():
    tmpl = ChainTemplate(EffectiveChain(2, (0.0,), (0.0,), (0.0, 0.0),
                                        (0.0, 0.0)), (4, 4), (8,))
    sched = AdiabaticSchedule(0.0, 10.0, 50.0, 20)
    st, fid = adiabatic_init(tmpl, sched,
                             start_state=PseudoSpinState.all_up(2))
    assert fid == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("slot", range(3))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adiabatic_schedule_rejects_non_finite_values(slot, bad):
    """h0, t0, T_total: a NaN passed every sign check and failed later as
    a chain coefficient."""
    args = [0.5, 50.0, 600.0]
    args[slot] = bad
    with pytest.raises(EffectiveError, match="must be finite"):
        AdiabaticSchedule(*args, 10)


def test_adiabatic_schedule_shape():
    sched = AdiabaticSchedule(0.5, 50.0, 600.0, 10)
    assert sched.h(-600.0) > 0.9 * sched.h0 * np.exp(-50 / 600)
    assert sched.h(-1e-6) < 1e-10
    ts = np.linspace(-600, -1e-3, 40)
    hs = [sched.h(t) for t in ts]
    assert all(hs[i] >= hs[i + 1] for i in range(len(hs) - 1))


def test_adiabatic_quench_vs_slow():
    tmpl = _template()
    _, fid_fast = adiabatic_init(tmpl, AdiabaticSchedule(0.5, 50.0, 20.0, 100))
    _, fid_slow = adiabatic_init(tmpl, AdiabaticSchedule(0.5, 50.0, 600.0, 400))
    assert fid_fast < 0.5
    assert fid_slow > 0.99
    assert fid_fast < fid_slow


def _chain(n):
    return EffectiveChain(n, (0.0,) * (n - 1), (0.0,) * (n - 1),
                          (0.0,) * n, (0.0,) * n)


def _uneven_corridor_field():
    """hy = 0.1 on the corridor, 0.15 on its first site."""
    lat = sc.build_lattice(4, 4, "open", [sc.HoleSpec(1, 1, 1, 2)])
    corridor = sc.field_mask(lat, {"type": "corridor", "hole": 0},
                             (0, 0.1, 0))
    first = int(np.flatnonzero(corridor.values[:, 1])[0])
    return build_chain(lat, 1.0, corridor + sc.field_mask(
        lat, {"type": "sites", "sites": [first]}, (0, 0.05, 0)))


def _one_hole(g):
    lat = sc.build_lattice(4, 4, "open", [sc.HoleSpec(1, 1, 1, 2)])
    return build_chain(lat, g, sc.FieldMask.zeros(lat))


SCHEDULE = AdiabaticSchedule(0.5, 50.0, 100.0, 4)


@pytest.mark.parametrize("call, message", [
    (lambda: fermion_splitting(1.0, 0.1, 0), "path length must be >= 1"),
    (lambda: vortex_splitting(1.0, 0.1, 0), "loop length must be >= 1"),
    (lambda: _chain(0), "chain needs n >= 1"),
    (lambda: EffectiveChain(2, (), (), (0.0,) * 2, (0.0,) * 2),
     "need n-1 pair couplings"),
    (lambda: EffectiveChain(2, (0.0,), (0.0,), (0.0,), (0.0,)),
     "need n on-site fields"),
    (lambda: EffectiveChain(1, (), (), (np.nan,), (0.0,)),
     "chain coefficients must be finite"),
    (_uneven_corridor_field, "field must be uniform along a tunneling path"),
    (lambda: build_chain(sc.build_lattice(4, 4, "open"), 1.0,
                         sc.FieldMask(np.zeros((16, 3)))),
     "chain needs at least one hole"),
    (lambda: _one_hole(0.0), "g must be positive"),
    (lambda: PseudoSpinState(np.ones(3) / np.sqrt(3)),
     "amplitude count must be a power of two"),
    (lambda: PseudoSpinState(np.ones(2)),
     f"state norm {np.sqrt(2)} is not 1"),
    (lambda: evolve(_chain(CHAIN_CAP + 1), PseudoSpinState.all_up(1), 1.0),
     f"chain size exceeds cap {CHAIN_CAP}"),
    (lambda: evolve(_chain(2), PseudoSpinState.all_up(1), 1.0),
     "state size does not match chain"),
    (lambda: AdiabaticSchedule(0.5, 50.0, 0.0, 4),
     "invalid adiabatic schedule"),
    (lambda: adiabatic_init(_template(CHAIN_CAP + 1), SCHEDULE),
     f"chain size exceeds cap {CHAIN_CAP}"),
    (lambda: adiabatic_init(_template(2), SCHEDULE,
                            PseudoSpinState.all_up(1)),
     "start state size does not match template"),
], ids=["fermion-length", "vortex-length", "chain-n", "pair-couplings",
        "fields", "finite", "uniform", "no-hole", "g", "power-of-two", "norm",
        "evolve-cap", "evolve-size", "schedule", "init-cap", "init-size"])
def test_each_check_refuses_with_its_reason(call, message):
    with pytest.raises(EffectiveError, match=f"^{re.escape(message)}$"):
        call()


def test_ramp_field_is_off_from_t_zero():
    assert SCHEDULE.h(0.0) == SCHEDULE.h(5.0) == 0.0
    assert 0.0 < SCHEDULE.h(-100.0) < 0.5

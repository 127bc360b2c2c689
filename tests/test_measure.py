"""Interference amplitudes, register readouts, tomography planning and
round-trip reconstruction."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcode.effective import CHAIN_CAP, PseudoSpinState
from surfcode.measure import (EntangledState, InterferencePaths,
                              MeasureError, Observable, _misfit,
                              _misfit_jacobian, fermion_readout,
                              forward_readouts, interference_amplitude,
                              measure_observable, parameter_error,
                              quarter_turn, reconstruct, sample_readouts,
                              tomography_plan, vortex_readout)
from surfcode.spectra import pauli_sum_matrix


def rand_state(rng, n):
    a = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return PseudoSpinState(a / np.linalg.norm(a))


# -- interference ---------------------------------------------------------


def test_two_path_dichotomy():
    t = 0.37
    assert interference_amplitude(
        InterferencePaths.symmetric(t, +1)) == pytest.approx(4 * t * t)
    assert interference_amplitude(
        InterferencePaths.symmetric(t, -1)) == pytest.approx(0.0)


def test_single_path_no_interference():
    for eps in (+1, -1):
        p = InterferencePaths(0.5, 0.0, eps)
        assert interference_amplitude(p) == pytest.approx(0.25)


def test_interference_symmetric_in_paths():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        for eps in (+1, -1):
            t1 = interference_amplitude(InterferencePaths(a, b, eps))
            t2 = interference_amplitude(InterferencePaths(b, a, eps))
            assert t1 == pytest.approx(t2)


def test_flux_sign_validation():
    with pytest.raises(MeasureError):
        InterferencePaths(1.0, 1.0, 0)


# -- readouts ----------------------------------------------------------------


def test_vortex_readout_eigenstate():
    assert vortex_readout(PseudoSpinState.all_up(1), [0]) == pytest.approx(1.0)


def test_vortex_readout_alpha_squared():
    alpha, beta, phi = 0.6, 0.8, 1.1
    st_ = PseudoSpinState(np.array([alpha, beta * np.exp(1j * phi)]))
    assert vortex_readout(st_, [0]) == pytest.approx(alpha ** 2)


def test_vortex_readout_bell_pair():
    bell = PseudoSpinState(np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert vortex_readout(bell, [0, 1]) == pytest.approx(1.0)
    assert vortex_readout(bell, [0]) == pytest.approx(0.5)


def test_fermion_readout_values():
    # alpha=1: 1/2; equal superposition phi=0: 1; phi=pi: 0
    assert fermion_readout(PseudoSpinState.all_up(1), [0]) == pytest.approx(0.5)
    plus = PseudoSpinState(np.array([1, 1]) / np.sqrt(2))
    minus = PseudoSpinState(np.array([1, -1]) / np.sqrt(2))
    assert fermion_readout(plus, [0]) == pytest.approx(1.0)
    assert fermion_readout(minus, [0]) == pytest.approx(0.0)


def test_fermion_readout_general_formula():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.uniform(0, 1)
        b = np.sqrt(1 - a * a)
        phi = rng.uniform(-np.pi, np.pi)
        st_ = PseudoSpinState(np.array([a, b * np.exp(1j * phi)]))
        assert fermion_readout(st_, [0]) == pytest.approx(
            0.5 + a * b * np.cos(phi), abs=1e-12)


def test_empty_subset_rejected():
    with pytest.raises(MeasureError):
        vortex_readout(PseudoSpinState.all_up(2), [])


def test_complement_sums_to_one():
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = rand_state(rng, 2)
        for sub in ([0], [1], [0, 1]):
            p = vortex_readout(s, sub)
            # the complementary projector has probability 1 - p exactly
            assert p + (1.0 - p) == 1.0
            assert 0.0 <= p <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10 ** 6))
def test_probabilities_in_unit_interval(n, seed):
    rng = np.random.default_rng(seed)
    s = rand_state(rng, n)
    plan = tomography_plan(n)
    for key, p in forward_readouts(s, plan).items():
        assert -1e-12 <= p <= 1 + 1e-12


def test_quarter_turn_advances_phase():
    st_ = PseudoSpinState(np.array([1, 1]) / np.sqrt(2))
    rot = quarter_turn(st_, 0)
    rel = rot.amplitudes[1] / rot.amplitudes[0]
    assert abs(rel - 1j) < 1e-12


def kron_on(n, ops):
    """ops[q] on qubit q, identity elsewhere; qubit 0 is leftmost."""
    return reduce(np.kron, [ops.get(q, np.eye(2)) for q in range(n)])


QUARTER = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
PAULI = {"x": np.array([[0.0, 1.0], [1.0, 0.0]]), "z": np.diag([1.0, -1.0])}


def test_readouts_match_kronecker_parities():
    rng = np.random.default_rng(31)
    n = 3
    plan = tomography_plan(n)
    for _ in range(5):
        s = rand_state(rng, n)
        got = forward_readouts(s, plan)
        assert len(got) == plan.size()
        for ob in plan.observables:
            v = s.amplitudes
            for q in ob.rotations:
                v = kron_on(n, {q: QUARTER}) @ v
            P = kron_on(n, {q: PAULI[ob.basis] for q in ob.subset})
            want = 0.5 * (1.0 + np.vdot(v, P @ v).real)
            assert abs(got[ob.key()] - want) < 1e-12, ob.key()


def test_quarter_turn_matches_kronecker_on_each_qubit():
    rng = np.random.default_rng(32)
    n = 3
    s = rand_state(rng, n)
    for q in range(n):
        want = kron_on(n, {q: QUARTER}) @ s.amplitudes
        assert np.max(np.abs(quarter_turn(s, q).amplitudes - want)) < 1e-12


def rotated_operator(n, ob):
    """U^dagger P U with U the observable's quarter turns in order."""
    U = np.eye(2 ** n)
    for q in ob.rotations:
        U = kron_on(n, {q: QUARTER}) @ U
    P = kron_on(n, {q: PAULI[ob.basis] for q in ob.subset})
    return U.conj().T @ P @ U


@pytest.mark.parametrize("n", [1, 2, 3])
def test_folded_strings_match_kronecker_rotations(n):
    hand = [Observable("x", (0,), (0, 0))]             # two turns on one qubit
    if n >= 2:
        hand += [Observable("x", (0, 1), (0, 1)),      # two turns inside
                 Observable("x", (1,), (0,)),          # one turn outside
                 Observable("z", (0, 1), (1,))]
    if n == 3:
        hand += [Observable("x", (0, 2), (1, 2, 0)),
                 Observable("x", (2,), (2, 2, 2))]
    for ob in tomography_plan(n).observables + tuple(hand):
        got = pauli_sum_matrix([(1.0, ob.pauli(n))], n).toarray()
        assert np.max(np.abs(got - rotated_operator(n, ob))) < 1e-12, ob


def test_rotation_qubits_and_readout_keys_are_validated():
    up = PseudoSpinState.all_up(1)
    for l in (-1, 1):
        with pytest.raises(MeasureError, match=rf"qubits \({l},\) outside"):
            quarter_turn(up, l)
        with pytest.raises(MeasureError, match=rf"qubits \({l},\) outside"):
            measure_observable(up, Observable("x", (0,), (l,)))
    with pytest.raises(MeasureError, match=r"qubits \(1,\) outside"):
        fermion_readout(up, [1])
    with pytest.raises(MeasureError, match="basis 'y'"):
        measure_observable(up, Observable("y", (0,)))
    with pytest.raises(MeasureError, match="'z:0'"):
        reconstruct({}, 1)
    ro = forward_readouts(PseudoSpinState.all_up(2))
    del ro["x:0,1;rot1"]
    with pytest.raises(MeasureError, match="'x:0,1;rot1'"):
        reconstruct(ro, 2)


# -- plan ------------------------------------------------------------------


def test_plan_parameter_counts():
    assert tomography_plan(1).parameter_count == 2
    assert tomography_plan(2).parameter_count == 6
    plan4 = tomography_plan(4)
    assert plan4.parameter_count == 30
    assert not plan4.complete          # flagged: no known scheme for n > 3
    assert tomography_plan(3).complete


def test_plan_rejects_registers_above_the_chain_cap():
    with pytest.raises(MeasureError, match=f"n <= {CHAIN_CAP}"):
        tomography_plan(CHAIN_CAP + 1)
    with pytest.raises(MeasureError):
        tomography_plan(0)


def test_plan_covers_all_subsets():
    plan = tomography_plan(2)
    keys = {ob.key() for ob in plan.observables}
    assert {"z:0", "z:1", "z:0,1", "x:0", "x:1", "x:0,1"} <= keys
    assert any(ob.rotations for ob in plan.observables)


# -- reconstruction -----------------------------------------------------------


def test_reconstruct_trivial_up():
    est = reconstruct(forward_readouts(PseudoSpinState.all_up(1)), 1)
    assert est.alphas[0] == pytest.approx(1.0)
    assert est.alphas[1] == pytest.approx(0.0, abs=1e-8)


def test_reconstruct_quarter_phase():
    st_ = PseudoSpinState(np.array([1, 1j]) / np.sqrt(2))
    est = reconstruct(forward_readouts(st_), 1)
    assert est.alphas[0] == pytest.approx(1 / np.sqrt(2))
    assert est.phis[1] == pytest.approx(np.pi / 2)


@pytest.mark.parametrize("n,count,seed", [(1, 25, 101), (2, 25, 202)])
def test_roundtrip_random_states(n, count, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        s = rand_state(rng, n)
        est = reconstruct(forward_readouts(s), n)
        truth = EntangledState.from_state(s)
        worst = max(worst, parameter_error(truth, est))
    assert worst <= 1e-6


def closed_form_1(readouts):
    """Single-qubit reconstruction by inverting the three readouts."""
    pz, px, pq = (readouts[k] for k in ("z:0", "x:0", "x:0;rot0"))
    alpha = np.sqrt(np.clip(pz, 0.0, 1.0))
    beta = np.sqrt(np.clip(1.0 - pz, 0.0, 1.0))
    if alpha * beta < 1e-12:
        return (alpha, beta), (0.0, 0.0)
    c = (px - 0.5) / (alpha * beta)
    s = (0.5 - pq) / (alpha * beta)
    phi = np.arctan2(np.clip(s, -1, 1), np.clip(c, -1, 1))
    return (alpha, beta), (0.0, phi)


@pytest.mark.parametrize("alpha", [1.0, 0.7, 1e-6])
@pytest.mark.parametrize("phi", [0.0, np.pi / 2, -np.pi / 2, np.pi, 3.1, -3.1])
def test_reconstruct_1_matches_the_closed_form(alpha, phi):
    beta = np.sqrt(1.0 - alpha * alpha)
    s = PseudoSpinState(np.array([alpha, beta * np.exp(1j * phi)]))
    ro = forward_readouts(s)
    est = reconstruct(ro, 1)
    alphas, phis = closed_form_1(ro)
    assert np.max(np.abs(np.array(est.alphas) - alphas)) < 1e-9
    for a, b in zip(est.phis, phis):
        assert abs((a - b + np.pi) % (2 * np.pi) - np.pi) < 1e-9


def test_parameter_error_ignores_the_phase_gauge():
    # amplitude 0 is far below what the readouts resolve, so the estimate
    # gauges its phase on basis index 1 while the truth gauges on index 0
    for small, phi in ((1e-9, 3.0), (1e-10, -2.0), (1e-11, 1.0)):
        a = np.array([small, np.exp(1j * phi)])
        s = PseudoSpinState(a / np.linalg.norm(a))
        est = reconstruct(forward_readouts(s), 1)
        assert s.fidelity(est.to_state()) > 1 - 1e-12
        assert parameter_error(EntangledState.from_state(s), est) < 1e-8


def test_reconstruct_inconsistent_rejected():
    s = PseudoSpinState(np.array([1, 1j]) / np.sqrt(2))
    ro = forward_readouts(s)
    ro[Observable("x", (0,)).key()] = 0.99   # incompatible with z readout
    with pytest.raises(MeasureError):
        reconstruct(ro, 1)


@pytest.mark.parametrize("n", [1, 2])
def test_misfit_jacobian_matches_central_differences(n):
    rng = np.random.default_rng(40 + n)
    plan = tomography_plan(n)
    for _ in range(5):
        alphas = np.abs(rand_state(rng, n).amplitudes)
        fit = [(ob.pauli(n), rng.uniform(-1.0, 1.0))
               for ob in plan.observables if ob.basis == "x"]
        phis = rng.uniform(-np.pi, np.pi, 2 ** n - 1)
        jac = np.array(_misfit_jacobian(phis, alphas, fit))
        assert jac.shape == (len(fit), 2 ** n - 1)
        h = 1e-6
        for s in range(2 ** n - 1):
            e = np.zeros(2 ** n - 1)
            e[s] = h
            fd = (np.array(_misfit(phis + e, alphas, fit))
                  - np.array(_misfit(phis - e, alphas, fit))) / (2 * h)
            assert np.max(np.abs(jac[:, s] - fd)) < 1e-8


@pytest.mark.parametrize("n,key", [(1, "x:0"), (2, "z:0,1")])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_reconstruct_rejects_non_finite_readouts(n, key, bad):
    ro = forward_readouts(rand_state(np.random.default_rng(9), n))
    ro[key] = bad
    with pytest.raises(MeasureError, match=f"readout '{key}' is not finite"):
        reconstruct(ro, n)


def test_reconstruct_n3_unsupported():
    with pytest.raises(MeasureError):
        reconstruct({}, 3)


def test_sampled_readouts_seeded():
    s = PseudoSpinState(np.array([1, 1j]) / np.sqrt(2))
    plan = tomography_plan(1)
    a = sample_readouts(s, plan, 500, seed=9)
    b = sample_readouts(s, plan, 500, seed=9)
    assert a == b
    for v in a.values():
        assert 0.0 <= v <= 1.0


def test_entangled_state_normalization_guard():
    with pytest.raises(MeasureError):
        EntangledState(1, (1.0, 1.0), (0.0, 0.0))

"""Interference amplitudes, register readouts, tomography planning and
round-trip reconstruction."""

import itertools
import re
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcode import measure
from surfcode.effective import CHAIN_CAP, PseudoSpinState
from surfcode.pauli import PauliString
from surfcode.spectra import _Table
from surfcode.measure import (EntangledState, InterferencePaths,
                              MeasureError, _expectations,
                              _misfit, _misfit_jacobian, fermion_readout,
                              forward_readouts, interference_amplitude,
                              parameter_error, quarter_turn, reconstruct,
                              sample_readouts, tomography_plan,
                              vortex_readout)


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
    """The flux outcome's probability (1 - <Z^m>)/2, from prod tau^z
    built by Kronecker products (qubit 0 the first factor), and the
    flux-free one from ``vortex_readout`` sum to 1."""
    rng = np.random.default_rng(3)
    Z = np.diag([1.0, -1.0])
    for _ in range(10):
        s = rand_state(rng, 2)
        v = s.amplitudes
        for sub in ([0], [1], [0, 1]):
            Zm = reduce(np.kron, [Z if q in sub else np.eye(2)
                                  for q in range(2)])
            flux = 0.5 * (1.0 - np.vdot(v, Zm @ v).real)
            p = vortex_readout(s, sub)
            assert abs(p + flux - 1.0) <= 1e-12
            assert 0.0 <= p <= 1.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10 ** 6))
def test_probabilities_in_unit_interval(n, seed):
    rng = np.random.default_rng(seed)
    s = rand_state(rng, n)
    for key, p in forward_readouts(s).items():
        assert -1e-12 <= p <= 1 + 1e-12


def dense_pauli(n, x, z, k):
    """i^k X^x Z^z as a dense matrix; site j is bit j of a basis index."""
    X, Z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    fx = [X if x >> j & 1 else np.eye(2) for j in reversed(range(n))]
    fz = [Z if z >> j & 1 else np.eye(2) for j in reversed(range(n))]
    return 1j ** k * reduce(np.kron, fx) @ reduce(np.kron, fz)


@pytest.mark.parametrize("rows", [None, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_expectations_match_dense_pauli_matrices(n, rows, monkeypatch):
    """Every plan string, the k = 3 quadratures included, and random
    (x, z, k) strings, against <v|P|v> from dense matrices; also with
    blocks of 2 rows, as at the register cap."""
    if rows:
        monkeypatch.setattr(measure, "_BLOCK", rows << n)
    rng = np.random.default_rng(50 + n)
    v = rand_state(rng, n).amplitudes
    x, z, k = tomography_plan(n).strings
    assert 3 in k
    m = 40
    rx, rz, rk = (rng.integers(0, 2 ** n, m), rng.integers(0, 2 ** n, m),
                  rng.integers(0, 4, m))
    x, z, k = (np.concatenate(p) for p in ((x, rx), (z, rz), (k, rk)))
    got = _expectations(v, (x, z, k))
    want = [np.vdot(v, dense_pauli(n, *s) @ v).real for s in zip(x, z, k)]
    assert np.max(np.abs(got - want)) < 1e-14


def test_readouts_at_the_cap_stay_small_in_memory():
    """n = 12 takes its Walsh-Hadamard rows in blocks: a few MB traced."""
    plan = tomography_plan(CHAIN_CAP)
    assert len(plan.keys) == len(plan.strings[0])   # cached before tracing
    s = rand_state(np.random.default_rng(12), CHAIN_CAP)
    tracemalloc.start()
    try:
        got = forward_readouts(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(got) == list(plan.keys)
    assert peak < 32 * 2 ** 20


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


def key_operator(n, key):
    """U^dagger P U for a plan key ``basis:subset[;rotq]``: P the basis
    Pauli on every qubit of the subset, U the quarter turn on qubit q."""
    basis, rest = key.split(":")
    subset, _, rot = rest.partition(";rot")
    P = kron_on(n, {int(q): PAULI[basis] for q in subset.split(",")})
    U = kron_on(n, {int(rot): QUARTER}) if rot else np.eye(2 ** n)
    return U.conj().T @ P @ U


def decode(n, M):
    """(x, z, k) of M = i^k X^x Z^z in ``dense_pauli``'s convention, read
    off its columns: M|0> = i^k |x> and M|t> = i^k (-1)^{z.t} |t XOR x>."""
    x = int(np.argmax(np.abs(M[:, 0])))
    phase = M[x, 0]
    k = int(np.rint(np.angle(phase) / (np.pi / 2))) % 4
    z = sum(1 << j for j in range(n)
            if (M[x ^ 1 << j, 1 << j] / phase).real < 0)
    assert np.max(np.abs(M - dense_pauli(n, x, z, k))) < 1e-12
    return x, z, k


def test_readouts_match_kronecker_parities():
    rng = np.random.default_rng(31)
    n = 3
    plan = tomography_plan(n)
    for _ in range(5):
        s = rand_state(rng, n)
        got = forward_readouts(s)
        assert list(got) == list(plan.keys)
        v = s.amplitudes
        for key in plan.keys:
            want = 0.5 * (1.0 + np.vdot(v, key_operator(n, key) @ v).real)
            assert abs(got[key] - want) < 1e-12, key


def test_quarter_turn_matches_kronecker_on_each_qubit():
    rng = np.random.default_rng(32)
    n = 3
    s = rand_state(rng, n)
    for q in range(n):
        want = kron_on(n, {q: QUARTER}) @ s.amplitudes
        assert np.max(np.abs(quarter_turn(s, q).amplitudes - want)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_folded_strings_match_kronecker_rotations(n):
    """Each plan string, quarter turn folded in, is the operator its key
    names, built from Kronecker products."""
    plan = tomography_plan(n)
    for key, x, z, k in zip(plan.keys, *plan.strings):
        got = dense_pauli(n, x, z, k)
        assert np.max(np.abs(got - key_operator(n, key))) < 1e-12, key


def test_rotation_qubits_and_readout_keys_are_validated():
    up = PseudoSpinState.all_up(1)
    for l in (-1, 1):
        with pytest.raises(MeasureError, match=rf"qubits \({l},\) outside"):
            quarter_turn(up, l)
    with pytest.raises(MeasureError, match=r"qubits \(1,\) outside"):
        fermion_readout(up, [1])
    # int(q) read 0.9 as qubit 0, True as qubit 1 and 1.5 as qubit 1
    up2 = PseudoSpinState.all_up(2)
    for call, q in ((lambda: vortex_readout(up2, [0.9]), "0.9"),
                    (lambda: fermion_readout(up2, [True]), "True"),
                    (lambda: vortex_readout(up2, [0, np.float64(1.0)]),
                     "np.float64(1.0)"),
                    (lambda: quarter_turn(up2, 1.5), "1.5")):
        with pytest.raises(MeasureError, match=f"^qubit {re.escape(q)} is "
                                               "not an integer$"):
            call()
    assert vortex_readout(up2, [np.int64(1)]) == 1.0
    assert quarter_turn(up2, np.int64(1)).fidelity(up2) == pytest.approx(1.0)
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
    assert tomography_plan(4).parameter_count == 30


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_plan_completeness_is_the_computed_coverage(n):
    """``complete`` says whether the plan reads every non-identity Pauli
    string, computed here from the Kronecker operators of its keys: n = 2
    reads 10 of 15, and two orthogonal n = 2 states give the same
    readouts."""
    plan = tomography_plan(n)
    read = {decode(n, key_operator(n, key))[:2] for key in plan.keys}
    assert plan.complete == (len(read - {(0, 0)}) == 4 ** n - 1)
    assert plan.complete == (n == 1)
    if n == 2:
        assert len(read) == 10
        a, b = (forward_readouts(PseudoSpinState(np.array(v) / 2.0))
                for v in ([1, 1, -1, 1], [1, 1, 1, -1]))
        assert max(abs(a[key] - b[key]) for key in a) < 1e-12


def test_plan_rejects_registers_above_the_chain_cap():
    with pytest.raises(MeasureError, match=f"n <= {CHAIN_CAP}"):
        tomography_plan(CHAIN_CAP + 1)
    with pytest.raises(MeasureError):
        tomography_plan(0)


def test_plan_is_built_once_per_size():
    """Keys list the subsets by size, then lexicographically: z, then x,
    then x after a quarter turn on each qubit of the subset; each string
    is the one its key's Kronecker operator decodes to."""
    for n in (1, 2, 3, 6):
        plan = tomography_plan(n)
        assert tomography_plan(n) is plan
        subsets = [c for r in range(1, n + 1)
                   for c in itertools.combinations(range(n), r)]
        names = [",".join(map(str, c)) for c in subsets]
        assert plan.keys == tuple(
            ["z:" + a for a in names] + ["x:" + a for a in names]
            + [f"x:{a};rot{q}" for a, c in zip(names, subsets) for q in c])
        assert ([tuple(row) for row in np.transpose(plan.strings)]
                == [decode(n, key_operator(n, key)) for key in plan.keys])
        assert all(a.dtype == np.int64 and not a.flags.writeable
                   for a in plan.strings)


def test_plan_covers_all_subsets():
    plan = tomography_plan(2)
    keys = set(plan.keys)
    assert {"z:0", "z:1", "z:0,1", "x:0", "x:1", "x:0,1"} <= keys
    assert any(";rot" in key for key in keys)


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


def roundtrip_states(n, count, seed):
    """``count`` random states, ``count`` with an empty level, and 28 with
    one amplitude on the ladder 1e-5 ... 1e-9 (and at n = 1 a basis
    state with a complex phase)."""
    rng = np.random.default_rng(seed)
    amps = [rand_state(rng, n).amplitudes for _ in range(2 * count)]
    for a in amps[count:]:
        # an empty level: its z probability rounds to ~1e-16, so its
        # square root alone would read as a ~1e-8 amplitude
        a[rng.integers(a.size)] = 0.0
    for small in (1e-5, 1e-6, 1e-7, 5e-8, 2e-8, 1e-8, 1e-9):
        for _ in range(4):
            a = rand_state(rng, n).amplitudes
            a[rng.integers(a.size)] = small * np.exp(2j * np.pi * rng.random())
            amps.append(a)
    if n == 1:     # a basis state with a complex phase
        amps.append(np.array([0.0, 0.4532 + 0.8914j]))
    return [PseudoSpinState(a / np.linalg.norm(a)) for a in amps]


def worst_roundtrip_error(states):
    worst = 0.0
    for s in states:
        est = reconstruct(forward_readouts(s), s.n)
        worst = max(worst, parameter_error(EntangledState.from_state(s), est))
    return worst


@pytest.mark.parametrize("n,count,seed", [(1, 25, 101), (2, 25, 202)])
def test_roundtrip_random_states(n, count, seed):
    assert worst_roundtrip_error(roundtrip_states(n, count, seed)) <= 1e-6


def test_fit_takes_few_misfit_evaluations(monkeypatch):
    """Each Gauss-Newton step evaluates the misfit once, and a start
    that fits takes a few steps; a Levenberg-Marquardt fit in polar
    parameters took ~255 evaluations a state on this set."""
    calls, inner = [0], measure._misfit

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(measure, "_misfit", counted)
    states = roundtrip_states(2, 25, 202)
    assert worst_roundtrip_error(states) <= 1e-8
    assert calls[0] <= 30 * len(states)


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gauge_phase_is_exactly_zero(n):
    """The first nonvanishing phase is 0.0, not the ~1e-17 that angle()
    leaves after the gauge turn, in the canonical parameters and in a
    reconstruction."""
    rng = np.random.default_rng(60 + n)
    for _ in range(50):
        s = rand_state(rng, n)
        a = s.amplitudes.copy()
        a[:rng.integers(a.size)] = 0.0
        for state in (s, PseudoSpinState(a / np.linalg.norm(a))):
            ests = [EntangledState.from_state(state)]
            if n <= 2:
                ests.append(reconstruct(forward_readouts(state), n))
            for est in ests:
                first = np.argmax(np.array(est.alphas) > measure.PHASE_CUTOFF)
                assert est.phis[first] == 0.0


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
    ro["x:0"] = 0.99   # incompatible with z readout
    with pytest.raises(MeasureError):
        reconstruct(ro, 1)


@pytest.mark.parametrize("n", [1, 2])
def test_misfit_jacobian_matches_central_differences(n):
    rng = np.random.default_rng(40 + n)
    strings = tomography_plan(n).strings
    table = _Table([(1.0, PauliString(n, *s))
                    for s in zip(*(a.tolist() for a in strings))], n)
    rows, m = (table.cols[table.group], table.E), 2 ** n
    for _ in range(5):
        v = rand_state(rng, n).amplitudes
        target = rng.uniform(-1.0, 1.0, strings[0].size)
        assert np.allclose(_misfit(v, rows, target),
                           0.5 * (_expectations(v, strings) - target),
                           rtol=0, atol=1e-15)
        jac = _misfit_jacobian(v, rows)
        assert jac.shape == (strings[0].size, 2 * m)
        h = 1e-6
        for s in range(2 * m):      # along Re v_s, then along Im v_s
            dv = np.zeros(m, dtype=complex)
            dv[s % m] = h if s < m else 1j * h
            fd = (_misfit(v + dv, rows, target)
                  - _misfit(v - dv, rows, target)) / (2 * h)
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
    a = sample_readouts(s, 500, seed=9)
    b = sample_readouts(s, 500, seed=9)
    assert a == b
    for v in a.values():
        assert 0.0 <= v <= 1.0


def test_entangled_state_normalization_guard():
    with pytest.raises(MeasureError):
        EntangledState(1, (1.0, 1.0), (0.0, 0.0))


@pytest.mark.parametrize("alphas, phis", [
    ((np.nan, np.nan), (0.0, 0.0)),
    ((1.0, 0.0), (0.0, np.nan)),
    ((1.0, 0.0), (np.inf, 0.0)),
    ((-1.0, 0.0), (0.0, 0.0)),
    ((0.6, -0.8), (0.0, 0.0)),
])
def test_entangled_state_rejects_non_finite_or_negative_parameters(alphas,
                                                                  phis):
    """NaN alphas passed the normalization check, since
    abs(nan - 1) > 1e-9 is False; alphas are magnitudes, so >= 0."""
    with pytest.raises(MeasureError, match="must be finite and >= 0"):
        EntangledState(1, alphas, phis)


@pytest.mark.parametrize("call, message", [
    (lambda: sample_readouts(PseudoSpinState.all_up(1), 0),
     "shots must be >= 1"),
    (lambda: EntangledState(1, (1.0,), (0.0,)), "parameter count must be 2^n"),
    (lambda: parameter_error(
        EntangledState.from_state(PseudoSpinState.all_up(1)),
        EntangledState.from_state(PseudoSpinState.all_up(2))),
     "register sizes differ"),
], ids=["shots", "parameter-count", "register-sizes"])
def test_each_check_refuses_with_its_reason(call, message):
    with pytest.raises(MeasureError, match=f"^{re.escape(message)}$"):
        call()

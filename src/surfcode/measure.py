"""Interference readout and state tomography on the pseudo-spin register.

Readout model: a quasiparticle sent along two symmetric paths around a
hole interferes with a sign set by the enclosed flux, so the transition
probability distinguishes the two flux sectors.  At the register level
this reduces to projective measurements of products of tau^z (vortex
interference) and tau^x (fermion interference) over hole subsets, plus
repeats after a fixed quarter turn about z that expose the phase
quadrature (a product of cosines alone leaves sin-signs ambiguous).

Every readout is one ``PauliString`` P with the quarter turns folded in
(``Observable.pauli``); its +1 probability is 1/2 (1 + <v|P|v>), exact,
and ``sample_readouts`` adds seeded shot noise that plays no role in
acceptance.  Reconstruction fits the same strings.  Qubit l is
``PauliString`` site n-1-l (``effective.qubit_mask``), so qubit 0 is the
most significant bit of a basis index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import least_squares

from .effective import CHAIN_CAP, PseudoSpinState, qubit_mask, z_signs
from .pauli import PauliString


class MeasureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# two-path interference
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterferencePaths:
    """Amplitudes of the two symmetric trajectories and the flux sign
    (+1 for the trivial sector, -1 with a pi flux enclosed)."""

    psi1: complex
    psi2: complex
    flux_sign: int = +1

    def __post_init__(self):
        if self.flux_sign not in (+1, -1):
            raise MeasureError("flux sign must be +1 or -1")

    @staticmethod
    def symmetric(t: complex, flux_sign: int) -> "InterferencePaths":
        return InterferencePaths(t, t, flux_sign)


def interference_amplitude(paths: InterferencePaths) -> float:
    """T = |psi1|^2 + |psi2|^2 + 2 eps |psi2 psi1|."""
    a1, a2 = abs(paths.psi1), abs(paths.psi2)
    return a1 * a1 + a2 * a2 + 2.0 * paths.flux_sign * a2 * a1


# ---------------------------------------------------------------------------
# register readouts
# ---------------------------------------------------------------------------


def _check_subset(n: int, subset: Sequence[int]) -> tuple:
    qs = tuple(sorted(set(int(q) for q in subset)))
    if not qs:
        raise MeasureError("readout needs a nonempty hole subset")
    if qs[0] < 0 or qs[-1] >= n:
        raise MeasureError(f"qubits {qs} outside register of size {n}")
    return qs


def _apply(v: np.ndarray, p: PauliString) -> np.ndarray:
    """P|v> from P|t> = i^k (-1)^{z.t} |t XOR x>: component s of P|v>
    takes its sign and amplitude at the source index t = s XOR x."""
    src = np.arange(v.size) ^ p.x
    return p.phase * z_signs(p.n, p.z)[src] * v[src]


def _expect(v: np.ndarray, p: PauliString) -> float:
    return float(np.vdot(v, _apply(v, p)).real)


def vortex_readout(state: PseudoSpinState, subset: Sequence[int]) -> float:
    """Probability of the flux-free (+1) outcome of prod tau^z."""
    return measure_observable(state, Observable("z", tuple(subset)))


def fermion_readout(state: PseudoSpinState, subset: Sequence[int]) -> float:
    """Probability of the periodic-boundary (+1) outcome of prod tau^x."""
    return measure_observable(state, Observable("x", tuple(subset)))


def quarter_turn(state: PseudoSpinState, l: int) -> PseudoSpinState:
    """exp(-i pi/4 tau^z_l): advances the relative phase of qubit l by
    pi/2.  Quadrature readouts fold this turn into their Pauli string
    (``Observable.pauli``) instead of applying it."""
    n = state.n
    m = qubit_mask(n, _check_subset(n, (l,)))
    return PseudoSpinState(np.exp(-0.25j * np.pi * z_signs(n, m))
                           * state.amplitudes)


# ---------------------------------------------------------------------------
# tomography plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Observable:
    basis: str                   # 'z' or 'x'
    subset: tuple[int, ...]
    rotations: tuple[int, ...] = ()   # quarter turns applied first

    def key(self) -> str:
        r = "" if not self.rotations else \
            ";rot" + ",".join(str(q) for q in self.rotations)
        return f"{self.basis}:" + ",".join(str(q) for q in self.subset) + r

    def pauli(self, n: int) -> PauliString:
        """The string this readout measures on an n-qubit register: Z or X
        on the subset, each quarter turn on a subset qubit l folding X_l
        into e^{i pi/4 Z_l} X_l e^{-i pi/4 Z_l} = -i X_l Z_l (k += 3).
        Turns outside the subset commute with the string and drop out."""
        if self.basis not in ("z", "x"):
            raise MeasureError(f"unknown readout basis {self.basis!r}")
        m = qubit_mask(n, _check_subset(n, self.subset))
        r = k = 0
        for l in self.rotations:
            b = qubit_mask(n, _check_subset(n, (l,))) & m
            r, k = r ^ b, k + 3 * (b != 0)
        if self.basis == "z":
            return PauliString(n, 0, m)
        return PauliString(n, m, r, k)


@dataclass(frozen=True)
class MeasurementPlan:
    n: int
    observables: tuple[Observable, ...]
    parameter_count: int
    complete: bool               # no known scheme determines n > 3

    def size(self) -> int:
        return len(self.observables)


def tomography_plan(n: int) -> MeasurementPlan:
    """All z-subset and x-subset products plus quadrature repeats, on a
    register of at most ``CHAIN_CAP`` qubits."""
    if not 1 <= n <= CHAIN_CAP:
        raise MeasureError(f"need 1 <= n <= {CHAIN_CAP}, the register cap; "
                           f"got n = {n}")
    subsets = []
    for r in range(1, n + 1):
        subsets.extend(itertools.combinations(range(n), r))
    obs = [Observable("z", s) for s in subsets]
    obs += [Observable("x", s) for s in subsets]
    for s in subsets:
        for l in s:
            obs.append(Observable("x", s, (l,)))
    return MeasurementPlan(n, tuple(obs), 2 * (2 ** n - 1), complete=n <= 3)


def measure_observable(state: PseudoSpinState, ob: Observable) -> float:
    """Probability of the +1 outcome: 1/2 (1 + <v|P|v>), P = ob.pauli(n)."""
    return 0.5 * (1.0 + _expect(state.amplitudes, ob.pauli(state.n)))


def forward_readouts(state: PseudoSpinState,
                     plan: Optional[MeasurementPlan] = None) -> dict:
    """Exact probabilities for every observable of the plan."""
    if plan is None:
        plan = tomography_plan(state.n)
    return {ob.key(): measure_observable(state, ob)
            for ob in plan.observables}


def sample_readouts(state: PseudoSpinState, plan: MeasurementPlan,
                    shots: int, seed: int = 0) -> dict:
    """Binomial shot noise on top of the exact probabilities."""
    if shots < 1:
        raise MeasureError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    out = {}
    for ob in plan.observables:
        p = measure_observable(state, ob)
        out[ob.key()] = rng.binomial(shots, min(max(p, 0.0), 1.0)) / shots
    return out


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntangledState:
    """Canonical parameters {alpha_i >= 0, phi_i in (-pi, pi]} with
    sum alpha_i^2 = 1 and the first nonvanishing phase gauged to 0."""

    n: int
    alphas: tuple[float, ...]
    phis: tuple[float, ...]

    def __post_init__(self):
        if len(self.alphas) != 2 ** self.n or len(self.phis) != 2 ** self.n:
            raise MeasureError("parameter count must be 2^n")
        if abs(sum(a * a for a in self.alphas) - 1.0) > 1e-9:
            raise MeasureError("alphas are not normalized")

    @staticmethod
    def from_state(state: PseudoSpinState, tol: float = 1e-12) -> "EntangledState":
        amps = state.amplitudes.copy()
        first = next((i for i, c in enumerate(amps) if abs(c) > tol), None)
        if first is not None:
            amps = amps * np.exp(-1j * np.angle(amps[first]))
        alphas = np.abs(amps)
        phis = np.where(alphas > tol, np.angle(amps), 0.0)
        phis = np.where(phis <= -np.pi + 1e-15, np.pi, phis)
        return EntangledState(state.n, tuple(float(a) for a in alphas),
                              tuple(float(p) for p in phis))

    def to_state(self) -> PseudoSpinState:
        amps = np.array([a * np.exp(1j * p)
                         for a, p in zip(self.alphas, self.phis)])
        return PseudoSpinState(amps / np.linalg.norm(amps))


def _z_probabilities(readouts: dict, plan: MeasurementPlan) -> np.ndarray:
    """Joint z-basis distribution from the plan's z-subset expectations."""
    n, dim = plan.n, 1 << plan.n
    total = np.ones(dim)
    for ob in plan.observables:
        if ob.basis == "z":
            e = 2.0 * readouts[ob.key()] - 1.0
            total += e * z_signs(n, ob.pauli(n).z)
    return np.clip(total / dim, 0.0, None)


def reconstruct(readouts: dict, n: int, tol: float = 1e-8) -> EntangledState:
    """Recover the state parameters from exact readout probabilities.

    Supported for n <= 2: amplitudes from the z readouts, phases by a
    multi-start Levenberg-Marquardt fit to the plan's x readouts (exact
    inputs land at machine precision from the best grid start).
    Missing or non-finite readouts and inconsistent inputs
    (probabilities that no state reproduces within ``tol``) are rejected,
    the latter with the residual.
    """
    if n not in (1, 2):
        raise MeasureError("reconstruction is implemented for n <= 2")
    plan = tomography_plan(n)
    for ob in plan.observables:
        if ob.key() not in readouts:
            raise MeasureError(f"readouts lack observable {ob.key()!r}")
        if not np.isfinite(readouts[ob.key()]):
            raise MeasureError(f"readout {ob.key()!r} is not finite: "
                               f"{readouts[ob.key()]}")
    alphas = np.sqrt(_z_probabilities(readouts, plan))
    alphas /= np.linalg.norm(alphas)
    fit = [(ob.pauli(n), 2.0 * readouts[ob.key()] - 1.0)
           for ob in plan.observables if ob.basis == "x"]

    best = None
    for s0 in itertools.product((0.0, -2.1, 2.1), repeat=alphas.size - 1):
        sol = least_squares(_misfit, s0, jac=_misfit_jacobian,
                            method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15,
                            args=(alphas, fit))
        if best is None or sol.cost < best.cost:
            best = sol
        if best.cost < 1e-24:
            break
    est = EntangledState.from_state(
        PseudoSpinState(_amplitudes(alphas, best.x)))
    _residual_check(est, readouts, tol)
    return est


def _amplitudes(alphas: np.ndarray, phis) -> np.ndarray:
    return alphas * np.exp(1j * np.concatenate(([0.0], phis)))


def _misfit(phis, alphas: np.ndarray, fit: list) -> list:
    # (E - e) / 2, not (1 + E) / 2 - r: rounding 1 + E drowns small terms
    v = _amplitudes(alphas, phis)
    return [0.5 * (_expect(v, p) - e) for p, e in fit]


def _misfit_jacobian(phis, alphas: np.ndarray, fit: list) -> list:
    """Im(conj(v_s) (P v)_s), s >= 1: dv_s/dphi_s = i v_s, P Hermitian."""
    v = _amplitudes(alphas, phis)
    return [(v.conj() * _apply(v, p)).imag[1:] for p, _ in fit]


def _residual_check(est: EntangledState, readouts: dict, tol: float) -> None:
    sim = forward_readouts(est.to_state(), tomography_plan(est.n))
    resid = max(abs(sim[k] - readouts[k]) for k in sim)
    if resid > tol:
        raise MeasureError(
            f"readouts inconsistent with a pure register state "
            f"(residual {resid:.3e} > {tol:.1e})")


def parameter_error(a: EntangledState, b: EntangledState,
                    amp_tol: float = 1e-7) -> float:
    """Max deviation over amplitudes and (relevant) wrapped phases, the
    phases taken relative to a's largest amplitude: a gauge fixed on a
    later index, where amplitude 0 was too small to resolve, agrees."""
    if a.n != b.n:
        raise MeasureError("register sizes differ")
    err = max(abs(x - y) for x, y in zip(a.alphas, b.alphas))
    ref = int(np.argmax(a.alphas))
    for aa, pa, pb in zip(a.alphas, a.phis, b.phis):
        if aa > amp_tol:
            d = (pa - a.phis[ref]) - (pb - b.phis[ref])
            err = max(err, abs((d + np.pi) % (2 * np.pi) - np.pi))
    return float(err)

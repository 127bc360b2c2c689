"""Interference readout and state tomography on the pseudo-spin register.

Readout model: a quasiparticle sent along two symmetric paths around a
hole interferes with a sign set by the enclosed flux, so the transition
probability distinguishes the two flux sectors.  At the register level
this reduces to projective measurements of products of tau^z (vortex
interference) and tau^x (fermion interference) over hole subsets, plus
repeats after a fixed quarter turn about z that expose the phase
quadrature (a product of cosines alone leaves sin-signs ambiguous).

Readouts are exact expectation values; ``sample_readouts`` adds seeded
shot noise for realism but plays no role in acceptance.  Products are
evaluated with parity arrays over the basis indices, in the chain's bit
order: qubit l is ``PauliString`` site n-1-l (``effective.qubit_mask``),
so qubit 0 is the most significant bit of a basis index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import least_squares

from .effective import CHAIN_CAP, PseudoSpinState, qubit_mask


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


def _check_subset(state: PseudoSpinState, subset: Sequence[int]) -> tuple:
    qs = tuple(sorted(set(int(q) for q in subset)))
    if not qs:
        raise MeasureError("readout needs a nonempty hole subset")
    if qs[0] < 0 or qs[-1] >= state.n:
        raise MeasureError(f"subset {qs} outside register of size {state.n}")
    return qs


def _signs(n: int, mask: int) -> np.ndarray:
    """(-1)^popcount(i & mask) for every basis index i: the diagonal of
    prod tau^z over the qubits in ``mask``."""
    return 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << n) & mask) & 1)


def expectation_tau_z(state: PseudoSpinState, subset: Sequence[int]) -> float:
    n = state.n
    m = qubit_mask(n, _check_subset(state, subset))
    return float(_signs(n, m) @ np.abs(state.amplitudes) ** 2)


def expectation_tau_x(state: PseudoSpinState, subset: Sequence[int]) -> float:
    m = qubit_mask(state.n, _check_subset(state, subset))
    v = state.amplitudes
    return float(np.real(np.vdot(v, v[np.arange(v.size) ^ m])))


def vortex_readout(state: PseudoSpinState, subset: Sequence[int]) -> float:
    """Probability of the flux-free (+1) outcome of prod tau^z."""
    return 0.5 * (1.0 + expectation_tau_z(state, subset))


def fermion_readout(state: PseudoSpinState, subset: Sequence[int]) -> float:
    """Probability of the periodic-boundary (+1) outcome of prod tau^x."""
    return 0.5 * (1.0 + expectation_tau_x(state, subset))


def quarter_turn(state: PseudoSpinState, l: int) -> PseudoSpinState:
    """exp(-i pi/4 tau^z_l): advances the relative phase of qubit l by
    pi/2; the fixed rotation used for quadrature readouts."""
    n = state.n
    phase = np.exp(-0.25j * np.pi * _signs(n, qubit_mask(n, (l,))))
    return PseudoSpinState(phase * state.amplitudes)


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
    s = state
    for l in ob.rotations:
        s = quarter_turn(s, l)
    if ob.basis == "z":
        return vortex_readout(s, ob.subset)
    return fermion_readout(s, ob.subset)


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

    @property
    def parameter_count(self) -> int:
        return 2 * (2 ** self.n - 1)

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


def _z_probabilities(readouts: dict, n: int) -> np.ndarray:
    """Joint z-basis distribution from the z-subset expectations."""
    dim = 1 << n
    total = np.ones(dim)
    for r in range(1, n + 1):
        for s in itertools.combinations(range(n), r):
            e = 2.0 * readouts[Observable("z", s).key()] - 1.0
            total += e * _signs(n, qubit_mask(n, s))
    return np.clip(total / dim, 0.0, None)


def reconstruct(readouts: dict, n: int, tol: float = 1e-8) -> EntangledState:
    """Recover the state parameters from exact readout probabilities.

    Supported for n <= 2.  Inconsistent inputs (probabilities that no
    state reproduces within ``tol``) are rejected with the residual.
    """
    if n == 1:
        return _reconstruct_1(readouts, tol)
    if n == 2:
        return _reconstruct_2(readouts, tol)
    raise MeasureError("reconstruction is implemented for n <= 2")


def _residual_check(est: EntangledState, readouts: dict, tol: float) -> float:
    sim = forward_readouts(est.to_state(), tomography_plan(est.n))
    resid = max(abs(sim[k] - readouts[k]) for k in sim)
    if resid > tol:
        raise MeasureError(
            f"readouts inconsistent with a pure register state "
            f"(residual {resid:.3e} > {tol:.1e})")
    return resid


def _reconstruct_1(readouts: dict, tol: float) -> EntangledState:
    pz = readouts[Observable("z", (0,)).key()]
    px = readouts[Observable("x", (0,)).key()]
    pq = readouts[Observable("x", (0,), (0,)).key()]
    alpha = np.sqrt(np.clip(pz, 0.0, 1.0))
    beta = np.sqrt(np.clip(1.0 - pz, 0.0, 1.0))
    if alpha * beta < 1e-12:
        phi = 0.0
    else:
        c = (px - 0.5) / (alpha * beta)
        s = (0.5 - pq) / (alpha * beta)
        phi = float(np.arctan2(np.clip(s, -1, 1), np.clip(c, -1, 1)))
    if phi <= -np.pi + 1e-15:
        phi = np.pi
    est = EntangledState(1, (float(alpha), float(beta)), (0.0, phi))
    _residual_check(est, readouts, tol)
    return est


def _phase_residuals(phis: np.ndarray, alphas: np.ndarray,
                     readouts: dict) -> np.ndarray:
    amps = alphas * np.exp(1j * np.concatenate(([0.0], phis)))
    nrm = np.linalg.norm(amps)
    if nrm == 0:
        return np.full(8, 1e3)
    state = PseudoSpinState(amps / nrm)
    out = []
    for ob in _PHASE_OBSERVABLES:
        out.append(measure_observable(state, ob) - readouts[ob.key()])
    return np.asarray(out)


_PHASE_OBSERVABLES = tuple(
    [Observable("x", s) for s in ((0,), (1,), (0, 1))]
    + [Observable("x", (0,), (0,)), Observable("x", (1,), (1,)),
       Observable("x", (0, 1), (0,)), Observable("x", (0, 1), (1,))]
)


def _reconstruct_2(readouts: dict, tol: float) -> EntangledState:
    alphas = np.sqrt(_z_probabilities(readouts, 2))
    # phases by deterministic multi-start refinement; exact inputs land
    # at machine precision from the best grid start
    starts = [np.zeros(3)]
    grid = (-2.1, 0.0, 2.1)
    starts += [np.array(p) for p in itertools.product(grid, repeat=3)]
    best = None
    for s0 in starts:
        sol = least_squares(_phase_residuals, s0, args=(alphas, readouts),
                            method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        if best is None or sol.cost < best.cost:
            best = sol
        if best.cost < 1e-24:
            break
    phis = np.concatenate(([0.0], best.x))
    amps = alphas * np.exp(1j * phis)
    nrm = np.linalg.norm(amps)
    if nrm == 0:
        raise MeasureError("all-zero readout distribution")
    est = EntangledState.from_state(PseudoSpinState(amps / nrm))
    _residual_check(est, readouts, tol)
    return est


def parameter_error(a: EntangledState, b: EntangledState,
                    amp_tol: float = 1e-7) -> float:
    """Max deviation over amplitudes and (relevant) wrapped phases."""
    if a.n != b.n:
        raise MeasureError("register sizes differ")
    err = max(abs(x - y) for x, y in zip(a.alphas, b.alphas))
    for aa, pa, pb in zip(a.alphas, a.phis, b.phis):
        if aa > amp_tol:
            d = abs((pa - pb + np.pi) % (2 * np.pi) - np.pi)
            err = max(err, d)
    return float(err)

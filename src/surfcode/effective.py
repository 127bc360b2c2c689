"""Effective pseudo-spin layer: tunneling closed forms, the anisotropic
Heisenberg chain over the hole qubits, unitary pulse synthesis and
adiabatic initialization.

Closed forms (hbar = 1 throughout; angles are field x duration):

    delta_E(l) = 2 (hy)^Lf / (-8 g)^(Lf - 1)      fermion string, hole l
    eps(l)     = 2 (hx)^Lv / (-4 g)^(Lv - 1)      vortex loop, hole l
    Jxx(l)     =   (hy)^Lff / (-8 g)^(Lff - 1)    fermion string, pair
    Jzz(l)     =   (hx)^Lvv / (-4 g)^(Lvv - 1)    vortex loop, pair

with hole fields hx_tilde = delta_E/2, hz_tilde = eps/2.  Each
coefficient reads its own path's ``region_sites`` list: the field on
those sites and the length L, the number of sites.  These are the
printed perturbative results; exact diagonalization is the oracle that
measures how far their constants sit from the microscopic model (see
the splitting comparison pipeline, which reports the ratio).

The chain is a sum of ``PauliString`` terms on n pseudo-spins.  Qubit l
is ``PauliString`` site n-1-l, so qubit 0 is the most significant bit of
a basis index; ``qubit_mask`` and ``z_signs`` are that mapping, shared
with the readouts.  Evolution applies exp(-iHt) by Taylor substeps
(``_propagate``) to the sparse chain matrix, ``spectra.pauli_sum_matrix``
of the X and Z terms; a ramp builds its X matrix and Z diagonals once.
With single-threaded BLAS on a 2-core x86-64 host an n=8 ramp step takes
~0.25 ms (~2.1 ms when each step rebuilt its matrix and a scipy
propagator's set-up).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .lattice import FieldMask, HoledLattice, region_sites
from .pauli import PauliString
from .spectra import SpinHamiltonian, lowest_eigs, pauli_sum_matrix

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

CHAIN_CAP = 12


class EffectiveError(ValueError):
    pass


# ---------------------------------------------------------------------------
# tunneling closed forms
# ---------------------------------------------------------------------------


def fermion_splitting(g: float, hy: float, length: int) -> float:
    """delta_E = 2 hy^L / (-8g)^(L-1) for a length-L fermion string."""
    if length < 1:
        raise EffectiveError("path length must be >= 1")
    if hy == 0.0:
        return 0.0
    return 2.0 * hy ** length / (-8.0 * g) ** (length - 1)


def vortex_splitting(g: float, hx: float, length: int) -> float:
    """eps = 2 hx^L / (-4g)^(L-1) for a length-L vortex loop."""
    if length < 1:
        raise EffectiveError("loop length must be >= 1")
    if hx == 0.0:
        return 0.0
    return 2.0 * hx ** length / (-4.0 * g) ** (length - 1)


# ---------------------------------------------------------------------------
# the chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EffectiveChain:
    """Open anisotropic pseudo-spin chain
    H = sum_l (Jxx_l tau^x_l tau^x_{l+1} + Jzz_l tau^z_l tau^z_{l+1})
      + sum_l (hx_l tau^x_l + hz_l tau^z_l)."""

    n: int
    jxx: tuple[float, ...]
    jzz: tuple[float, ...]
    hx: tuple[float, ...]
    hz: tuple[float, ...]

    def __post_init__(self):
        if self.n < 1:
            raise EffectiveError("chain needs n >= 1")
        if len(self.jxx) != self.n - 1 or len(self.jzz) != self.n - 1:
            raise EffectiveError("need n-1 pair couplings")
        if len(self.hx) != self.n or len(self.hz) != self.n:
            raise EffectiveError("need n on-site fields")
        for v in (*self.jxx, *self.jzz, *self.hx, *self.hz):
            if not np.isfinite(v):
                raise EffectiveError("chain coefficients must be finite")

    def terms(self) -> list[tuple[float, PauliString]]:
        """Nonzero (coefficient, PauliString) terms of H."""
        return [(c, p) for c, p in self._strings() if c]

    def _strings(self) -> list[tuple[float, PauliString]]:
        """Every (coefficient, PauliString) term, zero or not: X on each
        pair then each qubit, then Z on the same, coefficients ``jzz + hz``."""
        n = self.n
        masks = ([qubit_mask(n, (l, l + 1)) for l in range(n - 1)]
                 + [qubit_mask(n, (l,)) for l in range(n)])
        return ([(c, PauliString(n, m, 0))
                 for c, m in zip(self.jxx + self.hx, masks)]
                + [(c, PauliString(n, 0, m))
                   for c, m in zip(self.jzz + self.hz, masks)])

    def matrix(self) -> np.ndarray:
        """Dense H, the sparse Pauli-sum matrix filled in."""
        return pauli_sum_matrix(self.terms(), self.n).toarray()

    def spectrum(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix())


def qubit_mask(n: int, qubits: Sequence[int]) -> int:
    """Basis-index bit mask of ``qubits``: qubit l is ``PauliString`` site
    n-1-l, so qubit 0 is the most significant bit."""
    return sum(1 << (n - 1 - l) for l in set(qubits))


def z_signs(n: int, mask: int) -> np.ndarray:
    """(-1)^popcount(i & mask) for every basis index i: the diagonal of
    prod tau^z over the qubits in ``mask``."""
    return 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << n) & mask) & 1)


def _uniform_component(values: np.ndarray, sites: Sequence[int],
                       comp: int) -> float:
    """Field component on a path: must be uniform over the path sites;
    zero anywhere on the path disables the coupling."""
    vals = values[list(sites), comp]
    if np.any(vals == 0.0):
        return 0.0
    v0 = vals[0]
    if not np.allclose(vals, v0):
        raise EffectiveError(
            "field must be uniform along a tunneling path")
    return float(v0)


def build_chain(lat: HoledLattice, g: float, mask: FieldMask) -> EffectiveChain:
    """Chain coefficients from the field mask, nearest neighbours only.

    Each coefficient is half the closed-form splitting of one tunneling
    path, whose ``region_sites`` list gives both the field component the
    path carries and its length: the vortex loop around hole l
    (``annulus`` ``hole``) for hz_l, the fermion string from hole l to
    the port (``corridor`` ``hole``) for hx_l, and the loop around and
    the string between holes l and l+1 (``annulus`` and ``corridor``
    ``from``/``to``) for Jzz_l and Jxx_l.  Zero field on any site of a
    path gives a zero coefficient.
    """
    n = len(lat.holes)
    if n < 1:
        raise EffectiveError("chain needs at least one hole")
    for h in lat.holes:
        if h.kind == "puncture":
            raise EffectiveError(
                "chain coefficients need domino holes (single-plaquette "
                "holes have a charge-flavoured flip string)")
    values = mask.on(lat)
    if g <= 0:
        raise EffectiveError("g must be positive")

    def half_splitting(splitting, comp: int, region: dict) -> float:
        sites = region_sites(lat, region)
        return splitting(g, _uniform_component(values, sites, comp),
                         len(sites)) / 2.0

    pairs = [{"from": l, "to": l + 1} for l in range(n - 1)]
    holes = [{"hole": l} for l in range(n)]
    return EffectiveChain(
        n,
        tuple(half_splitting(fermion_splitting, 1, {"type": "corridor", **e})
              for e in pairs),
        tuple(half_splitting(vortex_splitting, 0, {"type": "annulus", **e})
              for e in pairs),
        tuple(half_splitting(fermion_splitting, 1, {"type": "corridor", **e})
              for e in holes),
        tuple(half_splitting(vortex_splitting, 0, {"type": "annulus", **e})
              for e in holes))


# ---------------------------------------------------------------------------
# states and evolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PseudoSpinState:
    """Unit vector over the |m_1 ... m_n> basis (m=0 is 'up')."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if v.size == 0 or v.size & (v.size - 1):
            raise EffectiveError("amplitude count must be a power of two")
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > 1e-12:
            raise EffectiveError(f"state norm {nrm} is not 1")
        object.__setattr__(self, "amplitudes", v)

    @property
    def n(self) -> int:
        return int(np.log2(self.amplitudes.size))

    @staticmethod
    def basis(n: int, bits: int = 0) -> "PseudoSpinState":
        v = np.zeros(2 ** n, dtype=complex)
        v[bits] = 1.0
        return PseudoSpinState(v)

    @staticmethod
    def all_up(n: int) -> "PseudoSpinState":
        return PseudoSpinState.basis(n, 0)

    def fidelity(self, other: "PseudoSpinState") -> float:
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)


def _propagate(apply, bound: float, v: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) v, where ``apply`` maps v to H v and ``bound`` >= |H|
    (the summed |c| of a Pauli sum): s = ceil(|t| bound) substeps have
    |h H| <= 1, so Taylor terms shrink; each sums until a term falls
    below 2^-53 of the sum."""
    s = max(1, math.ceil(abs(t) * bound))
    for _ in range(s):
        term, out = v, v.astype(complex)
        k = 0
        while True:
            k += 1
            term = (-1j * t / (s * k)) * apply(term)
            out += term
            if np.vdot(term, term).real <= 2.0**-106 * np.vdot(out, out).real:
                break
        v = out
    return v


def evolve(chain: EffectiveChain, state: PseudoSpinState,
           duration: float) -> PseudoSpinState:
    """exp(-i H t)|state> by ``_propagate`` on the sparse chain matrix."""
    if chain.n > CHAIN_CAP:
        raise EffectiveError(f"chain size exceeds cap {CHAIN_CAP}")
    if chain.n != state.n:
        raise EffectiveError("state size does not match chain")
    terms = chain.terms()
    # complex once: scipy upcasts a real matrix on every product
    A = pauli_sum_matrix(terms, chain.n).astype(complex)
    amps = _propagate(A.dot, sum(abs(c) for c, _ in terms),
                      state.amplitudes, duration)
    return PseudoSpinState(amps / np.linalg.norm(amps))


# ---------------------------------------------------------------------------
# gate synthesis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pulse:
    axis: str        # 'x' or 'z' (pseudo-spin axis)
    fieldval: float  # effective field driving the rotation
    duration: float

    @property
    def angle(self) -> float:
        return self.fieldval * self.duration


@dataclass(frozen=True)
class GateSchedule:
    target: int
    pulses: tuple[Pulse, ...]

    def unitary(self) -> np.ndarray:
        U = np.eye(2, dtype=complex)
        for p in self.pulses:
            gen = SZ if p.axis == "z" else SX
            U = _expi(-p.angle, gen) @ U
        return U


def _expi(angle: float, gen: np.ndarray) -> np.ndarray:
    # exp(i*angle*gen) for gen^2 = 1
    return np.cos(angle) * ID2 + 1j * np.sin(angle) * gen


def rotation_unitary(theta: float, phi: float, gamma: float) -> np.ndarray:
    """Closed-form rotation exp(-i gamma Z) exp(-i phi X) exp(-i theta Z)."""
    return (_expi(-gamma, SZ) @ _expi(-phi, SX) @ _expi(-theta, SZ))


def rotation_gate(l: int, theta: float, phi: float, gamma: float,
                  hx_tilde: float, hz_tilde: float
                  ) -> tuple[GateSchedule, np.ndarray]:
    """Three-pulse schedule realizing the rotation on qubit ``l``.

    Pulse durations are angle / effective field (hbar = 1): the z pulses
    need hz_tilde != 0, the x pulse hx_tilde != 0, unless the angle is
    zero, in which case the pulse is dropped.
    """
    pulses = []
    for angle, axis in ((theta, "z"), (phi, "x"), (gamma, "z")):
        if angle == 0.0:
            continue
        drive = hz_tilde if axis == "z" else hx_tilde
        if drive == 0.0:
            raise EffectiveError(
                f"nonzero {axis} rotation requested with zero drive field")
        pulses.append(Pulse(axis, drive, angle / drive))
    sched = GateSchedule(l, tuple(pulses))
    return sched, rotation_unitary(theta, phi, gamma)


# (theta, phi, gamma) of the named gates
GATE_ANGLES = {"pi8": (0.0, np.pi / 8, np.pi / 8),
               "hadamard": (7 * np.pi / 4, np.pi / 4, np.pi / 4)}


def pi8_gate(hx_tilde: float, hz_tilde: float, l: int = 0):
    return rotation_gate(l, *GATE_ANGLES["pi8"], hx_tilde, hz_tilde)


def hadamard_gate(hx_tilde: float, hz_tilde: float, l: int = 0):
    return rotation_gate(l, *GATE_ANGLES["hadamard"], hx_tilde, hz_tilde)


# ---------------------------------------------------------------------------
# adiabatic initialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdiabaticSchedule:
    """h(t) = h0 * exp(-t0/|t|) on t in [-T_total, 0); h -> h0 at early
    times and h -> 0 as t -> 0."""

    h0: float
    t0: float
    T_total: float
    steps: int

    def __post_init__(self):
        if self.T_total <= 0 or self.steps < 1 or self.t0 < 0:
            raise EffectiveError("invalid adiabatic schedule")

    def h(self, t: float) -> float:
        if t >= 0.0:
            return 0.0
        return self.h0 * np.exp(-self.t0 / abs(t))


@dataclass(frozen=True)
class ChainTemplate:
    """Static chain data plus the geometry lengths that convert the
    ramped x field into time-dependent z couplings."""

    base: EffectiveChain
    vortex_loop: tuple[int, ...]
    vortex_pair: tuple[int, ...]

    def __post_init__(self):
        if (len(self.vortex_pair), len(self.vortex_loop)) != (
                self.base.n - 1, self.base.n):
            raise EffectiveError("need n-1 pair loops and n hole loops")

    def at_field(self, g: float, hx: float) -> EffectiveChain:
        b, zc = self.base, self._z_coefficients(g, hx)
        return EffectiveChain(b.n, b.jxx, zc[:b.n - 1], b.hx, zc[b.n - 1:])

    def _z_coefficients(self, g: float, hx: float) -> tuple[float, ...]:
        """``jzz + hz`` at field hx, in the order of the chain's Z strings:
        each base coefficient plus half the vortex splitting of its loop."""
        b = self.base
        return tuple(c + vortex_splitting(g, hx, L) / 2.0 for c, L in
                     zip(b.jzz + b.hz, self.vortex_pair + self.vortex_loop))


def adiabatic_init(template: ChainTemplate, schedule: AdiabaticSchedule,
                   start_state: Optional[PseudoSpinState] = None,
                   g: float = 1.0,
                   trace: Optional[list] = None
                   ) -> tuple[PseudoSpinState, float]:
    """Propagate through the ramp with piecewise-constant steps.

    Default start state is the ground state of the initial Hamiltonian,
    from ``lowest_eigs`` on the chain's terms (no stabilizer, so r = 0).
    Returns the final state and its fidelity to |up...up>.  Passing a
    list as ``trace`` records (t, h(t), fidelity) after every step.
    The field changes only Z coefficients, so a step applies the X
    matrix and its diagonal, built from every Z string (zero ones too),
    with the step's ``jzz + hz`` from ``ChainTemplate._z_coefficients``.
    """
    n = template.base.n
    if n > CHAIN_CAP:
        raise EffectiveError(f"chain size exceeds cap {CHAIN_CAP}")
    T, steps = schedule.T_total, schedule.steps
    dt = T / steps
    times = [-T + (i + 0.5) * dt for i in range(steps)]
    if start_state is None:
        terms = template.at_field(g, schedule.h(-T)).terms()
        spec = lowest_eigs(SpinHamiltonian(n, tuple(terms), "plain", 0), 1)
        start_state = PseudoSpinState(spec.eigenvectors[:, 0])
    if start_state.n != n:
        raise EffectiveError("start state size does not match template")
    strings = template.base._strings()
    x_terms = [(c, p) for c, p in strings if p.x]
    A = pauli_sum_matrix(x_terms, n).astype(complex)
    x_bound = sum(abs(c) for c, _ in x_terms)
    signs = np.array([z_signs(n, p.z) for _, p in strings if not p.x])
    target = PseudoSpinState.all_up(n)
    state = start_state
    for t in times:
        zc = np.array(template._z_coefficients(g, schedule.h(t)))
        d = zc @ signs
        amps = _propagate(lambda v: A @ v + d * v,
                          x_bound + np.abs(zc).sum(), state.amplitudes, dt)
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > 1e-8:
            raise EffectiveError(
                f"norm drift {abs(nrm - 1.0):.2e}; step too coarse")
        state = PseudoSpinState(amps / nrm)
        if trace is not None:
            trace.append((t + 0.5 * dt, schedule.h(t),
                          state.fidelity(target)))
    return state, state.fidelity(target)

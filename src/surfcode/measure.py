"""Interference readout and state tomography on the pseudo-spin register.

Readout model: a quasiparticle sent along two symmetric paths around a
hole interferes with a sign set by the enclosed flux, so the transition
probability distinguishes the two flux sectors.  At the register level
this reduces to projective measurements of products of tau^z (vortex
interference) and tau^x (fermion interference) over hole subsets, plus
repeats after a fixed quarter turn about z that expose the phase
quadrature (a product of cosines alone leaves sin-signs ambiguous).

A readout is one Pauli string P = i^k X^x Z^z with its quarter turn
folded in; its +1 probability is 1/2 (1 + <v|P|v>), exact, and
``sample_readouts`` adds seeded shot noise that plays no role in
acceptance.  A plan is its keys and the (x, z, k) arrays of its strings,
both built from its subset masks by bit arithmetic, and
``_expectations`` evaluates the strings all at once: each distinct x is
one Walsh-Hadamard transform, which gives <X^x Z^z> for every z.
Reconstruction (n <= 2) fits the amplitudes v to the same strings by
Gauss-Newton steps over (Re v, Im v) (``_gauss_newton``): each readout
<v|P|v> is a quadratic form whose Jacobian columns are Re and Im of the
rows (P v)_s, read off the strings' ``spectra._Table``.  Qubit l is
``PauliString`` site n-1-l (``effective.qubit_mask``), so qubit 0 is the
most significant bit of a basis index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np
from scipy.linalg import hadamard

from .effective import CHAIN_CAP, PseudoSpinState, qubit_mask, z_signs
from .pauli import PauliString
from .spectra import _PHASES, _Table


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


def _subset_mask(n: int, subset: Sequence[int]) -> int:
    """``qubit_mask`` of a nonempty subset of the qubits 0 .. n-1."""
    subset = tuple(subset)
    for q in subset:
        if isinstance(q, bool) or not isinstance(q, (int, np.integer)):
            raise MeasureError(f"qubit {q!r} is not an integer")
    qs = tuple(sorted(set(int(q) for q in subset)))
    if not qs:
        raise MeasureError("readout needs a nonempty hole subset")
    if qs[0] < 0 or qs[-1] >= n:
        raise MeasureError(f"qubits {qs} outside register of size {n}")
    return qubit_mask(n, qs)


_BLOCK = 1 << 18                 # table entries per block of x rows
PHASE_CUTOFF = 1e-12             # amplitudes below this carry no phase
RESIDUAL_TOL = 1e-8              # readout misfit a reconstruction may keep
AMP_TOL = 1e-7                   # parameter_error skips smaller amplitudes


@cache
def _hadamard(m: int) -> np.ndarray:
    h = hadamard(m, dtype=complex)
    h.flags.writeable = False
    return h


def _expectations(v: np.ndarray, strings: tuple) -> np.ndarray:
    """Re <v| i^k X^x Z^z |v> for arrays (x, z, k) of Pauli strings.

    P|t> = i^k (-1)^{z.t} |t XOR x>, so <v|X^x Z^z|v> = sum_u f_x[u]
    (-1)^{z.u} with f_x[u] = conj(v[u XOR x]) v[u]: entry z of the
    Walsh-Hadamard transform of f_x, taken as H_a (x) H_b on the high a
    and low b bits of u.  One row per distinct x, in blocks of at most
    ``_BLOCK`` entries."""
    x, z, k = strings
    seen = np.zeros(v.size, dtype=bool)
    seen[x] = True
    xs, row = np.flatnonzero(seen), (np.cumsum(seen) - 1)[x]
    u, vc = np.arange(v.size), v.conj()
    a = (v.size.bit_length() - 1) // 2
    ha, hb = _hadamard(1 << a), _hadamard(v.size >> a)
    out = np.empty(x.size)
    step = max(1, _BLOCK // v.size)
    for lo in range(0, xs.size, step):
        f = vc[u ^ xs[lo:lo + step, None]]
        f *= v
        f = ha @ (f.reshape(-1, hb.shape[0]) @ hb).reshape(len(f), 1 << a, -1)
        f = f.reshape(-1, v.size)
        sel = (row >= lo) & (row < lo + step)
        out[sel] = (_PHASES[k[sel]] * f[row[sel] - lo, z[sel]]).real
    return out


def _readout(state: PseudoSpinState, x: int, z: int) -> float:
    """Probability of the +1 outcome of X^x Z^z: 1/2 (1 + <v|X^x Z^z|v>)."""
    e = _expectations(state.amplitudes, (np.array([x]), np.array([z]),
                                         np.array([0])))
    return 0.5 * (1.0 + float(e[0]))


def vortex_readout(state: PseudoSpinState, subset: Sequence[int]) -> float:
    """Probability of the flux-free (+1) outcome of prod tau^z."""
    return _readout(state, 0, _subset_mask(state.n, subset))


def fermion_readout(state: PseudoSpinState, subset: Sequence[int]) -> float:
    """Probability of the periodic-boundary (+1) outcome of prod tau^x."""
    return _readout(state, _subset_mask(state.n, subset), 0)


def quarter_turn(state: PseudoSpinState, l: int) -> PseudoSpinState:
    """exp(-i pi/4 tau^z_l): advances the relative phase of qubit l by
    pi/2.  Quadrature readouts fold this turn into their Pauli string
    (``MeasurementPlan.strings``) instead of applying it."""
    n = state.n
    m = _subset_mask(n, (l,))
    return PseudoSpinState(np.exp(-0.25j * np.pi * z_signs(n, m))
                           * state.amplitudes)


# ---------------------------------------------------------------------------
# tomography plan
# ---------------------------------------------------------------------------


def _layout(n: int) -> tuple:
    """Every nonempty qubit subset as a mask and as a tuple, by size and
    then lexicographic in the qubits (by decreasing mask, since qubit 0 is
    the top bit), and the (subset, qubit) of each quadrature readout:
    every qubit of every subset, in increasing order."""
    m = np.arange(1, 1 << n)
    m = m[np.lexsort((-m, np.bitwise_count(m)))]
    rows, qubits = np.nonzero(m[:, None] >> np.arange(n - 1, -1, -1) & 1)
    q, ends = qubits.tolist(), np.cumsum(np.bitwise_count(m)).tolist()
    subsets = [tuple(q[a:b]) for a, b in zip([0] + ends, ends)]
    return m, subsets, rows, qubits


@dataclass(frozen=True)
class MeasurementPlan:
    """Every z-subset and x-subset product plus quadrature repeats on an
    n-qubit register, as ``keys`` and ``strings`` in ``_layout`` order."""

    n: int

    @property
    def parameter_count(self) -> int:
        return 2 * (2 ** self.n - 1)

    @cached_property
    def complete(self) -> bool:
        """Whether ``strings`` hold every non-identity (x, z) pair, the
        readouts that determine any state: at n = 1 only."""
        x, z, _ = self.strings
        pairs = set((x << self.n | z).tolist()) - {0}
        return len(pairs) == 4 ** self.n - 1

    @cached_property
    def keys(self) -> tuple[str, ...]:
        """``basis:subset``, and ``x:subset;rotq`` for a quadrature."""
        _, subsets, rows, qubits = _layout(self.n)
        names = [",".join(map(str, s)) for s in subsets]
        turned = [f"x:{names[i]};rot{l}"
                  for i, l in zip(rows.tolist(), qubits.tolist())]
        return tuple(["z:" + a for a in names] + ["x:" + a for a in names]
                     + turned)

    @cached_property
    def strings(self) -> tuple:
        """Read-only (x, z, k) arrays: Z^m and X^m on each subset mask m,
        then (m, bit of q, 3) for each quadrature, since a quarter turn on
        subset qubit q maps X_q into e^{i pi/4 Z_q} X_q e^{-i pi/4 Z_q}
        = -i X_q Z_q."""
        m, _, rows, qubits = _layout(self.n)
        zero = np.zeros_like(m)
        a = np.array([np.concatenate(c) for c in (
            (zero, m, m[rows]),
            (m, zero, 1 << (self.n - 1 - qubits)),
            (zero, zero, np.full(rows.size, 3)))])
        a.flags.writeable = False
        return tuple(a)


@cache
def tomography_plan(n: int) -> MeasurementPlan:
    """The plan of a register of at most ``CHAIN_CAP`` qubits; one plan
    per n."""
    if not 1 <= n <= CHAIN_CAP:
        raise MeasureError(f"need 1 <= n <= {CHAIN_CAP}, the register cap; "
                           f"got n = {n}")
    return MeasurementPlan(n)


def _probabilities(state: PseudoSpinState) -> np.ndarray:
    """+1 probabilities of every readout of ``tomography_plan(state.n)``."""
    strings = tomography_plan(state.n).strings
    return 0.5 * (1.0 + _expectations(state.amplitudes, strings))


def forward_readouts(state: PseudoSpinState) -> dict:
    """Exact probabilities for every observable of the register's plan."""
    keys = tomography_plan(state.n).keys
    return dict(zip(keys, _probabilities(state).tolist()))


def sample_readouts(state: PseudoSpinState, shots: int,
                    seed: int = 0) -> dict:
    """Binomial shot noise on top of the exact probabilities."""
    if shots < 1:
        raise MeasureError("shots must be >= 1")
    p = np.clip(_probabilities(state), 0.0, 1.0)
    counts = np.random.default_rng(seed).binomial(shots, p)
    keys = tomography_plan(state.n).keys
    return dict(zip(keys, (counts / shots).tolist()))


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
        if not np.isfinite((*self.alphas, *self.phis)).all() or min(self.alphas) < 0:
            raise MeasureError("alphas must be finite and >= 0, phis finite")
        if abs(sum(a * a for a in self.alphas) - 1.0) > 1e-9:
            raise MeasureError("alphas are not normalized")

    @staticmethod
    def from_state(state: PseudoSpinState) -> "EntangledState":
        amps = state.amplitudes     # a unit vector: some |c| > PHASE_CUTOFF
        first = np.argmax(np.abs(amps) > PHASE_CUTOFF)
        amps = amps * np.exp(-1j * np.angle(amps[first]))
        alphas = np.abs(amps)
        phis = np.where(alphas > PHASE_CUTOFF, np.angle(amps), 0.0)
        phis = np.where(phis <= -np.pi + 1e-15, np.pi, phis)
        phis[first] = 0.0       # angle() leaves rounding of ~1e-17 here
        return EntangledState(state.n, tuple(float(a) for a in alphas),
                              tuple(float(p) for p in phis))

    def to_state(self) -> PseudoSpinState:
        amps = np.array([a * np.exp(1j * p)
                         for a, p in zip(self.alphas, self.phis)])
        return PseudoSpinState(amps / np.linalg.norm(amps))


def _z_probabilities(e: np.ndarray, z: np.ndarray, n: int) -> np.ndarray:
    """Joint z-basis distribution from the expectations e of the z
    strings z over every nonempty subset."""
    return np.clip((1.0 + e @ z_signs(n, z[:, None])) / (1 << n), 0.0, None)


def reconstruct(readouts: dict, n: int) -> EntangledState:
    """Recover the state parameters from exact readout probabilities.

    Supported for n <= 2.  The amplitudes v are fitted to all readouts
    by ``_gauss_newton`` over (Re v, Im v), from a grid of starts whose
    moduli come from the z readouts and whose phases relative to
    component 0 are 0 or +-2.1, stopping at the first start that matches
    to machine precision.  The x readouts are linear in a small
    amplitude where the z readouts are quadratic, so the fit resolves an
    empty level whose z probability rounds to ~1e-16 (a ~1e-8 amplitude
    as its square root).  Missing or non-finite readouts and
    inconsistent inputs (probabilities that no state reproduces within
    ``RESIDUAL_TOL``) are rejected, the latter with the residual.
    """
    if n not in (1, 2):
        raise MeasureError("reconstruction is implemented for n <= 2")
    plan = tomography_plan(n)
    for key in plan.keys:
        if key not in readouts:
            raise MeasureError(f"readouts lack observable {key!r}")
        if not np.isfinite(readouts[key]):
            raise MeasureError(f"readout {key!r} is not finite: "
                               f"{readouts[key]}")
    r = np.array([readouts[key] for key in plan.keys], dtype=float)
    e = 2.0 * r - 1.0
    x, z, _ = plan.strings
    alphas = np.sqrt(_z_probabilities(e[x == 0], z[x == 0], n))
    alphas /= np.linalg.norm(alphas)
    table = _Table([(1.0, PauliString(n, *s))
                    for s in zip(*(a.tolist() for a in plan.strings))], n)
    rows = table.cols[table.group], table.E

    best = None
    for s0 in itertools.product((0.0, -2.1, 2.1), repeat=alphas.size - 1):
        sol = _gauss_newton(alphas * np.exp(1j * np.array((0.0, *s0))),
                            rows, e)
        if best is None or sol[1] < best[1]:
            best = sol
        if best[1] < 1e-24:
            break
    est = EntangledState.from_state(PseudoSpinState(best[0]))
    resid = np.max(np.abs(_probabilities(est.to_state()) - r))
    if resid > RESIDUAL_TOL:
        raise MeasureError(
            f"readouts inconsistent with a pure register state "
            f"(residual {resid:.3e} > {RESIDUAL_TOL:.1e})")
    return est


FIT_STEPS = 100                  # Gauss-Newton steps one fit may take


def _gauss_newton(v, rows, e) -> tuple:
    """Minimize the cost |_misfit(v)|^2 / 2 over unit vectors v in the
    parameters (Re v, Im v); returns (v, cost).  Each step is the
    least-norm solution h of J h = -r, which leaves the global phase (a
    null direction of J) alone, and the trial point is scaled back to
    norm 1, so that an overshooting step from a far start cannot inflate
    v.  A fit ends at the first step that does not lower the cost, or
    after ``FIT_STEPS`` steps."""
    res = _misfit(v, rows, e)
    cost = 0.5 * (res @ res)
    for _ in range(FIT_STEPS):
        h = np.linalg.lstsq(_misfit_jacobian(v, rows), -res, rcond=None)[0]
        t = v + h[:v.size] + 1j * h[v.size:]
        t /= np.linalg.norm(t)
        res_t = _misfit(t, rows, e)
        cost_t = 0.5 * (res_t @ res_t)
        if not cost_t < cost:
            break
        v, res, cost = t, res_t, cost_t
    return v, cost


def _misfit(v, rows: tuple, e: np.ndarray) -> np.ndarray:
    """(E - e) / 2 with E = Re <v|P|v> for rows (t, c), (P v)_s = c_s v[t_s],
    not (1 + E) / 2 - r: rounding 1 + E drowns small terms."""
    t, c = rows
    return 0.5 * ((v.conj() * c * v[t]).real.sum(axis=1) - e)


def _misfit_jacobian(v, rows: tuple) -> np.ndarray:
    """Columns Re (P v)_s for Re v_s and Im (P v)_s for Im v_s: P is
    Hermitian, so d<v|P|v> = 2 Re <dv|P v>."""
    t, c = rows
    pv = c * v[t]
    return np.concatenate((pv.real, pv.imag), axis=1)


def parameter_error(a: EntangledState, b: EntangledState) -> float:
    """Max deviation over amplitudes and (relevant) wrapped phases, the
    phases taken relative to a's largest amplitude: a gauge fixed on a
    later index, where amplitude 0 was too small to resolve, agrees."""
    if a.n != b.n:
        raise MeasureError("register sizes differ")
    err = max(abs(x - y) for x, y in zip(a.alphas, b.alphas))
    ref = int(np.argmax(a.alphas))
    for aa, pa, pb in zip(a.alphas, a.phis, b.phis):
        if aa > AMP_TOL:
            d = (pa - a.phis[ref]) - (pb - b.phis[ref])
            err = max(err, abs((d + np.pi) % (2 * np.pi) - np.pi))
    return float(err)

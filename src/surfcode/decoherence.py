"""Thermal-error model: vortex mass, decoherence time, tunneling
exponent and the crossover temperature between thermally activated and
tunneling-dominated error dynamics.

Units: hbar = k_B = 1; temperatures and fields in units of the
stabilizer strength g.  All numbers here are order-of-magnitude
estimates by construction (no prefactor calibration exists).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class DecoherenceError(ValueError):
    pass


def _finite(**values: float) -> None:
    """Reject NaN and infinite inputs, which every sign check passes."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise DecoherenceError(f"{name} must be finite, got {v}")


@dataclass(frozen=True)
class ThermalParams:
    g: float
    T: float
    hx: float = 0.0
    hy: float = 0.0
    L_p: float = 1.0   # tunneling-path length, lattice units

    def __post_init__(self):
        _finite(g=self.g, T=self.T, hx=self.hx, hy=self.hy, L_p=self.L_p)
        if self.g <= 0:
            raise DecoherenceError("g must be positive")
        if self.T < 0:
            raise DecoherenceError("temperature must be >= 0")
        if self.L_p < 1:
            raise DecoherenceError("path length must be >= 1")
        if self.hx < 0 or self.hy < 0:
            raise DecoherenceError("field magnitudes enter; use hx, hy >= 0")


def effective_mass(hx: float) -> float:
    """Vortex band mass 1/(2 hx); infinite (immobile) at zero field."""
    _finite(hx=hx)
    if hx < 0:
        raise DecoherenceError("hx must be >= 0")
    if hx == 0.0:
        return math.inf
    return 1.0 / (2.0 * hx)


def thermal_velocity(T: float, hx: float) -> float:
    """v* = sqrt(T / M_eff) = sqrt(2 T hx)."""
    _finite(T=T, hx=hx)
    if T < 0 or hx < 0:
        raise DecoherenceError("T and hx must be >= 0")
    return math.sqrt(2.0 * T * hx)


def decoherence_time(params: ThermalParams) -> float:
    """t_de = (L_p / v*) exp(4g/T); infinite-time sentinel at T = 0 or
    hx = 0 where the estimate breaks down (frozen vortices)."""
    if params.T == 0.0 or params.hx == 0.0:
        return math.inf
    v = thermal_velocity(params.T, params.hx)
    try:
        return (params.L_p / v) * math.exp(4.0 * params.g / params.T)
    except OverflowError:
        return math.inf


def tunneling_exponent(g: float, hx: float, hy: float, L_p: float) -> float:
    """B = max(L_p ln(4g/|hx|), L_p ln(8g/|hy|)), omitting zero-field
    terms; with no drive at all the exponent is undefined."""
    _finite(g=g, hx=hx, hy=hy, L_p=L_p)
    if g <= 0 or L_p < 1:
        raise DecoherenceError("need g > 0 and L_p >= 1")
    terms = []
    if hx != 0.0:
        terms.append(L_p * math.log(4.0 * g / abs(hx)))
    if hy != 0.0:
        terms.append(L_p * math.log(8.0 * g / abs(hy)))
    if not terms:
        raise DecoherenceError("tunneling exponent needs a drive field")
    return max(terms)


def crossover_temperature(g: float, B: float) -> float:
    """T* = 4g / B separating thermal activation from tunneling."""
    _finite(g=g, B=B)
    if B <= 0:
        raise DecoherenceError("B must be positive")
    return 4.0 * g / B


@dataclass(frozen=True)
class SafetyReport:
    safe: bool
    T: float
    T_star: float
    B: float
    t_de: float
    safety_factor: float


SAFETY_FACTOR = 10.0     # operate at most at T*/SAFETY_FACTOR


def safe_to_operate(params: ThermalParams) -> SafetyReport:
    """True iff T <= T*/SAFETY_FACTOR; T = 0 is always safe."""
    B = tunneling_exponent(params.g, params.hx, params.hy, params.L_p)
    T_star = crossover_temperature(params.g, B)
    t_de = decoherence_time(params)
    safe = params.T <= T_star / SAFETY_FACTOR
    return SafetyReport(bool(safe), params.T, T_star, B, t_de, SAFETY_FACTOR)


def crossover_sweep(g: float, hx_values, L_p: float, T: float = 0.0,
                    hy: float = 0.0):
    """Rows (hx, B, T*, t_de) for crossover-curve plots."""
    _finite(T=T)
    rows = []
    for hx in hx_values:
        B = tunneling_exponent(g, hx, hy, L_p)
        ts = crossover_temperature(g, B)
        td = decoherence_time(ThermalParams(g, T, hx, hy, L_p)) if T > 0 \
            else math.inf
        rows.append((float(hx), B, ts, td))
    return rows

"""Thermal-error model formulas and monotonicity."""

import math
import re

import numpy as np
import pytest

from surfcode.decoherence import (DecoherenceError, ThermalParams,
                                  crossover_sweep, crossover_temperature,
                                  decoherence_time, effective_mass,
                                  safe_to_operate, thermal_velocity,
                                  tunneling_exponent)


def test_effective_mass_values():
    assert effective_mass(0.5) == pytest.approx(1.0)
    assert effective_mass(0.05) == pytest.approx(10.0)
    assert math.isinf(effective_mass(0.0))
    with pytest.raises(DecoherenceError):
        effective_mass(-0.1)


def test_decoherence_time_value():
    p = ThermalParams(g=1.0, T=0.5, hx=0.1, L_p=10.0)
    # 10 / sqrt(0.1) * e^8 = 94266.17
    assert decoherence_time(p) == pytest.approx(94266.168, rel=1e-5)


def test_decoherence_time_limits():
    assert math.isinf(decoherence_time(ThermalParams(1.0, 0.0, 0.1, L_p=5)))
    assert math.isinf(decoherence_time(ThermalParams(1.0, 0.5, 0.0, L_p=5)))
    # doubling g squares the exponential factor at fixed T
    t1 = decoherence_time(ThermalParams(1.0, 0.5, 0.1, L_p=10))
    t2 = decoherence_time(ThermalParams(2.0, 0.5, 0.1, L_p=10))
    assert t2 / t1 == pytest.approx(math.exp(4.0 / 0.5), rel=1e-9)


def test_decoherence_time_decreasing_in_T():
    ts = [decoherence_time(ThermalParams(1.0, T, 0.1, L_p=10))
          for T in np.linspace(0.2, 3.9, 12)]
    assert all(a > b for a, b in zip(ts, ts[1:]))


def test_tunneling_exponent_value():
    B = tunneling_exponent(1.0, 0.01, 0.0, 10)
    assert B == pytest.approx(10 * math.log(400.0), rel=1e-12)
    assert B == pytest.approx(59.915, abs=1e-3)


def test_tunneling_exponent_branches():
    # equal fields: the fermion term dominates (ln 8g/h > ln 4g/h)
    bx = tunneling_exponent(1.0, 0.05, 0.0, 10)
    bboth = tunneling_exponent(1.0, 0.05, 0.05, 10)
    assert bboth > bx
    assert bboth == pytest.approx(10 * math.log(8.0 / 0.05))
    # hx = 4g: the x term vanishes
    assert tunneling_exponent(1.0, 4.0, 0.0, 10) == pytest.approx(0.0)
    with pytest.raises(DecoherenceError):
        tunneling_exponent(1.0, 0.0, 0.0, 10)


def test_tunneling_exponent_decreasing_in_hx():
    hxs = np.linspace(0.005, 0.2, 15)
    bs = [tunneling_exponent(1.0, h, 0.0, 10) for h in hxs]
    assert all(a > b for a, b in zip(bs, bs[1:]))


def test_crossover_temperature():
    B = tunneling_exponent(1.0, 0.01, 0.0, 10)
    assert crossover_temperature(1.0, B) == pytest.approx(0.066762, abs=1e-5)
    assert crossover_temperature(2.0, B) == pytest.approx(
        2 * crossover_temperature(1.0, B))
    assert crossover_temperature(1.0, 1e9) < 1e-8
    with pytest.raises(DecoherenceError):
        crossover_temperature(1.0, 0.0)


def test_crossover_scaling_in_length():
    t1 = crossover_temperature(1.0, tunneling_exponent(1.0, 0.01, 0.0, 5))
    t2 = crossover_temperature(1.0, tunneling_exponent(1.0, 0.01, 0.0, 10))
    assert t1 > t2


def test_safe_to_operate():
    assert safe_to_operate(ThermalParams(1.0, 0.0, 0.01, L_p=10)).safe
    B = tunneling_exponent(1.0, 0.01, 0.0, 10)
    tstar = crossover_temperature(1.0, B)
    assert not safe_to_operate(ThermalParams(1.0, tstar, 0.01, L_p=10)).safe
    rep = safe_to_operate(ThermalParams(1.0, tstar / 20, 0.01, L_p=10))
    assert rep.safe and rep.T_star == pytest.approx(tstar)


def test_crossover_sweep_monotone():
    rows = crossover_sweep(1.0, np.linspace(0.001, 0.1, 12), 10.0)
    tstars = [r[2] for r in rows]
    assert all(a < b for a, b in zip(tstars, tstars[1:]))
    rows5 = crossover_sweep(1.0, np.linspace(0.001, 0.1, 12), 5.0)
    assert all(r5[2] > r10[2] for r5, r10 in zip(rows5, rows))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_are_rejected(bad):
    """Every sign check passes NaN, so each input is checked finite."""
    for kw in ("g", "T", "hx", "hy", "L_p"):
        args = {**dict(g=1.0, T=0.1, hx=0.01, hy=0.0, L_p=10.0), kw: bad}
        with pytest.raises(DecoherenceError, match=f"{kw} must be finite"):
            ThermalParams(**args)
        if kw != "T":
            args.pop("T")
            with pytest.raises(DecoherenceError, match="must be finite"):
                tunneling_exponent(**args)
    for call in (lambda: crossover_temperature(1.0, bad),
                 lambda: crossover_temperature(bad, 10.0),
                 lambda: effective_mass(bad),
                 lambda: crossover_sweep(1.0, [0.01, bad], 10.0),
                 lambda: crossover_sweep(1.0, [0.01], 10.0, T=bad)):
        with pytest.raises(DecoherenceError, match="must be finite"):
            call()


@pytest.mark.parametrize("call, message", [
    (lambda: ThermalParams(0.0, 0.1), "g must be positive"),
    (lambda: ThermalParams(1.0, -0.1), "temperature must be >= 0"),
    (lambda: ThermalParams(1.0, 0.1, L_p=0.5), "path length must be >= 1"),
    (lambda: ThermalParams(1.0, 0.1, hy=-0.01),
     "field magnitudes enter; use hx, hy >= 0"),
    (lambda: thermal_velocity(-1.0, 0.1), "T and hx must be >= 0"),
    (lambda: tunneling_exponent(0.0, 0.1, 0.0, 10.0),
     "need g > 0 and L_p >= 1"),
], ids=["g", "T", "L_p", "field", "velocity", "exponent"])
def test_each_check_refuses_with_its_reason(call, message):
    with pytest.raises(DecoherenceError, match=f"^{re.escape(message)}$"):
        call()

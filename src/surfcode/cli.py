"""Command-line front end: reproducible runs with machine-readable
reports.

Every report embeds the artifact version, the sha256 of the lattice
config (when one is used) and the seed, and is written with sorted keys
so identical inputs give identical bytes.  Units: g = 1 unless set,
hbar = k_B = 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import __version__
from . import decoherence as deco
from . import effective as eff
from . import measure as meas
from . import pauli
from . import spectra
from .lattice import (HoledLattice, LatticeError, field_mask,
                      lattice_from_config, load_config, region_sites)


def _config_hash(path) -> str:
    if path is None:
        return ""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _report(args, payload: dict) -> dict:
    return {
        "artifact_version": __version__,
        "config_hash": _config_hash(getattr(args, "config", None)),
        "seed": getattr(args, "seed", 0),
        **payload,
    }


def _write(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(args, payload: dict) -> None:
    _write(args, json.dumps(_report(args, payload), sort_keys=True, indent=2))


def _emit_csv(args, header, rows) -> None:
    meta = _report(args, {})
    lines = [f"# {k}={v}" for k, v in sorted(meta.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                              for v in row))
    _write(args, "\n".join(lines))


def _load(args) -> tuple[HoledLattice, object]:
    return lattice_from_config(load_config(args.config))


# -- subcommands -------------------------------------------------------------


def cmd_degeneracy(args) -> None:
    lat, _ = _load(args)
    q = pauli.ground_degeneracy(lat)
    _emit(args, {
        "N_active": lat.n_sites,
        "rank": lat.n_sites - (q.bit_length() - 1),
        "Q": q,
        "n_holes": len(lat.holes),
    })


def cmd_spectrum(args) -> None:
    lat, mask = _load(args)
    H = spectra.assemble(lat, args.g, mask)
    spec = spectra.lowest_eigs(H, args.k_count, tol=args.tol, seed=args.seed)
    payload = {
        "eigenvalues": [float(v) for v in spec.eigenvalues],
        "residual_norms": [float(r) for r in spec.residual_norms],
    }
    if lat.holes:
        n = len(lat.holes)
        if len(spec.eigenvalues) > 2 ** n:
            payload["splittings"] = spectra.ground_splitting(spec, n)
        logicals = {}
        size = min(2 ** n, 4, len(spec.eigenvalues))
        for l in range(n):
            pair = pauli.logical_pair(lat, l)
            mz = spectra.logical_expectation(spec, pair.tau_z, size)
            mx = spectra.logical_expectation(spec, pair.tau_x, size)
            logicals[f"hole{l}"] = {
                "tau_z": [[float(x.real) for x in row] for row in mz],
                "tau_x_abs": [[float(abs(x)) for x in row] for row in mx],
            }
        payload["logical_expectations"] = logicals
    _emit(args, payload)


def cmd_dispersion(args) -> None:
    params = spectra.DispersionParams(args.g, args.hx, args.hy)
    KX, KY, E = spectra.dispersion_grid(params, args.kind, args.npts,
                                        args.branch)
    step = max(1, args.npts // args.sample)
    rows = []
    for i in range(0, args.npts, step):
        for j in range(0, args.npts, step):
            rows.append((float(KX[i, j]), float(KY[i, j]), float(E[i, j])))
    _emit_csv(args, ["kx", "ky", "energy"], rows)


def cmd_compare_splitting(args) -> None:
    """ED splitting vs the perturbative closed form on one geometry.

    The ratio tables are the oracle check of the tunneling formulas;
    a persistent constant factor is reported as fitted_constant.
    """
    lat, _ = _load(args)
    if len(lat.holes) != 1:
        raise LatticeError("compare-splitting expects a one-hole config")
    hs = [float(h) for h in args.h_values.split(",")]
    y = args.axis == "y"
    region = {"type": "corridor" if y else "annulus", "hole": 0}
    length = len(region_sites(lat, region))
    splitting = eff.fermion_splitting if y else eff.vortex_splitting
    rows = []
    for h in hs:
        mask = field_mask(lat, region, (0, h, 0) if y else (h, 0, 0))
        closed = abs(splitting(args.g, h, length))
        if closed == 0.0:
            raise ValueError(f"h value {h} gives a zero closed-form "
                             f"splitting, so the ratio is undefined; "
                             f"h values must be nonzero")
        H = spectra.assemble(lat, args.g, mask)
        spec = spectra.lowest_eigs(H, 3, tol=args.tol, seed=args.seed)
        split = float(spec.eigenvalues[1] - spec.eigenvalues[0])
        rows.append({"h": h, "ed_splitting": split, "closed_form": closed,
                     "ratio": split / closed})
    _emit(args, {
        "axis": args.axis,
        "path_length": length,
        "table": rows,
        "fitted_constant": min(rows, key=lambda r: abs(r["h"]))["ratio"],
    })


def cmd_gates(args) -> None:
    if args.gate == "custom":
        angles = tuple(float(v) for v in args.angles.split(","))
        if len(angles) != 3:
            raise ValueError("custom gate needs --angles theta,phi,gamma")
    else:
        angles = eff.GATE_ANGLES[args.gate]
    sched, U = eff.rotation_gate(0, *angles, args.hx_tilde, args.hz_tilde)
    Usim = sched.unitary()
    _emit(args, {
        "angles": {"theta": angles[0], "phi": angles[1], "gamma": angles[2]},
        "pulses": [{"axis": p.axis, "field": p.fieldval,
                    "duration": p.duration} for p in sched.pulses],
        "unitary_re": [[float(x.real) for x in row] for row in U],
        "unitary_im": [[float(x.imag) for x in row] for row in U],
        "pulse_product_error": float(np.max(np.abs(Usim - U))),
    })


def cmd_init(args) -> None:
    n = args.n
    base = eff.EffectiveChain(
        n, tuple([args.jxx] * (n - 1)), tuple([0.0] * (n - 1)),
        tuple([args.hx_tilde] * n), tuple([0.0] * n))
    template = eff.ChainTemplate(base, tuple([args.loop_len] * n),
                                 tuple([args.pair_len] * (n - 1)))
    sched = eff.AdiabaticSchedule(args.h0, args.t0, args.T, args.steps)
    trace: list = []
    eff.adiabatic_init(template, sched, g=args.g, trace=trace)
    stride = max(1, len(trace) // max(1, args.trace))
    rows = trace[::stride]
    if rows[-1] != trace[-1]:
        rows.append(trace[-1])
    _emit_csv(args, ["t", "h", "fidelity"], rows)


def cmd_tomography(args) -> None:
    n = args.n
    plan = meas.tomography_plan(n)
    if args.state == "plus":
        amps = np.ones(2 ** n)
    elif args.state == "up":
        amps = np.zeros(2 ** n)
        amps[0] = 1.0
    elif args.state == "random":
        rng = np.random.default_rng(args.seed)
        amps = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    else:
        with open(args.state) as fh:
            amps = np.array([complex(c[0], c[1]) for c in json.load(fh)])
        if amps.size != 2 ** n:
            raise ValueError(f"state file {args.state} holds {amps.size} "
                             f"amplitudes, --n {n} needs {2 ** n}")
    state = eff.PseudoSpinState(amps / np.linalg.norm(amps))
    if args.shots > 0:
        readouts = meas.sample_readouts(state, plan, args.shots, args.seed)
    else:
        readouts = meas.forward_readouts(state, plan)
    payload = {
        "plan": [ob.key() for ob in plan.observables],
        "parameter_count": plan.parameter_count,
        "complete": plan.complete,
        "raw_probabilities": {k: float(v) for k, v in readouts.items()},
    }
    if n <= 2 and args.shots == 0:
        est = meas.reconstruct(readouts, n)
        truth = meas.EntangledState.from_state(state)
        payload["reconstructed_parameters"] = {
            "alphas": list(est.alphas), "phis": list(est.phis)}
        payload["residual"] = meas.parameter_error(truth, est)
    _emit(args, payload)


def cmd_decoherence(args) -> None:
    if args.sweep:
        name, spec_ = args.sweep.split("=")
        if name != "hx":
            raise ValueError("only hx sweeps are supported")
        a, b, npts = spec_.split(":")
        hxs = np.linspace(float(a), float(b), int(npts))
        rows = deco.crossover_sweep(args.g, hxs, args.Lp, args.T, args.hy)
        _emit_csv(args, ["hx", "B", "T_star", "t_de"], rows)
        return
    params = deco.ThermalParams(args.g, args.T, args.hx, args.hy, args.Lp)
    rep = deco.safe_to_operate(params)
    _emit(args, {
        "B": rep.B, "T_star": rep.T_star, "t_de": rep.t_de,
        "T": rep.T, "safe": rep.safe, "safety_factor": rep.safety_factor,
        "units": "g=1 energy units, hbar=k_B=1",
    })


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="surfcode",
        description="Surface-code tunneling simulator (units: g=1, "
                    "hbar=k_B=1 unless flags say otherwise)")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=True):
        sp.add_argument("--output", default=None, help="report file")
        sp.add_argument("--seed", type=int, default=2024)
        if config:
            sp.add_argument("--config", required=True,
                            help="lattice JSON config")

    sp = sub.add_parser("degeneracy", help="GF(2) rank and ground degeneracy")
    common(sp)
    sp.set_defaults(func=cmd_degeneracy)

    sp = sub.add_parser("spectrum", help="lowest eigenpairs and splittings")
    common(sp)
    sp.add_argument("--g", type=float, default=1.0)
    sp.add_argument("--k-count", dest="k_count", type=int, default=4)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("dispersion", help="quasiparticle band over a k grid")
    common(sp, config=False)
    sp.add_argument("--kind", choices=["vortex", "fermion"], default="vortex")
    sp.add_argument("--branch", choices=["vertical", "parallel"],
                    default="vertical")
    sp.add_argument("--g", type=float, default=1.0)
    sp.add_argument("--hx", type=float, default=0.0)
    sp.add_argument("--hy", type=float, default=0.0)
    sp.add_argument("--npts", type=int, default=512)
    sp.add_argument("--sample", type=int, default=32,
                    help="emit every npts/sample-th grid row")
    sp.set_defaults(func=cmd_dispersion)

    sp = sub.add_parser("compare-splitting",
                        help="ED vs perturbative closed form")
    common(sp)
    sp.add_argument("--g", type=float, default=1.0)
    sp.add_argument("--axis", choices=["x", "y"], default="y")
    sp.add_argument("--h-values", dest="h_values", default="0.1,0.05,0.02")
    sp.add_argument("--tol", type=float, default=1e-11)
    sp.set_defaults(func=cmd_compare_splitting)

    sp = sub.add_parser("gates", help="pulse schedule for a rotation gate")
    common(sp, config=False)
    sp.add_argument("--gate", choices=[*eff.GATE_ANGLES, "custom"],
                    default="pi8")
    sp.add_argument("--angles", default="0,0,0",
                    help="theta,phi,gamma for --gate custom")
    sp.add_argument("--hx-tilde", dest="hx_tilde", type=float, default=1e-3)
    sp.add_argument("--hz-tilde", dest="hz_tilde", type=float, default=1e-3)
    sp.set_defaults(func=cmd_gates)

    sp = sub.add_parser("init", help="adiabatic initialization fidelity trace")
    common(sp, config=False)
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--g", type=float, default=1.0)
    sp.add_argument("--h0", type=float, default=0.5)
    sp.add_argument("--t0", type=float, default=50.0)
    sp.add_argument("--T", type=float, default=2000.0)
    sp.add_argument("--steps", type=int, default=400)
    sp.add_argument("--trace", type=int, default=3,
                    help="number of rows kept on the fidelity trace")
    sp.add_argument("--jxx", type=float, default=2e-4)
    sp.add_argument("--hx-tilde", dest="hx_tilde", type=float, default=5e-4)
    sp.add_argument("--loop-len", dest="loop_len", type=int, default=4)
    sp.add_argument("--pair-len", dest="pair_len", type=int, default=8)
    sp.set_defaults(func=cmd_init)

    sp = sub.add_parser("tomography", help="plan, readouts, reconstruction")
    common(sp, config=False)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--state", default="random",
                    help="'up', 'plus', 'random' or an amplitude JSON file")
    sp.add_argument("--shots", type=int, default=0, help="0 = exact")
    sp.set_defaults(func=cmd_tomography)

    sp = sub.add_parser("decoherence", help="thermal-error model numbers")
    common(sp, config=False)
    sp.add_argument("--g", type=float, default=1.0)
    sp.add_argument("--T", type=float, default=0.0)
    sp.add_argument("--hx", type=float, default=0.0)
    sp.add_argument("--hy", type=float, default=0.0)
    sp.add_argument("--Lp", type=float, default=10.0)
    sp.add_argument("--sweep", default=None, help="hx=a:b:n")
    sp.set_defaults(func=cmd_decoherence)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # structured nonzero-exit diagnostics
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

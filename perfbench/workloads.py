"""The benchmark's three workloads.

Each workload turns the seed into raw numbers (``params``, untimed),
builds the program's inputs from them (``setup``, timed as setup_s),
runs one round of operations (``round``, timed) and checks a round's
outputs against the independent reference (``check``, untimed).
``baseline`` returns the workload's reference operation: the same kind
of work as its dominant program call, done by ``reference.py``.  The run
loop times BASE_OPS of them before and after every round; round_cost is
the round's time in units of one reference operation.
``setup`` and ``round`` take a ``spans.Tracer``: its spans time the calls
into the program and its counts record what the program did; both are
no-ops unless the round is traced.
Every round runs the same operations on the same inputs, so a run
attempts whole rounds and its failure share does not depend on its
length.

Why these workloads:

* local_field_ed: the field sits on one tunneling path, so nearly every
  stabilizer is conserved.  An exact sector ("tapered") solver would
  shrink 2^16 dimensions to 2^3-2^5 here.
* global_field_ed: hx and hz on every site; no stabilizer or logical
  commutes with the field, so a sector solver cannot apply and all the
  time goes to LOBPCG matvecs.  A Pauli-sum kernel change shows here.
* register_pipeline: the paper's workflow on the pseudo-spin layer with
  no spin-level ED.  Dense chain matrices and eigh dominate, so ED
  changes must leave it unchanged.

The seed jitters the corridor and global field strengths by +-2% and
draws every state, angle and coupling of the register pipeline.  The
LOBPCG start block stays the program's default: with it, the matvec
count moves by +-2.5% over the jitter, against +-10% over start blocks.
The annulus field stays at hx = 0.05 for every seed: its matvec count
jumps between ~700 and ~820 for hx within +-2% of 0.05, with no trend,
which would put +-8% of seed noise into round_cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import reference as ref

G = 1.0


class Failure:
    """An operation that raised; counted as a failed operation."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"


def attempt(outs: dict, op: str, fn) -> None:
    try:
        outs[op] = fn()
    except Exception as exc:  # the run goes on; the failure is counted
        outs[op] = Failure(exc)


def verdict(first: dict, later: list, failed_checks: dict) -> dict:
    """Attempted and failed operations of a run.  An operation fails in
    every round when the first round's output failed a check or raised,
    and in a later round also when that round raised or differs from the
    first.  No failure is expected, so any failed operation makes the run
    incorrect."""
    failed = sum(1 for op in first if failed_checks.get(op))
    failed += sum(1 for status in later for op in first
                  if status[op] or failed_checks.get(op))
    return {"correct": failed == 0,
            "attempted": (1 + len(later)) * len(first), "failed": failed}


def repeat_status(wl, first: dict, outs: dict) -> dict:
    """Per op: '' when this round repeats the first round's result,
    'raised' or 'differs' otherwise."""
    status = {}
    for op, o in outs.items():
        if isinstance(o, Failure) or isinstance(first[op], Failure):
            status[op] = "raised"
            continue
        a, b = wl.summary(op, first[op]), wl.summary(op, o)
        same = a.shape == b.shape and np.allclose(a, b, rtol=1e-8, atol=1e-10)
        status[op] = "" if same else "differs"
    return status


def _jitter(rng, value: float) -> float:
    return float(value * (1.0 + 0.02 * rng.uniform(-1.0, 1.0)))


def _random_state(rng, n: int) -> np.ndarray:
    a = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return a / np.linalg.norm(a)


def _close(a, b, atol: float) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol))


class _Checks:
    """Failed check descriptions, by operation."""

    def __init__(self, outs: dict):
        self.outs = outs
        self.failed: dict[str, list[str]] = {op: [] for op in outs}

    def out(self, op: str):
        """The op's output, or None (recorded as failed) if it raised."""
        o = self.outs.get(op)
        if isinstance(o, Failure) or o is None:
            self.failed.setdefault(op, []).append(
                o.error if o is not None else "missing")
            return None
        return o

    def expect(self, op: str, ok: bool, what: str) -> None:
        if not ok:
            self.failed[op].append(what)


# ---------------------------------------------------------------------------
# spin-level ED workloads
# ---------------------------------------------------------------------------


class _EDWorkload:
    """Spin-level ED on one-hole 4x4 lattices.

    Each problem is (label, hole rectangle, field region, field vector,
    LOBPCG tolerance).  Per problem a round runs ground_degeneracy,
    path_metrics, lowest_eigs, one pass of every term through
    apply_pauli, logical_pair and logical_expectation.
    """

    name = ""
    BASE_OPS = 100

    def problems(self, rng) -> list[dict]:
        raise NotImplementedError

    def params(self, seed: int, outdir) -> dict:
        return {"problems": self.problems(np.random.default_rng(seed))}

    def setup(self, sc, p: dict, tr) -> dict:
        span = tr.span
        inp = {}
        for prob in p["problems"]:
            with span("lattice.build_lattice"):
                lat = sc.build_lattice(4, 4, "open",
                                       [sc.HoleSpec(*prob["hole"])])
            with span("lattice.field_mask"):
                mask = sc.field_mask(lat, prob["region"], prob["h"])
            with span("spectra.assemble"):
                H = sc.assemble(lat, G, mask)
            inp[prob["label"]] = (lat, mask, H)
        return inp

    def baseline(self, p: dict, inp: dict):
        """One reference operation: a reference matvec on every problem's
        Hamiltonian, the work that dominates the program's solves."""
        kernels = []
        for prob in p["problems"]:
            lat, mask, _ = inp[prob["label"]]
            stabs = [(s.x, s.z, s.k) for s in lat.stabilizers()]
            kernels.append(ref.GatherMatvec(lat.n_sites, G, stabs,
                                            mask.values))
        v = _random_state(np.random.default_rng(0), lat.n_sites)
        return lambda: [apply(v) for apply in kernels]

    def instrument(self, sc, tr) -> None:
        """Count the solver's applications of the Hamiltonian (calls of
        the program's ``spectra._Apply``), with the vector length and the
        number of terms it loops over per call."""
        apply = sc.spectra._Apply
        call = apply.__call__

        def counted(op, v):
            tr.count("spectra.matvecs")
            tr.count("spectra.dimension", np.size(v))
            tr.count("spectra.terms", len(op.prepped))
            return call(op, v)

        apply.__call__ = counted

    def round(self, sc, p: dict, inp: dict, tr) -> dict:
        span = tr.span
        outs = {}
        for prob in p["problems"]:
            lab, tol = prob["label"], prob["tol"]
            lat, _, H = inp[lab]

            def degeneracy():
                with span("pauli.ground_degeneracy"):
                    return sc.ground_degeneracy(lat)

            def metrics():
                with span("lattice.path_metrics"):
                    return sc.path_metrics(lat)

            def solve():
                with span("spectra.lowest_eigs"):
                    k = outs[f"{lab}.ground_degeneracy"] + 1
                    return sc.lowest_eigs(H, k, tol=tol)

            def apply_terms():
                v = outs[f"{lab}.lowest_eigs"].eigenvectors[:, 0]
                acc = np.zeros(v.shape[0], dtype=complex)
                with span("spectra.apply_terms"):
                    for c, term in H.terms:
                        acc += c * sc.spectra.apply_pauli(term, v)
                return acc

            def logicals():
                with span("pauli.logical_pair"):
                    return sc.logical_pair(lat, 0)

            def expectations():
                spec = outs[f"{lab}.lowest_eigs"]
                pair = outs[f"{lab}.logical_pair"]
                with span("spectra.logical_expectation"):
                    return (sc.logical_expectation(spec, pair.tau_z, 2),
                            sc.logical_expectation(spec, pair.tau_x, 2))

            attempt(outs, f"{lab}.ground_degeneracy", degeneracy)
            if prob.get("path") is not None:
                attempt(outs, f"{lab}.path_metrics", metrics)
            attempt(outs, f"{lab}.lowest_eigs", solve)
            attempt(outs, f"{lab}.apply_terms", apply_terms)
            attempt(outs, f"{lab}.logical_pair", logicals)
            attempt(outs, f"{lab}.logical_expectation", expectations)
        return outs

    def summary(self, op: str, out) -> np.ndarray:
        """Numbers that must repeat from round to round."""
        kind = op.split(".", 1)[1]
        if kind == "ground_degeneracy":
            return np.array([out], dtype=float)
        if kind == "path_metrics":
            return np.array(list(out.vortex_loop)
                            + [v or 0 for v in out.fermion_boundary], float)
        if kind == "lowest_eigs":
            return np.real(np.asarray(out.eigenvalues))
        if kind == "apply_terms":
            return np.array([np.linalg.norm(out)])
        if kind == "logical_pair":
            return np.array([out.tau_z.x, out.tau_z.z,
                             out.tau_x.x, out.tau_x.z], dtype=float)
        return np.abs(np.concatenate([out[0].ravel(), out[1].ravel()]))

    def check(self, sc, p: dict, inp: dict, outs: dict) -> tuple[dict, dict]:
        """Failed checks by op, and the measured splitting errors."""
        c = _Checks(outs)
        errors = {}
        for prob in p["problems"]:
            lab = prob["label"]
            lat, mask, H = inp[lab]
            n = lat.n_sites
            stabs = [(s.x, s.z, s.k) for s in lat.stabilizers()]
            Href = ref.spin_hamiltonian(n, G, stabs, mask.values)
            bound = ref.norm_bound(G, len(stabs), mask.values)

            op = f"{lab}.ground_degeneracy"
            q = c.out(op)
            if q is not None:
                # one domino hole carries one logical qubit
                c.expect(op, q == 2, f"ground degeneracy {q}, want 2")

            if prob.get("path") is not None:
                op = f"{lab}.path_metrics"
                m = c.out(op)
                if m is not None:
                    kind, want = prob["path"]
                    got = (m.fermion_boundary[0] if kind == "fermion"
                           else m.vortex_loop[0])
                    c.expect(op, got == want, f"{kind} length {got}, want {want}")

            op = f"{lab}.lowest_eigs"
            spec = c.out(op)
            if spec is not None:
                lam = np.real(np.asarray(spec.eigenvalues))
                k = len(lam)
                c.expect(op, k == 3, f"{k} levels, want 3")
                U = ref.to_plain(spec.eigenvectors, H.frame, n)
                res = np.linalg.norm(Href @ U - U * lam[None, :], axis=0)
                c.expect(op, bool(np.all(res <= 50 * prob["tol"] * bound)),
                         f"residuals {res} above 50*tol*|H|")
                mu = ref.lowest_levels(Href, k)
                c.expect(op, bool(np.all(np.abs(lam - mu) <= 2 * res + 1e-10)),
                         f"eigenvalues {lam} differ from eigsh {mu}")
                split = lam[1] - lam[0]
                kind = prob["property"]
                if kind == "corridor":
                    err = abs(split - 2.0 * prob["h"][1])
                    c.expect(op, err <= 1e-9, f"splitting error {err:.3e}")
                    errors[lab] = float(err)
                elif kind == "annulus":
                    closed = ref.vortex_splitting(G, prob["h"][0], 4)
                    ratio = split / abs(closed)
                    c.expect(op, abs(ratio - 20.0) <= 0.2,
                             f"ED/closed-form ratio {ratio:.4f}, want 20+-1%")
                else:
                    errors[lab] = float(abs(split - (mu[1] - mu[0])))

            op = f"{lab}.apply_terms"
            hv = c.out(op)
            if hv is not None and spec is not None:
                v0 = spec.eigenvectors[:, 0]
                want = ref.frame_matvec(Href, H.frame, n, v0)
                diff = float(np.linalg.norm(hv - want))
                c.expect(op, diff <= 1e-10 * bound, f"H v differs by {diff:.3e}")

            op = f"{lab}.logical_pair"
            pair = c.out(op)
            if pair is not None:
                tz = (pair.tau_z.x, pair.tau_z.z)
                tx = (pair.tau_x.x, pair.tau_x.z)
                c.expect(op, ref.anticommute(tz, tx), "tau_z and tau_x commute")
                c.expect(op, not any(ref.anticommute(t, s[:2])
                                     for t in (tz, tx) for s in stabs),
                         "a logical anticommutes with a stabilizer")

            op = f"{lab}.logical_expectation"
            mats = c.out(op)
            if mats is not None and spec is not None and pair is not None:
                V = ref.to_plain(spec.eigenvectors[:, :2], H.frame, n)
                for name, P, M in (("tau_z", pair.tau_z, mats[0]),
                                   ("tau_x", pair.tau_x, mats[1])):
                    L = ref.pauli_matrix(n, P.x, P.z, P.k)
                    want = V.conj().T @ (L @ V)
                    c.expect(op, _close(M, want, 1e-10),
                             f"<v|{name}|v> differs from the reference")
                if prob["property"] == "corridor":
                    Mz, Mx = mats
                    w, R = np.linalg.eigh((Mz + Mz.conj().T) / 2)
                    c.expect(op, _close(w, [-1.0, 1.0], 1e-8),
                             f"tau_z eigenvalues {w} in the flux basis")
                    Mxf = R.conj().T @ Mx @ R
                    c.expect(op, _close(np.abs(Mxf), [[0, 1], [1, 0]], 1e-8),
                             "|tau_x| is not 1 off the flux-basis diagonal")
        return c.failed, errors


class LocalFieldED(_EDWorkload):
    """Field on one tunneling path: the length-1 edge corridor under hy
    (splitting exactly 2 hy) and the length-4 annulus under hx (ratio to
    the closed form ~20)."""

    name = "local_field_ed"
    BASE_OPS = 80

    def problems(self, rng) -> list[dict]:
        hy = _jitter(rng, 0.1)
        hx = 0.05
        return [
            {"label": "corridor", "hole": (0, 1, 0, 2),
             "region": {"type": "corridor", "hole": 0}, "h": (0.0, hy, 0.0),
             "tol": 1e-10, "path": ("fermion", 1), "property": "corridor"},
            {"label": "annulus", "hole": (1, 1, 1, 2),
             "region": {"type": "annulus", "hole": 0}, "h": (hx, 0.0, 0.0),
             "tol": 1e-8, "path": ("vortex", 4), "property": "annulus"},
        ]


class GlobalFieldED(_EDWorkload):
    """hx = hz on every site of the edge-corridor lattice: no stabilizer
    or logical is conserved."""

    name = "global_field_ed"

    def problems(self, rng) -> list[dict]:
        h = _jitter(rng, 0.15)
        return [{"label": "global", "hole": (0, 1, 0, 2),
                 "region": {"type": "all"}, "h": (h, 0.0, h), "tol": 1e-8,
                 "path": None, "property": "none"}]


# ---------------------------------------------------------------------------
# register pipeline
# ---------------------------------------------------------------------------

N_REG = 8               # dominoes on the 4x17 lattice = pseudo-spins
RAMP_STEPS = 40
EVOLVE_DT = 0.7


class RegisterPipeline:
    """Geometry of a 4x17 lattice with 8 horizontal dominoes, adiabatic
    initialization of the n=8 chain, one evolution step, gate synthesis,
    n=8 readouts, n<=2 reconstruction, a crossover sweep and one
    in-process CLI tomography report."""

    name = "register_pipeline"
    BASE_OPS = 36

    def params(self, seed: int, outdir) -> dict:
        """Seeded numbers; also writes the CLI's amplitude file."""
        rng = np.random.default_rng(seed)
        n = N_REG
        angles = [tuple(rng.uniform(0, 2 * np.pi, 3)) for _ in range(4)]
        p = {
            "hy": _jitter(rng, 0.01),
            "jxx": _jitter(rng, 1e-5),
            "hx": _jitter(rng, 2e-5),
            "evolve": {k: tuple(rng.uniform(-0.5, 0.5, n - (k[0] == "j")))
                       for k in ("jxx", "jzz", "hx", "hz")},
            "evolve_state": _random_state(rng, n),
            "readout_state": _random_state(rng, n),
            "tomography_states": [_random_state(rng, m) for m in (1, 1, 2, 2)],
            "gate_fields": (_jitter(rng, 1.1e-3), _jitter(rng, 0.7e-3)),
            "gate_angles": angles,
            "sweep_hx": np.sort(rng.uniform(0.002, 0.2, 25)),
            "cli_state": _random_state(rng, 2),
        }
        path = outdir / f"{self.name}_{seed}_state.json"
        path.write_text(json.dumps([[a.real, a.imag] for a in p["cli_state"]]))
        p["cli_state_path"] = str(path)
        return p

    def instrument(self, sc, tr) -> None:
        pass

    def baseline(self, p: dict, inp: dict):
        """One reference operation: a reference chain step (chain matrix,
        eigh, propagator) on the n=8 chain, the unit of the ramp."""
        e = p["evolve"]
        return lambda: ref.chain_step(e["jxx"], e["jzz"], e["hx"], e["hz"],
                                      p["evolve_state"], EVOLVE_DT)

    def setup(self, sc, p: dict, tr) -> dict:
        span = tr.span
        n = N_REG
        with span("lattice.build_lattice"):
            lat = sc.build_lattice(4, 2 * n + 1, "open",
                                   [sc.HoleSpec(1, y, 2, y)
                                    for y in range(1, 2 * n, 2)])
        with span("lattice.field_mask"):
            mask = sc.field_mask(lat, {"type": "corridor", "hole": n - 1},
                                 (0.0, p["hy"], 0.0))
        base = sc.EffectiveChain(n, (p["jxx"],) * (n - 1), (0.0,) * (n - 1),
                                 (p["hx"],) * n, (0.0,) * n)
        e = p["evolve"]
        return {
            "lattice": lat,
            "mask": mask,
            "template": sc.ChainTemplate(base, (4,) * n, (8,) * (n - 1)),
            "schedule": sc.AdiabaticSchedule(0.5, 50.0, 600.0, RAMP_STEPS),
            "chain": sc.EffectiveChain(n, e["jxx"], e["jzz"], e["hx"], e["hz"]),
            "evolve_state": sc.PseudoSpinState(p["evolve_state"]),
            "readout_state": sc.PseudoSpinState(p["readout_state"]),
            "tomography_states": [sc.PseudoSpinState(a)
                                  for a in p["tomography_states"]],
        }

    def round(self, sc, p: dict, inp: dict, tr) -> dict:
        span = tr.span
        lat = inp["lattice"]
        outs = {}

        def degeneracy():
            with span("pauli.ground_degeneracy"):
                return sc.ground_degeneracy(lat)

        def metrics():
            with span("lattice.path_metrics"):
                return sc.path_metrics(lat)

        def logicals():
            with span("pauli.logical_pair"):
                return [sc.logical_pair(lat, l) for l in range(N_REG)]

        def chain():
            with span("effective.build_chain"):
                return sc.build_chain(lat, G, inp["mask"])

        def ramp():
            steps = []
            with span("effective.adiabatic_init"):
                out = sc.adiabatic_init(inp["template"], inp["schedule"],
                                        g=G, trace=steps)
            tr.count("effective.steps", len(steps))
            return out

        def matrix():
            with span("effective.matrix"):
                return inp["chain"].matrix()

        def step():
            with span("effective.evolve"):
                return sc.evolve(inp["chain"], inp["evolve_state"], EVOLVE_DT)

        def gates():
            hxt, hzt = p["gate_fields"]
            with span("effective.rotation_gate"):
                out = [sc.rotation_gate(0, *a, hxt, hzt)
                       for a in p["gate_angles"]]
                out.append(sc.pi8_gate(hxt, hzt))
                out.append(sc.hadamard_gate(hxt, hzt))
            return [(s, s.unitary(), U) for s, U in out]

        def readouts():
            with span("measure.forward_readouts"):
                r = sc.forward_readouts(inp["readout_state"])
            tr.count("measure.observables", len(r))
            return r

        def tomography():
            out = []
            for s in inp["tomography_states"]:
                with span("measure.forward_readouts"):
                    r = sc.forward_readouts(s)
                tr.count("measure.observables", len(r))
                with span("measure.reconstruct"):
                    out.append((r, sc.reconstruct(r, s.n)))
            return out

        def sweep():
            with span("decoherence.crossover_sweep"):
                return sc.crossover_sweep(G, p["sweep_hx"], 10.0)

        def cli():
            buf = io.StringIO()
            with span("cli.main"), contextlib.redirect_stdout(buf):
                rc = sc.cli.main(["tomography", "--n", "2", "--state",
                                  p["cli_state_path"], "--shots", "0"])
            return rc, buf.getvalue()

        attempt(outs, "geometry.ground_degeneracy", degeneracy)
        attempt(outs, "geometry.path_metrics", metrics)
        attempt(outs, "geometry.logical_pair", logicals)
        attempt(outs, "geometry.build_chain", chain)
        attempt(outs, "effective.adiabatic_init", ramp)
        attempt(outs, "effective.matrix", matrix)
        attempt(outs, "effective.evolve", step)
        attempt(outs, "effective.gates", gates)
        attempt(outs, "measure.forward_readouts", readouts)
        attempt(outs, "measure.reconstruct", tomography)
        attempt(outs, "decoherence.crossover_sweep", sweep)
        attempt(outs, "cli.main", cli)
        return outs

    def summary(self, op: str, out) -> np.ndarray:
        if op == "geometry.ground_degeneracy":
            return np.array([out], dtype=float)
        if op == "geometry.path_metrics":
            return np.array(list(out.vortex_loop)
                            + sorted(out.vortex_pair.values()), dtype=float)
        if op == "geometry.logical_pair":
            return np.array([[q.tau_z.x, q.tau_z.z, q.tau_x.x, q.tau_x.z]
                             for q in out], dtype=float).ravel()
        if op == "geometry.build_chain":
            return np.array(out.jxx + out.jzz + out.hx + out.hz)
        if op == "effective.adiabatic_init":
            return np.abs(np.append(out[0].amplitudes, out[1]))
        if op == "effective.matrix":
            return np.abs(out).ravel()
        if op == "effective.evolve":
            return np.abs(out.amplitudes)
        if op == "effective.gates":
            return np.abs(np.concatenate([U.ravel() for _, _, U in out]))
        if op == "measure.forward_readouts":
            return np.array([out[k] for k in sorted(out)])
        if op == "measure.reconstruct":
            return np.concatenate([np.append(e.alphas, e.phis) for _, e in out])
        if op == "decoherence.crossover_sweep":
            return np.array([r[1:3] for r in out]).ravel()
        rc, text = out
        return np.array([rc, len(text)], dtype=float)

    def check(self, sc, p: dict, inp: dict, outs: dict) -> tuple[dict, dict]:
        c = _Checks(outs)
        n = N_REG
        lat = inp["lattice"]

        op = "geometry.ground_degeneracy"
        q = c.out(op)
        if q is not None:
            c.expect(op, q == 2 ** n, f"ground degeneracy {q}, want 2^{n}")

        op = "geometry.path_metrics"
        m = c.out(op)
        if m is not None:
            c.expect(op, tuple(m.vortex_loop) == (4,) * n,
                     f"vortex loops {m.vortex_loop}, want 4")
            c.expect(op, sorted(m.vortex_pair.values()) == [8] * (n - 1),
                     f"vortex pairs {m.vortex_pair}, want 8")
            c.expect(op, sorted(m.fermion_pair.values()) == [2] * (n - 1),
                     f"fermion pairs {m.fermion_pair}, want 2")
            c.expect(op, tuple(m.fermion_boundary)
                     == tuple(2 * (l + 1) for l in range(n)),
                     f"fermion strings {m.fermion_boundary}")

        op = "geometry.logical_pair"
        pairs = c.out(op)
        if pairs is not None:
            c.expect(op, len(pairs) == n,
                     f"{len(pairs)} logical pairs, want {n}")
            stabs = [(s.x, s.z) for s in lat.stabilizers()]
            ops = [((q.tau_z.x, q.tau_z.z), (q.tau_x.x, q.tau_x.z))
                   for q in pairs]
            for l, (tz, tx) in enumerate(ops):
                c.expect(op, ref.anticommute(tz, tx),
                         f"tau_z and tau_x of hole {l} commute")
                c.expect(op, not any(ref.anticommute(t, s)
                                     for t in (tz, tx) for s in stabs),
                         f"a logical of hole {l} anticommutes with a stabilizer")
                c.expect(op, not any(ref.anticommute(a, b)
                                     for m2, other in enumerate(ops) if m2 != l
                                     for a in (tz, tx) for b in other),
                         f"logicals of hole {l} anticommute with another's")

        op = "geometry.build_chain"
        ch = c.out(op)
        if ch is not None:
            hy = p["hy"]
            want_jxx = [ref.fermion_splitting(G, hy, 2) / 2] * (n - 1)
            want_hx = [ref.fermion_splitting(G, hy, 2 * (l + 1)) / 2
                       for l in range(n)]
            c.expect(op, ch.n == n, f"chain of {ch.n}")
            c.expect(op, np.allclose(ch.jxx, want_jxx, rtol=1e-12, atol=0),
                     f"Jxx {ch.jxx}, want {want_jxx[0]}")
            c.expect(op, np.allclose(ch.hx, want_hx, rtol=1e-12, atol=0),
                     f"hx_tilde {ch.hx}, want {want_hx}")
            c.expect(op, not any(ch.jzz) and not any(ch.hz),
                     "Jzz or hz_tilde nonzero without an x field")

        op = "effective.adiabatic_init"
        res = c.out(op)
        if res is not None:
            state, fid = res
            amps = state.amplitudes
            c.expect(op, abs(np.linalg.norm(amps) - 1.0) <= 1e-10,
                     f"norm {np.linalg.norm(amps)}")
            c.expect(op, fid >= 0.99, f"ramp fidelity {fid:.5f} < 0.99")
            c.expect(op, abs(fid - abs(amps[0]) ** 2) <= 1e-12,
                     "fidelity differs from |<up...up|state>|^2")

        e = p["evolve"]
        Hc = ref.chain_matrix(e["jxx"], e["jzz"], e["hx"], e["hz"])
        op = "effective.matrix"
        M = c.out(op)
        if M is not None:
            c.expect(op, _close(M, Hc, 1e-12), "chain matrix differs")
        op = "effective.evolve"
        st = c.out(op)
        if st is not None:
            want = ref.evolve(Hc, p["evolve_state"], EVOLVE_DT)
            c.expect(op, _close(st.amplitudes, want, 1e-10),
                     "evolve step differs from expm")

        op = "effective.gates"
        gs = c.out(op)
        if gs is not None:
            angles = list(p["gate_angles"]) + [
                (0.0, np.pi / 8, np.pi / 8),
                (7 * np.pi / 4, np.pi / 4, np.pi / 4)]
            c.expect(op, len(gs) == len(angles),
                     f"{len(gs)} gates, want {len(angles)}")
            for (sched, Usched, U), a in zip(gs, angles):
                c.expect(op, _close(Usched, U, 1e-12),
                         "pulse product differs from rotation_unitary")
                c.expect(op, _close(U, ref.rotation(*a), 1e-12),
                         f"rotation {a} differs from expm")

        op = "measure.forward_readouts"
        r = c.out(op)
        if r is not None:
            want = ref.readouts(p["readout_state"])
            c.expect(op, set(r) == set(want), "observable keys differ")
            if set(r) == set(want):
                worst = max(abs(r[k] - want[k]) for k in want)
                c.expect(op, worst <= 1e-12, f"readouts differ by {worst:.2e}")

        op = "measure.reconstruct"
        tom = c.out(op)
        if tom is not None:
            want_n = len(p["tomography_states"])
            c.expect(op, len(tom) == want_n,
                     f"{len(tom)} round trips, want {want_n}")
            for a, (_, est) in zip(p["tomography_states"], tom):
                truth = sc.EntangledState.from_state(sc.PseudoSpinState(a))
                err = sc.parameter_error(truth, est)
                c.expect(op, err <= 1e-6, f"parameter error {err:.2e}")
                fid = abs(np.vdot(a, est.to_state().amplitudes)) ** 2
                c.expect(op, fid >= 1 - 1e-10, f"state fidelity {fid}")

        op = "decoherence.crossover_sweep"
        rows = c.out(op)
        if rows is not None:
            c.expect(op, len(rows) == len(p["sweep_hx"]),
                     f"{len(rows)} sweep rows, want {len(p['sweep_hx'])}")
            for hx, (rhx, B, Ts, td) in zip(p["sweep_hx"], rows):
                Bw, Tw = ref.crossover_row(G, hx, 0.0, 10.0)
                c.expect(op, rhx == hx
                         and math.isclose(B, Bw, rel_tol=1e-12)
                         and math.isclose(Ts, Tw, rel_tol=1e-12)
                         and math.isinf(td), f"row at hx={hx} differs")

        op = "cli.main"
        out = c.out(op)
        if out is not None:
            rc, text = out
            c.expect(op, rc == 0, f"exit code {rc}")
            if rc == 0:
                rep = json.loads(text)
                a = p["cli_state"]
                want = ref.readouts(a)
                got = rep["raw_probabilities"]
                c.expect(op, set(got) == set(want)
                         and max(abs(got[k] - want[k]) for k in want) <= 1e-12,
                         "report probabilities differ")
                c.expect(op, rep["residual"] <= 1e-6,
                         f"report residual {rep['residual']}")
                rp = rep["reconstructed_parameters"]
                amps = np.array(rp["alphas"]) * np.exp(1j * np.array(rp["phis"]))
                fid = abs(np.vdot(a, amps)) ** 2
                c.expect(op, fid >= 1 - 1e-10, f"report state fidelity {fid}")
        return c.failed, {}


WORKLOADS = {w.name: w for w in (LocalFieldED(), GlobalFieldED(),
                                 RegisterPipeline())}

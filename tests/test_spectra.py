"""Exact-diagonalization layer: hermiticity, ground structure, logical
labelling, dispersions, convergence of the splitting ratio, and the
symmetry-sector solver against dense eigh and LOBPCG."""

import dataclasses
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import surfcode as sc
from surfcode import effective as eff
from surfcode.lattice import HoledLattice, Plaquette, cell_parity
from surfcode.pauli import PauliString, commutes, multiply
from surfcode import spectra
from surfcode.spectra import (SECTOR_DENSE_CAP, DispersionParams, SpectraError,
                              SpinHamiltonian, _Apply, _FamilyInverse,
                              _conjugate_by_s,
                              _conserved_generators, _SolveContext, _Taper,
                              apply_pauli, assemble, dispersion_grid,
                              fermion_dispersion, fermion_gap,
                              ground_splitting, logical_expectation,
                              lowest_eigs, pauli_sum_matrix,
                              vortex_dispersion, vortex_gap)


def test_hermiticity_random_vectors(one_hole_lattice):
    lat = one_hole_lattice
    mask = sc.field_mask(lat, {"type": "all"}, (0.03, 0.02, 0.01))
    H = assemble(lat, 1.0, mask)
    apply_h = _Apply(H)
    rng = np.random.default_rng(9)
    for _ in range(4):
        u = rng.standard_normal(H.dimension) + 1j * rng.standard_normal(H.dimension)
        v = rng.standard_normal(H.dimension) + 1j * rng.standard_normal(H.dimension)
        lhs = np.vdot(u, apply_h(v))
        rhs = np.conj(np.vdot(v, apply_h(u)))
        assert abs(lhs - rhs) <= 1e-12 * H.norm_bound * np.linalg.norm(u) * np.linalg.norm(v)


def test_zero_field_term_coefficients(one_hole_lattice):
    H = assemble(one_hole_lattice, 1.3)
    assert all(c == -1.3 for c, _ in H.terms)
    assert H.n_stabilizer_terms == len(H.terms)


def test_uniform_hx_adds_site_terms(one_hole_lattice):
    lat = one_hole_lattice
    mask = sc.field_mask(lat, {"type": "all"}, (0.1, 0, 0))
    H = assemble(lat, 1.0, mask)
    field_terms = [t for t in H.terms if t[0] == 0.1]
    assert len(field_terms) == lat.n_sites


def test_dimension_cap():
    """The cap bounds arrays of 2^n amplitudes, not spins: the 30-spin 6x5
    lattice solves in sectors of one state, and only its full-space
    eigenvectors are refused."""
    lat = sc.build_lattice(6, 5, "open")
    spec = lowest_eigs(assemble(lat, 1.0), 2)
    e0 = -1.0 * len(lat.stabilizers())
    assert spec.hamiltonian.n == 30
    assert np.allclose(spec.eigenvalues, [e0, e0 + 2], rtol=0, atol=1e-12)
    with pytest.raises(SpectraError, match=r"30 spins exceed the dimension "
                                           r"cap 2\^24"):
        spec.eigenvectors


def test_dimension_cap_refuses_a_large_sector_before_allocating():
    """A field on every site of 5x5 conserves nothing, so its one sector
    has 2^25 states: the solve is refused with a few kB traced, where
    one vector would take 256 MiB."""
    lat = sc.build_lattice(5, 5, "open")
    H = assemble(lat, 1.0, sc.field_mask(lat, {"type": "all"},
                                         (0.1, 0, 0.1)))
    tracemalloc.start()
    try:
        with pytest.raises(SpectraError, match=r"sectors of 2\^25 states "
                                               r"exceed the dimension cap"):
            lowest_eigs(H, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_memory_check_refuses_lobpcg_before_it_starts(monkeypatch):
    """With the dense cap below the 256-state sectors and a 1 kB machine,
    the first LOBPCG block (a floor's, 13 x 1 x 256 x 8 bytes, plus 32
    bytes a state for the preconditioner's index, inverse, phase and
    scale) is refused before the preconditioner is built or the solver
    is called, with a few kB traced."""
    monkeypatch.setattr(spectra, "SECTOR_DENSE_CAP", 16)
    monkeypatch.setattr(spectra, "_physical_memory", lambda: 1000)
    calls = []
    monkeypatch.setattr(spectra, "_lobpcg", lambda *a, **kw: calls.append(a))
    fields = {site: (0.1, 0, 0.1) for site in (0, 1, 2, 4)}
    _, lat, mask, _ = _example("torus 3x3", fields, 1)
    H = assemble(lat, 1.0, mask)
    tracemalloc.start()
    try:
        with pytest.raises(SpectraError, match=r"LOBPCG on 1 columns of 256 "
                                               r"states needs ~34816 bytes, "
                                               r"more than the 1000 bytes"):
            lowest_eigs(H, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not calls
    assert peak < 1 << 20


def test_memory_check_reads_a_cgroup_limit(monkeypatch, tmp_path):
    """A cgroup v2 limit below physical memory is the one the refusal
    compares against."""
    limit = tmp_path / "memory.max"
    limit.write_text("4096\n")
    monkeypatch.setattr(spectra, "CGROUP_MEMORY_MAX", str(limit))
    monkeypatch.setattr(spectra, "SECTOR_DENSE_CAP", 16)
    fields = {site: (0.1, 0, 0.1) for site in (0, 1, 2, 4)}
    _, lat, mask, _ = _example("torus 3x3", fields, 1)
    with pytest.raises(SpectraError, match=r"LOBPCG on 1 columns of 256 "
                                           r"states needs ~34816 bytes, "
                                           r"more than the 4096 bytes"):
        lowest_eigs(assemble(lat, 1.0, mask), 4)


@pytest.mark.parametrize("content", ["max\n", None], ids=["max", "absent"])
def test_memory_check_without_a_cgroup_limit(monkeypatch, tmp_path,
                                             content):
    """A cgroup file that says "max", or none at all, leaves physical
    memory as the limit."""
    limit = tmp_path / "memory.max"
    if content is not None:
        limit.write_text(content)
    monkeypatch.setattr(spectra, "CGROUP_MEMORY_MAX", str(limit))
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert spectra._physical_memory() == physical


def test_assemble_rejects_a_mask_of_another_lattice(one_hole_lattice,
                                                    two_hole_lattice):
    """A 20-row mask with fields on sites 17 and 18 on a 16-site lattice
    (whose fields the site loop dropped) and a 16-row mask on a 20-site
    lattice are refused with both counts."""
    values = np.zeros((20, 3))
    values[17, 0] = values[18, 1] = 0.1
    with pytest.raises(sc.LatticeError,
                       match="20 rows; the lattice has 16 sites"):
        assemble(one_hole_lattice, 1.0, sc.FieldMask(values))
    with pytest.raises(sc.LatticeError,
                       match="16 rows; the lattice has 20 sites"):
        assemble(two_hole_lattice, 1.0, sc.FieldMask.zeros(one_hole_lattice))


def test_identity_operator_eigenvalue():
    H = SpinHamiltonian(4, ((2.5, PauliString.identity(4)),), "plain", 1)
    spec = lowest_eigs(H, 1, tol=1e-9)
    assert abs(spec.eigenvalues[0] - 2.5) < 1e-8
    assert spec.residual_norms[0] < 1e-8


def test_dtype_follows_the_terms(one_hole_lattice):
    """A sigma^y term added to the real annulus Hamiltonian by replace
    makes it complex, so the eigenvectors solve it with the residuals
    reported.  A stored dtype stayed float64: the eigenvalues were right,
    but the eigenvectors lost their imaginary parts (true residual 0.05
    against a reported 1e-14, with only a ComplexWarning)."""
    lat, site = one_hole_lattice, 9
    mask = sc.field_mask(lat, {"type": "annulus", "hole": 0}, (0.05, 0, 0))
    H = assemble(lat, 1.0, mask)
    assert H.dtype == np.float64 and mask.values[site, 0] == 0.05
    H = dataclasses.replace(
        H, terms=H.terms + ((0.05, PauliString.sy(H.n, site)),))
    assert H.dtype == np.complex128
    vals = mask.values.copy()
    vals[site, 1] = 0.05
    fresh = lowest_eigs(assemble(lat, 1.0, sc.FieldMask(vals)), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = lowest_eigs(H, 3)
        V = spec.eigenvectors
    assert np.allclose(spec.eigenvalues, fresh.eigenvalues, rtol=0,
                       atol=1e-12)
    true = np.linalg.norm(_Apply(H)(V) - V * spec.eigenvalues, axis=0)
    assert np.all(true <= 1e-12 * H.norm_bound)
    assert np.allclose(spec.residual_norms, true, rtol=0,
                       atol=1e-12 * H.norm_bound)


def test_ground_energy_and_gap(ground_spectrum_one_hole, one_hole_lattice):
    spec = ground_spectrum_one_hole
    e0 = -1.0 * len(one_hole_lattice.stabilizers())
    assert abs(spec.eigenvalues[0] - e0) < 1e-8
    info = ground_splitting(spec, 1)
    assert abs(info["splittings"][1]) < 1e-9
    assert abs(info["excitation_gap"] - 2.0) < 1e-7


def test_torus_degeneracies_ed():
    for (w, h, q) in ((4, 3, 2), (3, 3, 2)):
        lat = sc.build_lattice(w, h, "torus")
        H = assemble(lat, 1.0)
        spec = lowest_eigs(H, q + 1, tol=1e-9)
        vals = spec.eigenvalues
        assert vals[q - 1] - vals[0] < 1e-9
        assert vals[q] - vals[0] > 1.5
        assert sc.ground_degeneracy(lat) == q


def test_commutation_with_stabilizers_on_vectors(one_hole_lattice,
                                                 ground_spectrum_one_hole):
    # [H, W] = 0 at zero field for stabilizers and logicals
    lat = one_hole_lattice
    H = ground_spectrum_one_hole.hamiltonian
    apply_h = _Apply(H)
    rng = np.random.default_rng(31)
    v = rng.standard_normal(H.dimension)
    v /= np.linalg.norm(v)
    pair = sc.logical_pair(lat, 0)
    for W in [lat.stabilizers()[0], lat.stabilizers()[-1],
              pair.tau_z, pair.tau_x]:
        Wf = H.to_frame(W)
        lhs = apply_h(apply_pauli(Wf, v.astype(np.complex128)))
        rhs = apply_pauli(Wf, apply_h(v).astype(np.complex128))
        assert np.linalg.norm(lhs - rhs) < 1e-10 * H.norm_bound


def test_logical_expectation_labels(ground_spectrum_one_hole,
                                    one_hole_lattice):
    spec = ground_spectrum_one_hole
    pair = sc.logical_pair(one_hole_lattice, 0)
    mz = logical_expectation(spec, pair.tau_z, 2)
    _, R = np.linalg.eigh(mz)
    mz = R.conj().T @ mz @ R
    mx = R.conj().T @ logical_expectation(spec, pair.tau_x, 2) @ R
    assert np.allclose(sorted(np.diag(mz).real), [-1.0, 1.0], atol=1e-7)
    assert abs(mz[0, 1]) < 1e-7
    assert abs(abs(mx[0, 1]) - 1.0) < 1e-7
    assert abs(mx[0, 0]) < 1e-7
    ident = logical_expectation(spec, PauliString.identity(16), 2)
    assert np.allclose(ident, np.eye(2), atol=1e-9)


def test_degeneracy_matches_rank(puncture_lattice):
    H = assemble(puncture_lattice, 1.0)
    spec = lowest_eigs(H, 3, tol=1e-9)
    vals = spec.eigenvalues
    assert vals[1] - vals[0] < 1e-9
    assert vals[2] - vals[0] > 1.5
    assert sc.ground_degeneracy(puncture_lattice) == 2


# -- dispersions ---------------------------------------------------------------


def test_flat_bands_at_zero_field():
    p = DispersionParams(1.0)
    ks = np.linspace(-np.pi, np.pi, 7)
    KX, KY = np.meshgrid(ks, ks)
    assert np.allclose(vortex_dispersion(p, KX, KY), 2.0)
    assert np.allclose(fermion_dispersion(p, KX, KY, "vertical"), 4.0)
    assert np.allclose(fermion_dispersion(p, KX, KY, "parallel"), 4.0)


@pytest.mark.parametrize("hx", [0.0, 0.05, 0.1, -0.05, -0.1])
def test_vortex_gap_grid_minimum(hx):
    p = DispersionParams(1.0, hx=hx)
    _, _, E = dispersion_grid(p, "vortex", npts=512)
    assert abs(E.min() - 2.0 * np.sqrt(1 - 4 * abs(hx))) < 1e-9
    assert abs(vortex_gap(p) - 2.0 * np.sqrt(1 - 4 * abs(hx))) < 1e-12


@pytest.mark.parametrize("hy", [0.0, 0.05, 0.1, -0.05, -0.1])
@pytest.mark.parametrize("branch", ["vertical", "parallel"])
def test_fermion_gap_grid_minimum(hy, branch):
    p = DispersionParams(1.0, hy=hy)
    _, _, E = dispersion_grid(p, "fermion", npts=512, branch=branch)
    assert abs(E.min() - 4.0 * np.sqrt(1 - 2 * abs(hy))) < 1e-9
    assert abs(fermion_gap(p) - 4.0 * np.sqrt(1 - 2 * abs(hy))) < 1e-12


def test_specific_gap_values():
    assert abs(vortex_gap(DispersionParams(1.0, hx=0.1))
               - 1.5491933384829668) < 1e-12
    assert abs(fermion_gap(DispersionParams(1.0, hy=0.1))
               - 3.5777087639996634) < 1e-12


def test_gap_closing_flagged():
    for h in (0.3, -0.3):
        with pytest.raises(SpectraError):
            vortex_dispersion(DispersionParams(1.0, hx=h), 0.0, 0.0)
        with pytest.raises(SpectraError):
            vortex_gap(DispersionParams(1.0, hx=h))
    for h in (0.6, -0.6):
        with pytest.raises(SpectraError):
            fermion_dispersion(DispersionParams(1.0, hy=h), 0.0, 0.0)
        with pytest.raises(SpectraError):
            fermion_gap(DispersionParams(1.0, hy=h))


@pytest.mark.parametrize("field", ["g", "hx", "hy"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dispersion_params_reject_non_finite_values(field, bad):
    """A NaN passed the gap checks (4*|hx| >= g is False for NaN) and
    gave NaN energies."""
    with pytest.raises(SpectraError, match="must be finite"):
        DispersionParams(**{"g": 1.0, field: bad})


# -- splitting ratio convergence -------------------------------------------


def test_chain_matches_ed_on_exact_geometry():
    """Oracle equivalence: where the flip string has length 1 it commutes
    with the stabilizer part, the chain is exact, and the ED spectrum
    matches it to machine precision (well within 25%, shrinking in h)."""
    lat = sc.build_lattice(4, 4, "open", [sc.HoleSpec(0, 1, 0, 2)])
    errs = []
    for hy in (0.1, 0.05):
        mask = sc.field_mask(lat, {"type": "corridor", "hole": 0},
                             (0, hy, 0))
        spec = lowest_eigs(assemble(lat, 1.0, mask), 3, tol=1e-9)
        ed = spec.eigenvalues[1] - spec.eigenvalues[0]
        cs = np.linalg.eigvalsh(eff.build_chain(lat, 1.0, mask).matrix())
        errs.append(abs(ed - (cs[1] - cs[0])) / (cs[1] - cs[0]))
    assert errs[0] <= 0.25 and errs[1] <= 0.25
    assert errs[1] <= errs[0] + 1e-12


def test_splitting_ratio_converges_to_constant(one_hole_lattice):
    """The ED/closed-form ratio approaches a constant as h decreases:
    the ratio sequence is monotone and its increments shrink.  (The
    constant itself is far from 1; the acceptance suite reports it.)"""
    lat = one_hole_lattice
    ratios = []
    for hy in (0.1, 0.05, 0.02):
        mask = sc.field_mask(lat, {"type": "corridor", "hole": 0},
                             (0, hy, 0))
        H = assemble(lat, 1.0, mask)
        spec = lowest_eigs(H, 3, tol=1e-10)
        split = spec.eigenvalues[1] - spec.eigenvalues[0]
        closed = abs(eff.fermion_splitting(1.0, hy, 2))
        ratios.append(split / closed)
    assert ratios[0] < ratios[1] < ratios[2]           # monotone approach
    assert abs(ratios[2] - ratios[1]) < abs(ratios[1] - ratios[0])
    # absolute deviation |ED - closed| decreases with h
    devs = [abs(r - 1) * abs(eff.fermion_splitting(1.0, h, 2))
            for r, h in zip(ratios, (0.1, 0.05, 0.02))]
    assert devs[0] > devs[1] > devs[2]


# -- symmetry-sector solver ------------------------------------------------

_X = sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=complex))
_Z = sp.csr_matrix(np.diag([1, -1]).astype(complex))


def _kron_matrix(H):
    """Dense H from Kronecker products of 2x2 factors (site j = bit j)."""
    M = sp.csr_matrix((H.dimension, H.dimension), dtype=complex)
    for c, p in H.terms:
        op = sp.identity(1, dtype=complex, format="csr")
        for j in range(p.n):
            f = sp.identity(2, dtype=complex, format="csr")
            if p.x >> j & 1:
                f = f @ _X
            if p.z >> j & 1:
                f = f @ _Z
            op = sp.kron(f, op, format="csr")
        M = M + c * 1j ** p.k * op
    M = M.toarray()
    return M.real if H.dtype == np.float64 else M


def _small_open(width, height, puncture):
    """Open lattice below build_lattice's 4x4 minimum, built by the same
    rule: interior cells but the punctured X cell, plus the even cells of
    the surrounding ring reduced to the grid."""
    lat0 = HoledLattice(width, height, "open", (), (), (), None)
    plaqs = []
    for b in range(-1, height):
        for a in range(-1, width):
            inner = 0 <= a < width - 1 and 0 <= b < height - 1
            if (a, b) == puncture or (not inner and cell_parity(a, b)):
                continue
            sites = lat0.cell_sites(a, b)
            if sites:
                plaqs.append(Plaquette((a, b), cell_parity(a, b), sites,
                                       not inner))
    return HoledLattice(width, height, "open", (), tuple(plaqs), (), None)


_SMALL = {
    "torus 3x3": lambda: sc.build_lattice(3, 3, "torus"),
    "torus 4x3": lambda: sc.build_lattice(4, 3, "torus"),
    "open 3x3 puncture": lambda: _small_open(3, 3, (1, 0)),
    "open 4x3 puncture": lambda: _small_open(4, 3, (1, 0)),
}


@st.composite
def _small_problems(draw):
    # the open 4x3 lattice only as an explicit example: a dense eigh at
    # 2^12 takes seconds
    name = draw(st.sampled_from(
        ["torus 3x3", "torus 4x3", "open 3x3 puncture"]))
    lat = _SMALL[name]()
    n = lat.n_sites
    # complex x+y fields only at n=9: a complex dense eigh at 2^12 is slow
    axes = draw(st.sampled_from(
        ["x", "y", "z", "xz", "yz"] + (["xy", "xyz"] if n <= 9 else [])))
    vals = np.zeros((n, 3))
    sites = draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))
    for site in sites:
        for axis in axes:
            vals[site, "xyz".index(axis)] = draw(
                st.floats(0.01, 0.3).map(lambda h: round(h, 3)))
    k = draw(st.integers(1, 5))
    return name, lat, sc.FieldMask(vals), k


def _example(name, fields, k):
    lat = _SMALL[name]()
    vals = np.zeros((lat.n_sites, 3))
    for site, h in fields.items():
        vals[site] = h
    return name, lat, sc.FieldMask(vals), k


@settings(max_examples=10, deadline=None, derandomize=True)
@given(_small_problems())
@example(_example("torus 3x3", {0: (0.1, 0.2, 0), 4: (0, 0.05, 0.1)}, 4))
@example(_example("open 3x3 puncture", {1: (0, 0.1, 0), 4: (0, 0.2, 0)}, 3))
@example(_example("open 4x3 puncture", {2: (0.1, 0, 0), 6: (0, 0, 0.2)}, 3))
def test_sector_solver_matches_dense_eigh(problem):
    """Lowest levels, eigenvectors and reported residuals against dense
    eigh of the full Kronecker-built matrix, for n <= 12: corner-form
    tori (Y factors and phases), punctured open lattices and sparse
    fields, y-only ones included (S-gate frame)."""
    name, lat, mask, k = problem
    H = assemble(lat, 1.0, mask)
    M = _kron_matrix(H)
    want = np.linalg.eigvalsh(M)[:k]
    spec = lowest_eigs(H, k, tol=1e-10)
    assert np.max(np.abs(spec.eigenvalues - want)) <= 1e-10 * H.norm_bound
    V = spec.eigenvectors
    assert V.shape == (H.dimension, k)
    assert np.allclose(V.conj().T @ V, np.eye(k), atol=1e-12)
    full = np.linalg.norm(M @ V - V * spec.eigenvalues, axis=0)
    assert np.all(full <= 1e-12 * H.norm_bound)
    assert np.allclose(spec.residual_norms, full, rtol=0,
                       atol=1e-12 * H.norm_bound)
    assert len(spec.sector_dims) >= 1


def _assert_same_bytes(A, B):
    """Equal dtypes, shapes and raw bytes, so the signs of zeros count."""
    assert (A.dtype, A.shape) == (B.dtype, B.shape)
    assert A.tobytes() == B.tobytes()


@settings(max_examples=10, deadline=None, derandomize=True)
@given(_small_problems())
def test_floor_bounds_every_sector(problem):
    """On every sector, visited or not, the majorant floor lies below the
    lowest level of R_t, the sector's non-identity terms, up to the
    search's slack, and never below -rest.  Solved afresh on every
    dense sector, the floor's matrix from the table is
    ``pauli_sum_matrix``'s of D_s - M bit for bit, and the
    Kronecker-built one's within 1e-12."""
    _, lat, mask, _ = problem
    H = assemble(lat, 1.0, mask)
    slack = 64 * np.finfo(float).eps * H.norm_bound
    sec = _Taper(H)
    ctx = _SolveContext(sec, 1e-10, 0)
    built, solve, kron = [], ctx.solve, {}
    ctx.solve = lambda A, m: built.append(A) or solve(A, m)
    for t in range(1 << sec.r):
        Hs = sec.hamiltonian(t)
        R = [(c, p) for c, p in Hs.terms if not p.is_identity_mask]
        low = np.linalg.eigvalsh(pauli_sum_matrix(R, Hs.n).toarray())[0]
        ctx.floors.clear()
        assert -ctx.rest <= ctx.floor(t) <= low + slack
        if ctx.dense:
            terms = tuple((c, p) for c, p in R if not p.x) + ctx.majorant
            A = built.pop()
            _assert_same_bytes(A, pauli_sum_matrix(terms, Hs.n).toarray())
            for _, p in terms:      # every sector has the same strings
                if p not in kron:
                    kron[p] = _kron_matrix(_ham(Hs.n, [(1.0, p)]))
            assert np.allclose(A, sum(c * kron[p] for c, p in terms),
                               rtol=0, atol=1e-12)


def test_sector_matches_lobpcg_on_corridor():
    """The 16-spin edge corridor: sector levels against scipy's lobpcg
    run directly on the full-space application, and the splitting
    against its exact value 2 hy."""
    hy = 0.1
    lat = sc.build_lattice(4, 4, "open", [sc.HoleSpec(0, 1, 0, 2)])
    H = assemble(lat, 1.0, sc.field_mask(lat, {"type": "corridor",
                                               "hole": 0}, (0, hy, 0)))
    spec = lowest_eigs(H, 3, tol=1e-10)
    assert spec.method == "sector"
    assert abs(spec.eigenvalues[1] - spec.eigenvalues[0] - 2 * hy) <= 1e-12
    X = np.random.default_rng(7).standard_normal((H.dimension, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vals, _ = spla.lobpcg(_Apply(H), X, largest=False, maxiter=2000,
                              tol=1e-9 * H.norm_bound)
    assert np.max(np.abs(np.sort(vals)[:3] - spec.eigenvalues)) <= 1e-8


def _phases_flipped(H):
    """H - 2.5, with its first term written as (-c) (-P) and the shift as
    a term 2.5 (-I): conserved products, parity rows and terms in the
    group then carry a -1 of their own."""
    (c, p), *rest = H.terms
    terms = ((-c, PauliString(p.n, p.x, p.z, p.k + 2)), *rest,
             (2.5, PauliString(H.n, 0, 0, 2)))
    return dataclasses.replace(H, terms=terms)


_OPEN_FIELDS = {1: (0, 0.1, 0), 6: (0, 0.2, 0), 7: (0, 0.15, 0)}
_ALL_SITES = {site: (0.15, 0, 0.15) for site in range(9)}


@pytest.mark.parametrize("name, fields, frame, flip", [
    ("torus 3x3", {0: (0.1, 0.2, 0), 4: (0, 0.05, 0.1)}, "plain", False),
    ("open 4x3 puncture", _OPEN_FIELDS, "sgate", False),
    ("open 4x3 puncture", _OPEN_FIELDS, "sgate", True),
    ("torus 3x3", _ALL_SITES, "plain", False),
])
def test_every_sector_matrix_is_h_in_its_basis(name, fields, frame, flip):
    """Every sector, including those branch-and-bound never visits: the
    tapered sector Hamiltonian's matrix equals B^H H B for the
    Kronecker-built H and the basis B of the sector placed by
    ``spread``, B is orthonormal, and the sectors, 2^n states in all,
    together rebuild any vector.  The sector's matrix from the table is
    ``pauli_sum_matrix``'s bit for bit.  With a field on every site
    nothing is conserved and the one sector is the full space."""
    _, lat, mask, _ = _example(name, fields, 1)
    H = assemble(lat, 1.0, mask)
    assert H.frame == frame
    if flip:
        H = _phases_flipped(H)
    M = sp.csr_matrix(_kron_matrix(H))
    sec = _Taper(H)
    matrix = _SolveContext(sec, 1e-10, 0).matrix
    assert (sec.r > 0) == bool(sec.orbit) == bool(sec.parities)
    assert sec.r > 0 or fields is _ALL_SITES
    assert sec.dim << sec.r == H.dimension
    v = np.random.default_rng(3).standard_normal(H.dimension)
    rebuilt = np.zeros(H.dimension, dtype=H.dtype)
    for t in range(1 << sec.r):
        index, amp = sec.spread(t, np.eye(sec.dim))
        B = np.zeros((H.dimension, sec.dim), amp.dtype)
        B[index] = amp.T
        assert np.allclose(B.conj().T @ B, np.eye(sec.dim), rtol=0,
                           atol=1e-12)
        Hs = sec.hamiltonian(t)
        assert Hs.n == len(sec.sites) and Hs.dimension == sec.dim
        want = B.conj().T @ (M @ B)
        dense = pauli_sum_matrix(Hs.terms, Hs.n).toarray()
        _assert_same_bytes(matrix(t), dense)
        assert np.allclose(dense, want, rtol=0, atol=1e-12)
        assert np.allclose(_Apply(Hs)(np.eye(sec.dim)), want, rtol=0,
                           atol=1e-12)
        rebuilt += B @ (B.conj().T @ v)
    assert np.allclose(rebuilt, v, rtol=0, atol=1e-12)


def test_full_space_sector_embeds_in_place():
    """With a field on every site the one sector is the full space, and
    its coefficient columns are already full-space columns: the
    eigenvectors are the columns, not a copy."""
    _, lat, mask, _ = _example("torus 3x3", _ALL_SITES, 1)
    spec = lowest_eigs(assemble(lat, 1.0, mask), 3)
    assert spec.sectors.r == 0 and spec.sector_dims == (512,)
    assert spec.eigenvectors is spec.columns


def _open_flipped():
    """The open 4x3 puncture with its phases flipped, against H - 2.5."""
    _, lat, mask, _ = _example("open 4x3 puncture", _OPEN_FIELDS, 1)
    H = assemble(lat, 1.0, mask)
    return _phases_flipped(H), lowest_eigs(H, 6).eigenvalues - 2.5


def _torus_group_term():
    """Zero-field 3x3 torus plus (-0.3) (-P1), P1 its first stabilizer
    term: a group term tapered to -I, against the same operator written
    as (c1 + 0.3) P1."""
    H = assemble(sc.build_lattice(3, 3, "torus"), 1.0)
    (c1, p1), *rest = H.terms
    extra = (-0.3, PauliString(p1.n, p1.x, p1.z, p1.k + 2))
    same = dataclasses.replace(H, terms=((c1 + 0.3, p1), *rest))
    return (dataclasses.replace(H, terms=H.terms + (extra,)),
            lowest_eigs(same, 3).eigenvalues)


@pytest.mark.parametrize("case", [_open_flipped, _torus_group_term])
def test_sector_levels_do_not_depend_on_term_phases(case):
    """Terms carrying a -1 of their own, in the conserved products, the
    parity rows and the group terms that only shift a sector's energy,
    leave the levels as they are."""
    H, want = case()
    spec = lowest_eigs(H, len(want))
    assert spec.method == "sector"
    assert np.allclose(spec.eigenvalues, want, rtol=0, atol=1e-12)


def test_lobpcg_inside_sectors_above_the_cap(monkeypatch):
    """With the dense cap below the sector size, LOBPCG runs inside each
    visited sector and still gives the dense Kronecker levels."""
    monkeypatch.setattr(spectra, "SECTOR_DENSE_CAP", 16)
    fields = {site: (0.1, 0, 0.1) for site in (0, 1, 2, 4)}
    _, lat, mask, _ = _example("torus 3x3", fields, 1)
    H = assemble(lat, 1.0, mask)
    spec = lowest_eigs(H, 4, tol=1e-10)
    assert spec.method == "lobpcg"
    assert set(spec.sector_dims) == {256}
    want = np.linalg.eigvalsh(_kron_matrix(H))[:4]
    assert np.max(np.abs(spec.eigenvalues - want)) <= 1e-10 * H.norm_bound


def test_lobpcg_diagonal_hamiltonian_above_the_cap():
    """Z and ZZ terms with no stabilizer term on 11 spins: nothing is off
    the diagonal, so the preconditioner's Gershgorin shift would be 0 at
    the lowest entry; the solve still gives the 3 smallest entries."""
    n, rng = 11, np.random.default_rng(3)
    terms = [(float(rng.normal()), PauliString.sz(n, j)) for j in range(n)]
    terms += [(float(rng.normal()), PauliString(n, 0, 3 << j, 0))
              for j in range(n - 1)]
    H = SpinHamiltonian(n, tuple(terms), "plain", 0)
    assert H.dimension > SECTOR_DENSE_CAP
    spec = lowest_eigs(H, 3)
    assert spec.method == "lobpcg"
    want = np.sort(pauli_sum_matrix(terms, n).diagonal())[:3]
    assert np.allclose(spec.eigenvalues, want, rtol=0,
                       atol=1e-10 * H.norm_bound)


def test_lobpcg_block_of_k_columns_resolves_a_doublet(monkeypatch):
    """The 4x4 torus with uniform hx = 0.05 and the cap below its one
    512-state sector: a block of exactly k = 5 columns (no _Apply call
    gets more) finds the dense levels, the exact doublet twice."""
    H = assemble(_T44, 1.0, sc.field_mask(_T44, {"type": "all"},
                                          (0.05, 0, 0)))
    want = lowest_eigs(H, 5).eigenvalues
    monkeypatch.setattr(spectra, "SECTOR_DENSE_CAP", 64)
    widths, call = [], _Apply.__call__

    def counted(op, v):
        widths.append(np.shape(v)[1] if np.ndim(v) > 1 else 1)
        return call(op, v)

    monkeypatch.setattr(_Apply, "__call__", counted)
    spec = lowest_eigs(H, 5, tol=1e-10)
    assert spec.method == "lobpcg" and spec.sector_dims == (512,)
    assert widths and max(widths) <= 5
    assert np.max(np.abs(spec.eigenvalues - want)) <= 1e-10 * H.norm_bound
    doublet = np.abs(spec.eigenvalues - (-16.0100155555)) <= 1e-9
    assert doublet.sum() == 2


def test_complex_lobpcg_above_the_cap(monkeypatch):
    """hx = hy on every site of the 3x3 torus is complex and conserves
    nothing; with the cap below its 512 states LOBPCG solves the full
    space, within the residual gate, at the dense Kronecker levels."""
    monkeypatch.setattr(spectra, "SECTOR_DENSE_CAP", 64)
    _, lat, mask, _ = _example("torus 3x3", {s: (0.1, 0.1, 0)
                                             for s in range(9)}, 4)
    H = assemble(lat, 1.0, mask)
    assert H.dtype == np.complex128
    M = _kron_matrix(H)
    spec = lowest_eigs(H, 4, tol=1e-10)
    assert spec.method == "lobpcg" and spec.sector_dims == (512,)
    assert np.max(np.abs(spec.eigenvalues - np.linalg.eigvalsh(M)[:4])) \
        <= 1e-10 * H.norm_bound
    V = spec.eigenvectors
    full = np.linalg.norm(M @ V - V * spec.eigenvalues, axis=0)
    assert np.all(full <= 50 * 1e-10 * H.norm_bound)
    assert np.allclose(spec.residual_norms, full, rtol=0,
                       atol=1e-12 * H.norm_bound)
    assert np.max(np.abs(V.conj().T @ V - np.eye(4))) <= 1e-12


def test_lobpcg_floors_above_the_cap(monkeypatch):
    """With the dense cap below the sector size every floor is a
    one-level LOBPCG solve, and the levels still equal dense Kronecker
    eigh.  Floor solves stopped by LOBPCG_MAXITER fall back to -rest, so
    the search solves exactly the sectors the plain bound solves."""
    monkeypatch.setattr(spectra, "SECTOR_DENSE_CAP", 16)
    monkeypatch.setattr(spectra, "LOBPCG_MAXITER", 2000)   # set per solve
    fields = {site: (0.1, 0, 0.1) for site in (0, 1, 2, 4)}
    _, lat, mask, _ = _example("open 3x3 puncture", fields, 1)
    H = assemble(lat, 1.0, mask)
    want = np.linalg.eigvalsh(_kron_matrix(H))[:4]
    solve, asked, stop = spectra._SolveContext.solve, [], []

    def counted(ctx, Hs, k):    # a floor asks for one level
        asked.append(k)
        spectra.LOBPCG_MAXITER = 1 if stop and k == 1 else 2000
        return solve(ctx, Hs, k)

    monkeypatch.setattr(spectra._SolveContext, "solve", counted)
    spec = lowest_eigs(H, 4, tol=1e-10)
    assert set(spec.sector_dims) == {64} and len(spec.sector_dims) == 1
    assert asked.count(1) > 1 and asked.count(4) == 1
    assert np.max(np.abs(spec.eigenvalues - want)) <= 1e-10 * H.norm_bound
    stop.append(True)
    stopped = lowest_eigs(H, 4, tol=1e-10)
    monkeypatch.setattr(spectra._SolveContext, "floor",
                        lambda ctx, *_: -ctx.rest)
    assert len(stopped.sector_dims) == len(lowest_eigs(H, 4).sector_dims) == 4
    assert np.max(np.abs(stopped.eigenvalues - want)) <= 1e-10 * H.norm_bound


def test_guard_columns_after_a_failed_gate(monkeypatch):
    """Uniform hy = 0.1 on the 3x3 torus with the cap below its sectors
    of 128 states: level 8 lies in a 15-fold cluster at E0 + 3.8158.  The
    first block of 8 columns of each sector is stopped after one
    iteration, so it fails the gate; the sector is solved again with 2
    guard columns, and the levels equal dense eigh."""
    _, lat, mask, _ = _example("torus 3x3", {s: (0, 0.1, 0)
                                             for s in range(9)}, 8)
    H = assemble(lat, 1.0, mask)
    want = np.linalg.eigvalsh(_kron_matrix(H))
    assert np.sum(np.abs(want - want[7]) < 1e-9) == 15
    assert abs(want[7] - want[0] - 3.8158) < 1e-4
    monkeypatch.setattr(spectra, "SECTOR_DENSE_CAP", 16)
    widths, call, lobpcg = [], _Apply.__call__, spectra._lobpcg

    def counted(op, v):
        widths.append(np.shape(v)[1] if np.ndim(v) > 1 else 1)
        return call(op, v)

    def stop_first_block(A, T, X, tol, maxiter):
        return lobpcg(A, T, X, tol, 1 if X.shape[1] == 8 else maxiter)

    monkeypatch.setattr(_Apply, "__call__", counted)
    monkeypatch.setattr(spectra, "_lobpcg", stop_first_block)
    spec = lowest_eigs(H, 8, tol=1e-10)
    assert spec.method == "lobpcg" and set(spec.sector_dims) == {128}
    assert max(widths) == 10                 # 8 columns and 2 guards
    assert np.max(np.abs(spec.eigenvalues - want[:8])) <= 1e-10 * H.norm_bound
    assert np.all(spec.residual_norms <= 50 * 1e-10 * H.norm_bound)


def test_lobpcg_from_a_rank_deficient_block(monkeypatch):
    """A start block whose first two columns are equal still gives 4
    orthonormal vectors at the dense levels: the start is made
    orthonormal by a Householder QR, which keeps every column.  Its
    first W needs the second orthogonalization pass, as do later ones."""
    _, lat, mask, _ = _example("torus 3x3", _ALL_SITES, 4)
    H = assemble(lat, 1.0, mask)
    X = np.random.default_rng(5).standard_normal((H.dimension, 4))
    X[:, 1] = X[:, 0]
    verdicts, join = [], spectra._join

    def recorded(G, lo):
        C, enough = join(G, lo)
        verdicts.append(enough)
        return C, enough

    monkeypatch.setattr(spectra, "_join", recorded)
    w, U = spectra._lobpcg(_Apply(H), _FamilyInverse(H), X,
                           1e-10 * H.norm_bound, spectra.LOBPCG_MAXITER)
    assert verdicts[:2] == [False, True]
    want = np.linalg.eigvalsh(_kron_matrix(H))[:4]
    assert np.max(np.abs(w - want)) <= 1e-10 * H.norm_bound
    assert np.allclose(U.T @ U, np.eye(4), rtol=0, atol=1e-12)
    res = np.linalg.norm(_Apply(H)(U) - U * w, axis=0)
    assert np.all(res <= 50 * 1e-10 * H.norm_bound)


def test_orbit_against_pauli_products():
    """Entry (beta, c) of ``_orbit`` is g^beta |b_c>, the product of the
    rows set in beta with row 0 applied first, acting on a basis state
    as i^k (-1)^(z.b) |b XOR x>."""
    rng = np.random.default_rng(3)
    n = 6
    b = rng.choice(1 << n, 5, replace=False).astype(np.uint64)
    rows = [PauliString(n, *map(int, rng.integers(0, 1 << n, 2)),
                        int(rng.integers(4))) for _ in range(3)]
    index, k = spectra._orbit(b, rows)
    for beta in range(1 << len(rows)):
        P = PauliString.identity(n)
        for i, g in enumerate(rows):
            if beta >> i & 1:
                P = multiply(g, P)
        for c, bc in enumerate(b.tolist()):
            at = beta * len(b) + c
            assert int(index[at]) == bc ^ P.x
            assert (k[at] - P.k - 2 * (P.z & bc).bit_count()) % 4 == 0


def _diagonal_only():
    n, rng = 8, np.random.default_rng(5)
    terms = [(float(rng.normal()), PauliString.sz(n, j)) for j in range(n)]
    terms += [(float(rng.normal()), PauliString(n, 0, 3 << j, 0))
              for j in range(n - 1)]
    return SpinHamiltonian(n, tuple(terms), "plain", 0)


def _assembled(name, fields):
    _, lat, mask, _ = _example(name, fields, 1)
    return assemble(lat, 1.0, mask)


def _sector(name, fields, t):
    H = _assembled(name, fields)
    return _Taper(H).hamiltonian(t)


@pytest.mark.parametrize("build", [
    lambda: _assembled("torus 3x3", _ALL_SITES),
    lambda: _assembled("torus 3x3", {s: (0.1, 0.1, 0) for s in range(9)}),
    lambda: _assembled("torus 3x3", {s: (0, 0.1, 0) for s in range(9)}),
    lambda: _sector("open 4x3 puncture", _OPEN_FIELDS, 1),
    _diagonal_only,
], ids=["torus-xz", "complex-xy", "y-only", "sector", "diagonal"])
def test_family_inverse_against_dense_matrices(build):
    """T = (H_F - E_min + w)^-1 against dense matrices: its inverse is
    the family's matrix plus the shift, it is Hermitian positive
    definite, its smallest inverse eigenvalue is w, the largest |c| left
    out of F, and F commutes pairwise.  Cases: the corner-form 3x3 torus
    (Y factors and phases), a complex x+y field, a y-only field (S-gate
    frame), a tapered sector and a diagonal H, whose F is all of H."""
    H = build()
    T = _FamilyInverse(H)
    eye = np.eye(H.dimension, dtype=H.dtype)
    Tm = T(eye)
    A = pauli_sum_matrix(T.family, H.n).toarray() + T.shift * eye
    assert np.allclose(A @ Tm, eye, rtol=0, atol=1e-12)
    assert np.allclose(Tm, Tm.conj().T, rtol=0, atol=1e-12)
    assert np.linalg.eigvalsh(Tm).min() > 0
    out = [abs(c) for c, p in H.terms if (c, p) not in T.family]
    w = max(out) if out else H.norm_bound
    assert abs(np.linalg.eigvalsh(A)[0] - w) <= 1e-12 * H.norm_bound
    assert all(commutes(p, q) for _, p in T.family for _, q in T.family)
    if build is _diagonal_only:
        assert len(T.family) == len(H.terms) and T.a == 0


@pytest.mark.parametrize("build", [
    lambda: _assembled("torus 3x3", _ALL_SITES),
    lambda: _assembled("torus 3x3", {s: (0.1, 0.1, 0) for s in range(9)}),
    _diagonal_only,
], ids=["torus-xz", "complex-xy", "diagonal"])
def test_family_inverse_shifted_toward_ritz_values(build):
    """Column j of T(R, theta=theta) is scaled for theta[j]: with every
    theta at or below E_min - w it is T R bit for bit; above, the
    column's operator is f(H_F + shift) for f(e) = 1 / min(e, max(|e -
    sigma|, w)), sigma = theta + shift, so it is Hermitian with
    eigenvalues in (0, 1/w], the largest 1/w where H_F reaches theta.
    Checked against dense matrices from a diagonalization of H_F."""
    H = build()
    T = _FamilyInverse(H)
    dim, rng = H.dimension, np.random.default_rng(31)
    R = np.asfortranarray(rng.standard_normal((dim, 3))).astype(H.dtype)
    low = -T.shift - np.array([0.0, 0.5, 7.0])
    assert np.array_equal(T(R, theta=low), T(R))
    eye = np.eye(dim, dtype=H.dtype)
    A = pauli_sum_matrix(T.family, H.n).toarray() + T.shift * eye
    e, V = np.linalg.eigh(A)
    for theta in (-T.shift + 1e-3, e[len(e) // 3] - T.shift,
                  e[-1] - T.shift, e[-1] - T.shift + 5.0):
        Tm = T(eye, theta=np.full(dim, theta))
        f = 1 / np.minimum(e, np.maximum(np.abs(e - theta - T.shift), T.w))
        assert np.allclose(Tm, (V * f) @ V.conj().T, rtol=0, atol=1e-12)
        s = np.linalg.eigvalsh(Tm)
        assert s.min() > 0 and s.max() <= (1 + 1e-12) / T.w
    mixed = T(R, theta=np.array([low[0], theta, low[2]]))
    assert np.array_equal(mixed[:, ::2], T(R)[:, ::2])
    assert not np.allclose(mixed[:, 1], T(R)[:, 1])


def _global_field(h):
    return assemble(_EDGE, 1.0, sc.field_mask(_EDGE, {"type": "all"},
                                              (h, 0, h)))


def test_family_of_the_global_problem():
    """hx = hz = 0.15 on every site of the 16-spin lattice: F is the 15
    stabilizers and hz on the 4 sites that no X part touches."""
    H = _global_field(0.15)
    T = _FamilyInverse(H)
    stabs = list(H.terms[:H.n_stabilizer_terms])
    touched = 0
    for _, p in stabs:
        touched |= p.x
    assert len(stabs) == 15 and T.family[:15] == stabs
    assert [p for _, p in T.family[15:]] == [
        PauliString.sz(16, j) for j in range(16) if not touched >> j & 1]
    assert len(T.family) == 19


def test_global_problem_takes_few_applications(monkeypatch):
    """The 16-spin problem with hx = hz = 0.15 on every site, k = 3:
    LOBPCG preconditioned by T, shifted per column toward its Ritz
    value, needs at most 80 applications of H, one of them for H_F's
    energies (106 with the shifted diagonal), and at most 90 state
    columns (103 with T unshifted)."""
    calls, call = [], _Apply.__call__

    def counted(op, v):
        calls.append(np.shape(v))
        return call(op, v)

    monkeypatch.setattr(_Apply, "__call__", counted)
    spec = lowest_eigs(_global_field(0.15), 3, tol=1e-8)
    assert spec.method == "lobpcg" and spec.sector_dims == (1 << 16,)
    assert 0 < len(calls) <= 80
    assert sum(s[1] if len(s) > 1 else 1 for s in calls) <= 90
    U = spec.columns
    assert np.max(np.abs(U.conj().T @ U - np.eye(3))) <= 1e-12


def _scattered_two_hole():
    """The 4x5 two-hole lattice with five 0.05 fields, x on sites 3 and
    12, y on sites 1, 4 and 19."""
    lat = sc.build_lattice(4, 5, "open", [sc.HoleSpec(1, 1, 2, 1),
                                          sc.HoleSpec(1, 3, 2, 3)])
    vals = np.zeros((lat.n_sites, 3))
    for site, axis in ((3, 0), (12, 0), (1, 1), (4, 1), (19, 1)):
        vals[site, axis] = 0.05
    return lat, sc.FieldMask(vals)


def _torus_4x3(h):
    """The 4x3 torus with the field h on sites 0, 5 and 7."""
    lat = sc.build_lattice(4, 3, "torus")
    vals = np.zeros((lat.n_sites, 3))
    vals[[0, 5, 7]] = h
    return lat, sc.FieldMask(vals)


def _region(lat, region, h):
    return lat, sc.field_mask(lat, region, h)


_ONE = sc.build_lattice(4, 4, "open", [sc.HoleSpec(1, 1, 1, 2)])
_EDGE = sc.build_lattice(4, 4, "open", [sc.HoleSpec(0, 1, 0, 2)])
_T44 = sc.build_lattice(4, 4, "torus")


@pytest.mark.parametrize("build, args, k, solved", [
    *[(_region, (_ONE, {"type": "annulus", "hole": 0}, (hx, 0, 0)), 3, 2)
      for hx in (0.02, 0.05, 0.1)],
    (_region, (_EDGE, {"type": "corridor", "hole": 0}, (0, 0.1, 0)), 3, 2),
    *[(_region, (_T44, {"type": "all"}, (hx, 0, 0)), 5, 1)
      for hx in (0.02, 0.05, 0.1)],
    (_scattered_two_hole, (), 5, 2),
    (_torus_4x3, ((0.1, 0, 0),), 5, 3),
    (_torus_4x3, ((0, 0, 0.1),), 5, 192),
], ids=["annulus-0.02", "annulus-0.05", "annulus-0.1", "corridor",
        "torus4x4-0.02", "torus4x4-0.05", "torus4x4-0.1", "two-hole",
        "torus4x3-x", "torus4x3-z"])
def test_floors_prune_sectors(build, args, k, solved):
    """Sectors solved by branch-and-bound with the majorant floors
    (with the plain bound: 24 on the annulus, 2 on the corridor, 29 on
    the 4x4 torus, 512 on the two-hole lattice, 58 and 256 on the 4x3
    torus)."""
    lat, mask = build(*args)
    H = assemble(lat, 1.0, mask)
    spec = lowest_eigs(H, k, tol=1e-10)
    assert len(spec.sector_dims) == solved
    assert np.all(spec.residual_norms <= 1e-12 * H.norm_bound)


def test_no_floor_without_generators(monkeypatch, one_hole_lattice):
    """A field on every site leaves one sector and nothing to prune: the
    solve builds one dense matrix, the sector's own, and no floor.  No
    solve whose sectors and floors all fit under the dense cap builds an
    ``_Apply``."""
    built, build = [], spectra._Table.__call__

    def counted(table, w):
        built.append(len(table.cols[0]))
        return build(table, w)

    def refused(H):
        raise AssertionError("an _Apply under the dense cap")

    monkeypatch.setattr(spectra._Table, "__call__", counted)
    monkeypatch.setattr(spectra, "_Apply", refused)
    _, lat, mask, _ = _example("torus 3x3", _ALL_SITES, 1)
    spec = lowest_eigs(assemble(lat, 1.0, mask), 3)
    assert spec.sector_dims == (512,)
    assert built == [512]
    lat = one_hole_lattice
    built.clear()
    spec = lowest_eigs(assemble(lat, 1.0, sc.field_mask(
        lat, {"type": "annulus", "hole": 0}, (0.05, 0, 0))), 3)
    assert len(built) > len(spec.sector_dims)     # floors' matrices too
    assert max(spec.sector_dims) <= SECTOR_DENSE_CAP


@pytest.mark.parametrize("case", ["corridor", "full space"])
def test_states_are_read_only_fortran_order_columns(case):
    """``columns`` and ``eigenvectors`` are read-only and in Fortran
    order, each level's state one contiguous column, and hold the
    sectors' eigh columns and, column by column, those columns placed
    by ``spread``: on the corridor the levels lie in two sectors, and
    with a field on every site the columns are the full-space states."""
    if case == "corridor":
        lat, mask = _region(_EDGE, {"type": "corridor", "hole": 0},
                            (0, 0.1, 0))
    else:
        _, lat, mask, _ = _example("torus 3x3", _ALL_SITES, 1)
    spec = lowest_eigs(assemble(lat, 1.0, mask), 3)
    sec = spec.sectors
    matrix = _SolveContext(sec, 1e-10, 0).matrix
    assert len(set(spec.labels)) == (2 if case == "corridor" else 1)
    for arr in (spec.columns, spec.eigenvectors):
        assert arr.flags.f_contiguous and not arr.flags.writeable
    for j, t in enumerate(spec.labels):
        i = spec.labels[:j].count(t)
        assert np.array_equal(spec.columns[:, j],
                              np.linalg.eigh(matrix(t))[1][:, i])
        index, amp = sec.spread(t, spec.columns[:, [j]])
        column = np.zeros(len(spec.eigenvectors), amp.dtype)
        column[index] = amp[0]
        assert np.array_equal(spec.eigenvectors[:, j], column)


@pytest.mark.parametrize("g", [np.nan, np.inf])
def test_assemble_rejects_a_non_finite_g(one_hole_lattice, g):
    with pytest.raises(SpectraError, match="g must be finite"):
        assemble(one_hole_lattice, g)


@pytest.mark.parametrize("g", [np.nan, np.inf])
def test_lowest_eigs_raises_below_k_levels(one_hole_lattice, g):
    """Non-finite coefficients put past ``assemble`` give no level; the
    solve raises instead of returning an empty spectrum."""
    lat = one_hole_lattice
    H = assemble(lat, 1.0, sc.field_mask(lat, {"type": "annulus", "hole": 0},
                                         (0.05, 0, 0)))
    H = dataclasses.replace(H, terms=tuple(
        (g if j < H.n_stabilizer_terms else c, p)
        for j, (c, p) in enumerate(H.terms)))
    with np.errstate(invalid="ignore"), pytest.raises(
            SpectraError, match="found 0 of 3 levels"):
        lowest_eigs(H, 3)


def test_logical_expectation_needs_enough_levels(one_hole_lattice):
    spec = lowest_eigs(assemble(one_hole_lattice, 1.0), 2, tol=1e-9)
    tau_z = sc.logical_pair(one_hole_lattice, 0).tau_z
    with pytest.raises(SpectraError, match="subspace_dim 3 exceeds the 2 "):
        logical_expectation(spec, tau_z, 3)


@pytest.mark.parametrize("size", [0, -1])
def test_logical_expectation_rejects_an_empty_subspace(
        ground_spectrum_one_hole, one_hole_lattice, size):
    """-1 used to slice off the last level and return a 2x2 matrix for a
    3-level spectrum."""
    tau_z = sc.logical_pair(one_hole_lattice, 0).tau_z
    with pytest.raises(SpectraError, match=f"subspace_dim {size} is below 1"):
        logical_expectation(ground_spectrum_one_hole, tau_z, size)


def test_logical_expectation_rejects_an_operator_leaving_the_sectors(
        ground_spectrum_one_hole):
    """sigma^x on a site flips the Z plaquettes on it, which are conserved
    at zero field, so it has no matrix within the sectors."""
    with pytest.raises(SpectraError, match="does not commute with every "
                                           "conserved product"):
        logical_expectation(ground_spectrum_one_hole, PauliString.sx(16, 5),
                            2)


def _two_hole_zero_field():
    return sc.build_lattice(4, 5, "open", [sc.HoleSpec(1, 1, 2, 1),
                                           sc.HoleSpec(1, 3, 2, 3)]), None


@pytest.mark.parametrize("build, args, k", [
    (_region, (_EDGE, {"type": "corridor", "hole": 0}, (0, 0.1, 0)), 3),
    (_region, (_ONE, {"type": "annulus", "hole": 0}, (0.05, 0, 0)), 3),
    (_two_hole_zero_field, (), 5),
    (_scattered_two_hole, (), 5),
    (_region, (_T44, {"type": "all"}, (0.05, 0, 0)), 5),
], ids=["corridor", "annulus", "two-hole", "two-hole-scattered", "torus"])
def test_logical_expectation_in_sector_coordinates(build, args, k):
    """The sector-coordinate matrices equal V^H L V on the embedded
    eigenvectors, for every hole's logicals and every single-site Pauli
    that commutes with the conserved products, on 1 to k levels."""
    lat, mask = build(*args)
    H = assemble(lat, 1.0, mask)
    spec = lowest_eigs(H, k, tol=1e-10)
    gens = _conserved_generators(H)
    pairs = [sc.logical_pair(lat, l) for l in range(len(lat.holes))]
    ops = [op for pair in pairs for op in (pair.tau_z, pair.tau_x)]
    ops += [op for site in range(H.n)
            for op in (PauliString.sx(H.n, site), PauliString.sy(H.n, site),
                       PauliString.sz(H.n, site))
            if all(commutes(g, H.to_frame(op)) for g in gens)]
    assert len(ops) > 2
    V = spec.eigenvectors
    for L in ops:
        want = V.conj().T @ apply_pauli(H.to_frame(L), V)
        for m in (1, k):
            got = logical_expectation(spec, L, m)
            assert got.shape == (m, m)
            assert np.max(np.abs(got - want[:m, :m])) <= 1e-12


def test_solver_path_by_geometry():
    """Corridor, annulus and the zero-field acceptance geometries solve
    in small sectors; a field on every site leaves nothing conserved, so
    the one sector is the full space: dense up to the cap, LOBPCG above."""
    one = sc.build_lattice(4, 4, "open", [sc.HoleSpec(1, 1, 1, 2)])
    edge = sc.build_lattice(4, 4, "open", [sc.HoleSpec(0, 1, 0, 2)])
    cases = [
        (edge, {"type": "corridor", "hole": 0}, (0, 0.1, 0), 3),
        (one, {"type": "corridor", "hole": 0}, (0, 0.02, 0), 3),
        (one, {"type": "annulus", "hole": 0}, (0.05, 0, 0), 3),
        (sc.build_lattice(4, 4, "open"), None, None, 2),
        (one, None, None, 3),
        (sc.build_lattice(4, 5, "open", [sc.HoleSpec(1, 1, 2, 1),
                                         sc.HoleSpec(1, 3, 2, 3)]),
         None, None, 5),
        (sc.build_lattice(4, 4, "torus"), None, None, 5),
        (sc.build_lattice(4, 3, "torus"), None, None, 3),
    ]
    for lat, region, h, k in cases:
        mask = sc.field_mask(lat, region, h) if region else None
        H = assemble(lat, 1.0, mask)
        spec = lowest_eigs(H, k, tol=1e-10)
        assert spec.method == "sector"
        assert max(spec.sector_dims) <= SECTOR_DENSE_CAP
        assert np.all(spec.residual_norms <= 1e-12 * H.norm_bound)
    glob = assemble(edge, 1.0, sc.field_mask(edge, {"type": "all"},
                                             (0.15, 0, 0.15)))
    assert _conserved_generators(glob) == []
    for (w, h), method in (((3, 3), "sector"), ((4, 3), "lobpcg")):
        lat = sc.build_lattice(w, h, "torus")
        spec = lowest_eigs(assemble(lat, 1.0, sc.field_mask(
            lat, {"type": "all"}, (0.15, 0, 0.15))), 3, tol=1e-10)
        assert spec.method == method
        assert spec.sector_dims == (2 ** (w * h),)
        assert np.all(spec.residual_norms > 0)


def test_spectrum_replace_keeps_solve_record(ground_spectrum_one_hole):
    spec = ground_spectrum_one_hole
    bumped = dataclasses.replace(spec, eigenvalues=spec.eigenvalues + 1.0)
    assert bumped.method == spec.method == "sector"
    assert bumped.sector_dims == spec.sector_dims


# -- full-space kernel ------------------------------------------------------


def _ham(n, terms, frame="plain"):
    """SpinHamiltonian of a raw term list."""
    if frame == "sgate":
        terms = [(c, _conjugate_by_s(p)) for c, p in terms]
    return SpinHamiltonian(n, tuple(terms), frame, 0)


def _random_terms(rng, n, count, real):
    """Random Pauli strings, some diagonal, some sharing an x mask with
    different z masks, one identity; real matrices when ``real``."""
    xs = [0] + [int(m) for m in rng.integers(1, 1 << n, size=3)]
    terms = [(float(rng.normal()), PauliString.identity(n))]
    for _ in range(count):
        k = 2 * int(rng.integers(2)) if real else int(rng.integers(4))
        terms.append((float(rng.normal()),
                      PauliString(n, xs[rng.integers(len(xs))],
                                  int(rng.integers(1 << n)), k)))
    return terms


def _check_kernel(H, rng):
    """_Apply and apply_pauli against the Kronecker-built matrix on real
    and complex vectors, on the strided columns of a block, and on real
    and complex (dim, 3) blocks, which also equal column-by-column
    application; every call returns its input's shape."""
    M = _kron_matrix(H)
    apply_h = _Apply(H)
    tol = 1e-12 * max(H.norm_bound, 1.0)
    dim = H.dimension
    X = rng.standard_normal((dim, 4)) + 1j * rng.standard_normal((dim, 4))
    for v in (X[:, 0].real.copy(), X[:, 1], X[:, 2:3], X.real[:, 3],
              X.real[:, :3], X[:, 1:]):
        want = (M @ v.reshape(dim, -1)).reshape(v.shape)
        got = apply_h(v)
        assert got.shape == v.shape
        assert np.allclose(got, want, rtol=0, atol=tol)
        got = sum(c * apply_pauli(p, v) for c, p in H.terms)
        assert got.shape == v.shape
        assert np.allclose(got, want, rtol=0, atol=tol)
    A = spla.LinearOperator((dim, dim), matvec=apply_h,
                            dtype=np.complex128)
    assert np.allclose(A @ X, M @ X, rtol=0, atol=tol)
    for B in (X.real[:, :3], X[:, 1:]):
        cols = np.stack([apply_h(b) for b in B.T], axis=1)
        assert np.allclose(apply_h(B), cols, rtol=0, atol=tol)
    for c, p in H.terms:
        P = _kron_matrix(_ham(H.n, [(1.0, p)]))
        assert np.allclose(apply_pauli(p, X[:, 1]), P @ X[:, 1], rtol=0,
                           atol=1e-12)
        for B in (X.real[:, :3], X[:, 1:]):
            cols = np.stack([apply_pauli(p, b) for b in B.T], axis=1)
            assert np.allclose(apply_pauli(p, B), cols, rtol=0, atol=1e-12)
            assert np.allclose(apply_pauli(p, B), P @ B, rtol=0, atol=1e-12)


def test_pauli_sum_matrix_against_kronecker():
    """pauli_sum_matrix equals the Kronecker-built matrix on real terms,
    on a chain's strings with zero coefficients, on no term and on
    imaginary coefficients times odd phases, where it is float64, and on
    x and y fields of the same sites, on random phases over shared x
    masks with an identity term and on imaginary coefficients of real
    strings, where it is complex."""
    n, rng = 5, np.random.default_rng(17)
    xy = [(0.3 * (j + 1), f(n, j)) for j in (0, 2, 3)
          for f in (PauliString.sx, PauliString.sy)]
    chain = eff.EffectiveChain(n, (0.2, 0.0, 0.3, 0.0), (0.0, 0.1, 0.0, 0.4),
                               (0.0, 0.5, 0.0, 0.0, 0.6),
                               (0.7, 0.0, 0.0, 0.8, 0.0))
    odd = [(0.4j, PauliString(n, 5, 3, 3)), (-0.9j, PauliString.sy(n, 1))]
    for terms, dtype in ((_random_terms(rng, n, 12, True), np.float64),
                         (chain._strings(), np.float64),
                         ([], np.float64),
                         (odd, np.float64),
                         (xy, np.complex128),
                         (_random_terms(rng, n, 12, False), np.complex128),
                         ([(0.5j, PauliString(n, 6, 0)), (0.25, PauliString(
                             n, 6, 2))], np.complex128)):
        M = pauli_sum_matrix(terms, n)
        assert M.dtype == dtype
        assert np.allclose(M.toarray(), _kron_matrix(_ham(n, terms)),
                           rtol=0, atol=1e-12)


def _window_rule(H):
    """The kernel's entries predicted from the terms: the (lowest site,
    higher x part) of each window matrix, and how many groups keep flip
    and multiply.  A group's window holds its lowest x site; it joins
    that window's matrix when its terms' z bits all lie in the window."""
    n, zs = H.n, {}
    for _, p in H.terms:
        if p.x:
            zs[p.x] = zs.get(p.x, 0) | p.z
    windows, other = set(), 0
    for x, z in zs.items():
        lo = ((x & -x).bit_length() - 1) // 3 * 3
        bits = (1 << min(3, n - lo)) - 1 << lo
        if z & ~bits:
            other += 1
        else:
            windows.add((lo, x & ~bits))
    return windows, other


def _window_entries(apply_h):
    """(lowest site, flipped higher sites) of each entry of ``prepped``,
    None for a flip-and-multiply group, checking each matrix's size."""
    n, got = apply_h.H.n, []
    for flip, coeff, view in apply_h.prepped:
        flipped = sum(1 << n - 1 - a for a, s in enumerate(flip[1:])
                      if s.step == -1)
        if view is None:
            got.append(None)
            continue
        lo = (view[2].bit_length() - 1) if len(view) == 3 else 0
        assert coeff.shape == (1 << min(3, n - lo),) * 2 == (view[1],) * 2
        got.append((lo, flipped))
    return got


def _assert_window_rule(apply_h):
    """``prepped`` is the window matrices, one per (window, higher x
    part), then the flip-and-multiply groups."""
    windows, other = _window_rule(apply_h.H)
    got = _window_entries(apply_h)
    assert got[:len(windows)] and set(got[:len(windows)]) == windows
    assert got[len(windows):] == [None] * other
    return got


@pytest.mark.parametrize("n", [1, 3, 4, 5, 7, 10])
@pytest.mark.parametrize("frame", ["plain", "sgate"])
@pytest.mark.parametrize("real", [True, False])
def test_kernel_matches_kronecker_random_terms(n, frame, real, monkeypatch):
    """From n = 3 on, three terms join the random ones: an x on site 1,
    which joins window 0's matrix; an x on sites 2 and n - 1 with a z
    on site 0; and an x on site 0 with a z on site n - 1, which above
    n = 3 keeps flip and multiply.  The entries are those of the window
    rule recomputed from the terms.  At n = 7 blocks go one state at a
    time."""
    rng = np.random.default_rng(100 * n + 10 * real + (frame == "sgate"))
    terms = _random_terms(rng, n, 12, real)
    if n >= 3:
        terms += [(0.3, PauliString.sx(n, 1)),
                  (0.2, PauliString(n, 1 << n - 1 | 4, 1, 0)),
                  (0.4, PauliString(n, 1, 1 << n - 1, 0))]
    H = _ham(n, terms, frame)
    apply_h = _Apply(H)
    got = _assert_window_rule(apply_h)
    if n >= 3:
        assert (0, 0) in got
        assert (None in got) == (n > 3)
    if n == 7:
        monkeypatch.setattr(spectra, "APPLY_PER_STATE", 1 << n - 1)
    _check_kernel(H, rng)


@pytest.mark.parametrize("z, entry", [(0, (0, 8)), (4, (0, 8)), (8, None)],
                         ids=["no-z", "z-inside", "z-outside"])
def test_kernel_straddling_two_windows(z, entry):
    """n = 7 with an x on sites 2 and 3, across windows 0-2 and 3-5: the
    group joins window 0's matrix, applied on the (..., 8) view, and a
    flip of site 3; with a z on site 2 too, but a z on site 3 keeps it
    flip and multiply.  Z fields and an x on site 4 come with it."""
    n, rng = 7, np.random.default_rng(23)
    terms = [(0.6, PauliString(n, 12, z, 0)), (0.3, PauliString.sx(n, 4))]
    terms += [(float(rng.normal()), PauliString.sz(n, j)) for j in range(n)]
    H = _ham(n, terms)
    apply_h = _Apply(H)
    got = _assert_window_rule(apply_h)
    assert got[0] == entry or got[-1] == entry
    assert (3, 0) in got and len(got) == 2
    _check_kernel(H, rng)


@pytest.mark.parametrize("fields", [(0.1, 0.2, 0.05), (0, 0.2, 0.05),
                                    (0.1, 0, 0.05)])
def test_kernel_on_lattice_fields(fields):
    """x and y fields on the same site share an x mask but differ in z;
    y-only fields run in the S-gate frame; an identity term is added."""
    lat = _SMALL["open 3x3 puncture"]()
    H = assemble(lat, 1.0, sc.field_mask(lat, {"type": "all"}, fields))
    assert H.frame == ("sgate" if fields[0] == 0 else "plain")
    H = dataclasses.replace(
        H, terms=H.terms + ((2.5, PauliString.identity(H.n)),))
    _check_kernel(H, np.random.default_rng(5))


def test_kernel_memory_on_all_site_field():
    """Building the kernel for a field on every site of a 20-spin lattice
    holds at most two state vectors, and no integer array."""
    lat = sc.build_lattice(4, 5, "open")
    H = assemble(lat, 1.0, sc.field_mask(lat, {"type": "all"},
                                         (0.15, 0, 0.15)))
    assert H.n == 20 and H.dtype == np.float64
    tracemalloc.start()
    try:
        apply_h = _Apply(H)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    vector = 8 * H.dimension
    assert current <= 2 * vector and peak <= 2 * vector
    arrays = [apply_h.diag] + [c for _, c, _ in apply_h.prepped]
    assert all(a.dtype.kind == "f" for a in arrays)
    # X terms only off the diagonal, so every group joins the matrix of
    # its lowest site's window and the x part above it
    got = _assert_window_rule(apply_h)
    xs = {p.x for _, p in H.terms if p.x}
    assert None not in got and len(got) < len(xs)


def _x_strings(rng, n, coeffs, real):
    """Pure X strings with the given coefficients on distinct random x
    masks from 4 on, none on sites 0-2 from n = 5 on, each with a random
    phase (+-1 when ``real``); z fields on every site; an x on site 1,
    which joins window 0's matrix; a string with a z bit outside the
    window of its x bits."""
    masks = [x for x in range(4, 1 << n) if n <= 4 or not x & 7]
    xs = rng.choice(masks, size=len(coeffs), replace=False)
    terms = [(c, PauliString(n, int(x), 0, 2 * int(rng.integers(2)) if real
                             else int(rng.integers(4))))
             for c, x in zip(coeffs, xs)]
    terms += [(float(rng.normal()), PauliString.sz(n, j)) for j in range(n)]
    return terms + [(0.4, PauliString.sx(n, 1)),
                    (0.7, PauliString(n, 3, 1 << n - 1, 0))]


@pytest.mark.parametrize("repeat", [True, False], ids=["shared", "distinct"])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("n", [4, 7])
def test_kernel_scalar_groups_against_pauli_sum_matrix(n, real, repeat,
                                                       monkeypatch):
    """Groups of pure X strings have one scalar coefficient each, so
    each joins the window matrix of its lowest x site and its x part
    above that window.  With 12 such strings whose 3 values, times
    their phases, repeat and with 12 distinct values, real and complex,
    on whole blocks and (at n = 7) one state at a time, ``_Apply``
    equals ``pauli_sum_matrix`` within 1e-13 of the norm bound.  The
    window entries open ``prepped``, one per (window, higher x part),
    and the one string with a z bit outside its window closes it."""
    rng = np.random.default_rng(7 * n + 2 * real + repeat)
    values = rng.normal(size=3 if repeat else 12)
    H = _ham(n, _x_strings(rng, n, [float(values[j % len(values)])
                                    for j in range(12)], real))
    apply_h = _Apply(H)
    got = _assert_window_rule(apply_h)
    assert got[-1] is None and got.count(None) == 1
    for _, p in H.terms:
        if p.x and not p.z:
            lo = ((p.x & -p.x).bit_length() - 1) // 3 * 3
            assert (lo, p.x >> lo + 3 << lo + 3) in got
    if n == 7:
        monkeypatch.setattr(spectra, "APPLY_PER_STATE", 1 << n - 1)
    M = pauli_sum_matrix(H.terms, n)
    tol = 1e-13 * H.norm_bound
    for dtype in (np.float64, np.complex128):
        V = rng.standard_normal((H.dimension, 3)).astype(dtype)
        if dtype == np.complex128:
            V += 1j * rng.standard_normal(V.shape)
        for v in (V, np.asfortranarray(V), V[:, 1]):
            assert np.max(np.abs(apply_h(v) - M @ v)) <= tol


def test_join_takes_rows_out_of_a_span_in_one_or_two_passes():
    """One ``_join`` pass makes rows W orthonormal and orthogonal to the
    orthonormal rows V from the Gram product W [V W]^H alone.  It is
    enough for W orthogonal to V; W nearly inside span V, or with two
    equal rows, asks for the second pass, after which the rows are
    orthonormal within 1e-12 and the duplicate is dropped."""
    rng = np.random.default_rng(11)
    dim = 400
    V = np.linalg.qr(rng.standard_normal((dim, 3)))[0].T
    fresh = rng.standard_normal((2, dim))
    fresh -= (fresh @ V.T) @ V

    def passes(W):
        S, verdicts = np.vstack([V, W]), []
        for _ in range(2):
            C, enough = spectra._join((S[3:].conj() @ S.T).conj(), 3)
            S = np.vstack([V, C.T @ S])
            verdicts.append(enough)
            if enough:
                break
        return S, verdicts

    S, verdicts = passes(fresh)
    assert verdicts == [True]
    assert np.allclose(S @ S.T, np.eye(5), rtol=0, atol=1e-12)
    for W, rows in ((1e6 * V[:2] + fresh, 5),
                    (np.vstack([fresh[0], fresh[0], fresh[1]]), 5)):
        S, verdicts = passes(W)
        assert verdicts[0] is False and len(verdicts) == 2
        assert len(S) == rows
        assert np.allclose(S @ S.T, np.eye(rows), rtol=0, atol=1e-12)


def test_lobpcg_warnings_reach_the_error(monkeypatch):
    lat = sc.build_lattice(4, 3, "torus")
    H = assemble(lat, 1.0, sc.field_mask(lat, {"type": "all"},
                                         (0.15, 0, 0.15)))
    monkeypatch.setattr(spectra, "LOBPCG_MAXITER", 2)
    with pytest.raises(SpectraError,
                       match="not reaching the requested tolerance"):
        lowest_eigs(H, 3, tol=1e-10)


def _torus_levels(k):
    lat = sc.build_lattice(4, 3, "torus")
    return lowest_eigs(assemble(lat, 1.0, sc.FieldMask.zeros(lat)), k)


@pytest.mark.parametrize("call, message", [
    (lambda: _torus_levels(0), "k_count 0 out of range for dimension 4096"),
    (lambda: ground_splitting(_torus_levels(2), 1),
     "need 3 converged eigenvalues, have 2"),
    (lambda: fermion_dispersion(DispersionParams(1.0), 0.0, 0.0, "diagonal"),
     "unknown fermion branch 'diagonal'"),
    (lambda: dispersion_grid(DispersionParams(1.0), "phonon", 4),
     "unknown dispersion kind 'phonon'"),
], ids=["k-count", "splitting", "branch", "kind"])
def test_each_check_refuses_with_its_reason(call, message):
    with pytest.raises(SpectraError, match=f"^{re.escape(message)}$"):
        call()

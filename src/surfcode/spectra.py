"""Exact spin-level spectra: matrix-free Hamiltonian application, lowest
eigenpairs, ground-space splittings and the quasiparticle dispersions.

The Hamiltonian is a list of weighted Pauli strings,

    H = -g * sum(stabilizers) + sum_i sum_c h_c(i) sigma^c_i,

applied to state vectors without forming a matrix.  A term i^k X^x Z^z
sends |t> to i^k (-1)^{z.t} |t XOR x>, and on the state viewed as a
(2,)*n tensor XOR with x is a flip of x's axes, a view.  Terms summed
per x mask (``_groups``) are the one encoding of a Pauli sum: the x = 0
group is a diagonal, each other one costs one strided pass with a
coefficient over only its z bits, on a vector or a block of columns,
and ``pauli_sum_matrix`` is the sparse matrix of the same groups.

Because sigma^y carries imaginary entries, a term list containing only
{stabilizers, sigma^x} or only {stabilizers, sigma^y} fields is mapped
to a real representation when possible: conjugating every spin by the
phase gate S sends sigma^y -> -sigma^x and X-type plaquettes to Y-type
plaquettes with an even Y count, leaving all matrix elements real.
Spectra are unchanged; eigenvectors live in the chosen frame and
operators evaluated on them are conjugated consistently.

Eigenpairs come from exact symmetry sectors (qubit tapering, Bravyi,
Gambetta, Mezzacapo and Temme, arXiv:1701.08213).  GF(2) elimination
(``pauli.eliminate``) on the anticommutation pattern of the stabilizer
terms with all terms gives independent generators of the products of
stabilizer terms that commute with every term; H is block diagonal in
their common eigenspaces.  Each sector gets a symmetry-adapted basis (orbit
representatives under the generators' X parts, with the pure-Z
generators' parities imposed), labelled by the bits of its n - r free
sites for r generators.  Every term is tapered once to a Pauli string
on those sites times a character of the sector, so a sector is itself
a ``SpinHamiltonian`` on n - r sites; with no generator (a field on
every site) the one sector is the full space.  Sectors are visited best
first by branch-and-bound on the sector bits, and the search stops once
the lowest bound left reaches the k-th lowest level found, so the
lowest k levels are exact across sectors.  Each visited sector gets one
``_Apply``: a sector of at most ``SECTOR_DENSE_CAP`` states is
diagonalized densely from its application to the identity block, a
larger one by seeded LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 517
(2001)) on block calls.  Its block holds exactly the k random columns
asked for, which resolves a k-fold exact degeneracy, as a single-vector
Lanczos cannot.  It is preconditioned by the inverse of the sector's
diagonal shifted to be positive definite (after Davidson, J. Comput.
Phys. 17, 87 (1975)): D - min D + w, w the summed |c| of the
off-diagonal terms, so min D - w is a Gershgorin bound below the
spectrum.  Where level k cuts through a degenerate cluster a column can
stall above the residual gate 50 tol ||H||; only then is the sector
solved again with 2, then 4 guard columns, the first k kept.  One
``_Sectors`` per call is the solve context that holds ``tol``, ``seed``,
the gate and LOBPCG's warnings.

Levels stay in sector coordinates: a ``Spectrum`` keeps each level's
sector and its column of 2^(n - r) coefficients.  A logical operator
commutes with every conserved product, so ``logical_expectation``
tapers it like a term and works sector by sector; neither the solve nor
a logical matrix forms a 2^n array.  ``DIMENSION_CAP`` bounds what
would: a sector's states, and the full-space ``Spectrum.eigenvectors``,
embedded on first read.

Sector t is its bare energy (the terms tapered to the identity string)
plus R_t, the other terms.  An inner node of the search is bounded by
the bare energy of its fixed bits less the |c| of everything else.  A
sector gets a floor, the lowest level of D_s - M: D_s is R_t's
diagonal, whose signs s depend on t, and M = sum_x (sum of |c| over the
x group) X^x bounds every off-diagonal entry of every R_t.  For any
psi, <psi|R_t|psi> >= <|psi||D_s - M||psi|>, the comparison behind
stoquastic bounds (Bravyi, DiVincenzo, Oliveira and Terhal,
arXiv:quant-ph/0606140), so the floor is a rigorous lower bound.  It is
solved once per s, densely up to the cap and above it as the LOBPCG
Ritz value less its residual norm, and it is never below -sum |c| of
R_t, the inner nodes' bound.  With r = 0 nothing is pruned and no floor
is solved.
"""

from __future__ import annotations

import heapq
import os
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse.linalg as spla
from scipy.sparse import csr_array

from .lattice import FieldMask, HoledLattice
from .pauli import PauliString, commutes, eliminate, multiply

DIMENSION_CAP = 24
SECTOR_DENSE_CAP = 1 << 10    # largest sector diagonalized by dense eigh
LOBPCG_MAXITER = 2000         # iteration cap of one above-cap LOBPCG solve


def _physical_memory() -> int:
    """Bytes of physical memory; a cgroup limit below it is not seen."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class SpectraError(RuntimeError):
    def __init__(self, msg, residuals=None):
        super().__init__(msg)
        self.residuals = residuals


def _conjugate_by_s(p: PauliString) -> PauliString:
    """Conjugate by the product of single-site phase gates: X -> iXZ,
    Z -> Z, so sigma^y -> -sigma^x."""
    k = (p.k + bin(p.x).count("1")) % 4
    return PauliString(p.n, p.x, p.z ^ p.x, k)


@dataclass(frozen=True)
class SpinHamiltonian:
    n: int
    terms: tuple[tuple[float, PauliString], ...]   # in the working frame
    frame: str                                     # 'plain' or 'sgate'
    n_stabilizer_terms: int

    @property
    def dimension(self) -> int:
        return 1 << self.n

    @property
    def dtype(self):
        """float64 when every c i^k is real, else complex128."""
        real = not any(abs((c * p.phase).imag) > 0 for c, p in self.terms)
        return np.float64 if real else np.complex128

    @property
    def norm_bound(self) -> float:
        return float(sum(abs(c) for c, _ in self.terms))

    def to_frame(self, p: PauliString) -> PauliString:
        return _conjugate_by_s(p) if self.frame == "sgate" else p


def assemble(lat: HoledLattice, g: float,
             mask: Optional[FieldMask] = None) -> SpinHamiltonian:
    """Hamiltonian term list: -g per stabilizer plus per-site field terms."""
    n = lat.n_sites
    if not np.isfinite(g):
        raise SpectraError(f"g must be finite, got {g}")
    raw: list[tuple[float, PauliString]] = []
    for s in lat.stabilizers():
        raw.append((-g, s))
    n_stab = len(raw)
    has = [False, False, False]
    if mask is not None:
        vals = mask.on(lat)
        for site in range(n):
            hx, hy, hz = vals[site]
            if hx:
                raw.append((float(hx), PauliString.sx(n, site)))
                has[0] = True
            if hy:
                raw.append((float(hy), PauliString.sy(n, site)))
                has[1] = True
            if hz:
                raw.append((float(hz), PauliString.sz(n, site)))
                has[2] = True

    frame = "plain"
    if has[1] and not has[0]:
        frame = "sgate"
        raw = [(c, _conjugate_by_s(p)) for c, p in raw]
    return SpinHamiltonian(n, tuple(raw), frame, n_stab)


def _axes(n: int, mask: int) -> tuple[int, ...]:
    """Axes of the (2,)*n state tensor that hold the bits of ``mask``:
    site j is axis n - 1 - j, so the tensor is the C-order reshape."""
    return tuple(n - 1 - j for j in range(n) if mask >> j & 1)


def _z_sum(n: int, terms) -> np.ndarray:
    """sum_j c_j i^k_j (-1)^{z_j.x} (-1)^{z_j.t} over basis states t for
    terms sharing one x mask, the factor that multiplies v[t ^ x] in
    (sum_j c_j P_j v)[t], as a tensor broadcastable over the (2,)*n state
    tensor.  Axes outside the union of the z masks have length 1, so it
    holds 2^|union| entries.  It is real when every c_j i^k_j is."""
    real = all((c * p.phase).imag == 0 for c, p in terms)
    out = np.zeros([1 + any(p.z >> (n - 1 - a) & 1 for _, p in terms)
                    for a in range(n)], np.float64 if real else np.complex128)
    flip = np.array([1.0, -1.0])
    for c, p in terms:
        coeff = c * p.phase * (1 - 2 * _parity(p.z & p.x))
        sign = np.ones((1,) * n)
        for a in _axes(n, p.z):
            sign = sign * flip.reshape((1,) * a + (2,) + (1,) * (n - 1 - a))
        out += (coeff.real if real else coeff) * sign
    return out


def _groups(n: int, terms) -> list[tuple[int, np.ndarray]]:
    """The one encoding of a Pauli sum: a (x mask, ``_z_sum``) pair per
    distinct x mask, x = 0 first (zero if no term is diagonal), so that
    (sum_j c_j P_j v)[t] = sum over pairs of coeff[t] v[t ^ x]."""
    by_x: dict[int, list] = {0: []}
    for c, p in terms:
        by_x.setdefault(p.x, []).append((c, p))
    return [(x, _z_sum(n, group)) for x, group in by_x.items()]


class _Apply:
    """Matrix-free application of a term list to (2^n,) states or
    (2^n, k) blocks: the x = 0 group is the diagonal ``diag``, and
    ``prepped`` holds one (flip axes, ``_z_sum``) entry per other group."""

    def __init__(self, H: SpinHamiltonian):
        self.H = H
        (_, self.diag), *rest = _groups(H.n, H.terms)
        self.prepped = [(_axes(H.n, x), coeff) for x, coeff in rest]
        self.dtype = np.result_type(self.diag, *(c for _, c in rest))

    def __call__(self, v):
        v = np.asarray(v)
        t = v.reshape((2,) * self.H.n + v.shape[1:])
        tail = (...,) + (None,) * (v.ndim - 1)      # over a block's columns
        out = np.multiply(self.diag[tail], t,
                          dtype=np.result_type(v, self.dtype))
        tmp = np.empty_like(out)
        for axes, coeff in self.prepped:
            np.multiply(coeff[tail], np.flip(t, axes), out=tmp)
            out += tmp
        return out.reshape(v.shape)


def apply_pauli(p: PauliString, v: np.ndarray) -> np.ndarray:
    """P|v> for a single Pauli string on (2^n,) states or (2^n, k) blocks."""
    v = np.asarray(v)
    _, coeff = _groups(p.n, [(1.0, p)])[-1]
    t = np.flip(v.reshape((2,) * p.n + v.shape[1:]), _axes(p.n, p.x))
    return (coeff[(...,) + (None,) * (v.ndim - 1)] * t).reshape(v.shape)


def pauli_sum_matrix(terms, n: int) -> csr_array:
    """Sparse matrix of sum_j c_j P_j over n sites from its x-mask groups:
    row t holds each group's coefficient at column t XOR x.  It is real
    when every group is."""
    dim, groups = 1 << n, _groups(n, terms)
    cols = np.arange(dim)[:, None] ^ np.array([x for x, _ in groups])
    vals = np.stack([np.broadcast_to(c, (2,) * n).ravel()
                     for _, c in groups], axis=1)
    return csr_array((vals.ravel(), cols.ravel(),
                      np.arange(0, cols.size + 1, len(groups))),
                     shape=(dim, dim))


@dataclass(frozen=True)
class Spectrum:
    """The lowest levels in sector coordinates: level j is column j of
    ``columns`` in sector ``labels[j]`` of ``sectors``."""
    eigenvalues: np.ndarray
    residual_norms: np.ndarray
    hamiltonian: SpinHamiltonian
    sector_dims: tuple[int, ...]   # dimension of every sector solved
    sectors: _Sectors
    labels: tuple[int, ...]
    columns: np.ndarray            # (2^(n - r), k)

    @property
    def method(self) -> str:    # 'lobpcg' once a sector exceeds the cap
        big = max(self.sector_dims) > SECTOR_DENSE_CAP
        return "lobpcg" if big else "sector"

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """(2^n, k) columns in the Hamiltonian's frame, embedded on first
        read (with r = 0 the columns as they are), for n up to the cap."""
        H = self.hamiltonian
        if H.n > DIMENSION_CAP:
            raise SpectraError(f"eigenvectors of {H.n} spins exceed the "
                               f"dimension cap 2^{DIMENSION_CAP}")
        if not self.sectors.r:
            return self.columns
        out = np.empty((H.dimension, len(self.labels)), dtype=H.dtype)
        for t in set(self.labels):
            at = [j for j, s in enumerate(self.labels) if s == t]
            out[:, at] = self.sectors.embed(t, self.columns[:, at])
        out.flags.writeable = False
        return out


# ---------------------------------------------------------------------------
# exact symmetry sectors
# ---------------------------------------------------------------------------

_PHASES = np.array([1, 1j, -1, -1j])


def _parity(v: int) -> int:
    return bin(v).count("1") & 1


def _count(a: np.ndarray, mask: int) -> np.ndarray:
    """popcount(a & mask) per entry, as int64."""
    return np.bitwise_count(a & np.uint64(mask)).astype(np.int64)


def _conserved_generators(H: SpinHamiltonian) -> list[PauliString]:
    """Independent products of stabilizer terms commuting with every term:
    the stabilizer terms' anticommutation patterns with all terms,
    eliminated to zero, less each product whose (x|z) mask depends on
    earlier ones, i.e. that leads a zero combination of the masks."""
    n, paulis = H.n, [p for _, p in H.terms]
    _, kernel = eliminate(
        [[sum(1 << t for t, q in enumerate(paulis) if not commutes(s, q)), s]
         for s in paulis[:H.n_stabilizer_terms]], len(paulis))
    _, zero = eliminate([[(s.x << n) | s.z, 1 << j]
                         for j, (_, s) in enumerate(kernel)], 2 * n)
    dependent = {bit for bit, _ in eliminate([[c] for _, c in zero],
                                             len(kernel))[0]}
    return [s for j, (_, s) in enumerate(kernel) if j not in dependent]


class _Sectors:
    """``H`` tapered to the common eigenspaces of generators ``gens``
    (h_j), all commuting with every term of ``H``.

    Sector t (bit j of t set iff h_j = -1) has dimension 2^(n - r).  The
    generators are brought to reduced row echelon form on (x|z): rows g
    with an x pivot q generate the orbits, and the representative of
    an orbit has every pivot bit zero; rows with x = 0 fix parities of
    the representatives, so its bits on ``sites`` label it.  The basis
    state of representative b is 2^(-a/2) prod_g (1 + chi_t(g) g) |b>
    over the a rows with x pivots.  Each term is tapered once, in
    ``terms``, to a string on ``sites`` and a character of t.

    It is also one ``lowest_eigs`` call's solve context: ``tol``,
    ``seed``, the residual ``gate`` that levels and above-cap floors must
    pass, and ``notes``, the LOBPCG warnings.
    """

    def __init__(self, H: SpinHamiltonian, gens: list[PauliString],
                 tol: float, seed: int):
        n = H.n
        self.H = H
        self.gens = gens
        self.r = len(gens)
        self.tol, self.seed = tol, seed
        self.gate = 50 * max(tol * H.norm_bound, 1e-30)
        self.notes: list[str] = []
        rows, _ = eliminate(
            [[(p.x << n) | p.z, p, 1 << j] for j, p in enumerate(gens)],
            2 * n)
        # (x pivot site, row operator g, its generator combination)
        self.orbit = [(bit - n, p, c) for bit, (_, p, c) in rows
                      if bit >= n]
        free = ((1 << n) - 1) & ~sum(1 << q for q, _, _ in self.orbit)
        # z.b = comb.t + k/2 (mod 2) for the pure-Z rows i^k Z^z
        self.parities = [
            (bit, m, c, k) for bit, (m, c, k) in eliminate(
                [[p.z & free, c, p.k >> 1 & 1] for bit, (_, p, c) in rows
                 if bit < n], n)[0]]
        fixed = sum(1 << q for q, *_ in self.parities)
        self.sites = [j for j in range(n) if (free & ~fixed) >> j & 1]
        self.dim = 1 << len(self.sites)
        # (c, comb, P'): the term c P acts on sector t as
        # c (-1)^{|comb & t|} P', P' a string on ``sites``
        self.terms = [(c, *self._taper(p)) for c, p in H.terms]
        # M = sum_x (summed |c| of the x group) X^x bounds the entries of
        # every sector's off-diagonal part; floors are cached per signature
        weight: dict[int, float] = {}
        for c, _, p in self.terms:
            if p.x:
                weight[p.x] = weight.get(p.x, 0.0) + abs(c)
        self.majorant = tuple((-w, PauliString(len(self.sites), x, 0))
                              for x, w in weight.items())
        self.diagonal = [(c, comb, p) for c, comb, p in self.terms
                         if not p.x and p.z]
        self.rest = sum(abs(c) for c, _, p in self.terms
                        if not p.is_identity_mask)
        self.floors: dict[tuple, float] = {}

    def _taper(self, p: PauliString) -> tuple[int, PauliString]:
        """Orbit rows clear p's x bits at their pivots (P|psi_b> =
        chi_t(g) g P|psi_b>); the parity rows replace its z bits at
        theirs by the other bits of the row, a sign and a character."""
        comb = 0
        for q, g, c in self.orbit:
            if p.x >> q & 1:
                p = multiply(g, p)
                comb ^= c
        z, k = p.z, p.k
        for q, m, c, sign in self.parities:
            if z >> q & 1:
                z ^= m
                comb ^= c
                k += 2 * sign
        reduced = [sum(1 << i for i, j in enumerate(self.sites) if v >> j & 1)
                   for v in (p.x, z)]
        return comb, PauliString(len(self.sites), *reduced, k)

    def representatives(self, t: int) -> np.ndarray:
        w = np.arange(self.dim, dtype=np.uint64)
        b = np.zeros_like(w)
        for i, site in enumerate(self.sites):
            b |= (w >> np.uint64(i) & np.uint64(1)) << np.uint64(site)
        for q, m, c, k in self.parities:
            par = (_count(b, m) + (_parity(c & t) ^ k)) & 1
            b |= par.astype(np.uint64) << np.uint64(q)
        return b

    def hamiltonian(self, t: int) -> SpinHamiltonian:
        """H on sector t: the tapered terms with their characters at t."""
        return replace(
            self.H, n=len(self.sites),
            terms=tuple((c * (1 - 2 * _parity(comb & t)), p)
                        for c, comb, p in self.terms))

    def floor(self, t: int) -> float:
        """Lower bound on the lowest level of R_t, the non-identity terms of
        sector t: lambda_min(D_s - M), D_s its diagonal terms, solved once
        per sign pattern s; -rest where an above-cap solve fails the
        gate."""
        diag = tuple((c * (1 - 2 * _parity(comb & t)), p)
                     for c, comb, p in self.diagonal)
        key = tuple(c for c, _ in diag)
        if key not in self.floors:
            (low,), _, (res,) = self.solve(
                replace(self.H, n=len(self.sites), terms=diag + self.majorant),
                1)
            if self.dim > SECTOR_DENSE_CAP:     # a Ritz value, if converged
                low = low - res if res <= self.gate else -np.inf
            self.floors[key] = max(low, -self.rest)
        return self.floors[key]

    def solve(self, H: SpinHamiltonian, m: int):
        """Lowest m levels of H, a sector's or a floor's, with their columns
        and residual norms: dense eigh up to ``SECTOR_DENSE_CAP`` states,
        above it LOBPCG on m seeded random columns preconditioned by the
        (D - min D + w)^-1 of the module docstring (a diagonal H, w = 0,
        takes its norm bound instead, and H = 0 takes 1).  A column that
        fails the gate sends it back with 2, then 4 guard columns, the
        first m kept; scipy's warnings go to ``notes``.  Each block is
        refused before it starts when 17 blocks of its columns, the traced
        peak of a LOBPCG solve, exceed the machine's physical memory (a
        cgroup limit below it is not seen)."""
        dim = H.dimension
        if dim <= SECTOR_DENSE_CAP:
            A = _Apply(H)
            w, U = np.linalg.eigh(A(np.eye(dim, dtype=H.dtype)))
            w, U = w[:m], U[:, :m]
            return w, U, np.linalg.norm(A(U) - U * w, axis=0)
        memory = _physical_memory()
        for guard in (0, 2, 4):
            need = 17 * (m + guard) * dim * np.dtype(H.dtype).itemsize
            if need > memory:
                raise SpectraError(
                    f"LOBPCG on {m + guard} columns of {dim} states needs "
                    f"~{need} bytes, more than the {memory} bytes of "
                    f"physical memory")
            if not guard:       # the operator, once the first block fits
                A = _Apply(H)
                w = (sum(abs(c) for c, p in H.terms if p.x) or H.norm_bound
                     or 1.0)
                inv = np.broadcast_to(1.0 / (A.diag - A.diag.min() + w),
                                      (2,) * H.n).reshape(dim, 1)
            rng = np.random.default_rng(self.seed)
            X = rng.standard_normal((dim, m + guard))
            if H.dtype == np.complex128:
                X = X + 1j * rng.standard_normal(X.shape)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                w, U = spla.lobpcg(A, X, M=lambda R: inv * R, largest=False,
                                   tol=self.tol * H.norm_bound,
                                   maxiter=LOBPCG_MAXITER)
            self.notes += [str(note.message) for note in caught]
            w, U = w[:m], U[:, :m]
            res = np.linalg.norm(A(U) - U * w, axis=0)
            if np.all(res <= self.gate):
                break
        return w, U, res

    def embed(self, t: int, coeffs: np.ndarray) -> np.ndarray:
        """Full-space columns of the sector-t coefficient columns; with
        no generator (r = 0) the sector basis is the full one."""
        if not self.r:
            return coeffs
        idx = self.representatives(t)
        amp = coeffs / np.sqrt(2.0 ** len(self.orbit))
        for _, g, comb in self.orbit:
            ph = _PHASES[(g.k + 2 * _count(idx, g.z) + 2 * _parity(comb & t))
                         & 3]
            if self.H.dtype == np.float64:
                ph = ph.real
            idx = np.concatenate([idx, idx ^ np.uint64(g.x)])
            amp = np.concatenate([amp, ph[:, None] * amp])
        out = np.zeros((self.H.dimension, coeffs.shape[1]), dtype=amp.dtype)
        out[idx.astype(np.intp)] = amp
        return out


def _sector_eigs(sec: _Sectors, k: int) -> Spectrum:
    """Lowest k levels over all sectors by best-first branch-and-bound
    on the syndrome bits, each residual within ``sec.gate``."""
    H, const, rest = sec.H, 0.0, sec.rest
    by_bit: list[list[tuple[float, int]]] = [[] for _ in range(sec.r)]
    for coeff, comb, p in sec.terms:
        if not p.is_identity_mask:
            continue
        if comb:
            by_bit[comb.bit_length() - 1].append((coeff * (1 - (p.k & 2)),
                                                 comb))
        else:
            const += coeff * (1 - (p.k & 2))
    # pool[d]: summed |c| of the group terms not yet fixed at depth d
    pool = np.cumsum([0.0] + [sum(abs(c) for c, _ in terms)
                              for terms in reversed(by_bit)])[::-1]
    slack = 64 * np.finfo(float).eps * H.norm_bound
    heap = [(const - pool[0] - rest, 0, 0, const)]   # bound, -depth, t, bare
    levels: list[tuple[float, int, int]] = []        # value, sector, column
    solved = []
    kth = np.inf
    while heap and heap[0][0] < kth - slack:
        _, depth, t, bare = heapq.heappop(heap)
        depth = -depth
        if depth < sec.r:
            for bit in (0, 1):
                tt = t | bit << depth
                e = bare + sum(c * (1 - 2 * _parity(comb & tt))
                               for c, comb in by_bit[depth])
                key = (e + sec.floor(tt)
                       if depth + 1 == sec.r else e - pool[depth + 1] - rest)
                heapq.heappush(heap, (key, -depth - 1, tt, e))
            continue
        w, U, res = sec.solve(sec.hamiltonian(t), min(k, sec.dim))
        levels.extend((w[i], len(solved), i) for i in range(len(w)))
        solved.append((t, U, res))
        levels.sort(key=lambda lv: lv[0])
        if len(levels) >= k:
            kth = levels[k - 1][0]
    if len(levels) < k:
        raise SpectraError(f"found {len(levels)} of {k} levels: is every "
                           f"coefficient finite?")
    chosen = levels[:k]
    vals = np.array([lv[0] for lv in chosen])
    labels = tuple(solved[s][0] for _, s, _ in chosen)
    cols = np.stack([solved[s][1][:, i] for _, s, i in chosen], axis=1)
    res = np.array([solved[s][2][i] for _, s, i in chosen])
    if np.any(res > sec.gate):
        raise SpectraError(
            "; ".join([f"eigensolver did not converge: residuals {res}"]
                      + sec.notes), residuals=res)
    for arr in (vals, cols, res):
        arr.flags.writeable = False
    return Spectrum(vals, res, H, (sec.dim,) * len(solved), sec, labels, cols)


def lowest_eigs(H: SpinHamiltonian, k_count: int, tol: float = 1e-10,
                seed: int = 2024) -> Spectrum:
    """Lowest ``k_count`` eigenpairs, exact across symmetry sectors.

    Sectors of at most ``SECTOR_DENSE_CAP`` states are diagonalized
    densely; ``seed`` acts on the larger ones, solved by LOBPCG from a
    seeded random block of as many columns as levels asked of the
    sector, plus guard columns after a failed gate.  ``tol``, ``seed``,
    the gate 50 * tol * norm_bound on the full-space residuals and the
    solver's warnings make up one solve context, ``Spectrum.sectors``.
    """
    dim = H.dimension
    k = int(k_count)
    if k < 1 or k >= dim:
        raise SpectraError(f"k_count {k} out of range for dimension {dim}")
    sec = _Sectors(H, _conserved_generators(H), tol, seed)
    if len(sec.sites) > DIMENSION_CAP:
        raise SpectraError(f"sectors of 2^{len(sec.sites)} states exceed the "
                           f"dimension cap 2^{DIMENSION_CAP}")
    return _sector_eigs(sec, k)


def ground_splitting(spectrum: Spectrum, n_holes: int) -> dict:
    """Gaps within the lowest 2**n_holes levels and to the next level."""
    need = 2 ** n_holes
    vals = spectrum.eigenvalues
    if len(vals) < need + 1:
        raise SpectraError(
            f"need {need + 1} converged eigenvalues, have {len(vals)}")
    ground = vals[:need]
    return {
        "ground_levels": ground.tolist(),
        "splittings": [float(ground[i] - ground[0]) for i in range(need)],
        "excitation_gap": float(vals[need] - ground[0]),
    }


def logical_expectation(spectrum: Spectrum, logical: PauliString,
                        subspace_dim: int) -> np.ndarray:
    """Matrix <v_a| L |v_b> on the lowest ``subspace_dim`` levels, real
    when both they and L are.  L commutes with every conserved product,
    so it keeps each sector t and acts there as (-1)^{|comb & t|} P', its
    tapered string: the matrix is C^H P' C, zero between sectors."""
    have = len(spectrum.labels)
    if subspace_dim > have:
        raise SpectraError(f"subspace_dim {subspace_dim} exceeds the {have} "
                           f"levels of the spectrum")
    if subspace_dim < 1:
        raise SpectraError(f"subspace_dim {subspace_dim} is below 1")
    sec, L = spectrum.sectors, spectrum.hamiltonian.to_frame(logical)
    if not all(commutes(g, L) for g in sec.gens):
        raise SpectraError(f"{logical} does not commute with every conserved "
                           f"product, so it leaves the symmetry sectors")
    comb, P = sec._taper(L)
    ts = spectrum.labels[:subspace_dim]
    sign = np.array([[(a == b) * (1 - 2 * _parity(comb & a)) for b in ts]
                     for a in ts])
    C = spectrum.columns[:, :subspace_dim]
    return sign * (C.conj().T @ apply_pauli(P, C))


def flux_basis(spectrum: Spectrum, tau_z: PauliString,
               subspace_dim: int) -> np.ndarray:
    """Rotation that diagonalizes tau_z on the degenerate subspace,
    labelling ground states by flux.  Returns the unitary R so that an
    operator matrix M on the raw eigenvectors becomes R^+ M R."""
    M = logical_expectation(spectrum, tau_z, subspace_dim)
    _, R = np.linalg.eigh((M + M.conj().T) / 2)
    return R


# ---------------------------------------------------------------------------
# closed-form quasiparticle dispersions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DispersionParams:
    g: float
    hx: float = 0.0
    hy: float = 0.0


def vortex_dispersion(params: DispersionParams, kx, ky):
    """Vortex band sqrt((xi + 2g)^2 - xi^2) with diagonal hopping
    xi = 2 hx [cos(kx+ky) + cos(kx-ky)]; lattice constant 1."""
    g, hx = params.g, params.hx
    if 4 * abs(hx) >= g:
        raise SpectraError(
            f"vortex gap closes for 4*|hx| >= g (hx={hx}, g={g})")
    xi = 2.0 * hx * (np.cos(np.asarray(kx) + np.asarray(ky))
                     + np.cos(np.asarray(kx) - np.asarray(ky)))
    return np.sqrt((xi + 2 * g) ** 2 - xi ** 2)


def fermion_dispersion(params: DispersionParams, kx, ky,
                       branch: str = "vertical"):
    """Fermion branches: straight-line hopping xi = 4 hy cos k along x
    (vertical-link branch) or along y (parallel-link branch)."""
    g, hy = params.g, params.hy
    if 2 * abs(hy) >= g:
        raise SpectraError(
            f"fermion gap closes for 2*|hy| >= g (hy={hy}, g={g})")
    if branch == "vertical":
        xi = 4.0 * hy * np.cos(np.asarray(kx))
    elif branch == "parallel":
        xi = 4.0 * hy * np.cos(np.asarray(ky))
    else:
        raise SpectraError(f"unknown fermion branch {branch!r}")
    return np.sqrt((xi + 4 * g) ** 2 - xi ** 2)


def vortex_gap(params: DispersionParams) -> float:
    g, hx = params.g, params.hx
    if 4 * abs(hx) >= g:
        raise SpectraError("vortex gap closes for 4*|hx| >= g")
    return 2 * g * np.sqrt(1 - 4 * abs(hx) / g)


def fermion_gap(params: DispersionParams) -> float:
    g, hy = params.g, params.hy
    if 2 * abs(hy) >= g:
        raise SpectraError("fermion gap closes for 2*|hy| >= g")
    return 4 * g * np.sqrt(1 - 2 * abs(hy) / g)


def dispersion_grid(params: DispersionParams, kind: str, npts: int = 512,
                    branch: str = "vertical"):
    """(kx, ky, energy) arrays over an npts x npts Brillouin-zone grid."""
    ks = np.linspace(-np.pi, np.pi, npts, endpoint=False)
    KX, KY = np.meshgrid(ks, ks, indexing="ij")
    if kind == "vortex":
        E = vortex_dispersion(params, KX, KY)
    elif kind == "fermion":
        E = fermion_dispersion(params, KX, KY, branch)
    else:
        raise SpectraError(f"unknown dispersion kind {kind!r}")
    return KX, KY, E

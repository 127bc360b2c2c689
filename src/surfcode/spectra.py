"""Exact spin-level spectra: matrix-free Hamiltonian application, lowest
eigenpairs, ground-space splittings and the quasiparticle dispersions.

The Hamiltonian is a list of weighted Pauli strings,

    H = -g * sum(stabilizers) + sum_i sum_c h_c(i) sigma^c_i,

applied to state vectors without forming a matrix.  A term i^k X^x Z^z
sends |t> to i^k (-1)^{z.t} |t XOR x>, and on the state viewed as a
(2,)*n tensor XOR with x is a flip of x's axes, a view.  ``_Apply``
sums the terms per x mask: the x = 0 group is a diagonal, each other
one costs one strided pass with a coefficient over only its z bits, on
a vector or a block of columns.  A group whose coefficient lies within
the 3-site window of its lowest x site joins that window's 8 x 8 matrix
for its x part above the window, one matmul on a view of the state and
a flip; long states are applied one at a time.  Where a matrix is
formed, a ``_Table`` is the one tabulation of the strings' entries over
the basis: it sums each x group in term order, and scatters the sums
into the dense matrices of sectors and floors, built once per solve,
and into ``pauli_sum_matrix``, the sparse matrix of the pseudo-spin
chain.  The tomography fit reads its rows (P v)_s off one as well.

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
their common eigenspaces.  Each sector gets a symmetry-adapted basis,
the ``_orbit`` of representatives under the generators' X parts with
the pure-Z generators' parities imposed, labelled by the bits of its n - r
free sites for r generators.  Every term is tapered once to a Pauli string
on those sites times a character of the sector, so a sector is itself
a ``SpinHamiltonian`` on n - r sites; with no generator (a field on
every site) the one sector is the full space.  Sectors are visited best
first by branch-and-bound on the sector bits, and the search stops once
the lowest bound left reaches the k-th lowest level found, so the
lowest k levels are exact across sectors.  A visited sector of at most
``SECTOR_DENSE_CAP`` states is diagonalized densely from its
matrix from the solve's ``_Table`` (for one level, as every floor and
``lowest_eigs(H, 1)`` ask, by a LAPACK call that computes that pair
only), a larger one through one ``_Apply`` by the module's seeded block
LOBPCG, ``_lobpcg`` (Knyazev, SIAM J. Sci. Comput. 23, 517 (2001)), on
an orthonormal basis (Hetmaniuk and Lehoucq, J. Comput. Phys. 218, 324
(2006)) that each new block joins by a pass of one Gram product
(Duersch, Shao, Yang and Gu, SIAM J. Sci. Comput. 40, C655 (2018)),
and by a second one only where the first cancelled much of the block
(the test of Daniel, Gragg, Kaufman and Stewart, Math. Comp. 30, 772
(1976)).  Its block holds exactly the k random columns asked for,
which resolves a k-fold exact degeneracy, as a single-vector Lanczos
cannot; a column whose residual reaches tol ||H|| is locked, and the
others iterate in its complement.  A block is a (2^n, k) array whose
columns are states; the solver's blocks are in Fortran order, each
state contiguous, ``_Apply`` and the preconditioner read them as rows
without a copy, and the preconditioner writes into the solver's own
rows.  It is preconditioned by T = (H_F - E_min + w)^-1
(``_FamilyInverse``): H_F sums F, the largest commuting family of the
terms taken by decreasing |c|, which holds the stabilizers, the
largest terms; w is the largest |c| left out.  F's X parts, eliminated
like the generators, give a basis where H_F is diagonal: their
``_orbit``, then a Walsh-Hadamard transform over their a pivot bits, so
T costs O(a 2^n) a column.  Each column's scale there is shifted
toward its Ritz value theta, 1 / min(E - E_min + w, max(|E - theta|,
w)) for H_F's energies E, which is T's for theta <= E_min - w, the
ground columns.  Where level k cuts through a degenerate
cluster a column can stall above the residual gate 50 tol ||H||; only
then is the sector solved again from the failed block's k columns and
2, then 4 seeded guard columns, the first k kept.  One ``_Sectors`` per
call is the solve context that holds ``tol``, ``seed``, the gate and
the solver's notes.

Levels stay in sector coordinates: a ``Spectrum`` keeps each level's
sector and its column of 2^(n - r) coefficients, contiguous as in the
solver's blocks.  A logical operator
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
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.sparse import csr_array

from .lattice import FieldMask, HoledLattice
from .pauli import PauliString, commutes, eliminate, multiply

DIMENSION_CAP = 24
SECTOR_DENSE_CAP = 1 << 10    # largest sector diagonalized by dense eigh
LOBPCG_MAXITER = 2000         # iteration cap of one above-cap LOBPCG solve
APPLY_PER_STATE = 1 << 15     # states this long are applied one at a time
LOBPCG_CHUNK = 1 << 13        # columns per step of LOBPCG's row products
DGKS_ETA = 0.5                # a second pass where W keeps less of its norm
CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"   # cgroup v2 memory limit


def _physical_memory() -> int:
    """Bytes of physical memory, or the cgroup limit in
    ``CGROUP_MEMORY_MAX`` where that file holds a lower number."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        with open(CGROUP_MEMORY_MAX) as f:
            return min(memory, int(f.read()))
    except (OSError, ValueError):       # no such file, or "max"
        return memory


class SpectraError(RuntimeError):
    pass


def _conjugate_by_s(p: PauliString) -> PauliString:
    """Conjugate by the product of single-site phase gates: X -> iXZ,
    Z -> Z, so sigma^y -> -sigma^x."""
    k = (p.k + p.x.bit_count()) % 4
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
    """Hamiltonian term list: -g per stabilizer plus per-site field
    terms, site by site in x, y, z order."""
    n = lat.n_sites
    if not np.isfinite(g):
        raise SpectraError(f"g must be finite, got {g}")
    raw = [(-g, s) for s in lat.stabilizers()]
    n_stab = len(raw)
    vals = np.zeros((n, 3)) if mask is None else mask.on(lat)
    for site, axis in zip(*np.nonzero(vals)):
        make = (PauliString.sx, PauliString.sy, PauliString.sz)[axis]
        raw.append((float(vals[site, axis]), make(n, int(site))))
    frame = "plain"
    if vals[:, 1].any() and not vals[:, 0].any():
        frame = "sgate"
        raw = [(c, _conjugate_by_s(p)) for c, p in raw]
    return SpinHamiltonian(n, tuple(raw), frame, n_stab)


def _axes(n: int, mask: int) -> tuple[int, ...]:
    """Axes of the (2,)*n state tensor that hold the bits of ``mask``:
    site j is axis n - 1 - j, so the tensor is the C-order reshape."""
    return tuple(n - 1 - j for j in range(n) if mask >> j & 1)


def _flips(n: int, x: int) -> tuple:
    """Index of the (2,)*n tensor, its first n axes, that reverses the
    axes of x's sites: XOR with x as a view."""
    return tuple(slice(None, None, -1) if x >> (n - 1 - a) & 1
                 else slice(None) for a in range(n))


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


class _Apply:
    """Matrix-free application of a term list to (2^n,) states or
    (2^n, k) blocks, for the solves above the dense cap; it reads a
    block's columns as the rows of the transpose, so a Fortran-order
    block, each state contiguous, is read and returned without a copy.
    The x = 0 group is the diagonal ``diag``, and ``prepped`` holds one
    (flip, coefficient, view) entry per window matrix or other group.
    Flips and signs of the last axes leave numpy loops of a few
    elements, so the groups are summed by 3-site windows [3w, 3w + 3):
    a group whose lowest x site lies in window w and whose coefficient
    has no factor outside it joins one 2^s x 2^s matrix per window and
    x part above it (s = 3, fewer in a last short window).  A matrix
    is one matmul on the (..., 2^s, 2^(3w)) ``view`` of the state
    (window 0's, stored transposed, on the (..., 2^s) view from the
    right), after which the higher part's ``flip``, a view, is added;
    the matrices come first.  Every other group is flip and multiply,
    its ``view`` None.  On the 16-spin problem with a field on every
    site that is 9 matrices and one group, where matrices on sites 0-2
    alone and per-group flips took 18 entries, and one application of
    a state takes ~0.65 instead of ~0.92 ms (one thread, 2-core x86-64
    host, best of 30 runs of 20 calls).  States of at least
    ``APPLY_PER_STATE`` amplitudes are applied one at a time, so that a
    state's arrays stay in cache."""

    def __init__(self, H: SpinHamiltonian):
        n = H.n
        self.H = H
        by_x: dict[int, list] = {0: []}
        for c, p in H.terms:
            by_x.setdefault(p.x, []).append((c, p))
        (_, self.diag), *rest = [(x, _z_sum(n, g)) for x, g in by_x.items()]
        self.dtype = np.result_type(self.diag, *(c for _, c in rest))
        windows: dict[tuple[int, int], np.ndarray] = {}
        self.prepped = []
        for x, coeff in rest:
            lo = ((x & -x).bit_length() - 1) // 3 * 3   # window's lowest site
            s = min(3, n - lo)
            axes = slice(n - lo - s, n - lo)            # the window's axes
            if coeff.size == np.prod(coeff.shape[axes]):
                high = x >> lo + s << lo + s
                M = windows.setdefault((lo, high), np.zeros((1 << s,) * 2,
                                                            self.dtype))
                idx = np.arange(1 << s)
                # (M v)[i] on the window's bits is c[i] v[i ^ x's bits]
                M[idx, idx ^ (x >> lo & (1 << s) - 1)] += np.broadcast_to(
                    coeff.reshape(coeff.shape[axes]), (2,) * s).ravel()
            else:
                self.prepped.append(((...,) + _flips(n, x), coeff, None))
        self.prepped[:0] = [
            ((...,) + _flips(n, high), M.T.copy() if not lo else M,
             (-1, len(M)) + ((1 << lo,) if lo else ()))
            for (lo, high), M in windows.items()]

    def __call__(self, v):
        v = np.asarray(v)
        rows = v.T.reshape(v.shape[:0:-1] + (2,) * self.H.n)
        out = np.empty(rows.shape, np.result_type(v, self.dtype))
        if v.ndim > 1 and len(v) >= APPLY_PER_STATE:
            for row, state in zip(rows, out):
                self._apply(row, state)
        else:
            self._apply(rows, out)
        return out.reshape(v.shape[::-1]).T

    def _apply(self, rows, out):
        """H applied to the rows tensor, a state or a block, into out."""
        np.multiply(self.diag, rows, out=out)
        tmp = np.empty_like(out)
        for flip, coeff, view in self.prepped:
            if view is None:
                np.multiply(coeff, rows[flip], out=tmp)
                out += tmp
                continue
            if len(view) == 2:          # the lowest window: rows times M^T
                np.matmul(rows.reshape(view), coeff, out=tmp.reshape(view))
            else:
                np.matmul(coeff, rows.reshape(view), out=tmp.reshape(view))
            out += tmp[flip]


class _FamilyInverse:
    """T = (H_F - E_min + w)^-1, the LOBPCG preconditioner, shifted per
    column toward the column's Ritz value.

    F takes the terms by decreasing |c|, ties in term order, each one
    that commutes with every member so far; w is the largest |c| left
    out (the norm bound if none is, 1 if H = 0).  The x masks of F's
    members in reduced row echelon form give a rows g_i with pivot
    sites q_i.  Basis vector u = (alpha, c) is 2^(-a/2) sum_beta
    (-1)^(alpha.beta) g^beta |rep_c>: a common eigenvector of the g_i,
    and so of every member of F, from the representative rep_c, whose
    pivot bits are 0 and whose other bits are c.  The top a bits of u
    hold alpha, so U^+, the map to that basis, is a gather by ``index``
    and the conjugate ``phase`` of g^beta |rep_c> from ``_orbit``, then a
    Walsh-Hadamard transform over those bits, and U the same steps back,
    the gather by ``inverse``.  H_F's energies E_F are U^+ H_F U applied
    to a vector of ones; ``E`` keeps E_F - E_min + w, T^-1's eigenvalues,
    times 2^a, the two transforms' gain.  With no x in F, U is the
    identity and T a shifted diagonal inverse.

    A column with Ritz value theta is scaled in that basis by
    1 / min(E_F - E_min + w, max(|E_F - theta|, w)), in the spirit of
    Davidson's shift: states of H_F near theta weigh up to 1/w, and those
    far from it no more than in T.  The scale is positive and at most
    1/w, so each column's operator is Hermitian positive definite, and
    for theta <= E_min - w, as for the ground columns, it is T's."""

    def __init__(self, H: SpinHamiltonian):
        n, dim = H.n, H.dimension
        self.family, out = [], []
        for c, p in sorted(H.terms, key=lambda t: -abs(t[0])):
            inside = all(commutes(p, q) for _, q in self.family)
            (self.family if inside else out).append((c, p))
        self.w = (max((abs(c) for c, _ in out), default=0.0)
                  or H.norm_bound or 1.0)
        rows, _ = eliminate([[p.x, p] for _, p in self.family if p.x], n)
        self.a = len(rows)
        pivots = sum(1 << q for q, _ in rows)
        reps = _deposit(np.arange(dim >> self.a, dtype=np.uint64),
                        [j for j in range(n) if not pivots >> j & 1])
        index, k = _orbit(reps, [g for _, (_, g) in rows])
        self.index = index.astype(np.intp)
        self.inverse = np.empty_like(self.index)
        self.inverse[self.index] = np.arange(dim)
        self.phase = (_PHASES.real if H.dtype == np.float64
                      else _PHASES)[k & 3]
        # allocated ahead of the temporaries below, which then free one
        # block above it for the solve: ~0.7 MB less peak RSS at n = 16
        self.E = np.empty(dim)
        self.buf = np.empty(min(dim, LOBPCG_CHUNK))     # a shifted scale's
        HF = _Apply(replace(H, terms=tuple(self.family)))
        ones = np.ones((1, dim), self.phase.dtype)
        E = self._to_basis(HF(self._from_basis(ones).T).T).real[0]
        self.shift = self.w - E.min() / (1 << self.a)   # T^-1 = H_F + shift
        np.add(E, self.shift * (1 << self.a), out=self.E)

    def _transform(self, y: np.ndarray) -> np.ndarray:
        """Unnormalized Walsh-Hadamard transform of the C-contiguous
        (m, 2^n) rows y over the top a bits of the index, in place by one
        butterfly per bit."""
        for j in range(self.a):
            t = y.reshape(len(y), 1 << self.a - 1 - j, 2, -1)
            lo, hi = t[:, :, 0], t[:, :, 1]
            lo += hi            # (lo + hi, lo - hi) without a temporary
            hi *= -2
            hi += lo
        return y

    def _to_basis(self, v: np.ndarray) -> np.ndarray:      # 2^(a/2) U^+ v
        y = np.take(v, self.index, axis=1).astype(
            np.result_type(v, self.phase), copy=False)
        y *= self.phase.conj()
        return self._transform(y)

    def _from_basis(self, y: np.ndarray, out=None) -> np.ndarray:
        """2^(a/2) U y, gathered into ``out`` when it is given."""
        y = self._transform(y)
        y *= self.phase
        return np.take(y, self.inverse, axis=1, out=out, mode="clip")

    def __call__(self, R: np.ndarray, out=None, theta=None) -> np.ndarray:
        """T R for a (2^n, m) block R, read and returned as ``_Apply``
        reads and returns one: Fortran order costs no copy.  With
        ``out``, a block of R's shape and dtype and possibly R itself,
        T R is written there.  With ``theta``, the m columns' Ritz
        values, column j is scaled for theta[j]; the shifted scale is
        formed ``LOBPCG_CHUNK`` entries at a time in ``buf``, kept for
        every call, so that a call allocates only its transform's rows."""
        y, gain, buf = self._to_basis(R.T), 1 << self.a, self.buf
        for j, row in enumerate(y):
            # (theta - E_min + w) 2^a: |E_F - theta| 2^a is |E - sigma|
            sigma = -np.inf if theta is None else (theta[j] + self.shift) * gain
            if sigma <= 0:
                row /= self.E
                continue
            for at in range(0, len(row), len(buf)):
                E, part = self.E[at:at + len(buf)], row[at:at + len(buf)]
                d = buf[:len(E)]
                np.subtract(E, sigma, out=d)
                np.abs(d, out=d)
                np.maximum(d, self.w * gain, out=d)
                np.minimum(d, E, out=d)
                part /= d
        return self._from_basis(y, None if out is None else out.T).T


def _svqb(G: np.ndarray) -> tuple[np.ndarray, float]:
    """Columns K such that the rows of K^T V are orthonormal, from the
    eigenvectors of G = V V^H, the rows' Gram matrix (SVQB), and G's
    smallest eigenvalue; directions below 1e-14 of its largest
    eigenvalue are dropped, so a rank-deficient V gives fewer rows."""
    s, C = np.linalg.eigh(G)
    keep = s > 1e-14 * s.max(initial=0.0)
    return C[:, keep].conj() / np.sqrt(s[keep]), s.min(initial=np.inf)


def _join(G: np.ndarray, lo: int) -> tuple[np.ndarray, bool]:
    """One pass taking rows W out of the span of the lo orthonormal rows
    V before them and making them orthonormal, from G = W [V W]^H alone
    (Duersch, Shao, Yang and Gu, SIAM J. Sci. Comput. 40, C655 (2018)):
    with C = G's V columns, W - C V has the Gram matrix G_WW - C C^H,
    whose SVQB K gives the coefficients of the new rows K^T (W - C V) on
    [V W].  The pass is enough when that matrix's smallest eigenvalue is
    at least ``DGKS_ETA``^2 times G_WW's largest diagonal entry, a block
    form of the test of Daniel, Gragg, Kaufman and Stewart (Math. Comp.
    30, 772 (1976)); else a second pass follows."""
    C, GW = G[:, :lo], G[:, lo:]
    K, low = _svqb(GW - C @ C.conj().T)
    enough = low >= DGKS_ETA ** 2 * GW.diagonal().real.max()
    return np.vstack([-C.T @ K, K]), bool(enough)


def _lobpcg(A, T, X: np.ndarray, tol: float, maxiter: int):
    """Lowest m eigenpairs of the Hermitian A from the (2^n, m) start
    block X by block LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 517
    (2001)), preconditioned by T, with hard locking.  The rows of one
    buffer hold the basis [X, P, W], kept orthonormal (Hetmaniuk and
    Lehoucq, J. Comput. Phys. 218, 324 (2006)), so each Rayleigh-Ritz
    step is one eigh of at most 3m x 3m; a second buffer holds A applied
    to each row.  Products of rows run over ``LOBPCG_CHUNK`` columns at
    a time, and T writes into W's rows, so that beyond what A returns
    and T works in, only a lock allocates rows in the loop; the start
    block is dropped once its QR is in the buffer.  X's rows are the
    locked ones, then the active ones: a row whose residual r, out of
    the locked rows L, is at most ``tol`` (||r||^2 - ||L^H r||^2) is
    locked, and the others iterate in its complement for at most
    ``maxiter`` steps.  W = T R, each residual preconditioned for its
    row's Ritz value (T's ``theta``), joins the basis, out of span
    [X, P], locked rows included, by one or two ``_join`` passes.  A last
    Rayleigh-Ritz step over all m rows gives the ascending values and
    the vectors as a Fortran-order block."""
    dim, m = X.shape
    X = np.linalg.qr(X)[0]
    B = np.empty((3 * m, dim), X.dtype)    # rows: X (locked, active), P, W
    AB = np.empty_like(B)                  # A applied to each row of B
    B[:m] = X.T
    del X
    chunks = [slice(j, j + LOBPCG_CHUNK) for j in range(0, dim, LOBPCG_CHUNK)]
    scratch = np.empty((2 * m, min(dim, LOBPCG_CHUNK)), B.dtype)

    def gram(V, U):                         # V^* U^T, summed over chunks
        return sum(V[:, j].conj() @ U[:, j].T for j in chunks)

    def combine(C, lo, hi, at, bufs=(B, AB)):   # C^T rows lo:hi, from at
        out = scratch[:C.shape[1]]
        for buf in bufs:
            for j in chunks:
                part = buf[:, j]
                part[at:at + len(out)] = np.matmul(C.T, part[lo:hi], out=out)

    AB[:m] = A(B[:m].T).T
    lam, C = np.linalg.eigh(gram(B[:m], AB[:m]))
    combine(C, 0, m, 0)
    locked = p = 0
    for _ in range(maxiter):
        lo, hi = m + p, 2 * m + p - locked  # W's rows, the residuals first
        R = B[lo:hi]
        np.multiply(B[locked:m], lam[locked:, None], out=R)
        np.subtract(AB[locked:m], R, out=R)
        norm2 = np.array([np.vdot(r, r).real for r in R])
        if locked:                          # less the part in the locked span
            norm2 -= np.sum(np.abs(gram(R, B[:locked])) ** 2, axis=1)
        done = norm2 <= tol * tol
        if done.any():
            order = locked + np.argsort(~done, kind="stable")
            B[locked:m], AB[locked:m] = B[order], AB[order]
            lam[locked:] = lam[order]
            locked += int(done.sum())
            hi = lo + m - locked
            B[lo:hi] = R[~done]
        if locked == m:
            break
        T(B[lo:hi].T, out=B[lo:hi].T, theta=lam[locked:])
        for _ in range(2):
            G = gram(B[lo:hi], B[:hi]).conj()
            C, enough = _join(G, lo)
            combine(C, 0, hi, lo, (B,))
            hi = lo + C.shape[1]
            if enough:
                break
        if hi == lo:
            break
        AB[lo:hi] = A(B[lo:hi].T).T
        w, C = np.linalg.eigh(gram(B[locked:hi], AB[locked:hi]))
        q = m - locked
        Y, Z = C[:, :q], C[:, :q].copy()
        Z[:q] = 0                           # P: Y's W and P parts, out of Y
        for _ in range(2):
            Z -= Y @ (Y.conj().T @ Z)
            Z = Z @ _svqb(Z.T @ Z.conj())[0]
        combine(np.hstack([Y, Z]), locked, hi, locked)
        lam[locked:], p = w[:q], Z.shape[1]
    lam, C = np.linalg.eigh(gram(B[:m], AB[:m]))
    return lam, (C.T @ B[:m]).T


def apply_pauli(p: PauliString, v: np.ndarray) -> np.ndarray:
    """P|v> for a single Pauli string on (2^n,) states or (2^n, k) blocks."""
    v = np.asarray(v)
    coeff = _z_sum(p.n, [(1.0, p)])
    t = v.reshape((2,) * p.n + v.shape[1:])[_flips(p.n, p.x)]
    return (coeff[(...,) + (None,) * (v.ndim - 1)] * t).reshape(v.shape)


def pauli_sum_matrix(terms, n: int) -> csr_array:
    """Sparse matrix of sum_j c_j P_j over n sites from the x-group sums
    of its ``_Table``: row t holds each group's sum at column t XOR x.
    It is real when every c_j i^k_j is."""
    table = _Table(terms, n)
    sums = table.sums(np.array([c for c, _ in terms]))
    return csr_array((sums.T.ravel(), table.cols.T.ravel(),
                      np.arange(0, sums.size + 1, len(sums))),
                     shape=(1 << n,) * 2)


@dataclass(frozen=True)
class Spectrum:
    """The lowest levels in sector coordinates: level j is column j of
    ``columns`` in sector ``labels[j]`` of ``sectors``.  ``columns`` and
    ``eigenvectors`` are read-only and in Fortran order, each level's
    state contiguous."""
    eigenvalues: np.ndarray
    residual_norms: np.ndarray
    hamiltonian: SpinHamiltonian
    sector_dims: tuple[int, ...]   # dimension of every sector solved
    sectors: _Sectors
    labels: tuple[int, ...]
    columns: np.ndarray            # (2^(n - r), k), Fortran order

    @property
    def method(self) -> str:    # 'lobpcg' once a sector exceeds the cap
        big = max(self.sector_dims) > SECTOR_DENSE_CAP
        return "lobpcg" if big else "sector"

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """(2^n, k) columns in the Hamiltonian's frame, embedded on first
        read straight into the rows of one array (with r = 0 the columns
        as they are), for n up to the cap."""
        H = self.hamiltonian
        if H.n > DIMENSION_CAP:
            raise SpectraError(f"eigenvectors of {H.n} spins exceed the "
                               f"dimension cap 2^{DIMENSION_CAP}")
        if not self.sectors.r:
            return self.columns
        rows = np.zeros((len(self.labels), H.dimension), H.dtype)
        for t in set(self.labels):
            at = [j for j, s in enumerate(self.labels) if s == t]
            index, amp = self.sectors.spread(t, self.columns[:, at])
            rows[np.ix_(at, index)] = amp
        rows.flags.writeable = False
        return rows.T


# ---------------------------------------------------------------------------
# exact symmetry sectors
# ---------------------------------------------------------------------------

_PHASES = np.array([1, 1j, -1, -1j])


def _parity(v: int) -> int:
    return v.bit_count() & 1


def _deposit(w: np.ndarray, sites) -> np.ndarray:
    """Bit i of each entry of w moved to bit sites[i], the other bits 0."""
    b = np.zeros_like(w)
    for i, site in enumerate(sites):
        b |= (w >> np.uint64(i) & np.uint64(1)) << np.uint64(site)
    return b


def _count(a: np.ndarray, mask: int) -> np.ndarray:
    """popcount(a & mask) per entry, as int64."""
    return np.bitwise_count(a & np.uint64(mask)).astype(np.int64)


def _orbit(b: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """g^beta |b_c> = i^k |index> for the uint64 states b and the strings
    g_i of ``rows``, g_0 applied first: entry (beta, c) sits at beta
    len(b) + c, row i on the bit just above those of c.  Each row doubles
    the filled part, in place."""
    index = np.tile(b, 1 << len(rows))      # all but b are overwritten
    k = np.zeros(len(index), dtype=np.int64)
    for i, g in enumerate(rows):
        s = len(b) << i
        index[s:2 * s] = index[:s] ^ np.uint64(g.x)
        k[s:2 * s] = k[:s] + g.k + 2 * _count(index[:s], g.z)
    return index, k


class _Table:
    """The one tabulation of strings P_j over the states u: (P_j v)[u] =
    E[j, u] v[cols[group[j], u]], E[j] = i^k (-1)^{z.(u ^ x)}, ``cols``
    holding u ^ x for each distinct x mask, x = 0 first.  ``sums`` adds
    each x group's entries times weights w in term order from zero, real
    when every c_j i^k_j of the terms is; a call scatters them to
    (u, u ^ x) as the dense matrix of sum_j w_j P_j, ``pauli_sum_matrix``
    as the sparse one."""

    def __init__(self, terms, n: int):
        u = np.arange(1 << n)
        xs = list(dict.fromkeys([0] + [p.x for _, p in terms]))
        self.group = np.array([xs.index(p.x) for _, p in terms], np.intp)
        self.cols = u ^ np.array(xs)[:, None]
        z = np.array([p.z for _, p in terms], np.int64)[:, None]
        k = np.array([p.k + 2 * _parity(p.z & p.x) for _, p in terms],
                     np.int64)[:, None]
        self.E = _PHASES[(k + 2 * np.bitwise_count(z & u)) & 3]
        if not (k & 1).any():
            self.E = self.E.real.copy()
        self.real = all((c * p.phase).imag == 0 for c, p in terms)

    def sums(self, w: np.ndarray) -> np.ndarray:
        """(groups, 2^n) sums of w_j E[j] over each x group's terms."""
        terms = w[:, None] * self.E
        if self.real:
            terms = terms.real
        sums = np.zeros(self.cols.shape, terms.dtype)
        np.add.at(sums, self.group, terms)
        return sums

    def __call__(self, w: np.ndarray) -> np.ndarray:
        sums = self.sums(w)
        M = np.zeros((len(self.cols[0]),) * 2, sums.dtype)
        M[self.cols[0], self.cols] = sums
        return M


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
    ``terms``, to a string on ``sites`` and a character of t.  Sectors
    of at most ``SECTOR_DENSE_CAP`` states are ``dense``: a ``_Table`` of
    the tapered strings, built once, gives every sector's matrix from its
    characters, and a second one over the diagonal strings and the
    majorant every floor's.

    It is also one ``lowest_eigs`` call's solve context: ``tol``,
    ``seed``, the residual ``gate`` that levels and above-cap floors must
    pass, and ``notes``, one line per LOBPCG block that ended above its
    stopping tolerance.
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
        self.dense = self.dim <= SECTOR_DENSE_CAP
        if self.dense:
            self.table = _Table([(c, p) for c, _, p in self.terms],
                                len(self.sites))
            self.floor_table = _Table([(c, p) for c, _, p in self.diagonal]
                                      + list(self.majorant), len(self.sites))

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

    def hamiltonian(self, t: int) -> SpinHamiltonian:
        """H on sector t: the tapered terms with their characters at t."""
        return replace(
            self.H, n=len(self.sites),
            terms=tuple((c * (1 - 2 * _parity(comb & t)), p)
                        for c, comb, p in self.terms))

    def matrix(self, t: int) -> np.ndarray:
        """Dense matrix of sector t from the table, the same bits as
        ``pauli_sum_matrix`` of ``hamiltonian(t)``'s terms."""
        return self.table(np.array([c * (1 - 2 * _parity(comb & t))
                                    for c, comb, _ in self.terms]))

    def floor(self, t: int) -> float:
        """Lower bound on the lowest level of R_t, the non-identity terms of
        sector t: lambda_min(D_s - M), D_s its diagonal terms, solved once
        per sign pattern s; -rest where an above-cap solve fails the
        gate."""
        key = tuple(c * (1 - 2 * _parity(comb & t))
                    for c, comb, _ in self.diagonal)
        if key not in self.floors:
            if self.dense:
                A = self.floor_table(np.array(
                    key + tuple(c for c, _ in self.majorant)))
            else:
                A = replace(self.H, n=len(self.sites), terms=tuple(
                    zip(key, (p for *_, p in self.diagonal))) + self.majorant)
            (low,), _, (res,) = self.solve(A, 1)
            if not self.dense:                  # a Ritz value, if converged
                low = low - res if res <= self.gate else -np.inf
            self.floors[key] = max(low, -self.rest)
        return self.floors[key]

    def solve(self, H, m: int):
        """Lowest m levels of H, a sector's or a floor's, with their columns
        and residual norms: eigh of H, a dense matrix up to
        ``SECTOR_DENSE_CAP`` states, the residuals from the same matrix,
        where m = 1 (every floor) asks LAPACK for the lowest pair only;
        above it ``_lobpcg`` from m seeded random columns, preconditioned
        by ``_FamilyInverse``, built once per call and kept for the
        retries.  A column that fails the gate sends it back from the
        failed block's m columns and 2, then 4 seeded guard columns, the
        first m kept; a block that ends above the stopping tolerance
        tol * norm_bound leaves a line in ``notes``.  Each block is
        refused before it starts when 13 blocks of its columns plus the
        preconditioner's four arrays of one entry a state exceed the
        machine's physical memory or a lower cgroup limit
        (``_physical_memory``).  Less those arrays, the traced peak of a
        solve on 16 and 20 spins, real or complex, of 1, 3 or 5 columns
        is 8.1-9.6 blocks."""
        if isinstance(H, np.ndarray):
            w, U = (scipy.linalg.eigh(H, subset_by_index=[0, 0]) if m == 1
                    else np.linalg.eigh(H))
            w, U = w[:m], U[:, :m]
            return w, U, np.linalg.norm(H @ U - U * w, axis=0)
        dim = H.dimension
        memory, size = _physical_memory(), np.dtype(H.dtype).itemsize
        stop, U = self.tol * H.norm_bound, None
        for guard in (0, 2, 4):
            need = (13 * (m + guard) * size + 24 + size) * dim
            if need > memory:
                raise SpectraError(
                    f"LOBPCG on {m + guard} columns of {dim} states needs "
                    f"~{need} bytes, more than the {memory} bytes "
                    f"available")
            if not guard:       # operator and preconditioner, once it fits
                A, T = _Apply(H), _FamilyInverse(H)
            # passed on, not kept, so that the solver can free it
            w, U = _lobpcg(A, T, self._start(H, m, guard, U).T, stop,
                           LOBPCG_MAXITER)
            w, U = w[:m], U[:, :m]
            res = np.linalg.norm(A(U) - U * w, axis=0)
            if np.any(res > stop):
                self.notes.append(
                    f"LOBPCG on {m + guard} columns of {dim} states ended "
                    f"with residuals {res}, not reaching the requested "
                    f"tolerance {stop:.3g}")
            if np.all(res <= self.gate):
                break
        return w, U, res

    def _start(self, H: SpinHamiltonian, m: int, guard: int, U):
        """The seeded (m + guard, 2^n) start rows, complex for a complex
        H; after a failed gate the failed block's m columns U come first,
        then the guards."""
        rng = np.random.default_rng(self.seed)
        X = rng.standard_normal((m + guard, H.dimension))
        if H.dtype == np.complex128:
            X = X + 1j * rng.standard_normal(X.shape)
        if guard:
            X[:m] = U.T
        return X

    def spread(self, t: int, coeffs: np.ndarray):
        """Where sector t's basis states have support, the ``_orbit`` of
        the representatives b (pure-Z rows' parities imposed), as full-
        space indices, and each coefficient column's amplitudes there,
        one row per column, chi_t(g) in each orbit row's phase."""
        b = _deposit(np.arange(self.dim, dtype=np.uint64), self.sites)
        for q, m, c, sign in self.parities:
            par = (_count(b, m) + (_parity(c & t) ^ sign)) & 1
            b |= par.astype(np.uint64) << np.uint64(q)
        index, k = _orbit(b, [replace(g, k=g.k + 2 * _parity(comb & t))
                              for _, g, comb in self.orbit])
        ph = (_PHASES.real if self.H.dtype == np.float64 else _PHASES)[k & 3]
        amp = (ph.reshape(1 << len(self.orbit), -1)
               * (coeffs.T / np.sqrt(2.0 ** len(self.orbit)))[:, None])
        return index.astype(np.intp), amp.reshape(coeffs.shape[1], -1)


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
        w, U, res = sec.solve(sec.matrix(t) if sec.dense
                              else sec.hamiltonian(t), min(k, sec.dim))
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
    cols = np.stack([solved[s][1][:, i] for _, s, i in chosen]).T
    res = np.array([solved[s][2][i] for _, s, i in chosen])
    if np.any(res > sec.gate):
        raise SpectraError(
            "; ".join([f"eigensolver did not converge: residuals {res}"]
                      + sec.notes))
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
    solver's notes make up one solve context, ``Spectrum.sectors``.
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


# ---------------------------------------------------------------------------
# closed-form quasiparticle dispersions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DispersionParams:
    g: float
    hx: float = 0.0
    hy: float = 0.0

    def __post_init__(self):
        if not np.isfinite((self.g, self.hx, self.hy)).all():
            raise SpectraError(f"g, hx and hy must be finite, got {self}")


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
    """The band at its minimum, xi = -4|hx|: k = (pi, 0) or (0, 0)."""
    return vortex_dispersion(params, np.pi if params.hx >= 0 else 0.0, 0.0)


def fermion_gap(params: DispersionParams) -> float:
    """The band at its minimum, xi = -4|hy|: kx = pi or 0."""
    return fermion_dispersion(params, np.pi if params.hy >= 0 else 0.0, 0.0)


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

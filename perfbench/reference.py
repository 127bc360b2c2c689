"""Reference computations made apart from the program under test.

Nothing here imports surfcode.  The spin Hamiltonian is formed as a
``scipy.sparse`` matrix from the stabilizer masks and the per-site field
values with this module's own Kronecker products; the pseudo-spin chain,
the register readouts and the gates with dense Kronecker products and
``scipy.linalg.expm``; the thermal model with ``math``.  Two of these
(``GatherMatvec`` and ``chain_step``) also serve as the yardstick that
the run loop times next to the program's rounds.

Bit conventions, stated once:

* spin lattice: site j is bit j of the basis index (site 0 is the least
  significant bit), so site n-1 is the leftmost Kronecker factor;
* pseudo-spin register: qubit 0 is the most significant bit, so qubit 0
  is the leftmost Kronecker factor.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import expm

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


# ---------------------------------------------------------------------------
# spin lattice
# ---------------------------------------------------------------------------


def _site_factor(xbit: int, zbit: int) -> sp.csr_matrix:
    # X^x Z^z on one site
    m = ID2
    if xbit:
        m = SX @ m
    if zbit:
        m = m @ SZ
    return sp.csr_matrix(m)


def pauli_matrix(n: int, x: int, z: int, k: int = 0) -> sp.csr_matrix:
    """Sparse i^k prod_j X_j^{x_j} Z_j^{z_j} on n sites (site 0 = LSB)."""
    out = sp.csr_matrix(np.ones((1, 1), dtype=complex))
    for j in reversed(range(n)):
        out = sp.kron(out, _site_factor((x >> j) & 1, (z >> j) & 1),
                      format="csr")
    return (1j ** (k % 4)) * out


def single_site(n: int, site: int, op: np.ndarray) -> sp.csr_matrix:
    """``op`` on one site, identity elsewhere (site 0 = LSB)."""
    left = sp.identity(1 << (n - 1 - site), dtype=complex, format="csr")
    right = sp.identity(1 << site, dtype=complex, format="csr")
    return sp.kron(sp.kron(left, sp.csr_matrix(op)), right, format="csr")


def spin_hamiltonian(n: int, g: float, stabilizer_masks, field_values
                     ) -> sp.csr_matrix:
    """-g * sum(stabilizers) + sum_i (hx X_i + hy Y_i + hz Z_i), plain frame.

    ``stabilizer_masks`` holds (x, z, k) triples; ``field_values`` is an
    (n, 3) array of per-site (hx, hy, hz).
    """
    dim = 1 << n
    H = sp.csr_matrix((dim, dim), dtype=complex)
    for x, z, k in stabilizer_masks:
        H = H - g * pauli_matrix(n, x, z, k)
    for site in range(n):
        for comp, op in enumerate((SX, SY, SZ)):
            h = float(field_values[site][comp])
            if h:
                H = H + h * single_site(n, site, op)
    H.sum_duplicates()
    H.eliminate_zeros()
    if not np.any(H.data.imag):
        H = H.real.tocsr()
    return H


def spin_terms(n: int, g: float, stabilizer_masks, field_values) -> list:
    """(coefficient, x, z, k) of every term of the spin Hamiltonian: the
    stabilizers with -g, then hx X, hy Y = i X Z and hz Z per site."""
    terms = [(-g, x, z, k) for x, z, k in stabilizer_masks]
    for site in range(n):
        hx, hy, hz = (float(v) for v in field_values[site])
        m = 1 << site
        terms += [(hx, m, 0, 0), (hy, m, m, 1), (hz, 0, m, 0)]
    return [t for t in terms if t[0]]


class GatherMatvec:
    """The spin Hamiltonian applied by gathers, one term at a time:
    (P v)[t] = i^k (-1)^{popcount(z & (t ^ x))} v[t ^ x], with the sign
    split into a per-term scalar and a +-1 array over t.  It is the
    benchmark's yardstick for the program's matvecs: the same kind of
    memory traffic, in code that the program's changes do not touch.
    Every intermediate lives in a buffer allocated here, so its speed
    does not depend on where the allocator puts temporaries after the
    program has run; the result is written into (and returned as)
    ``self.out``."""

    def __init__(self, n: int, g: float, stabilizer_masks, field_values):
        dim = 1 << n
        self.idx = np.arange(dim, dtype=np.int64)
        self.terms = []
        for c, x, z, k in spin_terms(n, g, stabilizer_masks, field_values):
            scal = c * 1j ** (k % 4) * (-1) ** (bin(z & x).count("1") & 1)
            sgn = (1 - 2 * (np.bitwise_count(self.idx & z) & 1)).astype(np.int8)
            self.terms.append((complex(scal), x, sgn))
        self.at = np.empty(dim, dtype=np.int64)
        self.gathered = np.empty(dim, dtype=complex)
        self.coef = np.empty(dim, dtype=complex)
        self.out = np.empty(dim, dtype=complex)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        self.out.fill(0.0)
        for scal, x, sgn in self.terms:
            np.multiply(sgn, scal, out=self.coef)
            if x:
                np.bitwise_xor(self.idx, x, out=self.at)
                # mode "raise" would copy through a hidden buffer
                np.take(v, self.at, out=self.gathered, mode="wrap")
                np.multiply(self.gathered, self.coef, out=self.gathered)
            else:
                np.multiply(v, self.coef, out=self.gathered)
            np.add(self.out, self.gathered, out=self.out)
        return self.out


def norm_bound(g: float, n_stabilizers: int, field_values) -> float:
    """Sum of the absolute term coefficients."""
    return abs(g) * n_stabilizers + float(np.abs(field_values).sum())


def lowest_levels(H: sp.csr_matrix, k: int) -> np.ndarray:
    """Lowest k eigenvalues of the sparse reference matrix by ARPACK."""
    vals = spla.eigsh(H, k=k, which="SA", tol=0, return_eigenvectors=False)
    return np.sort(vals)


def sgate_phases(n: int) -> np.ndarray:
    """Diagonal of the product of single-site phase gates diag(1, i):
    i**popcount(b) for basis index b."""
    b = np.arange(1 << n)
    pop = np.zeros(1 << n, dtype=np.int64)
    for j in range(n):
        pop += (b >> j) & 1
    return (1j) ** (pop % 4)


def to_plain(vectors: np.ndarray, frame: str, n: int) -> np.ndarray:
    """Vectors of S H S^+ (frame 'sgate') mapped back to eigenvectors of H."""
    v = np.asarray(vectors, dtype=complex)
    if frame == "plain":
        return v
    if frame == "sgate":
        ph = sgate_phases(n).conj()
        return ph[:, None] * v if v.ndim == 2 else ph * v
    raise ValueError(f"unknown frame {frame!r}")


def frame_matvec(H: sp.csr_matrix, frame: str, n: int,
                 v: np.ndarray) -> np.ndarray:
    """(frame Hamiltonian) @ v, for a vector given in that frame."""
    if frame == "plain":
        return H @ np.asarray(v, dtype=complex)
    if frame == "sgate":
        ph = sgate_phases(n)
        return ph * (H @ (ph.conj() * np.asarray(v, dtype=complex)))
    raise ValueError(f"unknown frame {frame!r}")


def dense_spin_hamiltonian(n: int, g: float, stabilizer_masks,
                           field_values) -> np.ndarray:
    """The same Hamiltonian from the basis-state action
    P|s> = i^k (-1)^{popcount(z & s)} |s ^ x>, element by element.
    A second construction, used by the tests for n <= 12."""
    dim = 1 << n
    H = np.zeros((dim, dim), dtype=complex)
    for c, x, z, k in spin_terms(n, g, stabilizer_masks, field_values):
        for s in range(dim):
            sign = -1 if bin(z & s).count("1") % 2 else 1
            H[s ^ x, s] += c * (1j ** k) * sign
    return H


def anticommute(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Symplectic form of two (x, z) mask pairs."""
    return (bin(a[0] & b[1]).count("1") + bin(a[1] & b[0]).count("1")) % 2 == 1


# ---------------------------------------------------------------------------
# pseudo-spin register (qubit 0 = MSB)
# ---------------------------------------------------------------------------


def kron_all(mats) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def on_qubits(n: int, ops: dict) -> np.ndarray:
    """Dense operator with ops[q] on qubit q and identity elsewhere."""
    return kron_all([ops.get(q, ID2) for q in range(n)])


def chain_matrix(jxx, jzz, hx, hz) -> np.ndarray:
    n = len(hx)
    H = np.zeros((1 << n, 1 << n), dtype=complex)
    for l in range(n - 1):
        H += jxx[l] * on_qubits(n, {l: SX, l + 1: SX})
        H += jzz[l] * on_qubits(n, {l: SZ, l + 1: SZ})
    for l in range(n):
        H += hx[l] * on_qubits(n, {l: SX})
        H += hz[l] * on_qubits(n, {l: SZ})
    return H


def evolve(H: np.ndarray, amps: np.ndarray, t: float) -> np.ndarray:
    return expm(-1j * t * H) @ amps


def chain_step(jxx, jzz, hx, hz, amps: np.ndarray, t: float) -> np.ndarray:
    """One propagation step as the ramp takes it: the chain matrix, its
    eigendecomposition and the propagator exp(-i t H) applied to amps."""
    w, V = np.linalg.eigh(chain_matrix(jxx, jzz, hx, hz))
    U = (V * np.exp(-1j * t * w)) @ V.conj().T
    return U @ amps


def rotation(theta: float, phi: float, gamma: float) -> np.ndarray:
    """exp(-i gamma Z) exp(-i phi X) exp(-i theta Z)."""
    return (expm(-1j * gamma * SZ) @ expm(-1j * phi * SX)
            @ expm(-1j * theta * SZ))


def readouts(amps: np.ndarray) -> dict:
    """Readout probabilities (1 + <P>)/2 keyed like the program's plan:
    'z:<subset>' for prod tau^z, 'x:<subset>' for prod tau^x, and
    'x:<subset>;rot<q>' for prod tau^x after exp(-i pi/4 tau^z_q)."""
    n = int(round(math.log2(amps.size)))
    quarter = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    out = {}

    def prob(P, psi):
        return 0.5 * (1.0 + float(np.real(np.vdot(psi, P @ psi))))

    for r in range(1, n + 1):
        for s in itertools.combinations(range(n), r):
            name = ",".join(str(q) for q in s)
            out[f"z:{name}"] = prob(on_qubits(n, {q: SZ for q in s}), amps)
            X_s = on_qubits(n, {q: SX for q in s})
            out[f"x:{name}"] = prob(X_s, amps)
            for q in s:
                turned = on_qubits(n, {q: quarter}) @ amps
                out[f"x:{name};rot{q}"] = prob(X_s, turned)
    return out


# ---------------------------------------------------------------------------
# closed forms and the thermal model
# ---------------------------------------------------------------------------


def fermion_splitting(g: float, hy: float, length: int) -> float:
    """2 hy^L / (-8g)^(L-1)."""
    return 2.0 * hy ** length / (-8.0 * g) ** (length - 1)


def vortex_splitting(g: float, hx: float, length: int) -> float:
    """2 hx^L / (-4g)^(L-1)."""
    return 2.0 * hx ** length / (-4.0 * g) ** (length - 1)


def crossover_row(g: float, hx: float, hy: float, L_p: float):
    """(B, T*) with B = max(L ln(4g/|hx|), L ln(8g/|hy|)) over the nonzero
    fields and T* = 4g/B."""
    terms = []
    if hx:
        terms.append(L_p * math.log(4.0 * g / abs(hx)))
    if hy:
        terms.append(L_p * math.log(8.0 * g / abs(hy)))
    B = max(terms)
    return B, 4.0 * g / B
